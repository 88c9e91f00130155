import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from gramata.algebra import (
    BS_A,
    BS_B,
    FreeAbelian,
    FreeGroup,
    Heis,
    HeisenbergGroup,
    Matrix,
    PositiveRationals,
    Word,
    parse_group_compact,
    qplus_embed,
)
from gramata.constructions import (
    CONSTRUCTIONS,
    Fold,
    NamedOracle,
    _block_counts,
    _block_fold,
    _ranks,
    build_anbncn,
    build_composite,
    build_mult,
    build_multiple,
    build_odd_power,
    build_qplus_eqcount,
    build_upow,
    build_word_problem_acceptor,
    construction_budget,
    emit_corpus,
    oracle,
    oracle_names,
    standard_generators,
    transform_qplus_to_sl2q,
    wp_oracle,
)
from gramata.errors import GramataError, MemoryGuard, NotPositive, UnknownOracle
from gramata.model import EFA, Transition, parse_efa, serialize_efa
from gramata.simulate import (
    Verdict,
    accepts,
    all_words,
    constant_policy,
    enumerate_words,
    equiv_check,
    format_word,
)

from gramata.constructions import ODDPOW_A1, ODDPOW_A2, ODDPOW_A3, ODDPOW_A4, UPOW_A1, UPOW_A2, UPOW_A3

from conftest import trie_answers


def run(name, word):
    spec = CONSTRUCTIONS[name]
    return accepts(spec.build(), tuple(word), spec.budget).verdict


# --- the BS(1,2) machines ------------------------------------------------------


def test_upow_matrices_match_generator_identities():
    assert UPOW_A1 == BS_B.inverse() * BS_A.inverse() == Matrix(((2, 0), (1, 1)))
    assert UPOW_A2 == BS_A
    assert UPOW_A3 == BS_B


def test_upow_pump_closed_form():
    # register after k silent pump steps, checked by direct algebra
    for k in range(21):
        assert UPOW_A1**k == Matrix(((2**k, 0), (2**k - 1, 1)))


def test_upow_machine_shape():
    m = build_upow()
    assert len(m.states) == 4
    assert run("upow", "") is Verdict.REJECT
    assert run("upow", "a") is Verdict.ACCEPT
    assert run("upow", "aa") is Verdict.ACCEPT
    assert run("upow", "aaa") is Verdict.REJECT


def test_oddpow_determinants_are_one():
    for mat in (ODDPOW_A1, ODDPOW_A2, ODDPOW_A3, ODDPOW_A4):
        assert mat.det() == 1


def test_oddpow_first_trace():
    assert ODDPOW_A1 == Matrix(((2, 0), (1, Fraction(1, 2))))
    # x = 0 stage of the proof trace
    assert ODDPOW_A1 * ODDPOW_A2**0 == Matrix(((2, 0), (1, Fraction(1, 2))))


def test_oddpow_verdicts():
    assert run("oddpow", "aa") is Verdict.ACCEPT
    assert run("oddpow", "aaaa") is Verdict.REJECT
    assert run("oddpow", "aaaaaaaa") is Verdict.ACCEPT
    assert run("oddpow", "") is Verdict.REJECT


# --- the Heisenberg machines ------------------------------------------------------


def test_mult_verdicts():
    assert run("mult", "xyz") is Verdict.ACCEPT
    assert run("mult", "xxyzz") is Verdict.ACCEPT
    assert run("mult", "xyzz") is Verdict.REJECT
    assert run("mult", "") is Verdict.ACCEPT


def test_composite_verdicts():
    assert run("composite", "xxxx") is Verdict.ACCEPT
    assert run("composite", "xxxxx") is Verdict.REJECT
    assert run("composite", "xxxxxx") is Verdict.ACCEPT
    for n in range(4):
        assert run("composite", "x" * n) is Verdict.REJECT


def test_multiple_verdicts():
    assert run("multiple", "xxyyyy") is Verdict.ACCEPT
    assert run("multiple", "xxyyy") is Verdict.REJECT
    assert run("multiple", "") is Verdict.ACCEPT


def test_anbncn_verdicts():
    assert run("anbncn", "abc") is Verdict.ACCEPT
    assert run("anbncn", "aabbcc") is Verdict.ACCEPT
    assert run("anbncn", "aabc") is Verdict.REJECT
    assert run("anbncn", "") is Verdict.ACCEPT


# --- word-problem acceptors ---------------------------------------------------------


def test_wp_z_basic():
    machine = CONSTRUCTIONS["wp-z"].build()
    policy = construction_budget("wp-z")
    assert accepts(machine, ("a", "a^-1"), policy).verdict is Verdict.ACCEPT
    assert accepts(machine, ("a", "a"), policy).verdict is Verdict.REJECT


def test_wp_f2_exhaustive_against_reduction():
    machine = CONSTRUCTIONS["wp-f2"].build()
    table = {"a": Word.generator(0), "a^-1": Word.generator(0, -1), "b": Word.generator(1), "b^-1": Word.generator(1, -1)}

    def reduces_to_empty(word):
        out = Word()
        for sym in word:
            out = out * table[sym]
        return out.is_identity()

    report = equiv_check(machine, reduces_to_empty, machine.alphabet, 8, construction_budget("wp-f2"))
    assert report.clean


def test_wp_heis_commutator():
    machine = CONSTRUCTIONS["wp-heis"].build()
    policy = construction_budget("wp-heis")
    word = ("a", "b", "a^-1", "b^-1", "c^-1")
    assert accepts(machine, word, policy).verdict is Verdict.ACCEPT
    # and with the commutator the other way: a^-1 b^-1 a b = c as well
    word = ("a^-1", "b^-1", "a", "b", "c^-1")
    assert accepts(machine, word, policy).verdict is Verdict.ACCEPT


def test_wp_acceptors_agree_with_evaluation_on_random_words():
    rng = random.Random(77)
    for name in ("wp-z", "wp-f2", "wp-heis"):
        spec = CONSTRUCTIONS[name]
        machine = spec.build()
        member = oracle(spec.oracle_name).member
        for _ in range(10000):
            word = tuple(rng.choice(machine.alphabet) for _ in range(rng.randint(0, 12)))
            got = accepts(machine, word, spec.budget).verdict
            assert (got is Verdict.ACCEPT) == member(word), (name, word)


def test_wp_acceptor_needs_generators():
    with pytest.raises(GramataError):
        build_word_problem_acceptor(FreeAbelian(1), [])


@pytest.mark.parametrize(
    "names", [("a", "a^-1"), ("a", "a")], ids=["name-is-an-inverse-symbol", "repeated-name"]
)
@pytest.mark.parametrize("build", [wp_oracle, build_word_problem_acceptor])
def test_word_problem_symbols_refuse_colliding_names(build, names):
    # one symbol may not read two elements: an oracle that kept the last
    # one would read a a^-1 as g0 g1, a non-member
    group = FreeGroup(2)
    gens = [(names[0], Word.generator(0)), (names[1], Word.generator(1))]
    with pytest.raises(GramataError, match="generator names collide"):
        build(group, gens)


# --- embedding transform --------------------------------------------------------------


def test_transform_maps_labels():
    source = build_qplus_eqcount()
    target = transform_qplus_to_sl2q(source)
    registers = {t.symbol: t.register for t in target.transitions}
    assert registers["a"] == qplus_embed(Fraction(2))
    assert registers["b"] == qplus_embed(Fraction(1, 2))
    assert target.states == source.states
    assert target.alphabet == source.alphabet


def test_transform_preserves_language():
    source = build_qplus_eqcount()
    target = transform_qplus_to_sl2q(source)
    policy = construction_budget("qplus-eqcount")
    assert enumerate_words(source, 6, policy).words == enumerate_words(target, 6, policy).words


def test_transform_empty_machine():
    group = PositiveRationals()
    empty = EFA(group, ["q0"], ["a"], [], "q0", ["q0"])
    out = transform_qplus_to_sl2q(empty)
    assert out.transitions == ()
    assert out.states == ("q0",)


def test_transform_rejects_bad_labels():
    group = PositiveRationals()
    bad = EFA(group, ["q0"], ["a"], [Transition("q0", "a", "q0", Fraction(-2))], "q0", ["q0"])
    with pytest.raises(NotPositive):
        transform_qplus_to_sl2q(bad)
    with pytest.raises(GramataError):
        transform_qplus_to_sl2q(CONSTRUCTIONS["mult"].build())


# --- oracles ---------------------------------------------------------------------------


def test_oracle_examples():
    assert oracle("UPOW")(("a",) * 4)
    assert not oracle("UPOW")(("a",) * 5)
    assert oracle("COMPOSITE")(("x",) * 9)
    assert oracle("ANBN-STAR")(tuple("abab"))
    assert not oracle("ANBN-STAR")(tuple("aabab"))
    assert oracle("ANBN-STAR")(())
    assert oracle("MULTIPLE")(())
    assert not oracle("MULTIPLE-POS")(())
    assert oracle("MULTIPLE-POS")(("x", "y", "y"))
    assert not oracle("ODDPOW")(("a",) * 4)
    assert oracle("ODDPOW")(("a",) * 8)


def test_wp_oracle_by_name():
    wp = oracle("WP:heis")
    assert wp(("a", "b", "a^-1", "b^-1", "c^-1"))
    assert not wp(("a", "b"))


@pytest.mark.parametrize("spec", ["free:2", "zk:2", "heis"])
def test_wp_oracle_member_matches_a_mul_fold(spec):
    # member folds the generators' compiled right actions; the reference
    # folds the public mul, and a foreign symbol makes a non-member
    group = parse_group_compact(spec)
    gens = standard_generators(group)
    table = dict(gens)
    table.update({name + "^-1": group.inverse(g) for name, g in gens})
    member = wp_oracle(group, gens).member
    for word in all_words(tuple(table) + ("foreign",), 4):
        expected = False
        if "foreign" not in word:
            value = group.identity()
            for sym in word:
                value = group.mul(value, table[sym])
            expected = group.is_identity(value)
        assert member(word) == expected, word


# the per-word predicates that the oracles were before they became folds,
# each reading its word from the first symbol: the reference for the folds;
# the block languages split their words with _scan_blocks below


def _ref_is_power_of_two(n):
    return n >= 1 and n & (n - 1) == 0


def _ref_mult(word):
    counts = _scan_blocks(word, ("x", "y", "z"))
    return counts is not None and counts[2] == counts[0] * counts[1]


def _ref_composite(word):
    n = len(word)
    if any(s != "x" for s in word) or n < 4:
        return False
    return any(n % d == 0 for d in range(2, math.isqrt(n) + 1))


def _ref_multiple(word):
    counts = _scan_blocks(word, ("x", "y"))
    if counts is None:
        return False
    p, m = counts
    return m == 0 if p == 0 else m % p == 0


def _ref_multiple_pos(word):
    counts = _scan_blocks(word, ("x", "y"))
    return counts is not None and counts[0] >= 1 and counts[1] % counts[0] == 0


def _ref_anbncn(word):
    counts = _scan_blocks(word, ("a", "b", "c"))
    return counts is not None and counts[0] == counts[1] == counts[2]


def _ref_anbn_star(word):
    # unique greedy decomposition into a^k b^k blocks, k >= 1
    i, n = 0, len(word)
    while i < n:
        k = 0
        while i < n and word[i] == "a":
            i += 1
            k += 1
        if k == 0:
            return False
        for _ in range(k):
            if i >= n or word[i] != "b":
                return False
            i += 1
    return True


def _ref_wp(name):
    """The word problem by folding the public mul from the identity."""
    group = parse_group_compact(name[3:])
    table = {}
    for gen, g in standard_generators(group):
        table[gen], table[gen + "^-1"] = g, group.inverse(g)

    def member(word):
        value = group.identity()
        for sym in word:
            if sym not in table:
                return False
            value = group.mul(value, table[sym])
        return group.is_identity(value)

    return member


_REFERENCE_ORACLES = {
    "UPOW": lambda w: all(s == "a" for s in w) and _ref_is_power_of_two(len(w)),
    "ODDPOW": lambda w: all(s == "a" for s in w)
    and _ref_is_power_of_two(len(w))
    and (len(w).bit_length() - 1) % 2 == 1,
    "MULT": _ref_mult,
    "COMPOSITE": _ref_composite,
    "MULTIPLE": _ref_multiple,
    "MULTIPLE-POS": _ref_multiple_pos,
    "ANBNCN": _ref_anbncn,
    "ANBN-STAR": _ref_anbn_star,
}
# the corpus's word-problem oracles, and two groups beyond them
_WP_ORACLES = sorted(
    {spec.oracle_name for spec in CONSTRUCTIONS.values() if (spec.oracle_name or "").startswith("WP:")}
    | {"WP:zk:2", "WP:prod(free:1,zk:1)"}
)


def test_every_shipped_oracle_has_a_reference():
    assert sorted(_REFERENCE_ORACLES) == [n for n in oracle_names() if not n.startswith("WP:")]
    assert {"WP:zk:1", "WP:free:2", "WP:heis"} <= set(_WP_ORACLES)


def _fold_alphabets(language):
    """(alphabet, longest length) pairs to walk an oracle's fold over: its
    alphabet, one foreign symbol more, and an unsorted alphabet that
    repeats a symbol, whose words come in all_words order, repeats too."""
    k = len(language.alphabet)
    max_len = {1: 12, 2: 9, 3: 6, 4: 5}.get(k, 4)
    unsorted = tuple(reversed(language.alphabet)) + (language.alphabet[0],)
    return [(language.alphabet, max_len), (language.alphabet + ("w",), max_len - 1), (unsorted, 3)]


@pytest.mark.parametrize("name", sorted(_REFERENCE_ORACLES) + _WP_ORACLES)
def test_fold_oracle_matches_its_per_word_predicate(name):
    language = oracle(name)
    member = language.member
    assert isinstance(member, Fold)
    reference = _REFERENCE_ORACLES[name] if name in _REFERENCE_ORACLES else _ref_wp(name)
    for alphabet, n in _fold_alphabets(language):
        words = list(all_words(alphabet, n))
        expected = [reference(w) for w in words]
        assert list(member.answers(alphabet, range(n + 1))) == expected, alphabet
        # the walks of one length each, put together, are the walk of them all
        assert [a for length in range(n + 1) for a in member.answers(alphabet, (length,))] == expected, alphabet
        assert [member(w) for w in words] == expected, alphabet
        assert [language(w) for w in words] == expected, alphabet


@pytest.mark.parametrize("name", sorted(_REFERENCE_ORACLES) + _WP_ORACLES)
def test_fold_answers_match_the_trie_walk(name):
    # the DAG of (state, symbols left) against the walk of every trie node
    member = oracle(name).member
    for alphabet, n in _fold_alphabets(oracle(name)):
        assert list(member.answers(alphabet, range(n + 1))) == list(trie_answers(member, alphabet, range(n + 1)))


def test_a_fold_memo_counts_against_the_memory_guard(monkeypatch):
    # each length's DAG is charged its nodes and the offsets that they
    # store. Length 2 of WP:zk:1 stores the root and the registers 1 and -1
    # with one symbol left, and 4 offsets: 1 under each child and 2 at the
    # root. Length 3 stores 6 nodes and no offset, and length 4 stores 28
    member = oracle("WP:zk:1").member
    alphabet = oracle("WP:zk:1").alphabet
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "7")
    assert list(member.answers(alphabet, range(4))) == list(trie_answers(member, alphabet, range(4)))
    with pytest.raises(MemoryGuard, match="more than 7 elements"):
        list(member.answers(alphabet, (4,)))
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "6")
    with pytest.raises(MemoryGuard, match="more than 6 elements"):
        list(member.answers(alphabet, (2,)))
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "28")
    assert sum(member.answers(alphabet, (4,))) == 6


def test_unknown_oracle():
    with pytest.raises(UnknownOracle):
        oracle("NOPE")


def test_standard_generators():
    assert [n for n, _ in standard_generators(FreeGroup(2))] == ["a", "b"]
    assert standard_generators(FreeAbelian(2))[1] == ("b", (0, 1))
    assert [n for n, _ in standard_generators(HeisenbergGroup())] == ["a", "b", "c"]
    with pytest.raises(GramataError):
        standard_generators(PositiveRationals())


def _scan_blocks(word, order):
    """The block split by a forward scan of order for every symbol: the
    reference for the block folds' states."""
    counts = [0] * len(order)
    i = 0
    for sym in word:
        while i < len(order) and sym != order[i]:
            i += 1
        if i == len(order):
            return None
        counts[i] += 1
    return counts


@pytest.mark.parametrize("order", [("x", "y", "z"), ("x", "y"), ("a", "b", "c")])
def test_blocks_rank_table_matches_the_scan(order):
    fold = _block_fold(_ranks(order), None)
    symbols = order + ("w",)  # one foreign symbol
    for n in range(8):
        for word in itertools.product(symbols, repeat=n):
            state = fold.resume(fold.start, word)
            counts = None if state is None else list(_block_counts(len(order), state))
            assert counts == _scan_blocks(word, order), word


def _per_word_report(machine, member, alphabet, max_len, policy):
    """(checked, mismatches, budget_exhausted) by equiv_check's rules, from
    one accepts call per word."""
    checked, mismatches, undecided = 0, [], []
    for word in all_words(alphabet, max_len):
        checked += 1
        verdict = accepts(machine, word, policy).verdict
        expected = bool(member(word))
        if verdict is Verdict.BUDGET_EXHAUSTED:
            undecided.append(word)
        elif (verdict is Verdict.ACCEPT) != expected:
            mismatches.append((word, expected, verdict))
    return checked, mismatches, undecided


@pytest.mark.parametrize("depth", [1, 5])
def test_equiv_check_asks_the_oracle_once_per_word_in_order(depth):
    # under budget 1 most words of mult are undecided, under 5 some mismatch
    machine, mult, alphabet, policy = build_mult(), oracle("MULT"), ("x", "y", "z"), constant_policy(depth)
    calls = []

    def counting(word):
        calls.append(word)
        return mult(word)

    report = equiv_check(machine, NamedOracle("MULT", alphabet, counting), alphabet, 5, policy)
    assert calls == list(all_words(alphabet, 5))
    want = _per_word_report(machine, mult, alphabet, 5, policy)
    assert (report.checked, report.mismatches, report.budget_exhausted) == want
    assert report.budget_exhausted and (report.mismatches or depth == 1)


@pytest.mark.parametrize(
    "name, oracle_name, depth",
    [("mult", "MULTIPLE", None), ("multiple", "MULTIPLE-POS", None), ("mult", "MULT", 2), ("anbncn", "ANBNCN", 3)],
)
def test_equiv_check_with_a_fold_oracle_matches_the_per_word_report(name, oracle_name, depth):
    # depth None is the shipped policy; a constant depth leaves words undecided
    spec, language = CONSTRUCTIONS[name], oracle(oracle_name)
    machine, policy = spec.build(), spec.budget if depth is None else constant_policy(depth)
    alphabet = machine.alphabet
    report = equiv_check(machine, language, alphabet, 5, policy)
    want = _per_word_report(machine, _REFERENCE_ORACLES[oracle_name], alphabet, 5, policy)
    assert (report.checked, report.mismatches, report.budget_exhausted) == want
    assert report.mismatches if depth is None else report.budget_exhausted


def test_equiv_check_reports_a_replaced_member():
    wrong = dataclasses.replace(oracle("MULT"), member=lambda word: True)
    report = equiv_check(build_mult(), wrong, ("x", "y", "z"), 4, construction_budget("mult"))
    assert report.mismatches and not report.passed
    assert all(expected is True and verdict is not Verdict.ACCEPT for _, expected, verdict in report.mismatches)


# --- corpus ------------------------------------------------------------------------------


def test_corpus_files_are_fresh(tmp_path, corpus_dir):
    emit_corpus(tmp_path)
    shipped = sorted(p.name for p in corpus_dir.glob("*.efa"))
    regenerated = sorted(p.name for p in tmp_path.glob("*.efa"))
    assert shipped == regenerated
    for name in shipped:
        assert (tmp_path / name).read_text() == (corpus_dir / name).read_text(), name


def test_corpus_parses_to_builders(corpus_dir):
    for name, spec in CONSTRUCTIONS.items():
        text = (corpus_dir / f"{name}.efa").read_text()
        assert parse_efa(text) == spec.build()
