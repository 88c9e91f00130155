import dataclasses
import gc
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramata.algebra import NEVER, FreeAbelian, FreeGroup, Heis, HeisenbergGroup, Word
from gramata.analysis import ball_with_words, growth
from gramata.constructions import CONSTRUCTIONS, build_mult, build_upow, construction_budget, oracle
from gramata.errors import GramataError, MemoryGuard, UnknownSymbol
from gramata.model import EFA, Transition
from gramata.simulate import (
    DISTANCE_LEVELS,
    BudgetPolicy,
    Fold,
    SearchStats,
    Verdict,
    _distances_to_accept,
    _language_verdicts,
    _PrefixSearch,
    _search_bfs,
    _search_dfs,
    _verify_certificate,
    accepts,
    all_words,
    constant_policy,
    default_policy,
    enumerate_words,
    equiv_check,
    format_word,
    gc_paused,
    reachable_register_count,
    tokenize_word,
)

UPOW_BUDGET = construction_budget("upow")


def identity_loop_machine():
    group = FreeAbelian(1)
    t = Transition("q", "a", "q", (0,))
    return EFA(group, ["q"], ["a"], [t], "q", ["q"])


# --- accepts -------------------------------------------------------------------


def test_accepts_upow():
    m = build_upow()
    assert accepts(m, ("a", "a"), UPOW_BUDGET).verdict is Verdict.ACCEPT
    assert accepts(m, ("a",) * 3, UPOW_BUDGET).verdict is Verdict.REJECT
    assert accepts(m, ("a",) * 4, UPOW_BUDGET).verdict is Verdict.ACCEPT
    assert accepts(m, (), UPOW_BUDGET).verdict is Verdict.REJECT


def test_accepts_budget_exhausted():
    m = build_upow()
    result = accepts(m, ("a", "a"), constant_policy(1))
    assert result.verdict is Verdict.BUDGET_EXHAUSTED


def test_accepts_odd_power():
    m = CONSTRUCTIONS["oddpow"].build()
    policy = construction_budget("oddpow")
    assert accepts(m, ("a", "a"), policy).verdict is Verdict.ACCEPT
    assert accepts(m, ("a",) * 4, policy).verdict is Verdict.REJECT


def test_constant_policy_below_one_is_refused():
    with pytest.raises(GramataError, match="at least 1"):
        constant_policy(0)
    # the least budget still takes the loop's one move
    result = accepts(identity_loop_machine(), ("a",), constant_policy(1))
    assert result.verdict is Verdict.ACCEPT and result.stats.accept_depth == 1


def test_a_constant_policy_is_a_budget_policy_of_slope_0():
    policy = constant_policy(3)
    assert policy == BudgetPolicy(slope=0, offset=3)
    assert {policy(m) for m in range(100)} == {3}
    assert pickle.loads(pickle.dumps(policy)) == policy


def test_construction_budget_names_the_default_or_a_construction():
    assert construction_budget("default") is default_policy
    assert construction_budget("mult") is CONSTRUCTIONS["mult"].budget
    with pytest.raises(GramataError, match="unknown budget policy 'nope'"):
        construction_budget("nope")


def test_accepts_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        accepts(identity_loop_machine(), ("b",))


def test_structurally_impossible_word_is_reject_not_exhausted():
    # no path even ignoring the register: z before x in the MULT machine
    m = build_mult()
    result = accepts(m, ("z", "x"), construction_budget("mult"))
    assert result.verdict is Verdict.REJECT


def test_accept_certificate_is_sound():
    m = build_upow()
    result = accepts(m, ("a",) * 4, UPOW_BUDGET)
    assert result.certificate is not None
    # replay the certificate by hand
    state, reg = m.initial, m.group.identity()
    consumed = []
    for t in result.certificate:
        assert t.source == state
        state = t.target
        reg = m.group.mul(reg, t.register)
        if t.symbol is not None:
            consumed.append(t.symbol)
    assert state in m.accepting
    assert tuple(consumed) == ("a",) * 4
    assert m.group.is_identity(reg)


def test_budget_monotonicity_on_shipped_machines():
    for name in ("upow", "mult", "anbncn"):
        spec = CONSTRUCTIONS[name]
        machine = spec.build()
        bigger = lambda m: spec.budget(m) + 16
        for word in all_words(machine.alphabet, 4):
            v1 = accepts(machine, word, spec.budget).verdict
            v2 = accepts(machine, word, bigger).verdict
            assert v1 == v2, (name, word)


def test_dedup_agrees_with_unpruned_search():
    for name in ("upow", "mult"):
        spec = CONSTRUCTIONS[name]
        machine = spec.build()
        for word in all_words(machine.alphabet, 4):
            pruned = accepts(machine, word, spec.budget, dedup=True).verdict
            unpruned = accepts(machine, word, spec.budget, dedup=False).verdict
            assert pruned == unpruned, (name, word)


# --- enumeration and equivalence ------------------------------------------------


def test_enumerate_upow():
    result = enumerate_words(build_upow(), 9, UPOW_BUDGET)
    assert [format_word(w) for w in result.words] == ["a", "aa", "aaaa", "aaaaaaaa"]
    assert result.budget_exhausted == []


def test_a_short_budget_leaves_every_word_of_the_length_undecided():
    # a wp-f2 path reads each symbol in one move, so a budget of 3 decides
    # every word of length <= 3 and none of the 256 words of length 4
    machine = CONSTRUCTIONS["wp-f2"].build()
    policy = constant_policy(3)
    result = enumerate_words(machine, 4, policy)
    assert result.budget_exhausted == [w for w in all_words(machine.alphabet, 4) if len(w) == 4]
    report = equiv_check(machine, oracle("WP:free:2"), machine.alphabet, 4, policy, name="wp-f2")
    assert report.lines()[0] == "machine wp-f2 vs oracle WP:free:2: 341 words up to length 4: 0 mismatches, 256 undecided"
    assert report.lines()[1:] == [f"undecided\t{format_word(w)}" for w in result.budget_exhausted]


def test_enumerate_oddpow():
    machine = CONSTRUCTIONS["oddpow"].build()
    result = enumerate_words(machine, 9, construction_budget("oddpow"))
    assert [format_word(w) for w in result.words] == ["aa", "aaaaaaaa"]


def test_enumerate_mult_matches_oracle():
    machine = build_mult()
    result = enumerate_words(machine, 3, construction_budget("mult"))
    member = oracle("MULT").member
    expected = [w for w in all_words(("x", "y", "z"), 3) if member(w)]
    assert result.words == expected
    # the q = 0 family is part of the language as defined
    assert ("x",) in result.words
    assert [format_word(w) for w in result.words] == ["ε", "x", "y", "xx", "yy", "xxx", "xyz", "yyy"]


def test_enumerate_ordering_is_length_then_lex():
    machine = CONSTRUCTIONS["anbncn"].build()
    result = enumerate_words(machine, 6, construction_budget("anbncn"))
    keys = [(len(w), w) for w in result.words]
    assert keys == sorted(keys)


def test_equiv_check_pass_and_mismatch():
    upow = build_upow()
    report = equiv_check(upow, oracle("UPOW"), ("a",), 10, UPOW_BUDGET)
    assert report.passed and report.clean

    report = equiv_check(upow, oracle("ODDPOW"), ("a",), 8, UPOW_BUDGET)
    assert not report.passed
    assert [format_word(w) for w, _, _ in report.mismatches] == ["a", "aaaa"]


def test_equiv_check_self_consistency():
    machine = CONSTRUCTIONS["anbncn"].build()
    policy = construction_budget("anbncn")
    enumerated = set(enumerate_words(machine, 5, policy).words)
    report = equiv_check(machine, lambda w: w in enumerated, machine.alphabet, 5, policy)
    assert report.clean


# --- configuration counting -----------------------------------------------------


def test_reachable_register_count_identity_machine():
    counts = reachable_register_count(identity_loop_machine(), 5)
    assert counts == [1] * 6


def test_reachable_register_count_z():
    machine = CONSTRUCTIONS["wp-z"].build()
    counts = reachable_register_count(machine, 6, construction_budget("wp-z"))
    assert counts == [2 * n + 1 for n in range(7)]


def test_reachable_register_count_f2():
    machine = CONSTRUCTIONS["wp-f2"].build()
    counts = reachable_register_count(machine, 4, construction_budget("wp-f2"))
    assert counts == [2 * 3**n - 1 for n in range(5)]


# --- word plumbing ---------------------------------------------------------------


def test_tokenize_word():
    assert tokenize_word("", ("a",)) == ()
    assert tokenize_word("ε", ("a",)) == ()
    assert tokenize_word("aab", ("a", "b")) == ("a", "a", "b")
    assert tokenize_word("a a^-1", ("a", "a^-1")) == ("a", "a^-1")
    assert tokenize_word("a^-1", ("a", "a^-1")) == ("a^-1",)
    with pytest.raises(UnknownSymbol):
        tokenize_word("abc", ("a", "b"))


def test_format_word():
    assert format_word(()) == "ε"
    assert format_word(("a", "b")) == "ab"
    assert format_word(("a", "a^-1")) == "a a^-1"


def test_search_memory_guard(monkeypatch):
    from gramata.errors import MemoryGuard

    monkeypatch.setenv("GRAMATA_MEM_GUARD", "3")
    with pytest.raises(MemoryGuard):
        accepts(build_upow(), ("a",) * 8, UPOW_BUDGET)


class CountingMemo(dict):
    """A subtree memo that counts the lookups that found a subtree."""

    hits = 0

    def get(self, key, default=None):
        nodes = super().get(key, default)
        self.hits += nodes is not None
        return nodes


@pytest.mark.parametrize("guard", [None, "10"])
def test_unpruned_search_memo_stays_under_the_memory_guard(monkeypatch, guard):
    # composite's unpruned tree on xxxxx has 167,601 nodes in many repeated
    # subtrees; a memo that fills up stops recording, the walk goes on and
    # no MemoryGuard is raised
    if guard is not None:
        monkeypatch.setenv("GRAMATA_MEM_GUARD", guard)
    spec = CONSTRUCTIONS["composite"]
    machine, word = spec.build(), ("x",) * 5
    result = accepts(machine, word, spec.budget, dedup=False)
    assert result.verdict is Verdict.REJECT
    assert (result.stats.expanded, result.stats.max_depth, result.stats.accept_depth) == (167601, 20, None)
    memo = CountingMemo()
    stats, certificate = _search_dfs(machine, word, spec.budget(5), _distances_to_accept(machine, word[::-1]), memo)
    assert (stats, certificate) == (result.stats, None)
    assert memo.hits > 0
    # filled to the guard of 10, and well under the default one
    assert (len(memo) == 10) if guard else (10 < len(memo) < 2000)


def test_unpruned_search_keeps_no_memo_on_a_deterministic_machine():
    spec = CONSTRUCTIONS["wp-f2"]
    machine, word = spec.build(), ("a", "b", "b^-1", "a^-1")
    memo = {}
    stats, certificate = _search_dfs(machine, word, spec.budget(4), _distances_to_accept(machine, word[::-1]), memo)
    assert (stats.expanded, stats.max_depth, stats.accept_depth) == (4, 4, 4) and len(certificate) == 4
    assert memo == {}


def test_budget_policies_monotone_and_positive():
    policies = [default_policy] + [spec.budget for spec in CONSTRUCTIONS.values()]
    for policy in policies:
        values = [policy(m) for m in range(0, 64)]
        assert all(v >= 1 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


# values recorded from the search before the transition tables were compiled
# once per machine; they pin move order and stats in both search modes
PINNED_SEARCHES = [
    # (machine, word, verdict, (expanded, max_depth, accept_depth) with dedup, the same without, certificate)
    ("upow", "aaaa", "Accept", (59, 10, 10), (90, 14, 10),
     "q0 ~ q0; q0 ~ q0; q0 a q1; q1 a q1; q1 a q1; q1 a q1; q1 ~ q2; q2 ~ q2; q2 ~ q2; q2 ~ q3"),
    ("upow", "aaa", "Reject", (77, 11, None), (83, 11, None), None),
    ("mult", "xyyzz", "Accept", (17, 12, 12), (116, 23, 12),
     "m0 x m0; m0 ~ m1; m1 y m1; m1 y m1; m1 ~ m2; m2 z m2; m2 z m2; m2 ~ m3; m3 ~ m3; m3 ~ m4; m4 ~ m4; m4 ~ m4"),
    ("mult", "xyzz", "Reject", (98, 20, None), (110, 20, None), None),
    ("composite", "xxxx", "Accept", (292, 14, 14), (35514, 18, 14),
     "c0 ~ c1; c1 ~ c2; c2 ~ c3; c3 ~ c4; c4 x c4; c4 x c4; c4 x c4; c4 x c4; c4 ~ c5; c5 ~ c5; c5 ~ c5; c5 ~ c6; c6 ~ c6; c6 ~ c6"),
    ("composite", "xxxxx", "Reject", (990, 20, None), (167601, 20, None), None),
    ("wp-f2", "a b b^-1 a^-1", "Accept", (4, 4, 4), (4, 4, 4), "w0 a w0; w0 b w0; w0 b^-1 w0; w0 a^-1 w0"),
    ("wp-f2", "a b a^-1 b^-1", "Reject", (5, 4, None), (4, 4, None), None),
    ("anbncn", "aabbcc", "Accept", (8, 8, 8), (8, 8, 8),
     "n0 a n0; n0 a n0; n0 ~ n1; n1 b n1; n1 b n1; n1 ~ n2; n2 c n2; n2 c n2"),
]


@pytest.mark.parametrize("name, text, verdict, with_dedup, without_dedup, certificate", PINNED_SEARCHES)
def test_search_stats_pinned(name, text, verdict, with_dedup, without_dedup, certificate):
    spec = CONSTRUCTIONS[name]
    machine = spec.build()
    word = tokenize_word(text, machine.alphabet)
    for dedup, stats in ((True, with_dedup), (False, without_dedup)):
        result = accepts(machine, word, spec.budget, dedup=dedup)
        assert str(result.verdict) == verdict
        assert (result.stats.expanded, result.stats.max_depth, result.stats.accept_depth) == stats
        path = result.certificate and "; ".join(f"{t.source} {t.symbol or '~'} {t.target}" for t in result.certificate)
        assert path == certificate


# sha256 over "machine|word|dedup|verdict|expanded|max_depth|accept_depth|
# certificate" lines for every corpus machine x every word <= 4 x both dedup
# modes, recorded from the searches before they read compiled move tables
SEARCH_DIGEST = "1403dc6f8e937af8873684d382469c67606b0f3850ab373be404d25d0591c0c6"


def test_search_digest_pinned():
    digest = hashlib.sha256()
    for name, spec in sorted(CONSTRUCTIONS.items()):
        machine = spec.build()
        for word in all_words(machine.alphabet, 4):
            for dedup in (True, False):
                r = accepts(machine, word, spec.budget, dedup=dedup)
                path = r.certificate and "; ".join(f"{t.source} {t.symbol or '~'} {t.target}" for t in r.certificate)
                stats = f"{r.stats.expanded}|{r.stats.max_depth}|{r.stats.accept_depth}"
                digest.update(f"{name}|{' '.join(word)}|{dedup}|{r.verdict}|{stats}|{path}\n".encode())
    assert digest.hexdigest() == SEARCH_DIGEST


# --- words with no register-ignoring path ----------------------------------------


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_a_word_without_a_path_reports_the_stats_of_the_search_it_skips(name):
    # accepts() decides a word of infinite d_min from its distance table;
    # the search it skips would expand the root and prune every move
    spec = CONSTRUCTIONS[name]
    machine = spec.build()
    for word in all_words(machine.alphabet, 4 if name == "wp-f2" else 5):
        dist = _distances_to_accept(machine, word[::-1])
        if dist[len(word)].get(machine.initial) is not None:
            continue
        for policy in (spec.budget, constant_policy(1)):
            budget = policy(len(word))
            for dedup, search in ((True, _search_bfs), (False, _search_dfs)):
                result = accepts(machine, word, policy, dedup=dedup)
                assert (result.verdict, result.certificate, result.registers) == (Verdict.REJECT, None, None)
                assert (result.stats, None) == search(machine, word, budget, dist), (word, budget, dedup)


def test_most_mult_words_have_no_path():
    machine = build_mult()
    words = list(all_words(machine.alphabet, 7))
    lacking = [w for w in words if _distances_to_accept(machine, w[::-1])[len(w)].get(machine.initial) is None]
    assert (len(lacking), len(words)) == (3160, 3280)


def test_a_word_without_a_path_runs_no_search(monkeypatch):
    import gramata.simulate as simulate

    def refuse(*args):
        raise AssertionError("searched")

    for kernel in ("_search_bfs", "_search_dfs", "mem_guard"):
        monkeypatch.setattr(simulate, kernel, refuse)
    # words with no path, and words whose paths the budget cannot reach:
    # mult's xyyzz has d_min 9, wp-f2's word d_min 4, wp-heis's d_min 3;
    # the partial machine's words break off at r's missing a move, and end
    # in q, which does not accept
    cases = [
        ("mult", "zxyyzxxyz", CONSTRUCTIONS["mult"].budget, Verdict.REJECT),
        ("mult", "xyyzz", constant_policy(8), Verdict.BUDGET_EXHAUSTED),
        ("wp-f2", "a b a^-1 b^-1", constant_policy(2), Verdict.BUDGET_EXHAUSTED),
        ("wp-heis", "a a b", constant_policy(1), Verdict.BUDGET_EXHAUSTED),
        ("partial", "aaab", default_policy, Verdict.REJECT),
        ("partial", "ac", default_policy, Verdict.REJECT),
    ]
    for name, text, policy, verdict in cases:
        machine = _partial_machine() if name == "partial" else CONSTRUCTIONS[name].build()
        word = tokenize_word(text, machine.alphabet)
        # nor is a register multiplied: every compiled action refuses, which
        # the one walk of a deterministic word would reach
        machine.__dict__["moves"] = {
            key: tuple((target, adv, refuse, t) for target, adv, _, t in moves)
            for key, moves in machine.moves.items()
        }
        for dedup, expanded in ((True, 1), (False, 0)):
            result = accepts(machine, word, policy, dedup=dedup)
            assert (result.verdict, result.stats) == (verdict, SearchStats(expanded, 0)), (name, text, dedup)
        # and a deterministic machine's walk builds no distance level
        assert not machine.deterministic or len(machine.distance_levels.levels) == 1, name


# the sweeps' own search of a word, which also drops configurations beyond
# their states' move floors: (expanded, max_depth, accept_depth) and the verdict
FLOORED_SEARCHES = [
    ("composite", "xxxx", (134, 14, 14), True),
    ("composite", "xxxxx", (210, 18, None), False),
    ("mult", "xyzz", (14, 13, None), False),
]


@pytest.mark.parametrize("name, text, stats, accepted", FLOORED_SEARCHES)
def test_floored_search_stats_pinned(name, text, stats, accepted):
    spec = CONSTRUCTIONS[name]
    machine = spec.build()
    word = tokenize_word(text, machine.alphabet)
    dist = _distances_to_accept(machine, word[::-1])
    found, certificate = _search_bfs(machine, word, spec.budget(len(word)), dist, machine.move_floors)
    assert (found.expanded, found.max_depth, found.accept_depth) == stats
    assert (certificate is not None) == accepted
    if accepted:
        _verify_certificate(machine, word, certificate)


def test_the_composite_sweep_expands_the_nodes_of_its_state_floors():
    # the words of length 1 to 30, each searched as the unary sweep searches
    # it: 328,234 nodes with no floor, 159,293 with one floor for the whole
    # machine, and 108,344 with each state's own, where the tail state c6,
    # which applies H(-1,0,0) alone, pins y and z
    spec = CONSTRUCTIONS["composite"]
    machine = spec.build()
    total = 0
    for n in range(1, 31):
        word = ("x",) * n
        dist = _distances_to_accept(machine, word[::-1])
        total += _search_bfs(machine, word, spec.budget(n), dist, machine.move_floors)[0].expanded
    assert total == 108344


# each machine whose sweep prunes by a move floor, with its gate length
FLOORED_SWEEPS = {"composite": 30, "mult": 7, "multiple": 10, "anbncn": 8}


def test_every_floored_sweep_is_checked():
    machines = {name: spec.build() for name, spec in CONSTRUCTIONS.items()}
    floored = {name for name, m in machines.items() if any(m.move_floors.values()) and not m.deterministic}
    assert floored == set(FLOORED_SWEEPS)


@pytest.mark.parametrize("name, max_len", FLOORED_SWEEPS.items())
def test_floored_sweep_matches_a_search_per_word(name, max_len):
    # the sweep prunes by the floor, accepts does not
    spec = CONSTRUCTIONS[name]
    machine = spec.build()
    swept = list(_language_verdicts(machine, machine.alphabet, max_len, spec.budget))
    alone = [accepts(machine, word, spec.budget).verdict for word in all_words(machine.alphabet, max_len)]
    assert swept == alone


@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")], ids=["unary", "prefix-search"])
def test_the_floor_keeps_a_register_that_returns_in_exactly_the_moves_left(alphabet):
    # up by 1 on each symbol at q, down by 1 on each symbol at p, which a
    # symbol's move enters, and down by epsilon moves at the accepting p.
    # Under t(n) = n + 1, a word of odd length n >= 3 accepts only by going
    # up on (n + 1) / 2 symbols, which leaves a register of exactly the
    # moves left; the prefix search holds it in a level when n >= 3
    group = FreeAbelian(1)
    transitions = [Transition("p", None, "p", (-1,))]
    for s in alphabet:
        transitions += [Transition("q", s, "q", (1,)), Transition("q", s, "p", (-1,)), Transition("p", s, "p", (-1,))]
    machine = EFA(group, ["q", "p"], alphabet, transitions, "q", ["p"])
    policy = BudgetPolicy(slope=1, offset=1)
    words = list(all_words(alphabet, 7))
    verdicts = list(_language_verdicts(machine, alphabet, 7, policy))
    assert verdicts == [accepts(machine, word, policy).verdict for word in words]
    assert all(v is Verdict.ACCEPT for word, v in zip(words, verdicts) if len(word) >= 2)


@pytest.mark.parametrize(
    "group, up, down",
    [
        (FreeAbelian(1), (1,), (-2,)),
        (HeisenbergGroup(), Heis(0, 0, 1), Heis(0, 0, -2)),
        (FreeGroup(2), Word.generator(0), Word(((0, -1), (0, -1)))),
    ],
    ids=repr,
)
@pytest.mark.parametrize("alphabet", [("a",), ("a", "b")], ids=["unary", "prefix-search"])
def test_a_sink_with_no_move_keeps_the_identity_alone(group, up, down, alphabet):
    # q goes up on every symbol and enters the accepting sink f, which has
    # no move, down by two: f's registers are none, so its floor keeps the
    # identity alone, with no division by a scale of 0. Exactly the words
    # of length 2 accept
    transitions = [Transition("q", s, "q", up) for s in alphabet] + [Transition("q", None, "f", down)]
    machine = EFA(group, ["q", "f"], alphabet, transitions, "q", ["f"])
    sink = machine.move_floors["f"]
    assert sink.scale == 1 and sink(group.identity()) == 0 and sink(up) >= NEVER
    policy = constant_policy(6)
    words = list(all_words(alphabet, 4))
    verdicts = list(_language_verdicts(machine, alphabet, 4, policy))
    assert verdicts == [accepts(machine, word, policy).verdict for word in words]
    assert [word for word, v in zip(words, verdicts) if v is Verdict.ACCEPT] == [w for w in words if len(w) == 2]


def test_identity_registers_cost_no_product(monkeypatch):
    # searches multiply by compiled right actions, the public paths by mul:
    # both count, and so does compiling an action
    calls = []
    real_mul, real_right_mul = FreeAbelian.mul, FreeAbelian.right_mul

    def right_mul(self, h):
        calls.append(h)
        act = real_right_mul(self, h)
        return lambda g: calls.append(h) or act(g)

    monkeypatch.setattr(FreeAbelian, "mul", lambda self, g, h: calls.append(h) or real_mul(self, g, h))
    monkeypatch.setattr(FreeAbelian, "right_mul", right_mul)
    loops = [Transition("q", s, "q", (0,)) for s in ("a", "b")]
    machine = EFA(FreeAbelian(1), ["q"], ["a", "b"], loops, "q", ["q"])
    for dedup in (True, False):
        assert accepts(machine, ("a", "b", "a"), dedup=dedup).accepted
    # two letters: the prefix-shared language search
    assert enumerate_words(machine, 3).words == list(all_words(("a", "b"), 3))
    assert reachable_register_count(machine, 3) == [1] * 4
    assert calls == []


@pytest.mark.parametrize(
    "certificate",
    [
        # an epsilon loop the machine does not have, with an identity register
        (Transition("q", None, "q", (0,)), Transition("q", "a", "q", (0,))),
        (Transition("p", "a", "q", (0,)),),  # a broken path
        (Transition("q", "b", "q", (0,)),),  # the wrong symbol
        (),  # not accepting: the input is not consumed
    ],
)
def test_forged_certificate_is_refused(certificate):
    with pytest.raises(GramataError, match="unsound certificate"):
        _verify_certificate(identity_loop_machine(), ("a",), certificate)


# --- the prefix-shared language search ---------------------------------------------


def _per_word(machine, alphabet, max_len, policy):
    return [accepts(machine, w, policy).verdict for w in all_words(alphabet, max_len)]


def _shared(machine, alphabet, max_len, policy):
    return list(_language_verdicts(machine, alphabet, max_len, policy))


def _diff_len(name, machine):
    if len(machine.alphabet) == 1:
        return 12
    return 4 if name == "wp-heis" else 6


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_shared_search_matches_per_word_search(name):
    spec = CONSTRUCTIONS[name]
    machine = spec.build()
    n = _diff_len(name, machine)
    assert _shared(machine, machine.alphabet, n, spec.budget) == _per_word(machine, machine.alphabet, n, spec.budget)


@pytest.mark.parametrize("name, depth", [("mult", 8), ("anbncn", 6)])
def test_shared_search_matches_per_word_search_under_a_tight_budget(name, depth):
    spec = CONSTRUCTIONS[name]
    machine = spec.build()
    policy = constant_policy(depth)
    words = list(all_words(machine.alphabet, 6))
    expected = _per_word(machine, machine.alphabet, 6, policy)
    assert _shared(machine, machine.alphabet, 6, policy) == expected
    assert Verdict.BUDGET_EXHAUSTED in expected
    if name == "mult":
        # words the shipped budget accepts but this one rejects: the
        # accepting paths were cut by the budget, not impossible
        shipped = _per_word(machine, machine.alphabet, 6, spec.budget)
        assert any(v is Verdict.REJECT and s is Verdict.ACCEPT for v, s in zip(expected, shipped)), words


def test_shared_search_matches_per_word_search_under_a_budget_that_is_not_monotone():
    # lengths 2 and 4 leave 16 moves after their symbols, the last length
    # only 4: the tails must reach as deep as the budget of any length allows
    machine = build_mult()
    policy = (4, 3, 18, 5, 20, 9, 10).__getitem__
    expected = _per_word(machine, machine.alphabet, 6, policy)
    assert {Verdict.ACCEPT, Verdict.BUDGET_EXHAUSTED} <= set(expected[1:])
    assert _shared(machine, machine.alphabet, 6, policy) == expected


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_shared_search_matches_per_word_search_on_random_machines(data):
    k = data.draw(st.sampled_from([1, 2]), label="rank")
    states = [f"s{i}" for i in range(data.draw(st.integers(1, 4), label="states"))]
    alphabet = ("a", "b", "c")[: data.draw(st.integers(2, 3), label="letters")]
    register = st.tuples(*[st.integers(-1, 1)] * k)
    transition = st.builds(
        Transition, st.sampled_from(states), st.sampled_from((None,) + alphabet), st.sampled_from(states), register
    )
    transitions = data.draw(st.lists(transition, max_size=8), label="transitions")
    accepting = data.draw(st.lists(st.sampled_from(states), max_size=2), label="accepting")
    machine = EFA(FreeAbelian(k), states, alphabet, transitions, states[0], accepting)
    policy = constant_policy(data.draw(st.integers(1, 9), label="budget"))
    assert _shared(machine, alphabet, 4, policy) == _per_word(machine, alphabet, 4, policy)


def _epsilon_loop_machine():
    # an epsilon loop adding 1 and a read of a at the accepting initial
    # state q; b has no move
    transitions = [Transition("q", None, "q", (1,)), Transition("q", "a", "q", (0,))]
    return EFA(FreeAbelian(1), ["q"], ["a", "b"], transitions, "q", ["q"])


def _unary_branching_machine():
    # two moves on a from the accepting initial state, one into a dead end
    group = FreeAbelian(1)
    transitions = [Transition("q", "a", "q", (0,)), Transition("q", "a", "p", (0,))]
    return EFA(group, ["q", "p"], ["a"], transitions, "q", ["q"])


@pytest.mark.parametrize(
    "policy, expected",
    [(lambda m: m - 1, Verdict.BUDGET_EXHAUSTED), (default_policy, Verdict.ACCEPT)],
    ids=["below-zero", "default"],
)
@pytest.mark.parametrize(
    "build, max_len",
    [
        (_epsilon_loop_machine, 8),  # two letters, not deterministic: the prefix search
        (CONSTRUCTIONS["wp-f2"].build, 4),  # deterministic: the path sweep
        (_unary_branching_machine, 8),  # one letter, not deterministic: a search per word
        (identity_loop_machine, 8),  # one letter, deterministic: the path sweep
    ],
    ids=["prefix-search", "path-sweep", "unary", "unary-path"],
)
def test_every_decider_gives_the_empty_word_one_verdict(build, max_len, policy, expected):
    # each machine's initial state accepts, so the empty path has 0 moves:
    # BudgetExhausted exactly when the budget is below 0
    machine = build()
    assert accepts(machine, (), policy).verdict is expected
    assert accepts(machine, (), policy, dedup=False).verdict is expected
    assert _shared(machine, machine.alphabet, max_len, policy)[0] is expected


@pytest.mark.parametrize(
    "name, max_len, checked",
    [
        ("mult", 6, 1093),  # three letters: the prefix search, past 256 words
        ("composite", 20, 21),  # one letter: a search per word
        ("wp-f2", 4, 341),  # deterministic: the path sweep
    ],
)
def test_no_sweep_starts_a_process(monkeypatch, name, max_len, checked):
    import multiprocessing.process
    import os
    import subprocess

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep started a process")

    spec = CONSTRUCTIONS[name]
    machine = spec.build()
    member = oracle(spec.oracle_name)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    report = equiv_check(machine, member, machine.alphabet, max_len, spec.budget, workers=2)
    assert (report.checked, report.mismatches, report.budget_exhausted) == (checked, [], [])
    words = enumerate_words(machine, max_len, spec.budget, workers=2)
    assert words.budget_exhausted == []
    assert words.words == [w for w in all_words(machine.alphabet, max_len) if member.member(w)]


@pytest.mark.parametrize("name", ["mult", "composite", "wp-f2"])
def test_a_negative_max_len_is_refused_by_name(name):
    spec = CONSTRUCTIONS[name]
    machine = spec.build()
    with pytest.raises(GramataError, match="max_len must be at least 0, got -1"):
        enumerate_words(machine, -1, spec.budget)
    with pytest.raises(GramataError, match="max_len must be at least 0, got -1"):
        equiv_check(machine, oracle(spec.oracle_name), machine.alphabet, -1, spec.budget)


def test_shared_search_memory_guard(monkeypatch):
    from gramata.errors import MemoryGuard

    monkeypatch.setenv("GRAMATA_MEM_GUARD", "5")
    with pytest.raises(MemoryGuard):
        enumerate_words(build_mult(), 4, construction_budget("mult"))


def _f2_loop_machine(register):
    # q a f [register], and epsilon loops on both generators of F2 and their
    # inverses at the accepting state f; b has no move
    group = FreeGroup(2)
    loops = [Transition("f", None, "f", group.parse_element(g)) for g in ("g0", "g0^-1", "g1", "g1^-1")]
    read = Transition("q", "a", "f", group.parse_element(register))
    return EFA(group, ["q", "f"], ["a", "b"], [read] + loops, "q", ["f"])


def test_shared_search_grows_the_epsilon_tails_only_as_far_as_its_words_need():
    # under the default budget, a table of every tail the budget allows
    # would be the F2 ball of radius 24 or more, far past the memory guard;
    # the one lookup a reaches at distance 0; the empty word, which
    # accepts decides, needs no tail
    machine = _f2_loop_machine("e")
    assert enumerate_words(machine, 3).words == [("a",)]
    search = _PrefixSearch(machine, machine.alphabet, 3, default_policy)
    assert [v for length in range(1, 4) for v in search.verdicts(length)].count(Verdict.ACCEPT) == 1
    assert len(search.tails.entries) == 1


def test_shared_search_looks_up_no_tail_of_the_empty_word_past_its_budget():
    # q reaches f by 4 epsilon moves, and b leads to x, 3 moves from f: the
    # empty word and b both need 4 moves, past the budget of 3. accepts
    # decides the empty word without the search; b's lookup is pruned, as
    # a search per word prunes it, and grows nothing
    machine = _f2_loop_machine("e")
    identity = machine.group.identity()
    chain = [Transition(a, None, b, identity) for a, b in zip("qxyz", "xyzf")] + [Transition("q", "b", "x", identity)]
    machine = EFA(
        machine.group, [*machine.states, "x", "y", "z"], machine.alphabet, [*machine.transitions, *chain], "q", ["f"]
    )
    policy = constant_policy(3)
    assert accepts(machine, (), policy).verdict is Verdict.BUDGET_EXHAUSTED
    assert _shared(machine, machine.alphabet, 0, policy) == [Verdict.BUDGET_EXHAUSTED]
    search = _PrefixSearch(machine, machine.alphabet, 3, policy)
    verdicts = [v for length in range(1, 4) for v in search.verdicts(length)]
    assert verdicts == _per_word(machine, machine.alphabet, 3, policy)[1:]
    assert verdicts[:2] == [Verdict.ACCEPT, Verdict.BUDGET_EXHAUSTED]
    assert len(search.tails.entries) == 1


def test_shared_search_grows_no_epsilon_tails_its_word_cannot_enter():
    # a reaches p, whose one epsilon move leaves g0 in the register: no
    # tail. The loops on s are behind b, and a table grown for a's miss
    # until the budget ran out would hold the F2 ball of radius 35
    group = FreeGroup(2)
    transitions = [
        Transition("q", "a", "p", group.identity()),
        Transition("q", "b", "s", group.identity()),
        Transition("p", None, "f", group.parse_element("g0")),
        Transition("s", None, "f", group.identity()),
    ] + [Transition("s", None, "s", group.parse_element(g)) for g in ("g0", "g0^-1", "g1", "g1^-1")]
    machine = EFA(group, ["q", "p", "s", "f"], ["a", "b"], transitions, "q", ["f"])
    search = _PrefixSearch(machine, machine.alphabet, 1, default_policy)
    assert list(search.verdicts(1)) == [Verdict.REJECT, Verdict.ACCEPT]
    # f, then p and s one move back, then s's loops, where p has no path
    assert len(search.tails.entries) == 7
    assert enumerate_words(machine, 1).words == [("b",)]


def test_shared_search_epsilon_tails_count_against_the_memory_guard(monkeypatch):
    # the forward search stores the root alone; a needs the tail of g0^4,
    # found in the F2 ball of radius 4, 161 entries
    from gramata.errors import MemoryGuard

    machine = _f2_loop_machine("g0 g0 g0 g0")
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "100")
    with pytest.raises(MemoryGuard, match="more than 100 elements"):
        enumerate_words(machine, 1)
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "162")
    assert enumerate_words(machine, 1).words == [("a",)]
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "161")
    with pytest.raises(MemoryGuard):
        enumerate_words(machine, 1)
    # the tails stay stored for the later words: with a loop on b at q, ba
    # needs them, the root and the level below b, 163 elements
    loop = Transition("q", "b", "q", machine.group.identity())
    machine = EFA(machine.group, machine.states, machine.alphabet, machine.transitions + (loop,), "q", ["f"])
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "163")
    assert enumerate_words(machine, 2).words == [("a",), ("b", "a")]
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "162")
    with pytest.raises(MemoryGuard):
        enumerate_words(machine, 2)


def test_shared_search_unknown_symbol_before_any_oracle_call():
    calls = []

    def member(word):
        calls.append(word)
        return False

    with pytest.raises(UnknownSymbol):
        equiv_check(build_mult(), member, ("x", "y", "w"), 3, construction_budget("mult"))
    assert calls == []
    # nor does a Fold oracle take a step or a final test
    mult = oracle("MULT").member
    steps = []
    fold = Fold(
        mult.start,
        lambda state, sym: steps.append(sym) or mult.step(state, sym),
        lambda state: steps.append(state) or mult.final(state),
    )
    with pytest.raises(UnknownSymbol):
        equiv_check(build_mult(), fold, ("x", "y", "w"), 3, construction_budget("mult"))
    assert steps == []
    # the empty word alone needs no symbol
    assert equiv_check(build_mult(), member, ("w",), 0, construction_budget("mult")).checked == 1


def test_shared_search_verifies_each_accept_once(monkeypatch):
    from gramata import simulate

    verified = []
    real = simulate._verify_certificate

    def counting(efa, word, certificate):
        verified.append(word)
        real(efa, word, certificate)

    monkeypatch.setattr(simulate, "_verify_certificate", counting)
    result = enumerate_words(build_mult(), 6, construction_budget("mult"))
    assert verified == result.words and len(result.words) == 16


# --- the path run of deterministic machines -------------------------------------

DETERMINISTIC = ["qplus-eqcount", "qplus-eqcount-sl2q", "wp-f2", "wp-heis", "wp-z"]


@pytest.mark.parametrize("guard, first_raise", [(3, 3), (6, 6)])
def test_path_run_memory_guard(monkeypatch, guard, first_raise):
    # the root and the path's configurations count against the guard, as in
    # the breadth-first search
    from gramata.errors import MemoryGuard

    machine = CONSTRUCTIONS["wp-z"].build()
    assert machine.deterministic
    monkeypatch.setenv("GRAMATA_MEM_GUARD", str(guard))
    for k in range(1, first_raise + 3):
        if k < first_raise:
            assert accepts(machine, ("a",) * k).verdict is Verdict.REJECT, k
        else:
            with pytest.raises(MemoryGuard):
                accepts(machine, ("a",) * k)


def test_path_run_memory_guard_spares_the_accepting_end(monkeypatch):
    # a a^-1 accepts at depth 2: the search stores the root and the first
    # configuration, and the accepting one ends it before it is stored.
    # The unpruned walk never raises
    machine = CONSTRUCTIONS["wp-z"].build()
    word = ("a", "a^-1")
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "1")
    with pytest.raises(MemoryGuard, match="more than 1 elements"):
        accepts(machine, word)
    assert accepts(machine, word, dedup=False).accepted
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "2")
    assert accepts(machine, word).accepted


@pytest.mark.parametrize("name", DETERMINISTIC)
def test_path_run_matches_the_compiled_search(name):
    spec = CONSTRUCTIONS[name]
    _check_path_decides_as_the_general_search(spec.build(), spec.budget, 3 if name == "wp-heis" else 4)


def _general_copy(machine):
    """The machine again, marked nondeterministic, so every decider runs
    its general kernel on it."""
    copy = EFA(machine.group, machine.states, machine.alphabet, machine.transitions, machine.initial, machine.accepting)
    copy.__dict__["deterministic"] = False
    return copy


def _partial_machine():
    # deterministic but partial: p has no b or c move and r no a move, so a
    # word can break off in mid-word, and a word can end in q, which is not
    # accepting; ab and aac return to p with the identity, aa ends in r
    # with the register 2
    ts = [
        Transition("p", "a", "q", (1,)),
        Transition("q", "a", "r", (1,)),
        Transition("q", "b", "p", (-1,)),
        Transition("q", "c", "q", (0,)),
        Transition("r", "b", "q", (-1,)),
        Transition("r", "c", "p", (-2,)),
    ]
    return EFA(FreeAbelian(1), ["p", "q", "r"], ["a", "b", "c"], ts, "p", ["p", "r"])


def _unary_parity_machine():
    # a^n for even n: each a steps between q and p, and the register is
    # back at 0 on every return to q
    ts = [Transition("q", "a", "p", (1,)), Transition("p", "a", "q", (-1,))]
    return EFA(FreeAbelian(1), ["q", "p"], ["a"], ts, "q", ["q"])


# every deterministic corpus machine, a unary one and a partial one, with
# its policy and the longest words to compare
WALK_CASES = [
    pytest.param(CONSTRUCTIONS[name].build(), CONSTRUCTIONS[name].budget, 3 if name == "wp-heis" else 4, id=name)
    for name in DETERMINISTIC
] + [
    pytest.param(_unary_parity_machine(), default_policy, 9, id="unary-parity"),
    pytest.param(_partial_machine(), default_policy, 4, id="partial"),
]
# constant budgets, and one that is not monotone
WALK_POLICIES = [constant_policy(d) for d in range(1, 7)] + [(1, 3, 1, 5, 2, 9, 4, 6, 7, 8).__getitem__]


def _check_path_decides_as_the_general_search(machine, budget, max_len):
    """accepts() on a deterministic machine, which walks a word's one path,
    against accepts() on its nondeterministic copy, which runs the general
    kernels: the same verdict, stats, certificate and registers in both
    modes, under every budget from -1 to 6, the non-monotone walk policy
    and the machine's own."""
    assert machine.deterministic
    general = _general_copy(machine)
    policies = [(lambda _, d=d: d) for d in range(-1, 7)] + [WALK_POLICIES[-1], budget]
    for word in all_words(machine.alphabet, max_len):
        for policy in policies:
            for dedup in (True, False):
                path, search = (accepts(m, word, policy, dedup=dedup) for m in (machine, general))
                assert path == search, (word, policy(len(word)), dedup)


@pytest.mark.parametrize("machine, budget, max_len", WALK_CASES)
def test_unpruned_path_walk_matches_the_tree_walk(machine, budget, max_len):
    _check_path_decides_as_the_general_search(machine, budget, max_len)


@pytest.mark.parametrize("machine, budget, max_len", WALK_CASES)
def test_path_sweep_matches_the_prefix_search(monkeypatch, machine, budget, max_len):
    from gramata import simulate

    general = _general_copy(machine)
    alphabet = tuple(sorted(machine.alphabet))
    policies = WALK_POLICIES + [budget]
    expected = [list(_language_verdicts(general, alphabet, max_len, policy)) for policy in policies]
    verified = []
    real = simulate._verify_certificate

    def counting(efa, word, certificate):
        verified.append(word)
        return real(efa, word, certificate)

    monkeypatch.setattr(simulate, "_verify_certificate", counting)
    for policy, verdicts in zip(policies, expected):
        verified.clear()
        assert list(_language_verdicts(machine, alphabet, max_len, policy)) == verdicts
        # every Accept of the walk, and nothing else, is replayed
        assert verified == [w for w, v in zip(all_words(alphabet, max_len), verdicts) if v is Verdict.ACCEPT]


def _one_move_machine():
    # p a q and nothing else: every path ends after one move
    return EFA(FreeAbelian(1), ["p", "q"], ["a"], [Transition("p", "a", "q", (0,))], "p", ["q"])


@pytest.mark.parametrize("guard", [3, 6])
def test_path_sweep_memory_guard(monkeypatch, guard):
    # at length L the walk holds the root and at most L nodes, so the first
    # length to pass the guard is the guard itself: on wp-z, where every
    # word has a path, and on a machine whose paths all end short of that
    # depth, since the guard is checked before a length is walked
    monkeypatch.setenv("GRAMATA_MEM_GUARD", str(guard))
    for machine in (CONSTRUCTIONS["wp-z"].build(), _one_move_machine()):
        assert machine.deterministic
        assert enumerate_words(machine, guard - 1).words
        with pytest.raises(MemoryGuard, match=f"more than {guard} elements"):
            enumerate_words(machine, guard)


@pytest.mark.parametrize(
    "machine, text",
    [
        (_partial_machine(), "bz"),  # breaks at p's missing b move, z later
        (_partial_machine(), "az"),  # breaks at z, which no move reads
        (CONSTRUCTIONS["wp-heis"].build(), "a x"),
        (CONSTRUCTIONS["wp-f2"].build(), "a a^-1 x a"),
        (build_mult(), "x z q"),  # the general decider, for comparison
    ],
)
def test_an_unknown_symbol_is_refused_before_the_policy_is_asked(machine, text):
    def refuse(m):
        raise AssertionError("the policy was asked")

    word = tuple(text.split()) if " " in text else tuple(text)
    for dedup in (True, False):
        with pytest.raises(UnknownSymbol):
            accepts(machine, word, refuse, dedup=dedup)


# --- the distance memo ------------------------------------------------------------


def test_distance_memo_stays_within_its_bound():
    # a word three times longer than the memo may hold: wp-z has one state,
    # accepting, and every symbol loops on it, so dist[r] is {w0: r}
    machine = CONSTRUCTIONS["wp-z"].build()
    n = 3 * DISTANCE_LEVELS + 1
    word = ("a", "a^-1") * (n // 2) + ("a",)
    memo = machine.distance_levels
    assert _distances_to_accept(machine, word[::-1]) == [{"w0": r} for r in range(n + 1)]
    assert len(memo.levels) == len(memo.index) == len(memo.steps) <= DISTANCE_LEVELS
    # d_min = n decides BudgetExhausted against Reject (the register is 1)
    assert accepts(machine, word, constant_policy(n - 1)).verdict is Verdict.BUDGET_EXHAUSTED
    assert accepts(machine, word, constant_policy(n)).verdict is Verdict.REJECT
    assert accepts(machine, ("a", "a^-1")).accepted
    assert len(memo.levels) <= DISTANCE_LEVELS


# --- the paused collector -------------------------------------------------------


def _gc_recording(group, states):
    """A copy of group whose products, through mul and through each right
    action, record whether the cyclic collector is on."""
    base = type(group)

    def mul(self, g, h):
        states.append(gc.isenabled())
        return base.mul(self, g, h)

    def right_mul(self, h):
        act = base.right_mul(self, h)

        def recorded(g):
            states.append(gc.isenabled())
            return act(g)

        return recorded

    cls = type(f"GcRecording{base.__name__}", (base,), {"mul": mul, "right_mul": right_mul})
    return cls(*(getattr(group, f.name) for f in dataclasses.fields(group)))


def _unary_counter(group):
    """Accepts a^n for every n: count up on a, then count down by epsilon
    moves at f. The epsilon moves send the word through the compiled BFS."""
    ts = [Transition("q", "a", "q", (1,)), Transition("q", None, "f", (0,)), Transition("f", None, "f", (-1,))]
    return EFA(group, ["q", "f"], ["a"], ts, "q", ["f"])


def _table_builders(states):
    """Each kernel that runs with the collector paused, on a recording group."""
    f2 = _gc_recording(FreeGroup(2), states)
    gens = [("a", Word.generator(0)), ("b", Word.generator(1))]
    return {
        "growth": lambda: growth(f2, gens, 3),
        "ball_with_words": lambda: ball_with_words(f2, gens, 3),
        "reachable_register_count": lambda: reachable_register_count(
            _unary_counter(_gc_recording(FreeAbelian(1), states)), 3
        ),
    }


@pytest.mark.parametrize("kernel", ["growth", "ball_with_words", "reachable_register_count"])
def test_table_builders_run_with_the_collector_paused(kernel):
    states = []
    _table_builders(states)[kernel]()
    assert states and not any(states)
    assert gc.isenabled()


def test_unary_sweep_pauses_the_collector_per_word_but_not_for_the_oracle():
    states, oracle_states = [], []
    machine = _unary_counter(_gc_recording(FreeAbelian(1), states))

    def member(word):
        oracle_states.append(gc.isenabled())
        return True

    report = equiv_check(machine, member, ("a",), 6)
    assert report.clean and report.checked == 7
    assert states and not any(states)
    assert oracle_states == [True] * 7
    assert gc.isenabled()


@pytest.mark.parametrize("kernel", ["growth", "ball_with_words", "reachable_register_count"])
def test_the_collector_resumes_after_a_memory_guard(monkeypatch, kernel):
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "10")
    with pytest.raises(MemoryGuard):
        _table_builders([])[kernel]()
    assert gc.isenabled()


def test_a_collector_switched_off_by_the_caller_stays_off(monkeypatch):
    states = []
    builders = _table_builders(states)
    gc.disable()
    try:
        for build in builders.values():
            build()
        assert not gc.isenabled()
        assert gc_paused(sorted, [2, 1]) == [1, 2]
        assert not gc.isenabled()
        monkeypatch.setenv("GRAMATA_MEM_GUARD", "10")
        with pytest.raises(MemoryGuard):
            builders["growth"]()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert states and not any(states)


def test_gc_paused_returns_the_value_and_resumes_after_an_exception():
    assert gc_paused(divmod, 7, 2) == (3, 1)
    assert gc.isenabled()
    with pytest.raises(ZeroDivisionError):
        gc_paused(divmod, 7, 0)
    assert gc.isenabled()
