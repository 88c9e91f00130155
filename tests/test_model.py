import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramata.algebra import FreeAbelian, Matrix, MatrixGroup, PositiveRationals
from gramata.constructions import CONSTRUCTIONS
from gramata.errors import EfaParseError, GramataError
from gramata.model import EFA, Transition, parse_efa, serialize_efa, validate
from gramata.simulate import Verdict, accepts, all_words, enumerate_words, format_word, tokenize_word

from conftest import ALL_GROUPS, CORPUS_DIR, random_element

MINIMAL = """\
group matrix-Q 2 det=1
states q0
initial q0
accepting q0
alphabet a
transitions
q0 a q0 [[1,0],[0,1]]
"""


def test_parse_minimal_machine():
    m = parse_efa(MINIMAL)
    assert m.states == ("q0",)
    assert m.initial == "q0"
    assert m.accepting == frozenset({"q0"})
    assert m.transitions[0].register == Matrix.identity(2)


def test_parse_det_constraint_violation():
    bad = MINIMAL.replace("[[1,0],[0,1]]", "[[1,0],[0,2]]")
    with pytest.raises(EfaParseError) as err:
        parse_efa(bad)
    assert err.value.cause == "determinant-constraint"
    assert err.value.line == 7


@pytest.mark.parametrize(
    "group, literal, cause",
    [
        ("matrix-Z 2", "[[1,0],[0,2]]", "determinant-constraint"),
        ("positive-rationals", "-1/2", "not-positive"),
        ("positive-rationals", "1/0", "zero-denominator"),
        ("free 2", "g2", "element-group-mismatch"),
        ("direct-product (heisenberg) (positive-rationals)", "(H(0,0,0)|-1)", "not-positive"),
    ],
)
def test_a_register_that_parse_element_refuses_keeps_its_line_and_column(group, literal, cause):
    # parse_element checks what it returns, so parse_efa checks no register
    # again; its refusals point at the literal
    text = f"group {group}\nstates q\ninitial q\naccepting q\nalphabet a\ntransitions\n  q a q {literal}\n"
    with pytest.raises(EfaParseError) as err:
        parse_efa(text)
    assert (err.value.cause, err.value.line, err.value.column) == (cause, 7, 9)


def test_parse_syntax_error_reports_line():
    bad = MINIMAL.replace("q0 a q0 [[1,0],[0,1]]", "q0 a q0")
    with pytest.raises(EfaParseError) as err:
        parse_efa(bad)
    assert err.value.line == 7


def test_transitions_before_the_group_are_refused():
    text = "states q\ninitial q\naccepting q\nalphabet a\ntransitions\n  q a q [0]\ngroup free-abelian 1\n"
    with pytest.raises(EfaParseError, match="transitions before group declaration") as err:
        parse_efa(text)
    assert err.value.line == 6


def test_parse_missing_section():
    with pytest.raises(EfaParseError) as err:
        parse_efa("group heisenberg\nstates q0\n")
    assert "missing sections" in str(err.value)


@pytest.mark.parametrize("section", ["group", "states", "initial", "accepting", "alphabet"])
def test_a_repeated_section_is_refused_at_its_repeat(section):
    # a second header of the same name does not silently win
    lines = MINIMAL.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(section + " "))
    lines.insert(header + 1, lines[header])
    with pytest.raises(EfaParseError, match=f"repeated section '{section}'") as err:
        parse_efa("\n".join(lines) + "\n")
    assert err.value.line == header + 2


def test_sections_parse_in_any_order():
    lines = MINIMAL.splitlines()
    reordered = lines[4::-1] + lines[5:]
    assert reordered[0] == "alphabet a"
    assert parse_efa("\n".join(reordered) + "\n") == parse_efa(MINIMAL)


def test_parse_unknown_section():
    with pytest.raises(EfaParseError):
        parse_efa(MINIMAL + "wibble 3\n")


def test_round_trip_every_construction():
    for name, spec in CONSTRUCTIONS.items():
        machine = spec.build()
        text = serialize_efa(machine)
        again = parse_efa(text)
        assert again == machine, name
        assert serialize_efa(again) == text, name


def test_registers_past_the_digit_limit_round_trip():
    # 2^16000 has 4,817 decimal digits, past what str() converts by default
    group = PositiveRationals()
    t = Transition("q", "a", "q", Fraction(1, 2**16000))
    machine = EFA(group, ["q"], ["a"], [t], "q", ["q"])
    text = serialize_efa(machine)
    assert parse_efa(text) == machine
    assert serialize_efa(parse_efa(text)) == text


def test_serialization_is_canonical():
    group = FreeAbelian(1)
    t1 = Transition("q0", "a", "q0", (1,))
    t2 = Transition("q0", None, "q1", (0,))
    a = EFA(group, ["q1", "q0"], ["a"], [t1, t2], "q0", ["q1"])
    b = EFA(group, ["q0", "q1"], ["a"], [t2, t1], "q0", ["q1"])
    assert a == b
    assert serialize_efa(a) == serialize_efa(b)


def test_comments_and_blank_lines_ignored():
    text = "# a machine\n\n" + MINIMAL.replace("transitions\n", "transitions\n# loop:\n")
    assert parse_efa(text) == parse_efa(MINIMAL)


def test_validate_unknown_accepting_state():
    group = FreeAbelian(1)
    m = EFA(group, ["q0"], ["a"], [], "q0", ["q9"])
    codes = [d.code for d in validate(m)]
    assert codes == ["unknown-accepting-state"]


def test_validate_empty_alphabet():
    m = EFA(FreeAbelian(1), ["q0"], [], [], "q0", ["q0"])
    assert [d.code for d in validate(m)] == ["empty-alphabet"]
    with pytest.raises(EfaParseError) as err:
        parse_efa(MINIMAL.replace("alphabet a\n", "alphabet\n").replace("q0 a q0", "q0 ~ q0"))
    assert err.value.cause == "empty-alphabet"


def test_validate_unknown_symbol():
    group = FreeAbelian(1)
    t = Transition("q0", "b", "q0", (0,))
    m = EFA(group, ["q0"], ["a"], [t], "q0", ["q0"])
    codes = [d.code for d in validate(m)]
    assert "unknown-symbol" in codes


def test_validate_rejects_unserializable_names():
    m = EFA(FreeAbelian(1), ["q 0"], ["a"], [], "q 0", [])
    assert any(d.code == "bad-state-name" for d in validate(m))
    m = EFA(FreeAbelian(1), ["q0"], ["a", "~"], [], "q0", [])
    assert any(d.code == "bad-symbol" for d in validate(m))
    # ε spells the empty word, so a symbol spelled so could not be told from it
    m = EFA(FreeAbelian(1), ["q0"], ["a", "ε"], [], "q0", [])
    assert any(d.code == "bad-symbol" for d in validate(m))


def test_validate_element_mismatch():
    t = Transition("q0", "a", "q0", (1, 2))  # wrong arity for Z^1
    m = EFA(FreeAbelian(1), ["q0"], ["a"], [t], "q0", ["q0"])
    assert any(d.code == "element-group-mismatch" for d in validate(m))


def test_validate_survives_unformattable_register():
    from gramata.algebra import HeisenbergGroup

    t = Transition("q0", "a", "q0", (0, 0, 0))  # tuple, not a Heis triple
    m = EFA(HeisenbergGroup(), ["q0"], ["a"], [t], "q0", ["q0"])
    assert any(d.code == "element-group-mismatch" for d in validate(m))


def test_validate_well_formed_machine_is_clean():
    for spec in CONSTRUCTIONS.values():
        assert validate(spec.build()) == []


def test_multi_token_symbols_round_trip():
    machine = CONSTRUCTIONS["wp-heis"].build()
    assert "a^-1" in machine.alphabet
    assert parse_efa(serialize_efa(machine)) == machine


def test_a_symbol_spelled_by_one_character_symbols_is_refused():
    # with a, b and ab, the word (a, b) would print as ab and read back as (ab)
    text = "group free-abelian 1\nstates q\ninitial q\naccepting q\nalphabet a ab b\ntransitions\nq a q [0]\n"
    with pytest.raises(EfaParseError, match="'ab' is spelled by one-character symbols") as err:
        parse_efa(text)
    assert err.value.cause == "bad-symbol"
    # a longer symbol with a character that is no symbol reads back
    assert parse_efa(text.replace("alphabet a ab b", "alphabet a ab")).alphabet == ("a", "ab")


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_every_printed_corpus_word_reads_back(name):
    alphabet = CONSTRUCTIONS[name].build().alphabet
    for word in all_words(alphabet, 3):
        assert tokenize_word(format_word(word), alphabet) == word


DIRECT_PRODUCT = """\
group direct-product (free 2) (free 2)
states q0
initial q0
accepting q0
alphabet s t
transitions
q0 s q0 (g0|e)
q0 t q0 (e|g1^-1)
"""


def test_direct_product_machine():
    m = parse_efa(DIRECT_PRODUCT)
    left, right = m.transitions[0].register
    assert left.letters == ((0, 1),)
    assert right.is_identity()
    assert serialize_efa(parse_efa(serialize_efa(m))) == serialize_efa(m)


PRODUCT_MACHINE = """\
group direct-product (free 1) (free-abelian 1)
states p q
initial p
accepting q
alphabet a b
transitions
p a p (g0|[1])
p b q (g0^-1|[-1])
"""


def test_a_product_machine_parses_serializes_and_decides():
    machine = parse_efa(PRODUCT_MACHINE)
    assert serialize_efa(machine) == PRODUCT_MACHINE
    assert accepts(machine, ("a", "b")).verdict is Verdict.ACCEPT
    assert accepts(machine, ("a", "a", "b")).verdict is Verdict.REJECT


def test_round_trip_random_machines():
    rng = random.Random(321)
    for group in ALL_GROUPS:
        for _ in range(10):
            states = [f"q{i}" for i in range(rng.randint(1, 5))]
            alphabet = ["a", "b"]
            ts = []
            for _ in range(rng.randint(0, 8)):
                ts.append(
                    Transition(
                        rng.choice(states),
                        rng.choice([None, "a", "b"]),
                        rng.choice(states),
                        random_element(group, rng, bound=5),
                    )
                )
            machine = EFA(group, states, alphabet, ts, states[0], rng.sample(states, rng.randint(0, len(states))))
            assert validate(machine) == []
            assert parse_efa(serialize_efa(machine)) == machine


def test_validate_matches_parse_acceptance():
    # parse_efa accepts exactly the machines validate() is silent about
    group = MatrixGroup(2, "Q", "one")
    t = Transition("q0", "a", "q0", Matrix.identity(2))
    good = EFA(group, ["q0"], ["a"], [t], "q0", ["q0"])
    assert validate(good) == []
    parse_efa(serialize_efa(good))

    bad = EFA(group, ["q0"], ["a"], [t], "q0", ["nope"])
    assert validate(bad)
    with pytest.raises(EfaParseError):
        parse_efa(serialize_efa(bad))


def test_deterministic_machines():
    corpus = {name: spec.build() for name, spec in CONSTRUCTIONS.items()}
    assert sorted(name for name, m in corpus.items() if m.deterministic) == [
        "qplus-eqcount",
        "qplus-eqcount-sl2q",
        "wp-f2",
        "wp-heis",
        "wp-z",
    ]
    assert sum(not m.deterministic for m in corpus.values()) == 6

    group = FreeAbelian(1)
    loops = [Transition("q", "a", "q", (1,)), Transition("q", "b", "q", (0,))]

    def machine(transitions):
        return EFA(group, ["q", "r"], ["a", "b"], transitions, "q", ["q"])

    assert machine(loops).deterministic
    assert machine([]).deterministic  # no transitions at all
    assert not machine(loops + [Transition("q", None, "r", (0,))]).deterministic  # one epsilon move
    assert not machine(loops + [Transition("q", "a", "r", (0,))]).deterministic  # two moves on (q, a)
    for m in (machine(loops), machine(loops + [Transition("q", "a", "r", (0,))])):
        expected = m.deterministic
        assert pickle.loads(pickle.dumps(m)).deterministic is expected
        assert parse_efa(serialize_efa(m)).deterministic is expected
    # a machine that has decided words holds compiled actions in its cached
    # tables, which are local functions: it pickles from its fields
    decided = corpus["wp-heis"]
    enumerated = enumerate_words(decided, 3).words
    restored = pickle.loads(pickle.dumps(decided))
    assert restored == decided and restored.deterministic
    assert enumerate_words(restored, 3).words == enumerated


# the characters of the grammar, letters of the corpus names and an
# Arabic-Indic digit, which int() would read as a digit
_MUTATION_CHARS = "0123456789-+/^.,;=~#[]() \n\tHgaqrwxe\u0661"


@given(
    name=st.sampled_from(sorted(path.name for path in CORPUS_DIR.glob("*.efa"))),
    edits=st.lists(
        st.tuples(
            st.sampled_from(("insert", "delete", "replace")), st.integers(0, 400), st.sampled_from(_MUTATION_CHARS)
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=400, deadline=None)
def test_mutated_corpus_text_parses_or_raises_gramata_error(name, edits):
    # at most three one-character edits, so no number in the text grows by
    # more than three digits and no draw declares a huge group
    text = (CORPUS_DIR / name).read_text()
    for kind, pos, char in edits:
        pos %= len(text) + 1
        if kind == "insert":
            text = text[:pos] + char + text[pos:]
        else:
            text = text[:pos] + (char if kind == "replace" else "") + text[pos + 1 :]
    try:
        machine = parse_efa(text)
    except GramataError:
        return
    assert isinstance(machine, EFA)
