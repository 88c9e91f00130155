import itertools
import pickle
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramata.algebra import (
    BS_A,
    BS_B,
    NEVER,
    SANOV_A,
    SANOV_B,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    Heis,
    HeisenbergGroup,
    Matrix,
    MatrixGroup,
    PositiveRationals,
    Word,
    bs_word_to_matrix,
    compact_group_text,
    format_int,
    format_rational,
    format_word,
    heis_inverse,
    heis_mul,
    heis_to_matrix,
    pair_embed,
    parse_count,
    parse_group_compact,
    parse_group_spec,
    parse_int,
    parse_rational,
    qplus_embed,
    rat_normalize,
    sanov_embed,
    z2_to_heisenberg,
)
from gramata.errors import (
    DeterminantConstraint,
    ElementGroupMismatch,
    GramataError,
    NotPositive,
    SingularMatrix,
    ZeroDenominator,
)

from conftest import ALL_GROUPS, MALFORMED_GROUPS, random_element


def test_rat_normalize():
    assert rat_normalize(6, -4) == Fraction(-3, 2)
    assert rat_normalize(0, 7) == Fraction(0, 1)
    assert rat_normalize(2, 1) == Fraction(2, 1)
    with pytest.raises(ZeroDenominator):
        rat_normalize(1, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(lambda d: d != 0))
def test_rat_normalize_invariants(num, den):
    q = rat_normalize(num, den)
    assert q.denominator > 0
    assert q == Fraction(num, den)
    assert parse_rational(format_rational(q)) == q


# --- matrices ---------------------------------------------------------------


def test_matrix_product_of_sanov_generators():
    assert (SANOV_A * SANOV_B).rows == Matrix(((5, 2), (2, 1))).rows


def test_determinants():
    assert SANOV_A.det() == 1
    assert Matrix(((2, 0), (1, Fraction(1, 2)))).det() == 1
    assert Matrix(((1, 2), (3, 4))).det() == -2


def test_matrix_inverse_shear():
    assert Matrix(((1, 2), (0, 1))).inverse() == Matrix(((1, -2), (0, 1)))
    with pytest.raises(SingularMatrix):
        Matrix(((1, 2), (2, 4))).inverse()


def test_matrix_power():
    a = Matrix(((1, 0), (-1, 1)))
    assert a**5 == Matrix(((1, 0), (-5, 1)))
    assert a**0 == Matrix.identity(2)
    assert a**-3 == Matrix(((1, 0), (3, 1)))


def test_determinant_multiplicative(rng):
    for dim in (2, 3, 4):
        for _ in range(100):
            a = Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim)])
            b = Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim)])
            assert (a * b).det() == a.det() * b.det()


# --- group operations, cross-checked against the matrix oracle ---------------


def test_heis_mul_examples():
    # cross-check through the 3x3 matrix representation
    for g, h, want in [
        (Heis(0, 1, 0), Heis(1, 0, 0), Heis(1, 1, 1)),
        (Heis(1, 0, 0), Heis(0, 1, 0), Heis(1, 1, 0)),
    ]:
        assert heis_mul(g, h) == want
        assert heis_to_matrix(want) == heis_to_matrix(g) * heis_to_matrix(h)


def test_heis_inverse_against_matrix_oracle():
    g = Heis(1, 1, 0)
    inv = heis_inverse(g)
    assert inv == Heis(-1, -1, 1)
    assert heis_to_matrix(inv) == heis_to_matrix(g).inverse()
    assert heis_mul(g, inv) == Heis(0, 0, 0)


def test_free_group_cancellation():
    f2 = FreeGroup(2)
    g = Word(((0, 1), (1, -1)))  # a b^-1
    h = Word(((1, 1), (0, -1)))  # b a^-1
    assert f2.mul(g, h) == f2.identity()


def test_matrix_group_mul():
    mq = MatrixGroup(2, "Q")
    assert mq.mul(SANOV_A, SANOV_B) == Matrix(((5, 2), (2, 1)))


def test_inverses():
    assert MatrixGroup(2, "Z", "pm1").inverse(Matrix(((1, 2), (0, 1)))) == Matrix(((1, -2), (0, 1)))
    assert PositiveRationals().inverse(Fraction(2, 3)) == Fraction(3, 2)


def test_is_identity():
    assert MatrixGroup(2, "Z").is_identity(Matrix.identity(2))
    assert not HeisenbergGroup().is_identity(Heis(0, 0, 1))
    assert PositiveRationals().is_identity(Fraction(1, 1))


def test_element_group_mismatch():
    # mul assumes checked elements; check rejects foreign ones
    with pytest.raises(ElementGroupMismatch):
        HeisenbergGroup().check((0, 0, 0))
    with pytest.raises(ElementGroupMismatch):
        MatrixGroup(3, "Q").check(Matrix.identity(2))
    with pytest.raises(ElementGroupMismatch):
        FreeGroup(2).check((0, 1))
    with pytest.raises(ElementGroupMismatch):
        FreeAbelian(2).check((1, 2, 3))
    with pytest.raises(ElementGroupMismatch):
        DirectProduct(FreeGroup(2), FreeAbelian(1)).check((Word(), (0,), (0,)))
    with pytest.raises(ElementGroupMismatch):
        DirectProduct(FreeGroup(2), FreeAbelian(1)).check((Word(), Heis(0, 0, 0)))


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda: Word(((0, 2),)), GramataError, "letter sign must be"),
        (lambda: Word(((0, 0),)), GramataError, "letter sign must be"),
        (lambda: FreeGroup(2).check(Word.generator(2)), ElementGroupMismatch, r"in range\(2\)"),
        (lambda: PositiveRationals().check(2), ElementGroupMismatch, "expected a Fraction"),
        (lambda: MatrixGroup(2, "Q").check(Matrix(((1, 2), (2, 4)))), DeterminantConstraint, "invertible"),
        (lambda: sanov_embed(Word.generator(2)), ElementGroupMismatch, "rank-2 words"),
        (lambda: pair_embed(Matrix.identity(2), Matrix.identity(3)), ElementGroupMismatch, "2x2 matrices"),
        (lambda: bs_word_to_matrix(["a", "c"]), GramataError, "bad BS"),
        (lambda: bs_word_to_matrix(["b^2"]), GramataError, "bad BS"),
    ],
    ids=[
        "word-sign-2",
        "word-sign-0",
        "free-index-past-rank",
        "qplus-not-a-fraction",
        "singular-matrix-q",
        "sanov-rank-3",
        "pair-3x3",
        "bs-unknown-name",
        "bs-bad-exponent",
    ],
)
def test_elements_outside_their_domain_are_refused(refused, error, message):
    with pytest.raises(error, match=message):
        refused()


@pytest.mark.parametrize("entry", [0.1, 1.0, "1/2", Decimal("0.5"), None], ids=repr)
def test_matrix_rejects_non_exact_entries(entry):
    # a float would be silently held as its binary expansion
    with pytest.raises(GramataError):
        Matrix(((entry, 0), (0, 1)))


@pytest.mark.parametrize("index", [0.5, 1.0, Fraction(1), "0"], ids=repr)
def test_free_check_rejects_non_int_generator_index(index):
    # the product trusts checked words, so check demands int indices
    with pytest.raises(ElementGroupMismatch):
        FreeGroup(2).check(Word(((index, 1),)))


@pytest.mark.parametrize("coords", [(0.5, 0, 0), (0, Fraction(1), 0), (0, 0, 1.0)], ids=repr)
def test_heis_check_rejects_non_int_coordinates(coords):
    with pytest.raises(ElementGroupMismatch):
        HeisenbergGroup().check(Heis(*coords))


def test_element_group_mismatch_caught_at_the_boundary():
    from gramata.analysis import growth
    from gramata.constructions import build_word_problem_acceptor, wp_oracle
    from gramata.model import EFA, Transition, validate

    heis = HeisenbergGroup()
    foreign = [("a", (0, 0, 1))]
    with pytest.raises(ElementGroupMismatch):
        wp_oracle(heis, foreign)
    with pytest.raises(ElementGroupMismatch):
        build_word_problem_acceptor(heis, foreign)
    with pytest.raises(ElementGroupMismatch):
        growth(MatrixGroup(3, "Q"), [Matrix.identity(2)], 1)
    machine = EFA(heis, ["q"], ["a"], [Transition("q", "a", "q", (0, 0, 1))], "q", ["q"])
    assert [d.code for d in validate(machine)] == ["element-group-mismatch"]


def test_group_laws_random(rng):
    for group in ALL_GROUPS:
        e = group.identity()
        assert group.is_identity(e)
        for _ in range(1000):
            g = random_element(group, rng)
            h = random_element(group, rng)
            k = random_element(group, rng)
            assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
            assert group.mul(g, e) == g
            assert group.mul(e, g) == g
            assert group.is_identity(group.mul(g, group.inverse(g)))


def test_heis_homomorphism_random(rng):
    for _ in range(1000):
        g = Heis(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
        h = Heis(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
        assert heis_to_matrix(heis_mul(g, h)) == heis_to_matrix(g) * heis_to_matrix(h)


# --- normal forms -------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=20))
def test_word_reduction(letters):
    w = Word(tuple(letters))
    # no adjacent cancelling pair survives
    for (g1, s1), (g2, s2) in zip(w.letters, w.letters[1:]):
        assert not (g1 == g2 and s1 == -s2)
    assert (w * w.inverse()).is_identity()


def test_heis_to_matrix_examples():
    assert heis_to_matrix(Heis(0, 0, 0)) == Matrix.identity(3)
    assert heis_to_matrix(Heis(1, 1, 1)) == Matrix(((1, 1, 1), (0, 1, 1), (0, 0, 1)))
    assert heis_to_matrix(Heis(0, 1, 0)) == Matrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)))


# --- embeddings ---------------------------------------------------------------


def test_sanov_examples():
    assert sanov_embed(Word()) == Matrix.identity(2)
    assert sanov_embed(Word(((1, 1),))) == SANOV_B
    assert sanov_embed(Word(((0, 1), (1, 1)))) == Matrix(((5, 2), (2, 1)))


def test_sanov_faithful_short_words():
    # every nonempty reduced word of length <= 8 misses the identity
    gens = [(0, 1), (0, -1), (1, 1), (1, -1)]
    frontier = [Word()]
    seen = 0
    for _ in range(8):
        nxt = []
        for w in frontier:
            for letter in gens:
                if w.letters and w.letters[-1] == (letter[0], -letter[1]):
                    continue
                nxt.append(Word(w.letters + (letter,)))
        for w in nxt:
            seen += 1
            assert not sanov_embed(w).is_identity()
        frontier = nxt
    assert seen == sum(4 * 3 ** (k - 1) for k in range(1, 9))


@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=8))
def test_sanov_respects_reduction(letters):
    # embedding the raw letter sequence equals embedding the reduced word
    images = {(0, 1): SANOV_A, (0, -1): SANOV_A.inverse(), (1, 1): SANOV_B, (1, -1): SANOV_B.inverse()}
    raw = Matrix.identity(2)
    for letter in letters:
        raw = raw * images[letter]
    assert raw == sanov_embed(Word(tuple(letters)))


def test_sanov_respects_reduction_exhaustively():
    # every raw letter sequence of length <= 8, against a cache of embeddings
    # of the (far fewer) reduced words
    letters = [(0, 1), (0, -1), (1, 1), (1, -1)]
    images = {(0, 1): SANOV_A, (0, -1): SANOV_A.inverse(), (1, 1): SANOV_B, (1, -1): SANOV_B.inverse()}
    embed_cache = {}

    def cached_embed(word):
        if word.letters not in embed_cache:
            embed_cache[word.letters] = sanov_embed(word)
        return embed_cache[word.letters]

    frontier = [((), Matrix.identity(2))]
    checked = 0
    for _ in range(8):
        nxt = []
        for seq, raw in frontier:
            for letter in letters:
                seq2, raw2 = seq + (letter,), raw * images[letter]
                assert raw2 == cached_embed(Word(seq2))
                checked += 1
                nxt.append((seq2, raw2))
        frontier = nxt
    assert checked == sum(4**k for k in range(1, 9))


def test_qplus_embed():
    assert qplus_embed(Fraction(2)) == Matrix(((2, 0), (0, Fraction(1, 2))))
    assert qplus_embed(Fraction(1)) == Matrix.identity(2)
    assert qplus_embed(Fraction(3, 5)) == Matrix(((Fraction(3, 5), 0), (0, Fraction(5, 3))))
    with pytest.raises(NotPositive):
        qplus_embed(Fraction(-1))


@given(st.fractions(min_value=Fraction(1, 50), max_value=50), st.fractions(min_value=Fraction(1, 50), max_value=50))
def test_qplus_embed_homomorphism(s, t):
    assert qplus_embed(s * t) == qplus_embed(s) * qplus_embed(t)
    assert qplus_embed(s).det() == 1


def test_pair_embed():
    i2 = Matrix.identity(2)
    assert pair_embed(i2, i2) == Matrix.identity(4)
    block = pair_embed(SANOV_A, SANOV_B)
    assert block == Matrix(((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 2, 1)))
    assert pair_embed(SANOV_A, i2) == Matrix(((1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_pair_embed_identity_characterization(rng):
    mats = [SANOV_A, SANOV_B, SANOV_A.inverse(), Matrix.identity(2), BS_A]
    for m1 in mats:
        for m2 in mats:
            is_id = pair_embed(m1, m2).is_identity()
            assert is_id == (m1.is_identity() and m2.is_identity())


def test_bs_relation():
    conjugate = bs_word_to_matrix(["b", "a", "b^-1"])
    assert conjugate == Matrix(((1, 0), (-2, 1)))
    assert conjugate == bs_word_to_matrix(["a", "a"])
    assert bs_word_to_matrix([]) == Matrix.identity(2)


def test_z2_to_heisenberg():
    h = HeisenbergGroup()
    assert z2_to_heisenberg((0, 0)) == Heis(0, 0, 0)
    assert z2_to_heisenberg((1, 0)) == Heis(1, 0, 0)
    # repeated multiplication oracle: B^2 C^3 with B=(1,0,0), C=(0,0,1)
    value = h.identity()
    for gen in [Heis(1, 0, 0)] * 2 + [Heis(0, 0, 1)] * 3:
        value = h.mul(value, gen)
    assert z2_to_heisenberg((2, 3)) == value == Heis(2, 0, 3)
    # images commute
    b, c = z2_to_heisenberg((1, 0)), z2_to_heisenberg((0, 1))
    assert h.mul(b, c) == h.mul(c, b)


# --- determinant constraints and serialization -------------------------------


def test_det_constraint_checks():
    with pytest.raises(DeterminantConstraint):
        MatrixGroup(2, "Q", "one").check(Matrix(((1, 0), (0, 2))))
    with pytest.raises(DeterminantConstraint):
        MatrixGroup(2, "Z").check(Matrix(((2, 0), (0, 1))))  # det 2 not invertible over Z
    with pytest.raises(ElementGroupMismatch):
        MatrixGroup(2, "Z").check(Matrix(((Fraction(1, 2), 0), (0, 2))))
    MatrixGroup(2, "Q", "pm1").check(Matrix(((0, 1), (1, 0))))


def test_element_serialization_round_trip(rng):
    for group in ALL_GROUPS:
        for _ in range(50):
            g = random_element(group, rng)
            text = group.format_element(g)
            assert group.parse_element(text) == g
        assert group.parse_element(group.format_element(group.identity())) == group.identity()


def test_group_spec_round_trip():
    specs = [
        "free 2",
        "free-abelian 3",
        "positive-rationals",
        "matrix-Q 2 det=1",
        "matrix-Z 3 det=+-1",
        "heisenberg",
        "direct-product (free 2) (matrix-Q 2 det=any)",
    ]
    for text in specs:
        group = parse_group_spec(text)
        assert group.spec_text() == text
        assert parse_group_spec(group.spec_text()) == group


def test_compact_group_grammar():
    for text, spec in [
        ("free:2", FreeGroup(2)),
        ("zk:3", FreeAbelian(3)),
        ("qplus", PositiveRationals()),
        ("matq:2:det1", MatrixGroup(2, "Q", "one")),
        ("heis", HeisenbergGroup()),
        ("prod(free:2,free:2)", DirectProduct(FreeGroup(2), FreeGroup(2))),
    ]:
        assert parse_group_compact(text) == spec
        assert parse_group_compact(compact_group_text(spec)) == spec


@pytest.mark.parametrize("text", ["zk:-1", "free:0", "matq:0", "matq:-2:det1", "zk:abc", "free:", "matz:x:det1"])
def test_compact_group_grammar_rejects_non_positive_sizes(text):
    # the same positive-integer check as the file grammar
    with pytest.raises(GramataError):
        parse_group_compact(text)


# every kind, a nested product and each determinant constraint, in the file
# grammar and on the command line
BOTH_GRAMMARS = [
    ("free 2", "free:2"),
    ("free-abelian 3", "zk:3"),
    ("positive-rationals", "qplus"),
    ("heisenberg", "heis"),
    ("matrix-Q 2 det=1", "matq:2:det1"),
    ("matrix-Z 2 det=+-1", "matz:2:detpm1"),
    ("matrix-Q 3 det=any", "matq:3:detany"),
    ("direct-product (free 2) (free-abelian 2)", "prod(free:2,zk:2)"),
    ("direct-product (direct-product (free 1) (heisenberg)) (matrix-Z 2 det=1)", "prod(prod(free:1,heis),matz:2:det1)"),
]


@pytest.mark.parametrize("spec, compact", BOTH_GRAMMARS)
def test_both_grammars_name_the_same_group(spec, compact):
    group = parse_group_spec(spec)
    assert parse_group_compact(compact) == group
    assert group.spec_text() == spec
    assert compact_group_text(group) == compact


# perfbench/tracing.py names its traced mul metrics by these strings
COMPACT_TEXTS = ["free:2", "zk:3", "qplus", "matq:2:det1", "matz:2:detpm1", "matq:3:detany", "heis", "prod(free:2,zk:2)"]


@pytest.mark.parametrize(
    "group, compact",
    list(zip(ALL_GROUPS, COMPACT_TEXTS))
    + [
        (DirectProduct(DirectProduct(HeisenbergGroup(), PositiveRationals()), FreeGroup(1)), "prod(prod(heis,qplus),free:1)"),
        (MatrixGroup(4, "Q", "one"), "matq:4:det1"),
        (MatrixGroup(2, "Q", "pm1"), "matq:2:detpm1"),
        (MatrixGroup(2, "Z"), "matz:2:detany"),
    ],
)
def test_every_group_round_trips_through_both_grammars(group, compact):
    assert len(ALL_GROUPS) == len(COMPACT_TEXTS)
    assert parse_group_spec(group.spec_text()) == group
    assert compact_group_text(group) == compact
    assert parse_group_compact(compact) == group


@pytest.mark.parametrize("grammar", [0, 1], ids=["file", "compact"])
@pytest.mark.parametrize("shape", list(MALFORMED_GROUPS))
def test_both_grammars_refuse_the_same_malformed_shapes(shape, grammar):
    parse = (parse_group_spec, parse_group_compact)[grammar]
    with pytest.raises(GramataError):
        parse(MALFORMED_GROUPS[shape][grammar])


def test_whitespace_inside_a_product_is_ignored_at_every_depth():
    want = DirectProduct(DirectProduct(FreeGroup(1), HeisenbergGroup()), FreeAbelian(1))
    assert parse_group_spec("direct-product ( direct-product (free 1)(heisenberg ) ) (free-abelian 1 )") == want


# int() takes each of these, or raises ValueError on it: none is a literal
NOT_INTEGER_LITERALS = ["1.5", "1e5", "-", "1_000", "\u0661", "+1", ""]


@pytest.mark.parametrize("token", NOT_INTEGER_LITERALS)
def test_integer_literals_are_an_ascii_sign_and_digits(token):
    with pytest.raises(GramataError):
        parse_int(token)
    with pytest.raises(GramataError):
        FreeAbelian(1).parse_element(f"[{token}]")
    with pytest.raises(GramataError):
        HeisenbergGroup().parse_element(f"H({token},0,0)")
    with pytest.raises(GramataError):
        parse_rational(f"1/{token}")
    with pytest.raises(GramataError):
        parse_group_compact(f"zk:{token}")


def test_a_count_is_ascii_decimal_digits_at_or_above_its_bound():
    assert parse_count("0012", 12, "n") == 12
    assert parse_count("0", 0, "n") == 0
    with pytest.raises(GramataError, match="n must be a positive integer"):
        parse_count("0", 1, "n")
    with pytest.raises(GramataError, match="n must be an integer of at least 13"):
        parse_count("12", 13, "n")
    with pytest.raises(GramataError, match="n must be an integer of at least 0 in decimal digits, got '-0x3'"):
        parse_count("-0x3", 0, "n")


def test_integer_literal_past_the_digit_limit_is_a_gramata_error():
    # int() refuses decimal literals longer than the interpreter's limit,
    # 4,300 digits by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer literals of any length")
    digits = "9" * (limit + 1)
    with pytest.raises(GramataError, match="too long"):
        FreeAbelian(1).parse_element(f"[{digits}]")
    with pytest.raises(GramataError, match="too long"):
        parse_rational(f"1/{digits}")
    assert parse_int("-0012") == -12
    assert FreeAbelian(2).parse_element("[ -3 , 7 ]") == (-3, 7)


def _past_the_digit_limit(group, big, rng):
    """An element of group that holds big, or a neighbour of it, in every
    integer coordinate, numerator and denominator it has; a free-group
    word has none."""
    if isinstance(group, FreeAbelian):
        return tuple((-1) ** i * (big + i) for i in range(group.k))
    if isinstance(group, PositiveRationals):
        return Fraction(big, big + 1)
    if isinstance(group, HeisenbergGroup):
        return Heis(big, -big, 3 * big + 1)
    if isinstance(group, MatrixGroup):
        # a shear has determinant 1, so every constraint still holds
        shear = [[int(i == j) for j in range(group.dim)] for i in range(group.dim)]
        shear[0][-1] = big if group.field == "Z" else Fraction(-big, big + 1)
        return random_element(group, rng) * Matrix(shear)
    if isinstance(group, DirectProduct):
        return (_past_the_digit_limit(group.left, big, rng), _past_the_digit_limit(group.right, big, rng))
    return random_element(group, rng)


@given(st.sampled_from(ALL_GROUPS), st.integers(10**4300, 10**4400), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_format_then_parse_is_the_identity_past_the_digit_limit(group, big, rng):
    # str() refuses ints of more than 4,300 digits by default: such values
    # print in hexadecimal, which parse_element reads back
    g = _past_the_digit_limit(group, big, rng)
    group.check(g)
    assert group.parse_element(group.format_element(g)) == g


# products of every kind of factor, nested too
PARSED_GROUPS = ALL_GROUPS + [
    DirectProduct(HeisenbergGroup(), MatrixGroup(2, "Q", "one")),
    DirectProduct(PositiveRationals(), DirectProduct(FreeGroup(1), MatrixGroup(2, "Z"))),
]
_LITERAL_CHARACTERS = "0123456789-/,[]()|H^ge x"


@st.composite
def _element_text(draw, group):
    """A formatted element of group with up to four short runs of its
    characters replaced by drawn ones."""
    text = group.format_element(random_element(group, draw(st.randoms(use_true_random=False)), bound=3))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 2)))
        text = text[:i] + draw(st.text(_LITERAL_CHARACTERS, max_size=2)) + text[j:]
    return text


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_parse_element_returns_a_checked_element_or_raises_gramata_error(data):
    # the contract parse_efa relies on: a parsed register needs no check
    group = data.draw(st.sampled_from(PARSED_GROUPS), label="group")
    text = data.draw(_element_text(group), label="text")
    try:
        g = group.parse_element(text)
    except GramataError:
        return
    group.check(g)


def test_integers_past_the_digit_limit_print_in_hexadecimal():
    assert format_int(-12) == "-12" and parse_int("-12") == -12
    assert parse_int("0x1f") == 31 and parse_int("-0x1f") == -31
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        big = 10**limit
        assert format_int(big) == f"0x{big:x}" and format_int(-big) == f"-0x{big:x}"
        assert parse_int(format_int(-big)) == -big
    for token in ("0x", "0X1f", "0x1F", "+0x1", "0x_1", "x1", "0b1"):
        with pytest.raises(GramataError):
            parse_int(token)


# --- differential tests against a reference model ----------------------------
# The reference keeps the straightforward representations: matrices as rows
# of Fractions multiplied and inverted entry by entry (Gauss-Jordan), free
# words reduced by rescanning the whole concatenation, Heisenberg elements as
# plain triples under the closed-form law.


def _ref_det(rows):
    """Determinant by rational Gaussian elimination."""
    n = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
    return det


def _ref_matrix_inverse(rows):
    """Inverse by rational Gauss-Jordan elimination, or None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _ref_reduce(letters):
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def _ref(group, g):
    """g in the reference representation."""
    if isinstance(group, MatrixGroup):
        return g.rows
    if isinstance(group, FreeGroup):
        return g.letters
    if isinstance(group, HeisenbergGroup):
        return tuple(g)
    if isinstance(group, DirectProduct):
        return (_ref(group.left, g[0]), _ref(group.right, g[1]))
    return g  # Z^k vectors and positive Fractions are their own reference


def _from_ref(group, r):
    """The element the public constructors build from a reference value."""
    if isinstance(group, MatrixGroup):
        return Matrix(r)
    if isinstance(group, FreeGroup):
        return Word(r)
    if isinstance(group, HeisenbergGroup):
        return Heis(*r)
    if isinstance(group, DirectProduct):
        return (_from_ref(group.left, r[0]), _from_ref(group.right, r[1]))
    return r


def _ref_mul(group, a, b):
    if isinstance(group, MatrixGroup):
        n = len(a)
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))
    if isinstance(group, FreeGroup):
        return _ref_reduce(a + b)
    if isinstance(group, HeisenbergGroup):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[1] * b[0])
    if isinstance(group, FreeAbelian):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(group, PositiveRationals):
        return a * b
    return (_ref_mul(group.left, a[0], b[0]), _ref_mul(group.right, a[1], b[1]))


def _ref_inverse(group, a):
    if isinstance(group, MatrixGroup):
        return _ref_matrix_inverse(a)
    if isinstance(group, FreeGroup):
        return tuple((g, -s) for g, s in reversed(a))
    if isinstance(group, HeisenbergGroup):
        return (-a[0], -a[1], a[0] * a[1] - a[2])
    if isinstance(group, FreeAbelian):
        return tuple(-x for x in a)
    if isinstance(group, PositiveRationals):
        return 1 / a
    return (_ref_inverse(group.left, a[0]), _ref_inverse(group.right, a[1]))


def _assert_same_element(group, g, r):
    """g is the reference value r, equal to and hashing like the element
    built from r, and survives a pickle round trip, as a value of Python
    should."""
    assert _ref(group, g) == r
    built = _from_ref(group, r)
    assert g == built and hash(g) == hash(built)
    restored = pickle.loads(pickle.dumps(g))
    assert restored == g and hash(restored) == hash(g)
    assert _ref(group, restored) == r


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
def test_group_ops_match_reference_model(group, rng):
    elems = [random_element(group, rng) for _ in range(40)] + [group.identity()]
    refs = [_ref(group, g) for g in elems]
    identity_ref = _ref(group, group.identity())
    for g, r in zip(elems, refs):
        group.check(g)
        assert group.is_identity(g) == (r == identity_ref)
        _assert_same_element(group, g, r)
        _assert_same_element(group, group.inverse(g), _ref_inverse(group, r))
    for (g, r), (h, s) in itertools.product(list(zip(elems, refs))[:12], repeat=2):
        assert (g == h) == (r == s)
        _assert_same_element(group, group.mul(g, h), _ref_mul(group, r, s))
        # h = g^-1 k cancels g completely inside the product g h = k
        k = group.mul(group.inverse(g), h)
        _assert_same_element(group, group.mul(g, k), s)
        assert group.is_identity(group.mul(g, group.inverse(g)))


# Z^3 (in ALL_GROUPS) acts with a tuple display, Z^2 with the map
@pytest.mark.parametrize("group", ALL_GROUPS + [DirectProduct(HeisenbergGroup(), FreeAbelian(1)), FreeAbelian(2)], ids=repr)
def test_right_mul_matches_mul(group, rng):
    elems = [random_element(group, rng) for _ in range(24)] + [group.identity()]
    for g, h in itertools.product(elems, repeat=2):
        act, product = group.right_mul(h)(g), group.mul(g, h)
        assert act == product and hash(act) == hash(product)
        assert group.is_identity(act) == group.is_identity(product)
        # mul takes the action's product as its left operand
        assert group.mul(act, g) == group.mul(product, g)
    for a, b, c in zip(elems, elems[8:], elems[16:]):
        acted = multiplied = group.identity()
        for h in (a, b, c):
            acted, multiplied = group.right_mul(h)(acted), group.mul(multiplied, h)
        assert acted == multiplied and hash(acted) == hash(multiplied)
        assert group.is_identity(acted) == group.is_identity(multiplied)
        one = group.right_mul(group.inverse(a))(a)
        assert group.is_identity(one) and one == group.identity()


@pytest.mark.parametrize("letter", [(0, 1), (0, -1), (1, 1), (1, -1)])
def test_one_letter_free_action_matches_mul(letter):
    # a one-letter action cancels the word's last letter or appends its own
    group = FreeGroup(2)
    h = Word((letter,))
    other = (1 - letter[0], 1)
    inverse = (letter[0], -letter[1])
    act = group.right_mul(h)
    words = [
        Word(),
        Word((inverse,)),
        Word((other, inverse)),
        Word((letter,)),
        Word((inverse, other)),
        Word((other, (letter[0], 1), (letter[0], 1), other)),
    ]
    for g in words:
        product, want = act(g), g * h
        # the product is the plain code tuple, which equals and hashes like
        # its Word, and which the group's operations take but check refuses
        assert type(product) is tuple
        assert product == want and hash(product) == hash(want) == hash(group.mul(g, h))
        assert group.is_identity(product) == want.is_identity()
        assert group.format_element(product) == format_word(want)
        assert group.mul(product, h) == want * h and type(group.mul(product, h)) is Word
        with pytest.raises(ElementGroupMismatch):
            group.check(product)
    assert group.is_identity(act(Word((inverse,))))
    assert act(Word((other, inverse))) == Word((other,))


def test_word_product_cancels_at_the_boundary_only():
    a, b = Word(((0, 1), (1, 1), (0, -1))), Word(((0, 1), (1, -1), (1, 1)))
    assert (a * b).letters == ((0, 1), (1, 1))
    assert (a * Word()).letters == a.letters and (Word() * a).letters == a.letters
    assert (a * a.inverse()).is_identity()


def _letter_lists(rank):
    letter = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
    return st.tuples(st.just(rank), st.lists(st.lists(letter, max_size=12), min_size=3, max_size=3))


_ranked_letters = st.integers(1, 3).flatmap(_letter_lists)


@given(_ranked_letters)
def test_word_algebra_matches_letter_pair_reduction(drawn):
    # the reference is free reduction over (index, sign) pairs, the
    # `letters` view, independent of the codes
    rank, raw = drawn
    group = FreeGroup(rank)
    refs = [_ref_reduce(letters) for letters in raw]
    words = [Word(letters) for letters in raw]
    for w, r in zip(words, refs):
        group.check(w)
        assert w.letters == r and len(w) == len(r)
        assert w.is_identity() == group.is_identity(w) == (r == ())
        assert w.inverse().letters == tuple((g, -s) for g, s in reversed(r))
        assert w == Word(r) and hash(w) == hash(Word(r))
        restored = pickle.loads(pickle.dumps(w))
        assert type(restored) is Word and restored == w and hash(restored) == hash(w)
        assert restored.letters == r
    for (g, r), (h, s) in itertools.product(list(zip(words, refs)), repeat=2):
        assert (g == h) == (r == s)
        if r == s:
            assert hash(g) == hash(h)
        want = _ref_reduce(r + s)
        for product in (g * h, group.mul(g, h)):
            assert type(product) is Word and product.letters == want
            assert product == Word(want) and hash(product) == hash(Word(want))
            assert product.is_identity() == (want == ())
        # right_mul's product is the plain code tuple of the same word, by
        # all of h at once or letter by letter, each letter's action (the
        # cancel-or-append path) taking the last one's plain product
        acted = [group.right_mul(h)(g)]
        if s:
            by_letter = g
            for letter in s:
                by_letter = group.right_mul(Word((letter,)))(by_letter)
            acted.append(by_letter)
        for product in acted:
            assert type(product) is tuple
            assert product == Word(want) and hash(product) == hash(Word(want))
            assert group.is_identity(product) == (want == ())
            assert group.format_element(product) == format_word(Word(want))
            assert group.inverse(product) == Word(want).inverse()
            assert group.mul(product, h) == Word(want) * h and type(group.mul(product, h)) is Word


def test_word_hashes_spread_over_the_f2_ball():
    from gramata.analysis import ball_with_words
    from gramata.constructions import standard_generators

    f2 = FreeGroup(2)
    ball = ball_with_words(f2, standard_generators(f2), 6)
    assert len(ball) == 1457
    assert len({hash(w) for w in ball}) == 1457
    # signed codes +-(i + 1) would collide, since hash(-1) == hash(-2)
    assert len({hash(tuple(s * (g + 1) for g, s in w.letters)) for w in ball}) == 827


@pytest.mark.parametrize("index", [0.5, 1.0, Fraction(1), "0", -1, None], ids=repr)
def test_word_rejects_an_index_without_a_code(index):
    with pytest.raises(ElementGroupMismatch):
        Word(((index, 1),))


def test_free_abelian_check_rejects_a_word():
    # the codes of a b are the int tuple (0, 2), which is no vector
    FreeAbelian(2).check((0, 2))
    with pytest.raises(ElementGroupMismatch):
        FreeAbelian(2).check(Word(((0, 1), (1, 1))))


def test_direct_product_check_rejects_a_word():
    product = DirectProduct(FreeAbelian(1), FreeAbelian(1))
    product.check(((0,), (0,)))
    with pytest.raises(ElementGroupMismatch):
        product.check((Word.generator(0), (0,)))
    with pytest.raises(ElementGroupMismatch):
        DirectProduct(FreeAbelian(1), FreeGroup(2)).check(Word(((0, 1), (1, 1))))


def test_int_times_word_raises():
    w = Word(((0, 1), (1, -1)))
    with pytest.raises(TypeError):
        3 * w
    with pytest.raises(TypeError):
        w * 3


def test_matrix_is_integer_rows_over_one_denominator():
    m = Matrix(((Fraction(1, 2), Fraction(1, 3)), (0, Fraction(2, 4))))
    assert (m.num, m.den) == (((3, 2), (0, 3)), 6)
    assert m.rows == ((Fraction(1, 2), Fraction(1, 3)), (0, Fraction(1, 2)))
    assert (Matrix(((2, 4), (6, 8))).num, Matrix(((2, 4), (6, 8))).den) == (((2, 4), (6, 8)), 1)
    # a product whose denominators cancel comes back to den 1
    p = qplus_embed(Fraction(2, 3)) * qplus_embed(Fraction(3, 2))
    assert (p.num, p.den) == (((1, 0), (0, 1)), 1) and p.is_identity()
    assert p == Matrix.identity(2) and hash(p) == hash(Matrix.identity(2))
    # identity numerators over a denominator are a scalar matrix, not I
    half = Matrix(((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    assert half.num == Matrix.identity(2).num and not half.is_identity()


def _matrix_action_cases(rng):
    """(dim, g, h) pairs for the compiled right actions: integer matrices
    (den 1, no gcd), rational ones, pairs whose product comes back to den 1,
    and the identity on either side, in dims 2, 3 and 4."""
    i2, i3 = Matrix.identity(2), Matrix.identity(3)
    q2, q3 = MatrixGroup(2, "Q"), MatrixGroup(3, "Q")
    two = [SANOV_A, SANOV_B, SANOV_A.inverse(), BS_A, BS_B, BS_B.inverse(), i2]
    two += [qplus_embed(Fraction(2, 3)), qplus_embed(Fraction(3, 2)), Matrix(((2, 1), (1, 1)))]
    two += [random_element(q2, rng) for _ in range(8)]
    diag = Matrix(((2, 0, 0), (0, Fraction(1, 3), 0), (0, 0, Fraction(3, 2))))
    three = [i3, heis_to_matrix(Heis(1, -2, 3)), heis_to_matrix(Heis(-1, 2, -1)), diag, diag.inverse()]
    three += [random_element(q3, rng) for _ in range(6)]
    three += [m.inverse() for m in three[-3:]]
    four = [pair_embed(a, b) for a, b in itertools.product([i2, SANOV_A, BS_B, BS_B.inverse(), two[-1]], repeat=2)]
    for mats in (two, three, four):
        for g, h in itertools.product(mats, repeat=2):
            yield g.dim, g, h


def test_matrix_right_action_matches_the_fraction_row_model(rng):
    # the compiled action against products of Fraction rows, independent of
    # mul, which runs the same action
    q = {dim: MatrixGroup(dim, "Q") for dim in (2, 3, 4)}
    integral, reduced = Counter(), Counter()
    cases = list(_matrix_action_cases(rng))
    for dim, g, h in cases:
        product = q[dim].right_mul(h)(g)
        want = _ref_mul(q[dim], g.rows, h.rows)
        assert type(product) is Matrix and product.rows == want
        assert product == Matrix(want) and hash(product) == hash(Matrix(want))
        assert hash(product) == hash((product.num, product.den))
        assert product.is_identity() == q[dim].is_identity(product) == (want == Matrix.identity(dim).rows)
        assert product.den == lcm(*(x.denominator for row in want for x in row))
        integral[dim] += g.den == h.den == 1
        reduced[dim] += product.den == 1 and g.den * h.den != 1
    # in every dim, integer factors skip the gcd, and rational factors
    # reduce to den 1
    assert min(integral[dim] for dim in q) >= 50 and min(reduced[dim] for dim in q) >= 2
    # a chain of actions by every factor of a dim stays on the model
    for dim in q:
        chain = list(dict.fromkeys(h for d, _, h in cases if d == dim))
        acted, want = Matrix.identity(dim), Matrix.identity(dim).rows
        for h in chain:
            acted, want = q[dim].right_mul(h)(acted), _ref_mul(q[dim], want, h.rows)
        assert acted.rows == want and acted == Matrix(want)


def test_matrix_keeps_the_group_operator_surface():
    m = Matrix(((1, Fraction(1, 2)), (0, 1)))
    for refused in (lambda: 3 * m, lambda: m * 3, lambda: m + m, lambda: m * (1, 2)):
        with pytest.raises(TypeError):
            refused()
    assert hash(m) == hash((m.num, m.den)) == hash((((2, 1), (0, 2)), 2))
    restored = pickle.loads(pickle.dumps(m))
    assert type(restored) is Matrix and restored == m and hash(restored) == hash(m)
    assert restored.rows == m.rows and restored * m.inverse() == Matrix.identity(2)


def test_a_plain_pair_is_never_a_matrix():
    m = SANOV_A
    pair = (m.num, m.den)
    assert pair == m and hash(pair) == hash(m)
    MatrixGroup(2, "Z", "one").check(m)
    with pytest.raises(ElementGroupMismatch):
        MatrixGroup(2, "Z", "one").check(pair)
    # nor is a Matrix, a tuple subclass, a vector or a pair of a product
    with pytest.raises(ElementGroupMismatch):
        FreeAbelian(2).check(m)
    for product in (DirectProduct(FreeAbelian(1), FreeAbelian(1)), DirectProduct(MatrixGroup(2, "Z"), FreeAbelian(1))):
        with pytest.raises(ElementGroupMismatch):
            product.check(m)


_small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _square_rows(draw):
    """Square Fraction rows, dim 1..4; about half are made singular by
    setting one row to a multiple (possibly 0) of another."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_small_fractions, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(_small_fractions)
        rows[i] = [c * x for x in rows[j]]
    return rows


@settings(deadline=None)
@given(_square_rows())
def test_bareiss_det_and_inverse_match_gauss_jordan(rows):
    m = Matrix(rows)
    assert m.det() == _ref_det(rows)
    want = _ref_matrix_inverse(rows)
    if want is None:
        assert m.det() == 0
        with pytest.raises(SingularMatrix):
            m.inverse()
    else:
        inv = m.inverse()
        assert inv.rows == want
        assert inv == Matrix(want) and hash(inv) == hash(Matrix(want))
        assert (m * inv).is_identity()


def test_bareiss_handles_zero_pivots():
    # pivots that vanish mid-elimination force row swaps in both routines
    for rows in [
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((1, 1, 1), (1, 1, 2), (1, 2, 1)),
        ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, Fraction(1, 3))),
    ]:
        m = Matrix(rows)
        assert m.det() == _ref_det(rows)
        assert m.inverse().rows == _ref_matrix_inverse(rows)
    singular = ((1, 2, 3), (2, 4, 6), (0, 0, 1))
    assert Matrix(singular).det() == 0 == _ref_det(singular)
    with pytest.raises(SingularMatrix):
        Matrix(singular).inverse()


# --- move floors -----------------------------------------------------------------


@pytest.mark.parametrize(
    "group, registers",
    [
        (PositiveRationals(), [Fraction(2), Fraction(1, 3)]),
        (MatrixGroup(2, "Q", "one"), [SANOV_A, SANOV_B]),
        (MatrixGroup(2, "Z", "pm1"), [SANOV_A]),
        (MatrixGroup(3, "Q"), [Matrix(((2, 0, 0), (0, 1, 0), (0, 0, 1)))]),
    ],
    ids=repr,
)
def test_no_move_floor(group, registers):
    assert group.move_floor(registers) is None


def _refuses(floor, g):
    # g breaks a pin: no budget below 2^64 moves leaves room for it
    return floor(g) >= NEVER // floor.scale


# registers that all have norm 0, the identity, a central Heisenberg
# element or none: (group, registers, elements kept at floor 0, elements refused)
NORM_0_REGISTERS = {
    "free-identity": (FreeGroup(2), [Word()], [], [Word.generator(0), Word.generator(1, -1)]),
    "zk-identity": (FreeAbelian(3), [(0, 0, 0)], [], [(0, 0, 1), (-2, 0, 0)]),
    # a central register moves z, so z is not pinned
    "heis-central": (
        HeisenbergGroup(),
        [Heis(0, 0, 0), Heis(0, 0, 5)],
        [Heis(0, 0, 3), (0, 0, -1)],
        [Heis(1, 0, 0), Heis(0, -1, 4)],
    ),
    "qplus-heis-central": (
        DirectProduct(PositiveRationals(), HeisenbergGroup()),
        [(Fraction(3), Heis(0, 0, -1))],
        [(Fraction(7), Heis(0, 0, 2))],
        [(Fraction(1), Heis(1, 0, 0))],
    ),
    "free-none": (FreeGroup(2), [], [], [Word.generator(1)]),
}


@pytest.mark.parametrize(
    "group, registers, kept, refused", [pytest.param(*case, id=name) for name, case in NORM_0_REGISTERS.items()]
)
def test_registers_of_norm_0_pin_the_norm(group, registers, kept, refused):
    # no register moves the norm, so an element of norm > 0 never returns:
    # the state of such registers, or of none, keeps a register of norm 0 alone
    floor = group.move_floor(registers)
    assert floor.scale == 1 and floor(group.identity()) == 0
    assert [floor(g) for g in kept] == [0] * len(kept)
    assert all(_refuses(floor, g) for g in refused)


def test_move_floors_of_the_normed_groups():
    heis = HeisenbergGroup().move_floor([Heis(0, 1, 0), Heis(-1, 0, 7), Heis(0, 0, -1)])
    assert heis.scale == 1 and heis(Heis(3, -4, 99)) == 7 and heis((3, -4, 99)) == 7
    zk = FreeAbelian(2).move_floor([(1, 0), (-1, 1), (0, -1)])
    assert zk.scale == 2 and [zk(v) for v in [(0, 0), (1, 0), (1, 1), (2, -1), (-3, 2)]] == [0, 1, 1, 2, 3]
    free = FreeGroup(2).move_floor([Word.generator(0), Word(((0, 1), (1, -1), (0, 1)))])
    assert free.scale == 3 and free(Word(((1, 1),) * 7)) == 3 and free(Word()) == 0
    # a coordinate that no register moves is pinned: an element that moves
    # it never returns. With x moving alone, y is pinned and so is z
    tail = HeisenbergGroup().move_floor([Heis(-1, 0, 0)])
    assert tail.scale == 1 and tail(Heis(5, 0, 0)) == 5 and tail(Heis(0, 0, 0)) == 0
    assert _refuses(tail, Heis(0, 1, 0)) and _refuses(tail, Heis(1, 0, 1)) and _refuses(tail, (1, 0, 1))
    plane = FreeAbelian(2).move_floor([(0, -1)])
    assert plane.scale == 1 and plane((0, 3)) == 3 and _refuses(plane, (1, 0))
    # z is pinned only together with x or y, and only when no register moves it
    assert not any(_refuses(heis, g) for g in [Heis(0, 0, 1), Heis(3, -4, 99)])
    up = HeisenbergGroup().move_floor([Heis(0, 1, 0)])
    assert _refuses(up, Heis(0, 0, 1)) and _refuses(up, Heis(1, 0, 0)) and up(Heis(0, -2, 0)) == 2
    assert HeisenbergGroup().move_floor([Heis(0, 1, 2)])(Heis(0, 1, 1)) == 1


def test_direct_product_takes_the_larger_component_floor():
    group = DirectProduct(FreeGroup(2), FreeAbelian(2))
    # each component scaled by its own registers: 1 on the left, 3 on the right
    registers = [(Word.generator(1), (0, 0)), (Word(), (2, -1)), (Word.generator(0, -1), (1, 1))]
    floor = group.move_floor(registers)
    for w, v in [(Word(), (0, 0)), (Word.generator(0), (5, 0)), (Word(((0, 1),) * 4), (3, -3)), (Word(), (1, 0))]:
        assert floor((w, v)) == max(len(w), -(-(abs(v[0]) + abs(v[1])) // 3))
    # a component without a floor leaves the other's
    half = DirectProduct(PositiveRationals(), HeisenbergGroup())
    floor = half.move_floor([(Fraction(2), Heis(0, 2, 0)), (Fraction(1, 2), Heis(1, 0, 0))])
    heis = HeisenbergGroup().move_floor([Heis(0, 2, 0), Heis(1, 0, 0)])
    assert floor((Fraction(7), Heis(3, 2, 0))) == 3 == heis(Heis(3, 2, 0))
    # and its pins: no register of the right component moves y
    floor = half.move_floor([(Fraction(2), Heis(1, 0, 0))])
    assert _refuses(floor, (Fraction(1), Heis(0, 1, 0))) and floor((Fraction(5), Heis(-2, 0, 0))) == 2
