import itertools
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramata.algebra import (
    BS_A,
    BS_B,
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
    determinant,
    format_rational,
    heis_inverse,
    heis_mul,
    heis_to_matrix,
    pair_embed,
    parse_group_compact,
    parse_group_spec,
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

from conftest import ALL_GROUPS, random_element


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
    assert determinant(SANOV_A) == 1
    assert determinant(Matrix(((2, 0), (1, Fraction(1, 2))))) == 1
    assert determinant(Matrix(((1, 2), (3, 4)))) == -2


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
    built from r, and survives a pickle round trip (the worker pool pickles
    machines and their registers)."""
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


def test_word_product_cancels_at_the_boundary_only():
    a, b = Word(((0, 1), (1, 1), (0, -1))), Word(((0, 1), (1, -1), (1, 1)))
    assert (a * b).letters == ((0, 1), (1, 1))
    assert (a * Word()).letters == a.letters and (Word() * a).letters == a.letters
    assert (a * a.inverse()).is_identity()


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
