import dataclasses
import itertools
import random
import re

import pytest

from gramata.algebra import (
    HEIS_A,
    HEIS_B,
    SANOV_A,
    SANOV_B,
    FreeAbelian,
    FreeGroup,
    Heis,
    HeisenbergGroup,
    Matrix,
    MatrixGroup,
    parse_group_compact,
)
from gramata import analysis
from gramata.analysis import (
    ball_with_words,
    dissimilarity_exact,
    dissimilarity_lower_bound,
    growth,
    growth_exponent_estimate,
    lemma_growth_check,
    theorem_growth_probe,
)
from gramata.constructions import CONSTRUCTIONS, NamedOracle, oracle, oracle_names, standard_generators, wp_oracle
from gramata.errors import GramataError, InstanceTooLarge, MemoryGuard
from gramata.model import EFA, Transition
from gramata.simulate import all_words

from conftest import ALL_GROUPS, random_element


def gens_of(group):
    return standard_generators(group)


# --- growth -----------------------------------------------------------------


def test_growth_z():
    table = growth(FreeAbelian(1), gens_of(FreeAbelian(1)), 3)
    assert table.counts == (1, 3, 5, 7)


def test_growth_f2():
    table = growth(FreeGroup(2), gens_of(FreeGroup(2)), 2)
    assert table.counts == (1, 5, 17)


def test_growth_z2():
    table = growth(FreeAbelian(2), gens_of(FreeAbelian(2)), 2)
    assert table.counts == (1, 5, 13)


def test_growth_of_bare_sanov_matrices_matches_the_named_pair():
    # a Matrix is the pair (num, den), a 2-tuple too, but its first item is
    # no name: bare matrices are elements, named s0 and s1
    group = MatrixGroup(2, "Q", "one")
    sanov_f2 = (1, 5, 17, 53, 161, 485, 1457)
    assert growth(group, [SANOV_A, SANOV_B], 6).counts == sanov_f2
    assert growth(group, [("A", SANOV_A), ("B", SANOV_B)], 6).counts == sanov_f2
    assert analysis._named_gens([SANOV_A, ("B", SANOV_B)]) == [("s0", SANOV_A), ("B", SANOV_B)]


def test_growth_invariant_under_adding_inverses():
    group = FreeGroup(2)
    gens = gens_of(group)
    with_inverses = gens + [(n + "^-1", group.inverse(g)) for n, g in gens]
    assert growth(group, gens, 4).counts == growth(group, with_inverses, 4).counts


def test_growth_memory_guard(monkeypatch):
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "10")
    with pytest.raises(MemoryGuard):
        growth(FreeGroup(2), gens_of(FreeGroup(2)), 4)


def _reference_radii(group, gens, radius):
    """Each element of the ball mapped to its radius, from a layered BFS over
    the public mul that stores every element of the ball: the reference for
    growth's sphere search."""
    elems = [g[1] if isinstance(g, tuple) and len(g) == 2 and isinstance(g[0], str) else g for g in gens]
    sym = elems + [group.inverse(g) for g in elems]
    radii = {group.identity(): 0}
    layer = [group.identity()]
    for r in range(1, radius + 1):
        nxt = []
        for g in layer:
            for s in sym:
                h = group.mul(g, s)
                if h not in radii:
                    radii[h] = r
                    nxt.append(h)
        layer = nxt
    return radii


def _reference_counts(group, gens, radius):
    radii = _reference_radii(group, gens, radius)
    return tuple(sum(1 for r in radii.values() if r <= k) for k in range(radius + 1))


def _counting(group, products):
    """A copy of group whose right actions record each (element, product)."""

    def right_mul(self, h):
        act = type(group).right_mul(self, h)

        def counted(g):
            product = act(g)
            products.append((g, product))
            return product

        return counted

    cls = type(f"Counting{type(group).__name__}", (type(group),), {"right_mul": right_mul})
    return cls(*(getattr(group, f.name) for f in dataclasses.fields(group)))


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec_text())
def test_growth_matches_full_ball_reference(group, rng):
    for k in (1, 2, 3):
        gens = [random_element(group, rng, bound=5) for _ in range(k)]
        radius = 4 if k < 3 else 3
        assert growth(group, gens, radius).counts == _reference_counts(group, gens, radius), gens


_F2_A, _F2_B = (g for _, g in standard_generators(FreeGroup(2)))


_DEGENERATE_GENERATING_SETS = [
    # an involution: the generator is its own inverse and its own way back
    ("matq:2", [Matrix([[-1, 0], [0, 1]]), Matrix([[1, 1], [0, 1]])], 6),
    ("matq:2", [Matrix([[-1, 0], [0, 1]])], 4),
    # the identity as a generator: every product by it stays in its sphere
    ("zk:2", [(0, 0), (1, 0), (0, 1)], 5),
    ("free:2", [FreeGroup(2).identity()], 3),
    # a generator with its inverse, and a duplicated generator
    ("zk:1", [(1,), (-1,)], 5),
    ("zk:2", [(1, 0), (1, 0), (0, 1)], 5),
    ("free:2", [("a", _F2_A), ("a2", _F2_A), ("b^-1", _F2_B.inverse()), ("b", _F2_B)], 4),
    # no degenerate set: the free basis {g0, g0 g1}, whose one-letter action
    # (cancel or append) and two-letter action (the word product) each take
    # the other's plain code tuples; its ball is F2's, 1 5 17 ... 4373
    ("free:2", [_F2_A, _F2_A * _F2_B], 7),
]


@pytest.mark.parametrize("spec, gens, radius", _DEGENERATE_GENERATING_SETS)
def test_growth_matches_reference_on_degenerate_generating_sets(spec, gens, radius):
    group = parse_group_compact(spec)
    assert growth(group, gens, radius).counts == _reference_counts(group, gens, radius)


def test_growth_matches_reference_on_a_product_and_on_heisenberg_triples():
    group = parse_group_compact("prod(free:2,zk:1)")
    gens = gens_of(group)
    assert growth(group, gens, 4).counts == _reference_counts(group, gens, 4)
    # growth counts both Heisenberg sets by columns and builds no element;
    # the reference multiplies Heis elements with the public mul
    heis = HeisenbergGroup()
    for gens in ([("a", HEIS_A), ("b", HEIS_B)], gens_of(heis)):
        assert growth(heis, gens, 8).counts == _reference_counts(heis, gens, 8)


def test_growth_skips_each_elements_product_back_to_its_parent():
    # F2 with 4 symmetric generators: the identity takes 4 products, every
    # other expanded element 3, so radius 3 expands |B(2)| = 17 elements
    # with 4 + 16 * 3 = 52 products instead of 17 * 4 = 68
    products = []

    class CountingFreeGroup(FreeGroup):
        def right_mul(self, h):
            act = super().right_mul(h)

            def counted(g):
                products.append(g)
                return act(g)

            return counted

    group = CountingFreeGroup(2)
    assert growth(group, gens_of(FreeGroup(2)), 3).counts == (1, 5, 17, 53)
    assert len(products) == 52


def _element_growth(group, gens, radius):
    """growth's element kernel on any generating set: a seeded Heisenberg
    draw with unit coordinates would take the column kernel, which takes no
    products, so the product-counting properties call this kernel directly."""
    return analysis._element_growth(group, analysis._symmetric_gens(group, gens), radius)


def _assert_no_product_back_into_the_previous_sphere(group, gens, radius):
    products = []
    assert _element_growth(_counting(group, products), gens, radius).counts == _reference_counts(group, gens, radius)
    radii = _reference_radii(group, gens, radius)
    assert products
    for g, h in products:
        assert radii[g] < radius and radii[h] >= radii[g], (gens, g, h)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.spec_text())
def test_growth_multiplies_no_element_back_into_the_previous_sphere(group, rng):
    # the generating sets of test_growth_matches_full_ball_reference
    for k in (1, 2, 3):
        gens = [random_element(group, rng, bound=5) for _ in range(k)]
        _assert_no_product_back_into_the_previous_sphere(group, gens, 4 if k < 3 else 3)


@pytest.mark.parametrize("spec, gens, radius", _DEGENERATE_GENERATING_SETS)
def test_growth_multiplies_no_element_back_on_degenerate_generating_sets(spec, gens, radius):
    _assert_no_product_back_into_the_previous_sphere(parse_group_compact(spec), gens, radius)


@pytest.mark.parametrize("radius, products", [(1, 4), (2, 16), (3, 36), (6, 144)])
def test_growth_of_z2_takes_4_r_squared_products(radius, products):
    # sphere k > 0 of Z^2 has 4 elements on the axes with one back generator
    # each and 4(k - 1) off them with two, so it takes 8k + 4 products and
    # the identity 4
    recorded = []
    group = _counting(FreeAbelian(2), recorded)
    _element_growth(group, gens_of(FreeAbelian(2)), radius)
    assert len(recorded) == products == 4 * radius**2


@pytest.mark.parametrize(
    "guard, radius, raised",
    [
        # |B_F2(5)| = 485 elements plus 6 recorded layers make 491
        ("491", 5, None),
        ("490", 5, "elements and layer counts"),
        ("485", 5, "elements and layer counts"),
        ("484", 5, "elements$"),
        ("491", 6, "elements$"),
    ],
)
def test_growth_memory_guard_raise_point(monkeypatch, guard, radius, raised):
    monkeypatch.setenv("GRAMATA_MEM_GUARD", guard)
    if raised is None:
        assert growth(FreeGroup(2), gens_of(FreeGroup(2)), radius).counts[-1] == 485
    else:
        with pytest.raises(MemoryGuard, match=f"more than {guard} {raised}"):
            growth(FreeGroup(2), gens_of(FreeGroup(2)), radius)


@pytest.mark.parametrize(
    "k, guard, raised",
    [
        # 13 elements of 6 ints, charged 2 each, which the message names
        (6, "26", None),
        (6, "25", "elements, each charged as 2 elements$"),
        # 15 elements of 7 ints, charged 3 each
        (7, "45", None),
        (7, "44", "elements, each charged as 3 elements$"),
        # 7 elements of 3 ints and 2 recorded layers, charged 1 each as before
        (3, "9", None),
        (3, "8", "elements and layer counts"),
        (3, "6", "elements$"),
    ],
)
def test_growth_charges_a_zk_element_by_its_ints(monkeypatch, k, guard, raised):
    group = FreeAbelian(k)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    monkeypatch.setenv("GRAMATA_MEM_GUARD", guard)
    if raised is None:
        assert growth(group, units, 1).counts == (1, 2 * k + 1)
    else:
        with pytest.raises(MemoryGuard, match=f"more than {guard} {raised}"):
            growth(group, units, 1)


@pytest.mark.parametrize(
    "spec, guard, raised",
    [
        # 15 elements of 6 + 1 ints, charged 2 + 1 each
        ("prod(zk:6,zk:1)", "45", None),
        ("prod(zk:6,zk:1)", "44", "elements, each charged as 3 elements$"),
        # 17 elements of 4 + 4 ints, charged 2 + 2 each
        ("prod(zk:4,zk:4)", "68", None),
        ("prod(zk:4,zk:4)", "67", "elements, each charged as 4 elements$"),
        # F2 x Z: 7 elements, charged 1 + 1 each
        ("prod(free:2,zk:1)", "14", None),
        ("prod(free:2,zk:1)", "13", "elements, each charged as 2 elements$"),
    ],
)
def test_growth_charges_a_product_element_by_its_components(monkeypatch, spec, guard, raised):
    group = parse_group_compact(spec)
    gens = [elem for _, elem in gens_of(group)]
    monkeypatch.setenv("GRAMATA_MEM_GUARD", guard)
    if raised is None:
        assert growth(group, gens, 1).counts == (1, 2 * len(gens) + 1)
    else:
        with pytest.raises(MemoryGuard, match=f"more than {guard} {raised}"):
            growth(group, gens, 1)


def test_growth_memory_guard_on_a_ball_that_stops_growing(monkeypatch):
    # the ball of the trivial generator is {0}: only the recorded layers grow
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "50")
    assert growth(FreeAbelian(1), [(0,)], 48).counts == (1,) * 49
    with pytest.raises(MemoryGuard, match="and layer counts"):
        growth(FreeAbelian(1), [(0,)], 49)


_UNIT_TRIPLES = [Heis(*t) for t in itertools.product((-1, 0, 1), repeat=3)]


def _unit_heisenberg_sets():
    """Every generating set of one or two unit Heisenberg triples, one for
    each symmetric closure: two sets with the same closure count alike."""
    heis = HeisenbergGroup()
    sets = {}
    for gens in itertools.chain(
        itertools.combinations(_UNIT_TRIPLES, 1), itertools.combinations(_UNIT_TRIPLES, 2)
    ):
        closure = frozenset(elem for _, elem in analysis._symmetric_gens(heis, gens))
        sets.setdefault(closure, list(gens))
    return sets


def _no_kernel(*args):
    raise AssertionError("growth took the wrong kernel")


def test_column_kernel_matches_the_reference_on_every_unit_heisenberg_set(monkeypatch):
    # the inverse of (x, y, z) is (-x, -y, xy - z): H(1, 1, -1)^-1 is
    # H(-1, -1, 2), so a set with it takes the element kernel
    heis = HeisenbergGroup()
    sets = _unit_heisenberg_sets()
    columns = 0
    for closure, gens in sets.items():
        unit = all(v in (-1, 0, 1) for elem in closure for v in elem)
        columns += unit
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_element_growth" if unit else "_column_growth", _no_kernel)
            assert growth(heis, gens, 5).counts == _reference_counts(heis, gens, 5), gens
    # 16 closures of one triple and 120 of two, 78 of them all unit
    assert (len(sets), columns) == (136, 78)


def test_column_kernel_matches_the_element_kernel_at_larger_radii():
    heis = HeisenbergGroup()
    for gens, radius in (([HEIS_A, HEIS_B], 24), (gens_of(heis), 12), ([Heis(1, 1, 0), Heis(1, -1, 1)], 14)):
        assert growth(heis, gens, radius).counts == _element_growth(heis, gens, radius).counts


def _outcome(kernel, group, gens, radius):
    try:
        return kernel(group, gens, radius).counts
    except MemoryGuard as err:
        return err.message


@pytest.mark.parametrize("gens", [[("a", HEIS_A), ("b", HEIS_B)], gens_of(HeisenbergGroup())], ids=["ab", "abc"])
@pytest.mark.parametrize("radius", [3, 5])
def test_column_kernel_raises_where_the_element_kernel_does(monkeypatch, gens, radius):
    # the column kernel checks the guard once per layer, the element kernel
    # on each insert: both refuse the same layer with the same message. The
    # guards run past the ball and its recorded layers, so every outcome is met
    heis = HeisenbergGroup()
    kinds = set()
    for guard in range(1, _element_growth(heis, gens, radius).counts[-1] + radius + 4):
        monkeypatch.setenv("GRAMATA_MEM_GUARD", str(guard))
        outcome = _outcome(growth, heis, gens, radius)
        assert outcome == _outcome(_element_growth, heis, gens, radius), guard
        kinds.add("counts" if isinstance(outcome, tuple) else "layers" if outcome.endswith("layer counts") else "elements")
    assert kinds == {"counts", "layers", "elements"}


@pytest.mark.parametrize(
    "gens",
    [
        [Heis(2, 0, 0), Heis(0, 1, 0)],
        # a column kernel would hold bitsets 10^9 bits apart
        [HEIS_A, HEIS_B, Heis(0, 0, 10**9)],
    ],
)
def test_heisenberg_sets_past_unit_coordinates_take_the_element_kernel(monkeypatch, gens):
    monkeypatch.setattr(analysis, "_column_growth", _no_kernel)
    heis = HeisenbergGroup()
    assert growth(heis, gens, 4).counts == _reference_counts(heis, gens, 4)


def test_heisenberg_ball_sizes_satisfy_their_rational_series():
    # the ⟨a, b⟩ ball sizes from r = 9 on satisfy the recurrence whose
    # characteristic polynomial is (1 - x)^5 (1 + x^2)(1 + x + x^2): the root
    # 1 of multiplicity 5 is a ball that grows like r^4, Bass's degree 4
    counts = growth(HeisenbergGroup(), [("a", HEIS_A), ("b", HEIS_B)], 60).counts
    assert counts[30] == 345149 and counts[40] == 1092681
    poly = [1, -4, 7, -9, 11, -11, 9, -7, 4, -1]
    # ten values fix a polynomial of degree 9
    for x in range(-5, 5):
        assert sum(c * x**i for i, c in enumerate(poly)) == (1 - x) ** 5 * (1 + x * x) * (1 + x + x * x)
    for r in range(9, 61):
        assert sum(c * counts[r - i] for i, c in enumerate(poly)) == 0, r


def test_ball_with_words_are_shortest():
    group = FreeAbelian(2)
    words = ball_with_words(group, gens_of(group), 3)
    member = wp_oracle(group, gens_of(group)).member
    for element, word in words.items():
        assert len(word) <= 3
        assert abs(element[0]) + abs(element[1]) == len(word)  # shortest in Z^2
        # the word actually evaluates to the element
        value = group.identity()
        table = dict(gens_of(group))
        table.update({n + "^-1": group.inverse(g) for n, g in gens_of(group)})
        for sym in word:
            value = group.mul(value, table[sym])
        assert value == element
    assert member(())  # sanity: the oracle recognizes the empty word


def test_growth_exponent_estimates():
    z = growth(FreeAbelian(1), gens_of(FreeAbelian(1)), 10)
    assert abs(growth_exponent_estimate(z) - 1.0) < 0.15
    z2 = growth(FreeAbelian(2), gens_of(FreeAbelian(2)), 10)
    assert abs(growth_exponent_estimate(z2) - 2.0) < 0.2
    with pytest.raises(GramataError):
        growth_exponent_estimate(growth(FreeAbelian(1), gens_of(FreeAbelian(1)), 2))


def test_growth_exponent_heisenberg_two_generators():
    table = growth(HeisenbergGroup(), [("a", HEIS_A), ("b", HEIS_B)], 8)
    estimate = growth_exponent_estimate(table)
    assert 3.0 <= estimate <= 4.5


# --- dissimilarity ------------------------------------------------------------


def test_dissimilarity_lower_bound_z():
    report = dissimilarity_lower_bound(FreeAbelian(1), gens_of(FreeAbelian(1)), 4)
    assert report.lower_bound == 5
    assert sorted(report.witnesses, key=lambda w: (len(w), w)) == [
        (),
        ("a",),
        ("a^-1",),
        ("a", "a"),
        ("a^-1", "a^-1"),
    ]


def test_dissimilarity_lower_bound_trivial():
    report = dissimilarity_lower_bound(FreeAbelian(1), gens_of(FreeAbelian(1)), 0)
    assert report.lower_bound == 1
    report = dissimilarity_lower_bound(FreeAbelian(1), [], 2)  # trivial subgroup
    assert report.lower_bound == 1


def test_dissimilarity_lower_bound_f2():
    report = dissimilarity_lower_bound(FreeGroup(2), gens_of(FreeGroup(2)), 4)
    assert report.lower_bound == 17


@pytest.mark.parametrize("group", [FreeGroup(1), FreeAbelian(1)], ids=repr)
def test_dissimilarity_lower_bound_of_a_generator_named_like_an_inverse(group):
    # the oracle's symbols are a^-1 and a^-1^-1: each distinguisher is the
    # ball's word for an inverse, never a rewrite of the name into a
    report = dissimilarity_lower_bound(group, [("a^-1", gens_of(group)[0][1])], 2)
    assert report.witnesses == [(), ("a^-1",), ("a^-1^-1",)]


def _brute_force_max_dissimilar(oracle_, alphabet, n):
    words = list(all_words(alphabet, n))

    def dissimilar(w1, w2):
        budget = n - max(len(w1), len(w2))
        return any(
            oracle_.member(w1 + v) != oracle_.member(w2 + v) for v in all_words(alphabet, budget)
        )

    best = 0
    for size in range(len(words), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(words, size):
            if all(dissimilar(a, b) for a, b in itertools.combinations(subset, 2)):
                best = size
                break
        if best == size:
            break
    return best


def test_dissimilarity_exact_wz():
    wz = wp_oracle(FreeAbelian(1), gens_of(FreeAbelian(1)))
    report = dissimilarity_exact(wz, wz.alphabet, 2)
    assert report.exact == 3
    assert report.method == "exact-clique"
    assert set(report.witnesses) >= {(), ("a",), ("a^-1",)}
    assert report.exact == _brute_force_max_dissimilar(wz, wz.alphabet, 2)


def test_dissimilarity_exact_upow():
    report = dissimilarity_exact(oracle("UPOW"), ("a",), 4)
    assert report.exact == 3
    assert report.exact == _brute_force_max_dissimilar(oracle("UPOW"), ("a",), 4)


def test_dissimilarity_exact_trivial_n0():
    report = dissimilarity_exact(oracle("UPOW"), ("a",), 0)
    assert report.exact == 1


def test_dissimilarity_exact_matches_brute_force_on_more_oracles():
    cases = [
        (oracle("ANBN-STAR"), ("a", "b"), 3),
        (oracle("MULTIPLE"), ("x", "y"), 3),
        (oracle("COMPOSITE"), ("x",), 6),
    ]
    for orc, alphabet, n in cases:
        report = dissimilarity_exact(orc, alphabet, n)
        assert report.exact == _brute_force_max_dissimilar(orc, alphabet, n), orc.name


def _brute_force_max_clique(adj):
    vertices = range(len(adj))
    for size in range(len(adj), 0, -1):
        for subset in itertools.combinations(vertices, size):
            if all(adj[a] >> b & 1 for a, b in itertools.combinations(subset, 2)):
                return size
    return 0


def _graph(m, edges):
    adj = [0] * m
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def test_dissimilarity_exact_search_improves_on_the_greedy_seed(monkeypatch):
    # the hub 0, of degree 5, is joined to the leaves 1..5, one class of
    # interchangeable words, and the greedy seed takes it with one leaf: 2.
    # The clique 6..9, of degree 3 each, is the maximum: 4
    hub = _graph(10, [(0, leaf) for leaf in range(1, 6)] + list(itertools.combinations(range(6, 10), 2)))
    rng = random.Random(2801)
    graphs = [hub] + [
        _graph(9, [e for e in itertools.combinations(range(9), 2) if rng.random() < density])
        for density in (0.3, 0.5, 0.7)
        for _ in range(5)
    ]
    for adj in graphs:
        labels = [(str(i),) for i in range(len(adj))]
        monkeypatch.setattr(analysis, "_dissimilarity_graph", lambda *args: (labels, adj))
        report = dissimilarity_exact(oracle("UPOW"), ("a",), 1)
        chosen = [labels.index(w) for w in report.witnesses]
        assert all(adj[a] >> b & 1 for a, b in itertools.combinations(chosen, 2))
        assert report.exact == len(chosen) == _brute_force_max_clique(adj)
    assert _brute_force_max_clique(hub) == 4


def test_dissimilarity_exact_guard():
    with pytest.raises(InstanceTooLarge):
        dissimilarity_exact(oracle("MULT"), ("x", "y", "z"), 20)


def test_dissimilarity_exact_guard_bounds_pair_work():
    # |alphabet|^(n+1) = 2^19 passes a word-count guard of 10^6, but the
    # pairs need up to 2.7 * 10^11 suffix comparisons
    calls = []
    member = oracle("MULTIPLE").member

    def counting(word):
        calls.append(word)
        if len(calls) > 100:
            raise AssertionError("the oracle was called: the guard let the instance through")
        return member(word)

    with pytest.raises(InstanceTooLarge):
        dissimilarity_exact(NamedOracle("counting", ("x", "y"), counting), ("x", "y"), 18)
    assert calls == []


def test_pair_work_is_the_comparisons_of_a_language_without_dissimilar_pairs():
    # an empty language: every pair compares its answers on every suffix
    # (_pair_work of them), but every answer comes from one walk over the
    # words, so the oracle is asked once per word, in all_words order
    calls = []

    def nothing(word):
        calls.append(word)
        return False

    report = dissimilarity_exact(NamedOracle("empty", ("x", "y"), nothing), ("x", "y"), 4)
    assert report.exact == 1
    assert calls == list(all_words(("x", "y"), 4))


def _reference_graph(member, alphabet, n):
    """The dissimilarity graph asked pair by pair and suffix by suffix: two
    words are joined when some v of at most n - max(|w1|, |w2|) symbols puts
    exactly one of w1 + v and w2 + v into the language."""
    words = list(all_words(alphabet, n))
    adj = [0] * len(words)
    for i, j in itertools.combinations(range(len(words)), 2):
        budget = n - max(len(words[i]), len(words[j]))
        if any(member(words[i] + v) != member(words[j] + v) for v in all_words(alphabet, budget)):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return words, adj


def _balanced(word):
    return word.count("x") == word.count("y")


# the longest length of each alphabet size whose reference graph is quick
_GRAPH_LENGTHS = {1: 9, 2: 6, 3: 4, 4: 3, 6: 2}


@pytest.mark.parametrize(
    "name", [n for n in oracle_names() if not n.startswith("WP:")] + ["WP:free:2", "WP:heis", "WP:zk:1", "balanced"]
)
def test_dissimilarity_graph_matches_the_per_pair_per_suffix_loop(name, monkeypatch):
    # every word's answers are read off one fold walk over all words; the
    # reference asks the oracle for every pair and suffix from scratch, and
    # the same clique search on its graph picks the same witnesses
    orc = NamedOracle("balanced", ("x", "y"), _balanced) if name == "balanced" else oracle(name)
    alphabet = tuple(sorted(orc.alphabet))
    for n in range(_GRAPH_LENGTHS[len(alphabet)] + 1):
        want = _reference_graph(orc.member, alphabet, n)
        assert analysis._dissimilarity_graph(orc.member, alphabet, n) == want, n
        report = dissimilarity_exact(orc, alphabet, n)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_dissimilarity_graph", lambda *args: want)
            assert dissimilarity_exact(orc, alphabet, n) == report, n


def test_witness_set_verified_pairwise_by_oracle_only():
    # dissimilarity_lower_bound raises if any pair fails its oracle check;
    # reaching here with the right cardinality is the verification
    report = dissimilarity_lower_bound(HeisenbergGroup(), gens_of(HeisenbergGroup()), 4)
    ball = growth(HeisenbergGroup(), gens_of(HeisenbergGroup()), 2).counts[2]
    assert report.lower_bound == ball


def _patch_wp_oracle(monkeypatch, wrap):
    """Make dissimilarity_lower_bound verify through wrap(member)."""
    real = analysis.wp_oracle

    def patched(group, gens, name=None):
        oracle_ = real(group, gens, name)
        return NamedOracle(oracle_.name, oracle_.alphabet, wrap(oracle_.member))

    monkeypatch.setattr(analysis, "wp_oracle", patched)


def test_witness_verification_asks_the_oracle_once_per_witness_and_once_per_pair(monkeypatch):
    calls = []

    def wrap(member):
        return lambda word: calls.append(word) or member(word)

    _patch_wp_oracle(monkeypatch, wrap)
    report = dissimilarity_lower_bound(FreeGroup(2), gens_of(FreeGroup(2)), 8)
    # |B_F2(4)| = 161 witnesses: 12,880 pairs and 160 witnesses with a later one
    assert report.lower_bound == 161
    assert len(calls) == 12880 + 160


# no earlier pair's w2 + v spells the same symbols as the chosen one
@pytest.mark.parametrize("first, second", [(0, 16), (3, 10), (5, 12)])
@pytest.mark.parametrize("wrong_on", ["w1 + v", "w2 + v"])
def test_witness_verification_names_the_pair_an_oracle_is_wrong_on(monkeypatch, first, second, wrong_on):
    group, gens = FreeGroup(2), gens_of(FreeGroup(2))
    witnesses = dissimilarity_lower_bound(group, gens, 4).witnesses
    w1, w2 = witnesses[first], witnesses[second]
    words = ball_with_words(group, gens, 2)
    (g1,) = [g for g, w in words.items() if w == w1]
    v = words[group.inverse(g1)]
    # the oracle is wrong on w1 + v from the first pair of w1 on, so the
    # failure names that first pair; wrong on w2 + v it names (w1, w2)
    if wrong_on == "w1 + v":
        wrong, w2 = w1 + v, witnesses[first + 1]
    else:
        wrong = w2 + v

    def wrap(member):
        return lambda word: (not member(word)) if word == wrong else member(word)

    _patch_wp_oracle(monkeypatch, wrap)
    with pytest.raises(GramataError, match=re.escape(f"failed for {w1!r} vs {w2!r}")):
        dissimilarity_lower_bound(group, gens, 4)


# --- lemma and theorem checks ----------------------------------------------------


def test_lemma_growth_check_z():
    ok, evidence = lemma_growth_check(FreeAbelian(1), gens_of(FreeAbelian(1)), 4)
    assert ok
    assert evidence["dissimilarity_lower_bound"] == 5
    assert evidence["growth_at_half"] == 5


def test_lemma_growth_check_trivial_group():
    ok, evidence = lemma_growth_check(FreeAbelian(1), [], 2)
    assert ok
    assert evidence["growth_at_half"] == 1


def test_lemma_growth_check_all_groups():
    # a counterexample anywhere here is a build-failing bug
    groups = [FreeAbelian(1), FreeAbelian(2), FreeGroup(2), HeisenbergGroup()]
    for group in groups:
        for n in range(0, 9):
            ok, evidence = lemma_growth_check(group, gens_of(group), n)
            assert ok, (group, n, evidence)


def test_probe_identity_machine_constant_column():
    group = FreeAbelian(1)
    machine = EFA(group, ["q"], ["a"], [Transition("q", "a", "q", (0,))], "q", ["q"])
    report = theorem_growth_probe(machine, range(2, 9))
    assert all(row.configurations == 1 for row in report.rows)


def test_probe_needs_a_length():
    with pytest.raises(GramataError, match="at least one length"):
        theorem_growth_probe(CONSTRUCTIONS["wp-heis"].build(), [])


def test_probe_f2_has_no_crossing():
    spec = CONSTRUCTIONS["wp-f2"]
    report = theorem_growth_probe(spec.build(), range(2, 13), spec.budget)
    # the machine's configuration supply equals the demand exactly
    assert all(row.configurations == row.demand for row in report.rows)
    assert report.crossing is None


def test_probe_heisenberg_crossing():
    spec = CONSTRUCTIONS["wp-heis"]
    report = theorem_growth_probe(spec.build(), range(2, 17), spec.budget, machine_name="wp-heis")
    assert report.crossing == 10
    before = [r for r in report.rows if r.n < 10]
    assert all(not r.exceeded for r in before)


def test_growth_memory_guard_checked_on_insert(monkeypatch):
    # every new product is stored, so the distinct products bound the ball
    # held in memory when the guard fires: the limit plus one, plus at most
    # the rest of one element's 8 products, which are computed together
    produced = set()

    class CountingFreeGroup(FreeGroup):
        def mul(self, g, h):
            product = super().mul(g, h)
            produced.add(product)
            return product

        def right_mul(self, h):
            # growth multiplies by compiled right actions
            act = super().right_mul(h)

            def counted(g):
                product = act(g)
                produced.add(product)
                return product

            return counted

    group = CountingFreeGroup(4)
    monkeypatch.setenv("GRAMATA_MEM_GUARD", "1000")
    with pytest.raises(MemoryGuard):
        growth(group, gens_of(FreeGroup(4)), 4)  # the radius-4 ball has 3,201 elements
    # at least the 1,001 stored elements went through the counted products
    assert 1001 <= len(produced | {group.identity()}) <= 1001 + 7
