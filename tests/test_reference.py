"""Every decider against a brute-force reference on random machines over
every register group."""

import random
from itertools import product

import pytest
from conftest import ALL_GROUPS, CI_PROFILE, random_element
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gramata.constructions import standard_generators
from gramata.errors import GramataError
from gramata.model import EFA, Transition, parse_efa, serialize_efa
from gramata.simulate import (
    ANY,
    Verdict,
    _distances_to_accept,
    _language_verdicts,
    _search_bfs,
    _search_dfs,
    _verify_certificate,
    accepts,
    all_words,
    constant_policy,
    reachable_register_count,
)


def _reference_successors(efa, word):
    n = len(word)

    def successors(q, p):
        return [
            (t, p + (t.symbol is not None))
            for t in efa.transitions
            if t.source == q and (t.symbol is None or (p < n and t.symbol == word[p]))
        ]

    return successors


def reference_accept_depth(efa, word, budget):
    """The least depth d <= budget of an accepting configuration, None if
    there is none, by brute force: the configurations at each exact depth
    are built as one set per depth, with no dedup across depths and no
    pruning."""
    group, n = efa.group, len(word)
    successors = _reference_successors(efa, word)
    layer = {(efa.initial, 0, group.identity())}
    for d in range(budget + 1):
        if any(q in efa.accepting and p == n and group.is_identity(g) for q, p, g in layer):
            return d
        layer = {(t.target, np, group.mul(g, t.register)) for q, p, g in layer for t, np in successors(q, p)}
    return None


def reference_decide(efa, word, budget):
    """(verdict, d_min) by brute force: Accept when reference_accept_depth
    finds an accepting configuration within the budget; d_min is the
    breadth-first distance to (accepting state, |word|) in the
    register-ignoring projection."""
    n = len(word)
    successors = _reference_successors(efa, word)
    accepted = reference_accept_depth(efa, word, budget) is not None
    seen, frontier, d = {(efa.initial, 0)}, [(efa.initial, 0)], 0
    while frontier and not any(q in efa.accepting and p == n for q, p in frontier):
        frontier = [node for q, p in frontier for t, np in successors(q, p) if (node := (t.target, np)) not in seen]
        seen.update(frontier)
        d += 1
    d_min = d if frontier else None
    if accepted:
        return Verdict.ACCEPT, d_min
    return (Verdict.BUDGET_EXHAUSTED if d_min is not None and d_min > budget else Verdict.REJECT), d_min


def reference_tree_walk(efa, word, budget):
    """((expanded, max_depth, accept_depth), certificate) of the unpruned
    search as a plain recursive walk of every path, with no memo and no
    compiled moves: each configuration at depth d < budget tries the
    transitions from its state, epsilon moves first, then the word's next
    symbol, each in transition order. A child at depth d + 1 is counted
    when d + 1 + its distance to acceptance (reference_distances) is within
    the budget, and the first accepting child ends the walk."""
    group, n = efa.group, len(word)
    if not word and efa.initial in efa.accepting:
        return (0, 0, 0), ()  # the empty path accepts
    dist = reference_distances(efa, word[::-1])
    stats = [0, 0]  # expanded, max_depth

    def walk(q, pos, reg, path):
        depth = len(path) + 1
        eps = [t for t in efa.transitions if t.source == q and t.symbol is None]
        reads = [t for t in efa.transitions if t.source == q and pos < n and t.symbol == word[pos]]
        for t in eps + reads:
            npos = pos + (t.symbol is not None)
            remaining = dist[n - npos].get(t.target)
            if remaining is None or depth + remaining > budget:
                continue
            child = group.mul(reg, t.register)
            stats[0] += 1
            stats[1] = max(stats[1], depth)
            if npos == n and t.target in efa.accepting and group.is_identity(child):
                return path + (t,)
            found = walk(t.target, npos, child, path + (t,))
            if found is not None:
                return found
        return None

    certificate = walk(efa.initial, 0, group.identity(), ())
    return (*stats, certificate and len(certificate)), certificate


def reference_distances(efa, reads):
    """The table of simulate._distances_to_accept from one backward
    breadth-first search over (state, r), all levels at once."""
    sources = efa.distance_levels.sources.get
    top = len(reads)
    dist = [{} for _ in range(top + 1)]
    dist[0] = dict.fromkeys(efa.accepting, 0)
    frontier = [(q, 0) for q in efa.accepting]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for q, r in frontier:
            here = dist[r]
            for src in sources((q, None), ()):
                if src not in here:
                    here[src] = d
                    nxt.append((src, r))
            if r < top:
                up = dist[r + 1]
                for src in sources((q, reads[r]), ()):
                    if src not in up:
                        up[src] = d
                        nxt.append((src, r + 1))
        frontier = nxt
    return dist


def reference_register_counts(efa, max_len, budgets):
    """Per length l <= max_len, the distinct (state, register) pairs of the
    configurations (state, symbols read <= l, register) at any exact depth
    <= budgets[l], built as one set per depth over any symbols, as above."""
    group = efa.group
    layers = [{(efa.initial, 0, group.identity())}]
    for _ in range(max(budgets)):
        layers.append(
            {
                (t.target, k + (t.symbol is not None), group.mul(g, t.register))
                for q, k, g in layers[-1]
                for t in efa.transitions
                if t.source == q and (t.symbol is None or k < max_len)
            }
        )
    return [
        len({(q, g) for layer in layers[: budgets[length] + 1] for q, k, g in layer if k <= length})
        for length in range(max_len + 1)
    ]


def draw_machine(group, data, registers=None, deterministic=None):
    """A random machine over the group, on one to three letters, its
    registers drawn from registers when given. A machine drawn with
    deterministic=False may still turn out deterministic, for example with
    no transition."""
    if registers is None:
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        g = random_element(group, rng)
        # the identity and an inverse pair, so that accepting paths exist
        registers = [group.identity(), g, group.inverse(g), random_element(group, rng)]
    states = [f"s{i}" for i in range(data.draw(st.integers(1, 4), label="states"))]
    alphabet = ("a", "b", "c")[: data.draw(st.integers(1, 3), label="letters")]
    # about half the machines are deterministic, which the breadth-first
    # search runs as one path: no epsilon move, no repeated (state, symbol)
    if deterministic is None:
        deterministic = data.draw(st.booleans(), label="deterministic")
    transition = st.builds(
        Transition,
        st.sampled_from(states),
        st.sampled_from(alphabet if deterministic else (None,) + alphabet),
        st.sampled_from(states),
        st.sampled_from(registers),
    )
    unique = (lambda t: (t.source, t.symbol)) if deterministic else None
    transitions = data.draw(st.lists(transition, max_size=6, unique_by=unique), label="transitions")
    initial = data.draw(st.sampled_from(states), label="initial")
    accepting = data.draw(st.lists(st.sampled_from(states), max_size=2), label="accepting")
    machine = EFA(group, states, alphabet, transitions, initial, accepting)
    assert machine.deterministic or not deterministic
    return machine


def draw_epsilon_machine(group, data):
    """A random machine over the group, on one to three letters, whose one
    accepting state f is entered only by epsilon moves with a register other
    than the identity, from a non-accepting initial state: every accepting
    path ends in an epsilon tail that must cancel what came before it."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = random_element(group, rng)
    while group.is_identity(g):
        g = random_element(group, rng)
    h = random_element(group, rng)
    registers = [group.identity(), g, group.inverse(g), h]
    into_f = [x for x in registers if not group.is_identity(x)]
    states = [f"s{i}" for i in range(data.draw(st.integers(1, 3), label="states"))]
    alphabet = ("a", "b", "c")[: data.draw(st.integers(1, 3), label="letters")]
    inner = st.builds(
        Transition,
        st.sampled_from(states),
        st.sampled_from((None,) + alphabet),
        st.sampled_from(states),
        st.sampled_from(registers),
    )
    tail = st.builds(Transition, st.sampled_from(states + ["f"]), st.none(), st.just("f"), st.sampled_from(into_f))
    transitions = data.draw(st.lists(inner, max_size=5), label="transitions")
    transitions += data.draw(st.lists(tail, min_size=1, max_size=3), label="tails")
    return EFA(group, states + ["f"], alphabet, transitions, "s0", ["f"])


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_move_floor_is_a_lower_bound_on_the_moves_back(group, data):
    # h(e) = 0 and h(g) <= 1 + h(g*r): a register g needs at least h(g)
    # moves back to the identity, through the public product and through
    # the searches' right actions alike. A machine's floor is scaled by its
    # largest register; each register's own floor, scaled by it alone, is
    # the tightest
    registers = [t.register for t in draw_machine(group, data).transitions]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="elements"))
    elements = [random_element(group, rng) for _ in range(8)] + registers
    for chosen in [registers] + [[r] for r in registers]:
        floor = group.move_floor(chosen)
        if floor is None:
            assert group.norm is None or all(group.norm(r) == 0 for r in chosen)
            continue
        assert floor(group.identity()) == 0
        for g in elements:
            for r in chosen:
                for moved in (group.mul(g, r), group.right_mul(r)(g)):
                    assert floor(g) <= 1 + floor(moved), (g, r)


def _has_standard_generators(group):
    try:
        standard_generators(group)
    except GramataError:
        return False
    return True


@pytest.mark.parametrize("group", [g for g in ALL_GROUPS if _has_standard_generators(g)], ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_the_move_floor_keeps_every_word_accepted_at_its_least_depth(group, data):
    # registers of norm at most 1, the identity, the generators and their
    # inverses, so that the floor's scale is 1; each length's budget is the
    # least depth at which one of its words accepts, so that an accepting
    # path of that word leaves no move to spare and a floor that pruned
    # one register too many would lose it. A length with no accepted word
    # within 6 moves keeps a budget of 6. A deterministic machine's sweep
    # takes no floor, so only the others are drawn
    gens = [g for _, g in standard_generators(group)]
    registers = [group.identity()] + gens + [group.inverse(g) for g in gens]
    machine = draw_machine(group, data, registers, deterministic=False)
    assume(not machine.deterministic)
    alphabet = machine.alphabet
    words = list(all_words(alphabet, 3))
    depths = {word: reference_accept_depth(machine, word, 6) for word in words}
    budgets = [min((d for w, d in depths.items() if len(w) == n and d is not None), default=6) for n in range(4)]
    policy = budgets.__getitem__
    verdicts = list(_language_verdicts(machine, alphabet, 3, policy))
    for word, verdict in zip(words, verdicts, strict=True):
        assert verdict is reference_decide(machine, word, budgets[len(word)])[0], (word, budgets)


# the groups with a norm, whose sweeps prune by each state's move floor
NORMED_GROUPS = [g for g in ALL_GROUPS if g.move_floor([]) is not None]


def draw_tail_machine(group, data):
    """A random machine over the group whose accepting tail state f loops
    on one coordinate only: by one standard generator or its inverse, and
    by nothing else. f is entered from the other states with drawn
    registers, so its floor pins every other coordinate."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = random_element(group, rng)
    gens = [x for _, x in standard_generators(group)]
    loop = data.draw(st.sampled_from(gens + [group.inverse(x) for x in gens]), label="loop")
    # entries that the loop can cancel, and one that it cannot
    registers = [group.identity(), g, group.inverse(g), group.inverse(loop), group.mul(loop, loop)]
    states = [f"s{i}" for i in range(data.draw(st.integers(1, 3), label="states"))]
    alphabet = ("a", "b", "c")[: data.draw(st.integers(1, 3), label="letters")]
    reads = (None,) + alphabet
    inner = st.builds(
        Transition, st.sampled_from(states), st.sampled_from(reads), st.sampled_from(states), st.sampled_from(registers)
    )
    entry = st.builds(
        Transition, st.sampled_from(states), st.sampled_from(reads), st.just("f"), st.sampled_from(registers)
    )
    transitions = data.draw(st.lists(inner, max_size=5), label="transitions")
    transitions += data.draw(st.lists(entry, min_size=1, max_size=3), label="entries")
    transitions.append(Transition("f", data.draw(st.sampled_from(reads), label="loop read"), "f", loop))
    return EFA(group, states + ["f"], alphabet, transitions, "s0", ["f"])


@pytest.mark.parametrize("group", NORMED_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_state_floors_are_consistent_on_every_move(group, data):
    # each state's floor is scaled and pinned by the registers that its
    # paths can still apply: h_q(e) = 0 and h_q(g) <= 1 + h_q'(g*r) for
    # every transition q -> q' with register r, through the public product
    # and the searches' right actions alike. The elements include the
    # inverses of the registers and of their products, which can return
    drawn = draw_tail_machine if data.draw(st.booleans(), label="tail") else draw_machine
    machine = drawn(group, data)
    floors = machine.move_floors
    registers = [t.register for t in machine.transitions]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="elements"))
    elements = [random_element(group, rng) for _ in range(6)] + registers
    elements += [group.inverse(group.mul(r, s)) for r in registers for s in [group.identity()] + registers]
    for q in machine.states:
        assert floors[q](group.identity()) == 0
    for t in machine.transitions:
        here, there = floors[t.source], floors[t.target]
        for g in elements:
            for moved in (group.mul(g, t.register), group.right_mul(t.register)(g)):
                assert here(g) <= 1 + there(moved), (t, g)


@pytest.mark.parametrize("group", [g for g in NORMED_GROUPS if _has_standard_generators(g)], ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_machines_whose_tail_loops_on_one_coordinate(group, data):
    check_deciders(draw_tail_machine(group, data), data)


def check_deciders(machine, data):
    """Every decider against reference_decide on every word up to length
    3, and the parse round trip and the register count against theirs,
    under a drawn budget."""
    alphabet = machine.alphabet
    if data.draw(st.booleans(), label="per length"):
        # a budget per length that need not be monotone, such as (4, 1, 5, 2)
        budgets = data.draw(st.tuples(*[st.integers(1, 5)] * 4), label="budgets")
        policy = budgets.__getitem__
    else:
        budget = data.draw(st.integers(1, 5), label="budget")
        budgets, policy = (budget,) * 4, constant_policy(budget)

    shared = list(_language_verdicts(machine, alphabet, 3, policy))
    parsed = parse_efa(serialize_efa(machine))
    assert parsed == machine and serialize_efa(parsed) == serialize_efa(machine)
    assert list(_language_verdicts(parsed, alphabet, 3, policy)) == shared
    assert reachable_register_count(machine, 3, policy) == reference_register_counts(machine, 3, budgets)
    for word, verdict in zip(all_words(alphabet, 3), shared, strict=True):
        budget = budgets[len(word)]
        expected, d_min = reference_decide(machine, word, budget)
        assert verdict is expected, word
        for dedup in (True, False):
            result = accepts(machine, word, policy, dedup=dedup)
            assert result.verdict is expected, (word, dedup)
            if result.certificate is not None:
                _verify_certificate(machine, word, result.certificate)
            assert (result.verdict is Verdict.BUDGET_EXHAUSTED) == (d_min is not None and d_min > budget)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_every_decider_matches_the_reference(group, data):
    check_deciders(draw_machine(group, data), data)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_distance_table_matches_the_reference(group, data):
    # one table serves both deciders: a word's symbols reversed give its
    # d_min, and ANY reads give the least distance over all words
    machine = draw_machine(group, data)
    lower = _distances_to_accept(machine, [ANY] * 3)
    for r in range(4):
        tables = [_distances_to_accept(machine, word[::-1])[r] for word in product(machine.alphabet, repeat=r)]
        for q in machine.states:
            found = [table[q] for table in tables if q in table]
            assert lower[r].get(q) == min(found, default=None), (r, q)
    for word in all_words(machine.alphabet, 3):
        _, d_min = reference_decide(machine, word, 1)
        assert _distances_to_accept(machine, word[::-1])[len(word)].get(machine.initial) == d_min, word


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_machines_that_accept_only_through_epsilon_moves(group, data):
    machine = draw_epsilon_machine(group, data)
    check_deciders(machine, data)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_memoized_distance_levels_match_one_backward_search(group, data):
    # every table of one machine, in a drawn order and twice over, each
    # after a decider that reads it (a word's search prunes in one pass and
    # not in the other): the levels are shared by all of them, so a caller
    # that wrote into one would fail a later comparison
    machine = draw_machine(group, data)
    policy = constant_policy(data.draw(st.integers(1, 5), label="budget"))
    words = list(all_words(machine.alphabet, 3)) + [None]  # None: the ANY reads of the language search
    for k, word in enumerate(data.draw(st.permutations(words), label="order") * 2):
        if word is None:
            reads = (ANY,) * 3
            list(_language_verdicts(machine, machine.alphabet, 3, policy))
        else:
            reads = word[::-1]
            accepts(machine, word, policy, dedup=k % 2 == 0)
        assert _distances_to_accept(machine, reads) == reference_distances(machine, reads), reads


def check_stats_without_a_search(machine, data):
    """accepts() against both searches, called directly with its distance
    table, on every word up to length 3 under a drawn budget of 0 to 5:
    the same stats, and reference_decide's verdict. A word with no
    register-ignoring path runs no search, so this pins the stats that
    accepts() reports for it."""
    budget = data.draw(st.integers(0, 5), label="budget")
    policy = ((budget,) * 4).__getitem__  # constant_policy refuses a budget of 0
    for word in all_words(machine.alphabet, 3):
        if not word and machine.initial in machine.accepting:
            continue  # the empty path accepts, with no search either way
        dist = _distances_to_accept(machine, word[::-1])
        expected, _ = reference_decide(machine, word, budget)
        for dedup, search in ((True, _search_bfs), (False, _search_dfs)):
            result = accepts(machine, word, policy, dedup=dedup)
            assert result.verdict is expected, (word, dedup)
            assert result.stats == search(machine, word, budget, dist)[0], (word, dedup)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_accepts_reports_the_stats_of_the_search_it_skips(group, data):
    # an epsilon machine's words often have no path at all, and about half
    # of draw_machine's machines are deterministic, which run as one path
    drawn = draw_epsilon_machine if data.draw(st.booleans(), label="epsilon tails") else draw_machine
    check_stats_without_a_search(drawn(group, data), data)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_path_walks_match_the_general_searches(group, data):
    # accepts() reads a deterministic machine's stats and certificates off
    # its one path; the same machine marked nondeterministic runs the
    # general kernels, which must agree with it in both modes under every
    # budget, a negative one too, which a policy may return
    machine = draw_machine(group, data, deterministic=True)
    general = EFA(group, machine.states, machine.alphabet, machine.transitions, machine.initial, machine.accepting)
    general.__dict__["deterministic"] = False
    for word in all_words(machine.alphabet, 3):
        for budget in range(-1, 7):
            policy = ((budget,) * 4).__getitem__
            for dedup in (True, False):
                path, search = (accepts(m, word, policy, dedup=dedup) for m in (machine, general))
                assert path == search, (word, budget, dedup)


def check_unpruned_search(machine, data):
    """accepts(..., dedup=False) against reference_tree_walk on every word
    up to length 3: the same stats and the same certificate."""
    budget = data.draw(st.integers(1, 5), label="budget")
    for word in all_words(machine.alphabet, 3):
        result = accepts(machine, word, constant_policy(budget), dedup=False)
        stats, certificate = reference_tree_walk(machine, word, budget)
        assert (result.stats.expanded, result.stats.max_depth, result.stats.accept_depth) == stats, word
        assert result.certificate == certificate, word


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
@given(data=st.data())
@settings(max_examples=settings.default.max_examples if CI_PROFILE else 60, deadline=None)
def test_unpruned_search_matches_a_plain_tree_walk(group, data):
    # the depth-first search reuses the counts of finished subtrees whose
    # root comes back; epsilon loops and branching make such roots common
    drawn = draw_epsilon_machine if data.draw(st.booleans(), label="epsilon tails") else draw_machine
    check_unpruned_search(drawn(group, data), data)
