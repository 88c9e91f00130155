"""Cayley-graph growth, dissimilarity counts, and desk-scale checks of the
time-complexity argument.

The growth function is computed by exact breadth-first search, sphere by
sphere: with a symmetric generating set every neighbour of an element at
radius r lies at radius r-1, r or r+1, so growth() keeps only the last
spheres. Its element kernel keeps each element with a mask of its back
generators and skips every product back into the previous sphere. A
Heisenberg set whose symmetric closure has every coordinate in {-1, 0, 1}
is counted by columns instead: a generator moves the column over the
abelianised (x, y) and shifts all its z values by one amount, so each
column of a sphere is one integer bitset over z, and a layer takes one
shift and one OR per column and generator. Every other set stays on
elements: a sparse z would make the bitsets huge, and a sphere of Z^3 has
at most two elements in a column over (x, y). Both kernels count the whole ball's
elements and its layers against the memory guard. Dissimilarity uses
either the constructive witness family (each ball element's shortest word,
distinguished by appending inverses) or an exact maximum-clique search over
the dissimilarity graph on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from . import algebra
from .constructions import standard_generators, wp_oracle
from .errors import GramataError, InstanceTooLarge, MemoryGuard
from .simulate import Fold, all_words, bfs_layers, default_policy, gc_paused, mem_guard, reachable_register_count


@dataclass(frozen=True)
class GrowthTable:
    counts: tuple  # counts[r] = ball cardinality at radius r

    @property
    def radius(self):
        return len(self.counts) - 1


def _named_gens(gens):
    """Accept either elements or (name, element) pairs."""
    named = []
    for i, g in enumerate(gens):
        if isinstance(g, tuple) and len(g) == 2 and isinstance(g[0], str):
            named.append(g)
        else:
            named.append((f"s{i}", g))
    return named


def _symmetric_gens(group, gens):
    """Generators with inverses added, deduplicated by element value."""
    table = {}
    for name, elem in _named_gens(gens):
        group.check(elem)
        table.setdefault(elem, name)
        table.setdefault(group.inverse(elem), name + "^-1")
    return [(name, elem) for elem, name in table.items()]


def growth(group, gens, radius):
    """Exact ball cardinalities on the Cayley graph, radii 0..radius.

    A breadth-first search over spheres. The generating set is symmetric, so
    every neighbour of sphere r lies in sphere r-1, r or r+1, and sphere r+1
    is the products of sphere r less spheres r and r-1. A Heisenberg set
    whose generators and their inverses all have coordinates in {-1, 0, 1}
    is counted by columns (_column_growth); every other set by elements
    (_element_growth). Both kernels count the same elements against the
    memory guard and raise at the same radius with the same message. Runs
    with the collector paused (gc_paused)."""
    sym_gens = _symmetric_gens(group, gens)
    columns = isinstance(group, algebra.HeisenbergGroup) and all(
        v in (-1, 0, 1) for _, elem in sym_gens for v in elem
    )
    return gc_paused(_column_growth if columns else _element_growth, group, sym_gens, radius)


def _record(counts, total, guard):
    """Append the ball size after a layer. MemoryGuard when the ball holds
    more than guard elements, or the ball and its recorded layers do, as
    bfs_layers counts them."""
    if total > guard:
        raise MemoryGuard(guard)
    counts.append(total)
    if total + len(counts) > guard:
        raise MemoryGuard(guard, layers=True)


def _charge(group):
    """What one element counts as against the guard: ceil(k/3) for Z^k, a product's sum, else 1."""
    if isinstance(group, algebra.DirectProduct):
        return _charge(group.left) + _charge(group.right)
    return -(-group.k // 3) if isinstance(group, algebra.FreeAbelian) else 1


def _element_growth(group, sym_gens, radius):
    """growth over elements, for any group. Only the current and the new
    sphere are stored, each element with a mask of its back generators: a
    product g*s that lands in the new sphere sets the bit of s^-1 in its
    mask, and a product by a generator in the mask is skipped. An element of
    sphere r-1 skips only products into sphere r-2, so each product from
    sphere r back into sphere r-1 is the inverse of one that set a bit; every
    product left lands in sphere r or r+1. Each layer takes one generator at
    a time across the whole sphere, so an element is found by its first
    generator in that order, not by its first parent. The memory guard is
    checked on each insert, and an element counts as _charge(group)
    elements, which the guard's message names when it is more than one. A
    set of s > 64 generators is refused with InstanceTooLarge before any
    product when the first sphere's masks, up to s elements of ceil(s/64)
    words each, take more words than the guard."""
    guard = mem_guard()
    charge = _charge(group)
    limit = guard // charge  # the elements that may be stored
    # 64 generators or fewer charge at most s words, which the first
    # sphere's inserts check anyway
    s = len(sym_gens)
    words = s * -(-s // 64)
    if radius and s > 64 and words > guard:
        raise InstanceTooLarge(
            f"the first sphere's masks of {s} generators take {words} words, more than the guard {guard}"
        )
    index = {elem: i for i, (_, elem) in enumerate(sym_gens)}
    # (action, bit of the generator, bit of its inverse): the inverse of an
    # involution is its own bit, and an identity generator lands in cur
    moves = [
        (group.right_mul(elem), 1 << i, 1 << index[group.inverse(elem)])
        for i, (_, elem) in enumerate(sym_gens)
    ]
    cur = {group.identity(): 0}
    total = 1
    counts = [1]
    for _ in range(radius):
        new = {}
        get = new.get
        for act, bit, back in moves:
            for g, mask in cur.items():
                if mask & bit:
                    continue
                h = act(g)
                found = get(h)
                if found is not None:
                    new[h] = found | back
                elif h not in cur:
                    new[h] = back
                    total += 1
                    if total > limit:
                        raise MemoryGuard(guard, charge=charge)
        _record(counts, total, guard)
        cur = new
    return GrowthTable(tuple(counts))


def _column_growth(group, sym_gens, radius):
    """growth over columns, for a Heisenberg set of unit triples. (x, y, z)
    times (hx, hy, hz) is (x + hx, y + hy, z + hz + y*hx), so a generator
    moves the whole column over (x, y) to (x + hx, y + hy) and shifts its z
    values by hz + y*hx, one amount for the column. A column is stored as
    (low, bits): bit i of the int bits is the element (x, y, low + i). A
    layer shifts and ORs each column of sphere r by each generator, then
    clears the bits of the same column in spheres r and r-1, and
    int.bit_count counts what is left. low follows each column, so a bitset
    spans that column's z values in one sphere, at most r(r+1) + 1 bits with
    unit generators, however large the radius. The memory guard counts the
    elements, checked once per layer."""
    moves = [elem for _, elem in sym_gens]
    guard = mem_guard()
    prev, cur = {}, {(0, 0): (0, 1)}
    total = 1
    counts = [1]
    for _ in range(radius):
        new = {}
        get = new.get
        for hx, hy, hz in moves:
            for (x, y), (low, bits) in cur.items():
                key = (x + hx, y + hy)
                low += hz + y * hx
                old = get(key)
                if old is not None:
                    # the lower of the two lows is the merged column's
                    if old[0] < low:
                        low, bits, old = old[0], old[1], (low, bits)
                    bits |= old[1] << (old[0] - low)
                new[key] = (low, bits)
        cur_get, prev_get = cur.get, prev.get
        sphere = {}
        for key, (low, bits) in new.items():
            for side in (cur_get(key), prev_get(key)):
                if side is not None:
                    shift = side[0] - low
                    bits &= ~(side[1] << shift if shift >= 0 else side[1] >> -shift)
            if bits:
                sphere[key] = (low, bits)
                total += bits.bit_count()
        _record(counts, total, guard)
        prev, cur = cur, sphere
    return GrowthTable(tuple(counts))


def ball_with_words(group, gens, radius):
    """Each ball element mapped to a shortest word (as a symbol tuple) over
    the named generators and their inverses."""
    sym_gens = _symmetric_gens(group, gens)
    mul = group.mul

    def expand(g, word):
        return [(mul(g, s), word + (name,)) for name, s in sym_gens]

    words, _ = bfs_layers(group.identity(), expand, radius, ())
    return words


def log_log_slope(points):
    """Least-squares slope of log(y) against log(x) over (x, y) points.
    Diagnostic only; the fits are the one place floats appear."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def growth_exponent_estimate(table):
    """log_log_slope of count against radius over the upper half of the
    table."""
    radius = table.radius
    if radius < 3:
        raise GramataError("growth-exponent estimate needs at least 4 radii")
    return log_log_slope([(r, table.counts[r]) for r in range(max(1, radius // 2), radius + 1)])


@dataclass
class DissimilarityReport:
    n: int
    lower_bound: int
    witnesses: list = field(default_factory=list)
    exact: Optional[int] = None
    method: str = "witness"

    def lines(self):
        out = [f"n={self.n}\tlower_bound={self.lower_bound}\tmethod={self.method}"]
        if self.exact is not None:
            out[0] += f"\texact={self.exact}"
        return out


def dissimilarity_lower_bound(group, gens, n):
    """The constructive witness family: shortest representatives of all
    ball(n//2) elements are pairwise n-dissimilar, distinguished by the
    ball's word for the inverse of one witness. Witnesses are re-verified
    through the word-problem membership predicate alone."""
    half = n // 2
    words = ball_with_words(group, gens, half)
    items = sorted(words.items(), key=lambda item: (len(item[1]), item[1]))
    witnesses = [w for _, w in items]
    fold = Fold.lift(wp_oracle(group, _named_gens(gens)).member)
    resume, final = fold.resume, fold.final
    # each witness is folded once; a pair continues w2's state with v. All
    # three are words over the oracle's own symbols, so no state dies
    states = [resume(fold.start, w) for w in witnesses]

    # each w1 and its distinguisher are verified once, before its first pair;
    # v, the symmetric ball's word for g1^-1, is no longer than w1
    for i, (g1, w1) in enumerate(items[:-1]):
        v = words[group.inverse(g1)]
        if not final(resume(states[i], v)):
            raise GramataError(f"witness verification failed for {w1!r} vs {witnesses[i + 1]!r}")
        for w2, state in zip(witnesses[i + 1 :], states[i + 1 :]):
            if final(resume(state, v)):
                raise GramataError(f"witness verification failed for {w1!r} vs {w2!r}")
    return DissimilarityReport(n=n, lower_bound=len(witnesses), witnesses=witnesses)


def _pair_work(k, n):
    """The most (w1 + v, w2 + v) membership comparisons the dissimilarity
    graph over words of length <= n on k symbols can need: for each length
    l of the longer word, its pairs times the suffixes of length <= n - l."""
    work = shorter = 0
    for length in range(n + 1):
        m = k**length
        suffixes = sum(k**j for j in range(n - length + 1))
        work += (m * (m - 1) // 2 + m * shorter) * suffixes
        shorter += m
    return work


DISSIMILARITY_GUARD = 10**6  # the most pair x suffix comparisons of one graph


def _dissimilarity_graph(member, alphabet, n):
    """The words of length <= n over the sorted alphabet, in all_words order,
    and for each word the bitmask of the words that some suffix keeping both
    within n symbols separates it from. Every answer comes from one
    Fold.answers walk over the words of length <= n."""
    words = list(all_words(alphabet, n))
    k = len(alphabet)
    walk = list(Fold.lift(member).answers(alphabet, range(n + 1)))
    # first[m]: the index of the first word of length m. The word of length
    # l and lex rank i answers on its suffixes of b symbols with the k**b
    # consecutive answers from first[l + b] + i * k**b, and the suffixes of
    # at most b symbols are a prefix of all_words' order
    first = [0, *itertools.accumulate(k**m for m in range(n + 1))]
    answers = [
        [a for b in range(n - l + 1) for a in walk[first[l + b] + i * k**b : first[l + b] + (i + 1) * k**b]]
        for l in range(n + 1)
        for i in range(k**l)
    ]
    adj = [0] * len(words)
    # words come shortest first, so the later word of a pair is the longer
    # one, and its answers are exactly the suffixes that the pair may take
    for j, mine in enumerate(answers):
        width = len(mine)
        for i in range(j):
            if answers[i][:width] != mine:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return words, adj


def dissimilarity_exact(oracle, alphabet, n):
    """Exact maximum pairwise-dissimilar family via branch-and-bound clique
    search on the dissimilarity graph over words of length <= n, refused
    with InstanceTooLarge past DISSIMILARITY_GUARD comparisons."""
    alphabet = tuple(sorted(alphabet))
    work = _pair_work(len(alphabet), n)
    if work > DISSIMILARITY_GUARD:
        raise InstanceTooLarge(f"{work} pair x suffix comparisons exceed the guard {DISSIMILARITY_GUARD}")
    words, adj = _dissimilarity_graph(oracle.member, alphabet, n)

    # words with equal masks are never joined, and either can stand in for
    # the other in a clique: the search runs over these classes, each kept
    # as its first word
    firsts = {}
    for i, mask in enumerate(adj):
        firsts.setdefault(mask, i)
    classes = sum(1 << i for i in firsts.values())

    # greedy seed, highest degree first, then first index: the word graph's
    # seed, as a later word of a class is never joined to the first
    order = sorted(firsts.values(), key=lambda i: -adj[i].bit_count())
    seed = []
    seed_mask = classes
    for i in order:
        if seed_mask >> i & 1:
            seed.append(i)
            seed_mask &= adj[i]
    best = seed

    def expand(current, candidates):
        nonlocal best
        if len(current) + candidates.bit_count() <= len(best):
            return
        if candidates == 0:
            best = list(current)
            return
        while candidates:
            if len(current) + candidates.bit_count() <= len(best):
                return
            v = candidates.bit_length() - 1
            candidates &= ~(1 << v)
            current.append(v)
            expand(current, candidates & adj[v])
            current.pop()

    expand([], classes)
    chosen = sorted(best)
    return DissimilarityReport(
        n=n,
        lower_bound=len(chosen),
        witnesses=[words[i] for i in chosen],
        exact=len(chosen),
        method="exact-clique",
    )


def lemma_growth_check(group, gens, n):
    """Check N_{W(G)}(n) >= g_G(n//2) constructively: the witness family has
    exactly ball(n//2) members and verifies pairwise, so the dissimilarity
    lower bound meets the growth value."""
    report = dissimilarity_lower_bound(group, gens, n)
    table = growth(group, gens, n // 2)
    g_half = table.counts[n // 2]
    ok = report.lower_bound >= g_half
    evidence = {
        "n": n,
        "dissimilarity_lower_bound": report.lower_bound,
        "growth_at_half": g_half,
        "witnesses_verified": len(report.witnesses),
    }
    return ok, evidence


@dataclass(frozen=True)
class ProbeRow:
    n: int
    configurations: int
    demand: int

    @property
    def exceeded(self):
        return self.demand > self.configurations


@dataclass
class ProbeReport:
    machine_name: str
    rows: list

    @property
    def crossing(self):
        """First probed length from which the demand column stays strictly
        above the configuration column."""
        for i, row in enumerate(self.rows):
            if all(r.exceeded for r in self.rows[i:]):
                return row.n
        return None

    def lines(self):
        out = ["n\tconfigs(n//2)\tg_F2(n//2)\texceeded"]
        for r in self.rows:
            out.append(f"{r.n}\t{r.configurations}\t{r.demand}\t{r.exceeded}")
        cross = self.crossing
        out.append(f"crossing at n={cross}" if cross is not None else "no crossing")
        return out


def theorem_growth_probe(efa, lengths, policy=None, machine_name="machine"):
    """Compare, per length n, the configurations the machine can reach after
    the candidate witness prefixes (words of length <= n//2) against the
    dissimilar classes g_F2(n//2) that recognizing the rank-2 free word
    problem would demand. A machine over a polynomial-growth group runs out
    of configurations at the crossing point."""
    lengths = sorted(lengths)
    if not lengths:
        raise GramataError("probe needs at least one length")
    policy = policy or default_policy
    max_half = lengths[-1] // 2
    config_counts = reachable_register_count(efa, max_half, policy)
    f2 = growth(algebra.FreeGroup(2), standard_generators(algebra.FreeGroup(2)), max_half)
    rows = [
        ProbeRow(n, config_counts[n // 2], f2.counts[n // 2]) for n in lengths
    ]
    return ProbeReport(machine_name=machine_name, rows=rows)
