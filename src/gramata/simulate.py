"""Budget-bounded nondeterministic execution of group automata.

The search is a breadth-first exploration of configurations
(state, input position, register) with duplicate pruning. A path may take
epsilon moves before, between and after input symbols; depth counts every
transition applied. Acceptance means some configuration with an accepting
state, the whole input consumed and the identity register is reachable
within the depth budget.

Verdicts are three-valued. Let d_min be the length of the shortest path
from (initial, 0) to (accepting, |w|) in the register-ignoring projection
of the machine on the word. BudgetExhausted is reported exactly when no
acceptance was found and budget < d_min < infinity: the budget was too
small for the machine to even consume the input and reach an accepting
state, so nothing was decided. Otherwise a failed search is a Reject:
either acceptance is structurally impossible (d_min infinite), or every
configuration that could still have accepted within the budget was
explored. accepts() decides a word that the budget cannot reach (d_min
infinite or above the budget) with no search, off the distance table or
a deterministic machine's one walk, and reports the stats that the
search would have counted: the root expanded and all its moves pruned.
Branches that provably cannot reach acceptance in the remaining depth are
pruned by the same register-ignoring distance table; the pruning is
admissible, so it never changes a verdict. The language sweeps also
drop a configuration whose register cannot return to the identity in the
depth left. A path from state q applies only the registers R(q) of the
transitions reachable from q, so a register g at q needs at least
h_q(g) = ceil(norm(g) / c_q) more moves, c_q the largest norm in R(q), and
never returns if it moves a coordinate that no register of R(q) moves
(Group.move_floor, EFA.move_floors). That is an admissible and consistent
A* bound (Hart, Nilsson and Raphael, 1968), so it changes no verdict
either. accepts() does not take it, so its stats and certificates stay
those of the distance pruning alone.

accepts(..., dedup=False) is the unpruned oracle of that search: a
depth-first walk of every path, with no duplicate pruning. It reuses the
node count of a finished subtree whose root (state, position, register,
depth) comes back, which is exact because a subtree depends on nothing
else; the counts, depths and certificate are those of the full walk. It
never treats a configuration seen at a smaller depth as covering a later
one, the breadth-first search's pruning, so it stays independent of it.

accepts() decides one word. enumerate_words() and equiv_check() need every
word up to a length. They take the empty word's verdict from accepts(),
the one decider of it, and decide each length from 1 up with one search
over the trie of its words (_PrefixSearch), which gives the same verdicts,
all in the calling process. Its leaves build no configurations: each word
is finished from one backward table of epsilon tails (_EpsilonTails) per
search, grown only as deep as its lookups need.

One trie walker, Fold.answers, serves every left fold (Fold) over a
word's symbols: one step per prefix, only the current path held, and no
step below a prefix that the fold has ruled out. equiv_check() walks its
oracle with it, and the sweeps walk a deterministic machine as a fold
over (state, register). Such a machine (EFA.deterministic: no epsilon
move, at most one transition per state and symbol) has at most one path
per word, which accepts() walks too, reading d_min off it with no
distance table and multiplying its registers only for a word in reach.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .algebra import parse_count
from .errors import GramataError, MemoryGuard, UnknownSymbol
from .model import EMPTY_WORD_TOKEN

# the read of any one symbol in DistanceLevels.sources: a tuple, never a symbol
ANY = ("any symbol",)

DEFAULT_MEM_GUARD = 10**7


def mem_guard():
    """The most elements one search may store: GRAMATA_MEM_GUARD, else 10^7."""
    value = os.environ.get("GRAMATA_MEM_GUARD")
    if not value:
        return DEFAULT_MEM_GUARD
    return parse_count(value, 1, "GRAMATA_MEM_GUARD")


def bfs_layer(seen, layer, expand, limit, guard):
    """One layer of a breadth-first search: the children of layer's nodes
    that seen does not hold yet, in order of discovery. expand(node, data)
    lists (child, child data) pairs; a child reached for the first time is
    stored in seen with its data. MemoryGuard, naming guard, when seen
    would hold more than limit nodes."""
    nxt = []
    for node in layer:
        for child, child_data in expand(node, seen[node]):
            if child not in seen:
                seen[child] = child_data
                if len(seen) > limit:
                    raise MemoryGuard(guard)
                nxt.append(child)
    return nxt


def gc_paused(fn, *args):
    """fn(*args) with the cyclic garbage collector paused, and resumed when
    fn returns or raises. The tables of the unary sweep, growth and the
    layered searches are acyclic, so the collector frees nothing in them,
    yet every full collection walks each stored link again. fn's locals
    are freed before the collector resumes. If the caller had switched the
    collector off, it stays off."""
    if not gc.isenabled():
        return fn(*args)
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()


def bfs_layers(root, expand, depth, data=None):
    """Layered breadth-first search from root, at most depth layers deep,
    with expand as in bfs_layer and the memory guard checked on every
    insert. Each recorded layer counts against the guard too, checked once
    per layer, so a ball that stops growing still cannot loop without
    limit. Returns the stored nodes, node -> data, in order of discovery,
    and the number stored after each layer (root's first). Runs with the
    collector paused (gc_paused)."""
    return gc_paused(_bfs_layers, root, expand, depth, data)


def _bfs_layers(root, expand, depth, data):
    guard = mem_guard()
    seen = {root: data}
    layer = [root]
    sizes = [1]
    for _ in range(depth):
        layer = bfs_layer(seen, layer, expand, guard, guard)
        sizes.append(len(seen))
        if len(seen) + len(sizes) > guard:
            raise MemoryGuard(guard, layers=True)
    return seen, sizes


def _ceil_log2(n):
    return (n - 1).bit_length()


@dataclass(frozen=True)
class BudgetPolicy:
    """Depth budget slope*m + log_coeff*ceil(log2(m + log_shift)) + offset.
    Monotone nondecreasing."""

    slope: int
    offset: int
    log_coeff: int = 0
    log_shift: int = 1

    def __call__(self, m):
        budget = self.slope * m + self.offset
        if self.log_coeff:
            budget += self.log_coeff * _ceil_log2(m + self.log_shift)
        return max(1, budget)


# the stock depth budget: 4m + 8*ceil(log2(m+2)) + 16
default_policy = BudgetPolicy(slope=4, offset=16, log_coeff=8, log_shift=2)


def constant_policy(depth):
    """The budget depth for every word length."""
    if depth < 1:
        raise GramataError(f"a constant depth budget must be at least 1, got {depth}")
    return BudgetPolicy(slope=0, offset=depth)


class Verdict(str, Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"
    BUDGET_EXHAUSTED = "BudgetExhausted"

    def __str__(self):
        return self.value


@dataclass
class SearchStats:
    expanded: int = 0
    max_depth: int = 0
    accept_depth: Optional[int] = None


@dataclass
class RunResult:
    verdict: Verdict
    stats: SearchStats
    certificate: Optional[tuple] = None  # transitions of the accepting path
    registers: Optional[tuple] = None  # the register after each of them

    @property
    def accepted(self):
        return self.verdict is Verdict.ACCEPT


def tokenize_word(text, alphabet):
    """Split CLI/word input into symbols of the given alphabet."""
    if text in ("", EMPTY_WORD_TOKEN):
        return ()
    alphabet = set(alphabet)
    if any(ch.isspace() for ch in text):
        tokens = tuple(text.split())
    elif text in alphabet:
        tokens = (text,)
    else:
        tokens = tuple(text)
    return _checked_word(tokens, alphabet)


def format_word(word):
    if not word:
        return EMPTY_WORD_TOKEN
    if all(len(sym) == 1 for sym in word):
        return "".join(word)
    return " ".join(word)


def _checked_word(word, alphabet):
    """The word as a tuple, every symbol of it in the alphabet."""
    word = tuple(word)
    for symbol in word:
        if symbol not in alphabet:
            raise UnknownSymbol(f"symbol {symbol!r} not in alphabet")
    return word


def _close_unit(best, nexts):
    """Close a state -> distance map under unit-weight moves, in place, and
    return it: best[t] becomes the least of its own entry and best[q] + 1
    over every q with t in nexts[q]. nexts lists only states with a move.
    The states are taken in order of distance, one bucket per distance."""
    pending = {}
    for q, d in best.items():
        if q in nexts:
            pending.setdefault(d, []).append(q)
    d = min(pending, default=0)
    while pending:
        for q in pending.pop(d, ()):
            if best[q] == d:  # else it was queued again at a smaller distance
                for t in nexts[q]:
                    if best.get(t, d + 2) > d + 1:
                        best[t] = d + 1
                        if t in nexts:
                            pending.setdefault(d + 1, []).append(t)
        d += 1
    return best


def _step_unit(items, following, nexts):
    """One unit move of (state, distance) items, closed by _close_unit:
    each state of following(q) gets the least d + 1 over the items (q, d)
    that lead to it, and the map is then closed under nexts."""
    best = {}
    for q, d in items:
        for t in following(q):
            if best.get(t, d + 2) > d + 1:
                best[t] = d + 1
    return _close_unit(best, nexts)


def state_floors(efa):
    """state -> Group.move_floor of R(q), the registers of every transition
    reachable from the state q, its own included; None where the group has
    no norm. A move from q to q' leaves R(q') a subset of R(q), so
    h_q(g) <= 1 + h_q'(g*r): the floors are consistent, as one floor for
    the whole machine is."""
    after, own = {}, {q: [] for q in efa.states}
    for t in efa.transitions:
        after.setdefault(t.source, []).append(t.target)
        own[t.source].append(t.register)
    return {
        q: efa.group.move_floor([r for p in _close_unit({q: 0}, after) for r in own[p]]) for q in efa.states
    }


# the most levels a machine's DistanceLevels holds: it starts over when full
DISTANCE_LEVELS = 4096


class DistanceLevels:
    """The memo of _distances_to_accept on one machine, kept in
    EFA.distance_levels. A level is dist[r], state -> distance, and depends
    only on the last r reads: the graph of (state, r) is layered by r, so
    dist[r] is one backward step of the read reads[r - 1] from dist[r - 1],
    closed under epsilon moves. Each level is interned by its sorted items,
    and steps[i][read] is the index of the level one read above level i:
    an on-the-fly determinisation of the reversed, register-ignoring
    machine, where ANY and the symbols are read keys alike. The levels are
    shared between calls, so their users only read them. At most
    DISTANCE_LEVELS levels are held; a miss that finds the memo full starts
    it over from the root level and the level at hand."""

    def __init__(self, efa):
        # the backward table: (state, read) -> the sources of the moves on
        # that read into the state, the read None being the empty input
        self.sources = {}
        for t in efa.transitions:
            self.sources.setdefault((t.target, t.symbol), []).append(t.source)
            if t.symbol is not None:
                self.sources.setdefault((t.target, ANY), []).append(t.source)
        self.eps_sources = {q: states for (q, s), states in self.sources.items() if s is None}
        self.root = _close_unit(dict.fromkeys(efa.accepting, 0), self.eps_sources)
        self.levels = []  # index -> level
        self.index = {}  # a level's sorted items -> its index
        self.steps = []  # index -> read key -> the next level's index
        self._start()

    def _start(self):
        # cleared in place, so that a walk's references to them stay valid
        self.levels.clear()
        self.index.clear()
        self.steps.clear()
        self._intern(self.root)

    def _intern(self, level):
        key = tuple(sorted(level.items()))
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.levels)
            self.levels.append(level)
            self.steps.append({})
        return i

    def step(self, i, level, read):
        """The index of the level one read above level, whose index is i,
        computed and interned."""
        if len(self.levels) >= DISTANCE_LEVELS:
            self._start()
            i = self._intern(level)
        above = _step_unit(level.items(), lambda q: self.sources.get((q, read), ()), self.eps_sources)
        self.steps[i][read] = j = self._intern(above)
        return j


def _distances_to_accept(efa, reads):
    """dist[r][q]: the fewest transitions from state q, with r symbols still
    to read, to an accepting state with none left (q is missing from
    dist[r] if there is no such path), registers ignored. The r-th symbol
    from the end is read through the key reads[r - 1] of the backward
    table DistanceLevels.sources: a word's symbols reversed give its
    distances, and [ANY] * length a lower bound on them for every word of
    that length. The levels come from the machine's memo (DistanceLevels),
    one lookup per read, and are shared: the caller only reads them."""
    memo = efa.distance_levels
    levels, steps = memo.levels, memo.steps
    i = 0
    level = levels[0]
    dist = [level]
    for read in reads:
        j = steps[i].get(read)
        i = memo.step(i, level, read) if j is None else j
        level = levels[i]
        dist.append(level)
    return dist


class _EpsilonTails:
    """entries[(q, g)] = (k, transition, next): the fewest epsilon moves k
    from state q with register g to an accepting state with the identity
    register, the first move of such a path, and the (state, register) it
    leads to; transition and next are None at k = 0. A breadth-first
    search back from every accepting identity configuration over reversed
    epsilon moves, each applying the right action of its register's
    inverse, grown one distance at a time by grow(); every entry at a
    distance of at most depth is stored, and depth is infinite once the
    search has run out. Growing can add entries only in the states of
    live, those with an epsilon path to a state of the last layer."""

    def __init__(self, efa):
        group = efa.group
        self.back = {}  # state -> (source, inverse action, transition) of its incoming epsilon moves
        for t in efa.transitions:
            if t.symbol is None:
                inverse = None if group.is_identity(t.register) else group.right_mul(group.inverse(t.register))
                self.back.setdefault(t.target, []).append((t.source, inverse, t))
        identity = group.identity()
        self.entries = {(f, identity): (0, None, None) for f in sorted(efa.accepting)}
        self.frontier = list(self.entries)
        self.depth = 0
        self._advance()

    def grow(self, limit, guard):
        """Store the entries one move further back: MemoryGuard, naming
        guard, when there would be more than limit."""
        self.frontier = bfs_layer(self.entries, self.frontier, self._expand, limit, guard)
        self.depth += 1
        self._advance()

    def _advance(self):
        self.live = live = {q for q, _ in self.frontier}
        stack = list(live)
        while stack:
            for source, _, _ in self.back.get(stack.pop(), ()):
                if source not in live:
                    live.add(source)
                    stack.append(source)
        if not self.frontier:
            self.depth = math.inf

    def _expand(self, key, entry):
        q, g = key
        k = entry[0] + 1
        return [
            ((source, g if inverse is None else inverse(g)), (k, t, key))
            for source, inverse, t in self.back.get(q, ())
        ]


def _unaccepted_verdict(d_min, budget):
    """The verdict of a word that no search accepted: BudgetExhausted when
    acceptance needs more transitions than the budget, else Reject."""
    return Verdict.BUDGET_EXHAUSTED if d_min is not None and d_min > budget else Verdict.REJECT


def accepts(efa, word, policy=default_policy, *, dedup=True):
    """Run the machine on a word under a depth budget.

    A word that the budget cannot reach (d_min is None, or d_min > budget)
    is decided with no search and no guard read: Reject when d_min is
    None, else BudgetExhausted, with the stats of a search that prunes
    every move of the root: the breadth-first search expands the root
    alone (nothing under a budget of 0), the unpruned walk none.

    d_min comes from the distance table, which compiles no move, or from a
    deterministic machine's one path along efa.moves, walked before the
    policy is asked: n when it reads the word into an accepting state, else
    None. A found move proves that its symbol is in the alphabet, so only a
    walk that breaks off checks every symbol. A word in reach multiplies
    the path's registers once and the last decides; both searches' counts
    follow in closed form, the breadth-first one also expanding the
    configuration it stops at and storing the path against the guard.
    Other words are searched; the empty path accepts with no search."""
    if efa.deterministic:
        word = tuple(word)
        n = len(word)
        moves, q, path = efa.moves, efa.initial, []
        for symbol in word:
            move = moves.get((q, symbol))
            if not move:
                _checked_word(word, efa.alphabet)
                break
            q = move[0][0]
            path.append(move[0])
        d_min = n if len(path) == n and q in efa.accepting else None
    else:
        word = _checked_word(word, efa.alphabet)
        n = len(word)
        dist = _distances_to_accept(efa, word[::-1])
        d_min = dist[n].get(efa.initial)
    budget = policy(n)
    if d_min is None or d_min > budget:
        return RunResult(_unaccepted_verdict(d_min, budget), SearchStats(int(dedup and budget >= 1), 0))

    if efa.deterministic:
        reg = efa.group.identity()
        for _, _, r, _ in path:
            reg = reg if r is None else r(reg)
        accepted = efa.group.is_identity(reg)
        if dedup and n and n - accepted >= (guard := mem_guard()):
            raise MemoryGuard(guard)
        if not accepted:
            return RunResult(Verdict.REJECT, SearchStats(min(n + 1, budget) if dedup else n, n))
        stats, certificate = SearchStats(n, n, n), tuple(m[3] for m in path)
    elif not word and efa.initial in efa.accepting:
        stats, certificate = SearchStats(accept_depth=0), ()  # the empty path accepts
    else:
        search = _search_bfs if dedup else _search_dfs
        stats, certificate = search(efa, word, budget, dist)
        if certificate is None:
            return RunResult(Verdict.REJECT, stats)
    return RunResult(Verdict.ACCEPT, stats, certificate, _verify_certificate(efa, word, certificate))


# the (norm, scale) of a move whose target has no floor
_UNFLOORED = (None, 0)


def _search_bfs(efa, word, budget, dist, floors=None):
    """Breadth-first search over (state, position, register) configurations
    that stores each one once, with its parent link for the certificate.
    Like _search_dfs, each (state, position) compiles on its first
    expansion into capped moves (cap, action, transition, the target's
    register -> parent link dict, target key, accepts there, the target's
    move floor), so a move costs one register hash. That expansion is at
    its least depth, so a move capped below it is dropped, and so is a
    target that cannot accept. Given the machine's floors per state
    (EFA.move_floors), a new child at depth d is dropped too when its
    target's floor exceeds budget - d: the registers that its paths can
    still apply cannot return it to the identity in the moves left.
    accepts() passes none, and runs it only on a nondeterministic machine's
    word that the budget can reach."""
    n = len(word)
    accepting = efa.accepting
    is_identity = efa.group.is_identity
    moves = efa.moves
    symbols = word + (None,)  # the symbol under the cursor, None at the end
    guard = mem_guard()
    key, reg = (efa.initial, 0), efa.group.identity()
    capped = {}  # (state, position) -> its capped moves
    # (state, position) -> register -> (parent key, parent register, transition), None for the root
    seen = {key: {reg: None}}
    stored = 1
    expanded = max_depth = depth = 0
    frontier = [(key, reg)]
    while frontier and depth < budget:
        depth += 1
        nxt = []
        left = budget - depth  # the moves left below a child
        for key, reg in frontier:
            expanded += 1
            entries = capped.get(key)
            if entries is None:
                q, pos = key
                entries = capped[key] = []
                for target, adv, r, t in moves[(q, symbols[pos])]:
                    tkey = (target, pos + adv)
                    remaining = dist[n - pos - adv].get(target)
                    if remaining is not None and budget - remaining >= depth:
                        final = tkey[1] == n and target in accepting
                        norm, scale = floors and floors[target] or _UNFLOORED
                        entries.append((budget - remaining, r, t, seen.setdefault(tkey, {}), tkey, final, norm, scale))
            for cap, r, t, regs, tkey, final, norm, scale in entries:
                if depth > cap:  # the target is too far from acceptance
                    continue
                child = reg if r is None else r(reg)
                if child in regs or norm is not None and norm(child) > scale * left:
                    continue
                regs[child] = (key, reg, t)
                stored += 1
                if final and is_identity(child):
                    path = []
                    link = regs[child]
                    while link is not None:
                        key, reg, t = link
                        path.append(t)
                        link = seen[key][reg]
                    path.reverse()
                    return SearchStats(expanded, depth, depth), tuple(path)
                if stored > guard:
                    raise MemoryGuard(guard)
                nxt.append((tkey, child))
        if nxt:
            max_depth = depth
        frontier = nxt
    return SearchStats(expanded, max_depth), None


def _search_dfs(efa, word, budget, dist, memo=None):
    """The same bounded search without duplicate pruning (verdict oracle for
    the deduplication-soundness check): it walks the tree of every path,
    so a configuration reached by two paths is searched below each of
    them. The tree can be millions of nodes, so each (state, position)
    compiles on first visit into capped moves (cap = budget - distance,
    the deepest depth the move may be taken at; next position, action,
    transition, child key, accepts there), targets that cannot accept
    dropped. Frames are iterators over them, and a child with no move
    under the budget is counted but never pushed.

    Many paths share subtrees: a subtree depends only on its root's
    (state, position, register, depth), and any acceptance ends the search,
    so a subtree that finished holds none. Each popped frame records its
    subtree's node count under that key, and a child found there is not
    pushed: its count is added as if walked (Michie's memo functions). Its
    deepest node was walked once already, so max_depth holds it. Only an
    identical root, depth included, is reused, never a configuration at a
    smaller depth as the breadth-first search prunes, so the stats and the
    certificate are those of the tree walk and the search stays an
    independent oracle. The memo stops recording at mem_guard() entries,
    so this search never raises MemoryGuard. The memo is fresh per call
    unless the caller passes an empty dict for it, to look at afterwards.
    accepts() runs it only on a nondeterministic machine's word that the
    budget can reach."""
    n = len(word)
    accepting = efa.accepting
    is_identity = efa.group.is_identity
    moves = efa.moves
    symbols = word + (None,)
    capped = {}  # (state, position) -> (the largest cap, the capped moves)

    def compile_moves(key):
        q, pos = key
        entries = []
        for target, adv, r, t in moves[(q, symbols[pos])]:
            npos = pos + adv
            remaining = dist[n - npos].get(target)
            if remaining is not None:
                entries.append((budget - remaining, npos, r, t, (target, npos), npos == n and target in accepting))
        capped[key] = compiled = (max((e[0] for e in entries), default=-1), entries)
        return compiled

    # ((state, position), register, depth) -> the node count of a finished subtree
    memo = {} if memo is None else memo
    room = mem_guard()
    # a frame: its moves, its register, its children's depth, the transition
    # into it, its memo key and the node count before it
    stack = [(iter(compile_moves((efa.initial, 0))[1]), efa.group.identity(), 1, None, None, 0)]
    expanded = max_depth = 0
    while stack:
        it, reg, depth, _, _, _ = stack[-1]
        for cap, npos, r, t, key, final in it:
            if depth > cap:
                continue
            child = reg if r is None else r(reg)
            expanded += 1
            if depth > max_depth:
                max_depth = depth
            if final and is_identity(child):
                return SearchStats(expanded, max_depth, depth), tuple(f[3] for f in stack[1:]) + (t,)
            top, entries = capped.get(key) or compile_moves(key)
            if top > depth:
                mkey = (key, child, depth)
                nodes = memo.get(mkey)
                if nodes is not None:
                    expanded += nodes
                    continue
                stack.append((iter(entries), child, depth + 1, t, mkey, expanded))
                break
        else:
            _, _, _, _, mkey, before = stack.pop()
            if mkey is not None and len(memo) < room:
                memo[mkey] = expanded - before
    return SearchStats(expanded, max_depth), None


def _verify_certificate(efa, word, certificate):
    """Replay the claimed accepting path through the move table,
    re-multiplying its registers with the group's mul, not the searches'
    compiled actions. Returns the register after each step."""
    group = efa.group
    symbols = word + (None,)
    state, pos, reg = efa.initial, 0, group.identity()
    registers = []
    for t in certificate:
        move = next((m for m in efa.moves[(state, symbols[pos])] if m[3] == t), None)
        if move is None:
            raise GramataError(f"unsound certificate: no move {t.source} {t.symbol or '~'} {t.target} at {pos}")
        state, adv, r, _ = move
        pos += adv
        reg = reg if r is None else group.mul(reg, t.register)
        registers.append(reg)
    if state not in efa.accepting or pos != len(word) or not group.is_identity(reg):
        raise GramataError("unsound certificate: not accepting")
    return tuple(registers)


@dataclass
class EnumerationResult:
    words: list
    budget_exhausted: list


def all_words(alphabet, max_len):
    alphabet = tuple(sorted(alphabet))
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def _extend(prefix, symbol):
    return prefix + (symbol,)


@dataclass(frozen=True)
class Fold:
    """A membership predicate written as a left fold over a word's symbols.
    step(state, symbol) is the state after one more symbol, or None once no
    extension of the prefix can be a member; final(state) decides the word
    read so far. None is never a live state. Calling a Fold folds one word,
    so it is a drop-in oracle member; answers() decides every word of the
    lengths asked from one walk of each length's trie of states."""

    start: object
    step: Callable
    final: Callable

    @classmethod
    def lift(cls, member):
        """member itself if it is a Fold, else the Fold whose state is the
        prefix read and whose final test asks member, once per word."""
        return member if isinstance(member, cls) else cls((), _extend, member)

    def __call__(self, word):
        """Whether word is a member."""
        state = self.resume(self.start, word)
        return state is not None and self.final(state)

    def resume(self, state, word):
        """The state after reading word from state; None once dead, and a
        dead state stays dead."""
        step = self.step
        for symbol in word:
            if state is None:
                break
            state = step(state, symbol)
        return state

    def answers(self, alphabet, lengths):
        """The answers, as bools, on the words of each length in lengths, in
        lex order within a length (all_words' order for range(n + 1)). Each
        length's trie of states is walked depth first, holding only the path
        to the current node: one step per node, one final test per word, and
        every word below a dead state answered False without a step."""
        alphabet = tuple(sorted(alphabet))
        k = len(alphabet)
        start, step, final = self.start, self.step, self.final
        for length in lengths:
            if not length:
                yield bool(final(start))
                continue
            # a frame: its symbols' iterator and its state
            stack = [(iter(alphabet), start)]
            while stack:
                it, state = stack[-1]
                depth = len(stack)  # of the children
                for s in it:
                    child = step(state, s)
                    if child is None:
                        yield from itertools.repeat(False, k ** (length - depth))
                    elif depth < length:
                        stack.append((iter(alphabet), child))
                        break
                    else:
                        yield bool(final(child))
                else:
                    stack.pop()


class _Level(NamedTuple):
    """One trie node of the language search: (state, register) -> (parent
    key, transition), or None for the root, and the keys in layers by
    depth, the first at depth base."""

    links: dict
    layers: list
    base: int


class _PrefixSearch:
    """The verdicts of every word of one length from one search over the
    trie of those words: Thompson's NFA simulation (CACM 1968) lifted to
    register configurations, with its leaves answered by meet-in-the-middle
    (Pohl, "Bi-directional search", 1971).

    A trie node above the leaves, the prefix of length p < L, is a level:
    every (state, register) reachable while consuming exactly that prefix,
    stored once at its minimum depth with its parent link, in layers by
    depth. A child level applies one symbol's moves to the parent's layers
    and closes under epsilon moves, depth by depth. A configuration at
    depth d with r symbols still to read is pruned when d + lb[r][q]
    exceeds the word length's budget, lb being the distance table over any
    symbols, or when d + floor_q(register) does, floor_q being the move
    floor of the registers that paths from q can still apply
    (EFA.move_floors), compiled into each move to q. Both are admissible,
    so the last level holds every configuration that an accepting path of
    a word can pass through before its last symbol. The leaves' tails are
    exact and take no floor.

    A leaf builds no level. The backward half is one table of epsilon
    tails (_EpsilonTails) for the whole search. The leaf walks its
    parent's layers in depth order, applies the last symbol's moves, and
    accepts at the first target at depth d whose tail of k epsilon moves
    gives d + k <= t(L). A target the table does not hold grows it, one
    distance at a time, until the target is found, or every tail of at
    most t(L) - d moves is stored, or no more entry can reach the target's
    state. So the table is as deep as the lookups of the words need, for
    any policy, monotone or not, and a word accepted at a short tail never
    pays for the deep ones. The register-ignoring projection (state ->
    minimum depth) is carried along the same trie to give each word's
    d_min, which decides BudgetExhausted against Reject exactly as in
    accepts(). Every word has a last symbol: L >= 1, and the empty word
    is accepts()'s to decide."""

    def __init__(self, efa, alphabet, max_len, policy, floors=None):
        group = efa.group
        self.efa = efa
        self.alphabet = alphabet
        self.policy = policy

        def compiled(moves):
            # (target, action, transition, the target's norm and scale)
            return [(q, r, t, *(floors and floors[q] or _UNFLOORED)) for q, _, r, t in moves]

        self.eps = {q: compiled(efa.moves[(q, None)]) for q in efa.states}
        self.eps_targets = {q: [m[0] for m in moves] for q, moves in self.eps.items() if moves}
        self.sym = {
            s: {q: compiled(efa.moves[(q, s)][len(self.eps[q]) :]) for q in efa.states} for s in alphabet
        }
        self.lb = _distances_to_accept(efa, [ANY] * max_len)
        self.tails = _EpsilonTails(efa)
        self.root = (efa.initial, group.identity())
        self.guard = mem_guard()
        self.stored = 0  # configurations in the levels along the current trie path
        self.path = []  # those levels' parent links, root first
        self.word = []  # the current prefix
        self.projection_steps = {}  # (projection, symbol) -> the child's projection
        self.root_projection = tuple(sorted(_close_unit({efa.initial: 0}, self.eps_targets).items()))

    def verdicts(self, length):
        """Verdicts of the words of this length, at least 1, in lex order."""
        self.budget = budget = self.policy(length)
        self.caps = [
            {q: budget - self.lb[r][q] if q in self.lb[r] else -1 for q in self.efa.states}
            for r in range(length + 1)
        ]
        self.dead = {}  # (projection, r) -> the verdicts below a node with no configuration
        yield from self._walk(self._level(None, None, length), self.root_projection, length)

    def _walk(self, level, projection, r):
        links = level.links
        if not links:
            yield from self._dead(projection, r)
            return
        self.stored += len(links)
        self.path.append(links)
        for s in self.alphabet:
            child = self._step_projection(projection, s)
            self.word.append(s)
            if r == 1:
                yield self._leaf(level, s, child)
            else:
                yield from self._walk(self._level(level, s, r - 1), child, r - 1)
            self.word.pop()
        self.path.pop()
        self.stored -= len(links)

    def _leaf(self, parent, symbol, projection):
        """The verdict of the current word, which ends in symbol below the
        level parent. An Accept's certificate is the parent links, the
        symbol's move and the tail."""
        hit = self._meet(parent, symbol)
        if hit is None:
            return self._unaccepted(projection)
        link, key = hit
        certificate = []
        i = len(self.path)
        while link is not None:
            pkey, t = link
            certificate.append(t)
            if t.symbol is not None:
                i -= 1
            link = self.path[i][pkey]
        certificate.reverse()
        entries = self.tails.entries
        _, t, key = entries[key]
        while t is not None:
            certificate.append(t)
            _, t, key = entries[key]
        _verify_certificate(self.efa, tuple(self.word), tuple(certificate))
        return Verdict.ACCEPT

    def _meet(self, parent, symbol):
        """(link, key): the first configuration key, in depth order, that
        the symbol's moves reach from parent and whose epsilon tail fits
        the budget, with its (parent key, transition) link. None when there
        is none."""
        budget = self.budget
        cap = self.caps[0]
        entries = self.tails.entries
        sym = self.sym[symbol]
        d = parent.base
        for layer in parent.layers:
            d += 1
            for pkey in layer:
                g = pkey[1]
                # the moves as in _level; a generator shared by the two
                # loops measured slower on this, the hottest path
                for q, r, t, _, _ in sym[pkey[0]]:
                    if d > cap[q]:
                        continue
                    key = (q, g if r is None else r(g))
                    tail = entries.get(key)
                    if tail is None:
                        if budget - d <= self.tails.depth:
                            continue
                        tail = self._tail(key, budget - d)
                        if tail is None:
                            continue
                    if d + tail[0] <= budget:
                        return (pkey, t), key
        return None

    def _tail(self, key, k):
        """The tail entry of key if it has at most k moves, else None,
        growing the table as far as that needs. Its entries count against
        the memory guard together with the levels along the trie path."""
        tails = self.tails
        tail = tails.entries.get(key)
        while tail is None and tails.depth < k and key[0] in tails.live:
            tails.grow(self.guard - self.stored, self.guard)
            tail = tails.entries.get(key)
        return tail if tail is not None and tail[0] <= k else None

    def _level(self, parent, symbol, r):
        """The level one symbol below parent, or the root level when parent
        is None, with r >= 1 symbols still to read."""
        cap = self.caps[r]
        eps = self.eps
        budget = self.budget
        limit = self.guard - self.stored - len(self.tails.entries)
        links = {}
        layers = []
        if parent is None:
            parents, sym, base, front = (), None, 0, []
            root = self.root
            if cap[root[0]] >= 0:
                links[root] = None
                front = [root]
            layers.append(front)
            d = 1
        else:
            parents, sym = parent.layers, self.sym[symbol]
            base = d = parent.base + 1
            front = []
        j = 0
        while j < len(parents) or front:
            # depth d: epsilon moves from this level's layer at d - 1 and
            # the symbol's moves from the parent's layer at d - 1
            below = parents[j] if j < len(parents) else ()
            j += 1
            layer = []
            left = budget - d  # the moves left below this layer
            for keys, table in ((front, eps), (below, sym)):
                for pkey in keys:
                    g = pkey[1]
                    for q, r, t, norm, scale in table[pkey[0]]:
                        if d > cap[q]:
                            continue
                        child = g if r is None else r(g)
                        key = (q, child)
                        if key in links or norm is not None and norm(child) > scale * left:
                            continue
                        links[key] = (pkey, t)
                        if len(links) > limit:
                            raise MemoryGuard(self.guard)
                        layer.append(key)
            layers.append(layer)
            front = layer
            d += 1
        while layers and not layers[-1]:
            layers.pop()
        start = 0
        while start < len(layers) and not layers[start]:
            start += 1
        return _Level(links, layers[start:], base + start)

    def _step_projection(self, projection, symbol):
        """The projection one symbol further: a sorted tuple of (state,
        least depth) pairs, closed under epsilon moves."""
        key = (projection, symbol)
        child = self.projection_steps.get(key)
        if child is None:
            moves = self.sym[symbol]
            best = _step_unit(projection, lambda q: (m[0] for m in moves[q]), self.eps_targets)
            child = self.projection_steps[key] = tuple(sorted(best.items()))
        return child

    def _unaccepted(self, projection):
        d_min = min((d for q, d in projection if q in self.efa.accepting), default=None)
        return _unaccepted_verdict(d_min, self.budget)

    def _dead(self, projection, r):
        """The verdicts of the words of r more symbols below a node with no
        configuration left: they depend on the projection alone."""
        key = (projection, r)
        verdicts = self.dead.get(key)
        if verdicts is None:
            if r == 0:
                verdicts = (self._unaccepted(projection),)
            else:
                verdicts = tuple(
                    v for s in self.alphabet for v in self._dead(self._step_projection(projection, s), r - 1)
                )
            self.dead[key] = verdicts
        return verdicts


def _language_verdicts(efa, alphabet, max_len, policy):
    """The verdicts of all_words(alphabet, max_len), streamed in that
    order. The empty word's is accepts()'s. A deterministic machine is
    folded over (state, register) along its one path per word (_path_verdicts).
    Otherwise one prefix-shared search decides each length from 1, its
    leaves finished from one table of epsilon tails; but a unary alphabet
    has one word per length and nothing to share, so each word gets its
    own breadth-first search (_floored_verdict), which stops at its first
    accepting configuration. The tails do not pay there: on composite <= 30
    the table grows to 110,704 entries, and the prefix search took 233 ms
    against 125 ms per word (best of 9, both with the floor). Both kinds of
    search drop a configuration beyond the move floor of its state
    (EFA.move_floors), as the distance table drops those too far from an
    accepting state."""
    if max_len < 0:
        raise GramataError(f"max_len must be at least 0, got {max_len}")
    alphabet = tuple(sorted(alphabet))
    if max_len:
        _checked_word(alphabet, efa.alphabet)
    yield accepts(efa, (), policy).verdict
    if efa.deterministic:
        yield from _path_verdicts(efa, alphabet, max_len, policy)
        return
    floors = efa.move_floors
    if len(alphabet) < 2:
        # the collector is paused per word, never across a yield, so the
        # caller's code and its oracle run with it on
        for word in itertools.islice(all_words(alphabet, max_len), 1, None):
            yield gc_paused(_floored_verdict, efa, word, policy, floors)
        return
    search = _PrefixSearch(efa, alphabet, max_len, policy, floors)
    for length in range(1, max_len + 1):
        yield from search.verdicts(length)


def _floored_verdict(efa, word, policy, floors):
    """accepts(efa, word, policy).verdict for a word of length at least 1
    of a nondeterministic machine, from a search that also drops the
    children beyond their states' move floors. Unlike accepts(), it
    searches a word that the budget cannot reach too; that search expands
    the root alone and finds nothing, so the verdict is the same. It repeats accepts'
    steps rather than share them, which would cost every single decide
    one more call."""
    budget = policy(len(word))
    dist = _distances_to_accept(efa, word[::-1])
    _, certificate = _search_bfs(efa, word, budget, dist, floors)
    if certificate is not None:
        _verify_certificate(efa, word, certificate)
        return Verdict.ACCEPT
    return _unaccepted_verdict(dist[len(word)].get(efa.initial), budget)


def _path_verdicts(efa, alphabet, max_len, policy):
    """The verdicts of a deterministic machine for the lengths L >= 1, from
    Fold.answers walks over (state, register) whose step is the symbol's
    one move. A word has at most one path, and d_min is L when it ends in
    an accepting state, else None. So a length with L <= t(L) folds to
    "accepting state and identity register", Accept or Reject, and one
    with L > t(L) to "accepting state", BudgetExhausted or Reject. Each
    Accept's path is replayed as accepts() replays its certificate. A walk
    holds the root and at most L nodes: MemoryGuard before a length
    L >= mem_guard() is walked."""
    accepting = efa.accepting
    is_identity = efa.group.is_identity
    guard = mem_guard()
    # each symbol's table: state -> its one move on the symbol
    table = {s: {q: efa.moves[(q, s)][0] for q in efa.states if efa.moves[(q, s)]} for s in alphabet}

    def step(node, s):
        move = table[s].get(node[0])
        return None if move is None else (move[0], node[1] if move[2] is None else move[2](node[1]))

    root = (efa.initial, efa.group.identity())
    accepted = Fold(root, step, lambda node: node[0] in accepting and is_identity(node[1]))
    reached = Fold(root, step, lambda node: node[0] in accepting)
    for length in range(1, max_len + 1):
        if length >= guard:
            raise MemoryGuard(guard)
        if length > policy(length):
            for reach in reached.answers(alphabet, (length,)):
                yield Verdict.BUDGET_EXHAUSTED if reach else Verdict.REJECT
            continue
        words = itertools.product(alphabet, repeat=length)
        for word, accept in zip(words, accepted.answers(alphabet, (length,))):
            if accept:
                q, certificate = efa.initial, []
                for s in word:
                    q, _, _, t = table[s][q]
                    certificate.append(t)
                _verify_certificate(efa, word, tuple(certificate))
            yield Verdict.ACCEPT if accept else Verdict.REJECT


def enumerate_words(efa, max_len, policy=default_policy, workers=1):
    """All accepted words of length <= max_len, in length-then-lex order.
    BudgetExhausted words are attached as warnings. workers is ignored:
    every sweep runs in this process. The keyword stays only because the
    benchmark's traced pool_speedup still passes it."""
    accepted, undecided = [], []
    verdicts = _language_verdicts(efa, efa.alphabet, max_len, policy)
    for word, verdict in zip(all_words(efa.alphabet, max_len), verdicts, strict=True):
        if verdict is Verdict.ACCEPT:
            accepted.append(word)
        elif verdict is Verdict.BUDGET_EXHAUSTED:
            undecided.append(word)
    return EnumerationResult(accepted, undecided)


@dataclass
class EquivReport:
    machine_name: str
    oracle_name: str
    max_len: int
    checked: int
    mismatches: list = field(default_factory=list)  # (word, expected, verdict)
    budget_exhausted: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.mismatches

    @property
    def clean(self):
        return self.passed and not self.budget_exhausted

    def lines(self):
        out = [
            f"machine {self.machine_name} vs oracle {self.oracle_name}: "
            f"{self.checked} words up to length {self.max_len}: "
            f"{len(self.mismatches)} mismatches, {len(self.budget_exhausted)} undecided"
        ]
        for word, expected, verdict in self.mismatches:
            out.append(f"mismatch\t{format_word(word)}\texpected={expected}\tgot={verdict}")
        for word in self.budget_exhausted:
            out.append(f"undecided\t{format_word(word)}")
        return out


def equiv_check(efa, oracle, alphabet, max_len, policy=default_policy, workers=1, name=""):
    """Exhaustively compare machine verdicts against a membership predicate.
    The answers come from one walk of each length's trie of the predicate's
    fold states (Fold.answers); a predicate that is not a Fold is lifted to
    one, so it is asked once per word, in order. workers is ignored, as in
    enumerate_words."""
    member = oracle.member if hasattr(oracle, "member") else oracle
    verdicts = _language_verdicts(efa, alphabet, max_len, policy)
    answers = Fold.lift(member).answers(alphabet, range(max_len + 1))
    accept, exhausted = Verdict.ACCEPT, Verdict.BUDGET_EXHAUSTED
    checked, mismatches, undecided = 0, [], []
    # the oracle answers every word, an undecided one too; zip takes each
    # word's verdict before its answer, so a symbol foreign to the machine
    # raises before the oracle is asked anything
    for word, verdict, expected in zip(all_words(alphabet, max_len), verdicts, answers, strict=True):
        checked += 1
        if verdict is exhausted:
            undecided.append(word)
        elif (verdict is accept) != expected:
            mismatches.append((word, expected, verdict))
    oracle_name = getattr(oracle, "name", "oracle")
    return EquivReport(name or "machine", oracle_name, max_len, checked, mismatches, undecided)


def reachable_register_count(efa, max_len, policy=default_policy):
    """Per length l <= max_len: the number of distinct (state, register)
    pairs reachable while consuming any input of length at most l, within
    the depth budget policy(l)."""
    moves = efa.moves
    # each state's epsilon moves, then every move of it that reads a symbol
    every = {q: moves[(q, None)] + tuple(m for s in efa.alphabet for m in moves[(q, s)] if m[1]) for q in efa.states}

    def expand(node, depth):
        q, k, reg = node
        out = every[q] if k < max_len else moves[(q, None)]
        return [((target, k + adv, reg if r is None else r(reg)), depth + 1) for target, adv, r, _ in out]

    # (state, symbols consumed, register) -> min depth
    root = (efa.initial, 0, efa.group.identity())
    limits = [policy(length) for length in range(max_len + 1)]  # need not be monotone
    visited, _ = bfs_layers(root, expand, max(limits), 0)

    counts = []
    for length, limit in enumerate(limits):
        seen = {(q, reg) for (q, k, reg), d in visited.items() if k <= length and d <= limit}
        counts.append(len(seen))
    return counts
