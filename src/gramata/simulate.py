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
all in the calling process. A leaf, the word itself, is one more level of
that trie, built only up to the word's least accepting time.

One memo, _members, serves every left fold (Fold) over a word's symbols.
The answers below a prefix depend only on the fold's state there and the
number of symbols left, so each length's trie of prefixes folds into a
DAG of (state, symbols left) nodes, each built once, holding the sorted
offsets of the members below it. For a group's word problem the states at
depth d number at most the |Q|*|B_G(d)| configurations of the paper's
counting lemma, where the trie has k^d nodes. equiv_check() reads its
oracle's answers off that DAG; a lifted plain member, whose state is the
prefix and never repeats, is asked once per word instead. The sweeps read
a deterministic machine's verdicts off the DAG of (state, register), and
check each of its edges that an Accept takes once, where a search
replays each Accept's certificate. Such a machine (EFA.deterministic: no
epsilon move, at most one transition per state and symbol) has at most
one path per word, which accepts() walks too, reading d_min off it with
no distance table and multiplying its registers only for a word in reach.
"""

from __future__ import annotations

import gc
import itertools
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


def record_layer(counts, total, guard):
    """Append the number of nodes stored after a layer. MemoryGuard when
    more than guard are stored, or they and the recorded layers are, so
    that a ball that stops growing still cannot loop without limit."""
    if total > guard:
        raise MemoryGuard(guard)
    counts.append(total)
    if total + len(counts) > guard:
        raise MemoryGuard(guard, layers=True)


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
    """Layered breadth-first search from root, at most depth layers deep.
    expand(node, data) lists (child, child data) pairs; a child reached for
    the first time is stored with its data, and the memory guard is checked
    on every insert. Each recorded layer counts against the guard too
    (record_layer). Returns the stored nodes, node -> data, in order of
    discovery, and the number stored after each layer (root's first). Runs
    with the collector paused (gc_paused)."""
    return gc_paused(_bfs_layers, root, expand, depth, data)


def _bfs_layers(root, expand, depth, data):
    guard = mem_guard()
    seen = {root: data}
    layer = [root]
    sizes = [1]
    for _ in range(depth):
        nxt = []
        for node in layer:
            for child, child_data in expand(node, seen[node]):
                if child not in seen:
                    seen[child] = child_data
                    if len(seen) > guard:
                        raise MemoryGuard(guard)
                    nxt.append(child)
        layer = nxt
        record_layer(sizes, len(seen), guard)
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
    read so far. None is never a live state, and a state is hashable: it
    keys the memo of the members below it. Calling a Fold folds one word,
    so it is a drop-in oracle member; answers() decides every word of the
    lengths asked from the DAG of each length's fold states (_members)."""

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
        """An iterator over the answers, as bools, on the words of each
        length in lengths, in lex order within a length (all_words' order
        for range(n + 1)). A lifted member's state, the prefix, never
        repeats, so it is asked once per word, in that order, as the word's
        answer is taken. Any other fold's answers of a length are its member
        offsets (_members), taken as the length's first answer is."""
        alphabet = tuple(sorted(alphabet))
        if self.step is _extend:
            words = itertools.chain.from_iterable(itertools.product(alphabet, repeat=n) for n in lengths)
            return map(bool, map(self.final, words))
        k = len(alphabet)
        runs = (run for n in lengths for run in _runs(_members(self, alphabet, n), k**n, True, False))
        return itertools.chain.from_iterable(runs)


def _runs(offsets, total, hit, miss):
    """total answers as runs, hit at each of the sorted offsets and miss
    elsewhere, for itertools.chain.from_iterable to step through in C."""
    at, hits = 0, (hit,)
    for offset in offsets:
        yield itertools.repeat(miss, offset - at)
        yield hits
        at = offset + 1
    yield itertools.repeat(miss, total - at)


def _members(fold, alphabet, length, check=None):
    """The sorted offsets of the fold's members among the k^length words of
    that length over alphabet, in lex order. The words below a trie node
    are decided by its state and r, the symbols left, so the trie folds
    into the DAG of its nodes (state, r), the shared subgraphs of Bryant's
    decision diagrams (1986). A node's entry is the sorted offsets of its
    members among its k^r words: its live children's entries, child i
    shifted by i * k^(r - 1), in order; a dead child adds nothing, and a
    child with one symbol left is its final test. The DAG is built depth
    first with an explicit stack, each node once, and is dropped with the
    length: a fold whose states never repeat across depths, such as a
    unary count, would only pile up nodes in a memo kept across lengths.
    check(state, symbol, child), when given, is called on every edge with
    a member below it as its parent's entry is built, so before any offset
    is returned. Each node and each offset it stores is charged against
    mem_guard(): MemoryGuard past it."""
    step, final = fold.step, fold.final
    if not length:
        return [0] if final(fold.start) else []
    k = len(alphabet)
    guard = mem_guard()
    charged = 1
    memo = [{} for _ in range(length)]  # r -> state -> the node's entry

    def join(frame, i, child, below):
        # the live child i of frame, with members below: its edge checked,
        # its entry shifted into the frame's
        state, r, _, out, _ = frame
        if check is not None:
            check(state, alphabet[i], child)
        shift = i * k ** (r - 1)
        out.extend([o + shift for o in below] if shift else below)

    # a frame: a node's state and r, its symbols' iterator, its offsets so
    # far and its index under its parent
    stack = [(fold.start, length, enumerate(alphabet), [], None)]
    while True:
        frame = stack[-1]
        state, r, it, out, _ = frame
        entries = memo[r - 1]
        for i, s in it:
            child = step(state, s)
            if child is None:
                continue
            if r == 1:
                if final(child):
                    join(frame, i, child, (0,))
                continue
            below = entries.get(child)
            if below is None:
                charged += 1
                if charged > guard:
                    raise MemoryGuard(guard)
                stack.append((child, r - 1, enumerate(alphabet), [], i))
                break
            if below:
                join(frame, i, child, below)
        else:
            charged += len(out)
            if charged > guard:
                raise MemoryGuard(guard)
            stack.pop()
            if not stack:
                return out
            memo[r][state] = out
            if out:
                join(stack[-1], frame[4], state, out)


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
    register configurations.

    A trie node, the prefix of length p <= L, is a level: every (state,
    register) reachable while consuming exactly that prefix, stored once at
    its minimum depth with its parent link, in layers by depth. A child
    level applies one symbol's moves to the parent's layers and closes
    under epsilon moves, depth by depth. A configuration at depth d with r
    symbols still to read is pruned when d + lb[r][q] exceeds the word
    length's budget, lb being the distance table over any symbols, or when
    d + floor_q(register) does, floor_q being the move floor of the
    registers that paths from q can still apply (EFA.move_floors),
    compiled into each move to q. Both are admissible, so a level holds
    every configuration that an accepting path of a word can pass through
    while consuming its prefix.

    A leaf, the whole word, is a level too, but its build stops after the
    first layer that holds an accepting state with the identity register.
    That layer's depth is the word's least accepting time, and an Accept's
    certificate is read off the parent links of the levels along the trie
    path, the leaf's last. The trie is walked depth first with one stack of
    the levels along the current path, whose configurations, and the
    leaf's, count against the memory guard together. The register-ignoring
    projection (state -> minimum depth) is carried along the same trie to
    give each word's d_min, which decides BudgetExhausted against Reject
    exactly as in accepts(). Every word has a last symbol: L >= 1, and the
    empty word is accepts()'s to decide."""

    def __init__(self, efa, alphabet, max_len, policy):
        floors = efa.move_floors
        identity = efa.group.identity()
        self.efa = efa
        self.alphabet = alphabet
        self.policy = policy

        def compiled(moves):
            # (target, action, transition, the target's norm and scale)
            return [(q, r, t, *(floors[q] or _UNFLOORED)) for q, _, r, t in moves]

        self.eps = {q: compiled(efa.moves[(q, None)]) for q in efa.states}
        self.eps_targets = {q: [m[0] for m in moves] for q, moves in self.eps.items() if moves}
        self.sym = {
            s: {q: compiled(efa.moves[(q, s)][len(self.eps[q]) :]) for q in efa.states} for s in alphabet
        }
        self.lb = _distances_to_accept(efa, [ANY] * max_len)
        self.root = (efa.initial, identity)
        self.goals = [(f, identity) for f in sorted(efa.accepting)]
        self.guard = mem_guard()
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
        alphabet = self.alphabet
        self.stored = 0  # configurations in the levels along the current trie path
        root = self._level(None, None, length)
        self.stored = len(root.links)
        # a frame: its symbols' iterator, its level, its projection and the
        # symbol into it
        stack = [(iter(alphabet), root, self.root_projection, None)]
        while stack:
            it, level, projection, _ = stack[-1]
            r = length - len(stack)  # the symbols left below a child
            for s in it:
                child = self._step_projection(projection, s)
                if not r:
                    yield self._leaf(stack, s, child)
                    continue
                below = self._level(level, s, r)
                if below.links:
                    self.stored += len(below.links)
                    stack.append((iter(alphabet), below, child, s))
                    break
                yield from self._dead(child, r)
            else:
                self.stored -= len(stack.pop()[1].links)

    def _leaf(self, stack, symbol, projection):
        """The verdict of the word that ends in symbol below the level on
        top of stack, from the word's own level, built up to its first goal."""
        links = self._level(stack[-1][1], symbol, 0).links
        for key in self.goals:
            if key in links:
                break
        else:
            return self._unaccepted(projection)
        levels = [frame[1].links for frame in stack] + [links]
        i = len(levels) - 1
        link = links[key]
        certificate = []
        while link is not None:
            pkey, t = link
            certificate.append(t)
            if t.symbol is not None:
                i -= 1
            link = levels[i][pkey]
        certificate.reverse()
        word = tuple(frame[3] for frame in stack[1:]) + (symbol,)
        _verify_certificate(self.efa, word, tuple(certificate))
        return Verdict.ACCEPT

    def _level(self, parent, symbol, r):
        """The level one symbol below parent, or the root level when parent
        is None, with r symbols still to read. A leaf's (r = 0) stops after
        its first layer that holds a goal."""
        cap = self.caps[r]
        eps = self.eps
        budget = self.budget
        goals = () if r else self.goals  # read here: the move loop rebinds r
        limit = self.guard - self.stored
        if parent is None:  # the root level: the root alone at depth 0
            parents, sym, base = (), None, 0
            front = [self.root] if cap[self.root[0]] >= 0 else []
            layers = [front]
        else:
            parents, sym, base = parent.layers, self.sym[symbol], parent.base + 1
            front, layers = [], []
        links = dict.fromkeys(front)  # the root's link is None
        d = base + len(layers)
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
            if goals and not links.keys().isdisjoint(goals):
                break
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
    order. The empty word's is accepts()'s. A deterministic machine's are
    read off the DAG of its fold over (state, register) (_path_verdicts).
    Otherwise one prefix-shared search decides each length from 1; but a
    unary alphabet has one word per length and nothing to share, so each
    word gets its own breadth-first search (_floored_verdict), which stops
    at its first accepting configuration, where the prefix search closes
    each level to every depth its budget allows before the next symbol.
    Routed through the prefix search, composite <= 30 took 131-138 ms
    against 110-113 ms per word, upow <= 24 11-20 ms against 8-14 ms, and
    oddpow <= 32 23-40 ms against 17-29 ms (best of 7 in each of three
    processes). Both kinds of search drop a configuration beyond the move
    floor of its state (EFA.move_floors), as the distance table drops those
    too far from an accepting state."""
    if max_len < 0:
        raise GramataError(f"max_len must be at least 0, got {max_len}")
    alphabet = tuple(sorted(alphabet))
    if max_len:
        _checked_word(alphabet, efa.alphabet)
    yield accepts(efa, (), policy).verdict
    if efa.deterministic:
        yield from _path_verdicts(efa, alphabet, max_len, policy)
        return
    if len(alphabet) < 2:
        # the collector is paused per word, never across a yield, so the
        # caller's code and its oracle run with it on
        for word in itertools.islice(all_words(alphabet, max_len), 1, None):
            yield gc_paused(_floored_verdict, efa, word, policy)
        return
    search = _PrefixSearch(efa, alphabet, max_len, policy)
    for length in range(1, max_len + 1):
        yield from search.verdicts(length)


def _floored_verdict(efa, word, policy):
    """accepts(efa, word, policy).verdict for a word of length at least 1
    of a nondeterministic machine, from a search that also drops the
    children beyond their states' move floors (EFA.move_floors). Unlike
    accepts(), it searches a word that the budget cannot reach too; that
    search expands the root alone and finds nothing, so the verdict is the
    same. It repeats accepts' steps rather than share them, which would
    cost every single decide one more call."""
    budget = policy(len(word))
    dist = _distances_to_accept(efa, word[::-1])
    _, certificate = _search_bfs(efa, word, budget, dist, efa.move_floors)
    if certificate is not None:
        _verify_certificate(efa, word, certificate)
        return Verdict.ACCEPT
    return _unaccepted_verdict(dist[len(word)].get(efa.initial), budget)


def _path_verdicts(efa, alphabet, max_len, policy):
    """The verdicts of a deterministic machine for the lengths L >= 1, read
    off the member offsets (_members) of folds whose step is the symbol's
    one move in efa.moves, as accepts() steps. A word has at most one path,
    and d_min is L when it ends in an accepting state, else None. So a
    length with L <= t(L) folds over (state, register) to "accepting state
    and identity register", Accept or Reject. One with L > t(L) folds to
    "accepting state", BudgetExhausted or Reject; the register cannot
    change that, so that fold's state is the machine's state alone, with
    at most |Q| nodes per r. An Accept's certificate is checked edge by
    edge instead of replayed: each (node, symbol) edge of the (state,
    register) DAG with a member below it is checked once (_verify_move), so
    the path of every Accept is a chain of checked edges that ends in an
    accepting state with the identity register. The DAGs are charged
    against the guard, and a length L >= mem_guard() is refused with
    MemoryGuard before it is walked."""
    accepting = efa.accepting
    is_identity = efa.group.is_identity
    moves = efa.moves
    guard = mem_guard()

    def step(node, s):
        move = moves.get((node[0], s))
        if not move:
            return None
        q, _, r, _ = move[0]
        return q, node[1] if r is None else r(node[1])

    def reach(q, s):
        move = moves.get((q, s))
        return move[0][0] if move else None

    checked = set()  # the (node, symbol) edges checked

    def check(node, s, child):
        if (node, s) not in checked:
            _verify_move(efa, node, s, child)
            checked.add((node, s))

    root = (efa.initial, efa.group.identity())
    accepted = Fold(root, step, lambda node: node[0] in accepting and is_identity(node[1]))
    reached = Fold(efa.initial, reach, accepting.__contains__)
    k = len(alphabet)
    for length in range(1, max_len + 1):
        if length >= guard:
            raise MemoryGuard(guard)
        if length > policy(length):
            runs = _runs(_members(reached, alphabet, length), k**length, Verdict.BUDGET_EXHAUSTED, Verdict.REJECT)
        else:
            runs = _runs(_members(accepted, alphabet, length, check), k**length, Verdict.ACCEPT, Verdict.REJECT)
        yield from itertools.chain.from_iterable(runs)


def _verify_move(efa, node, symbol, child):
    """Check one edge of a deterministic machine's fold, as
    _verify_certificate checks each step of a path: the move that the fold
    took from node's state on symbol is a transition from that state on
    that symbol to child's state, and the group's mul of node's register by
    the transition's register, not the compiled action, is child's. An
    identity register costs no product, as in _verify_certificate."""
    (q, reg), (target, after) = node, child
    _, _, action, t = efa.moves[(q, symbol)][0]
    if (t.source, t.symbol, t.target) != (q, symbol, target):
        raise GramataError(f"unsound certificate: no move {q} {symbol} {target}")
    if (reg if action is None else efa.group.mul(reg, t.register)) != after:
        raise GramataError(f"unsound certificate: the move {q} {symbol} {target} does not give its register")


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
    The answers come from the DAG of each length's (fold state, symbols
    left) nodes (Fold.answers, _members); a predicate that is not a Fold is
    lifted to one, so it is asked once per word, in order. workers is
    ignored, as in enumerate_words."""
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
