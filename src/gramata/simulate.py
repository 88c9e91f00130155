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
explored. Branches that provably cannot reach acceptance in the remaining
depth are pruned by the same register-ignoring distance table; the pruning
is admissible, so it never changes a verdict.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

from .errors import GramataError, MemoryGuard, UnknownSymbol

DEFAULT_MEM_GUARD = 10**7


def _mem_guard():
    """The most elements one search may store: GRAMATA_MEM_GUARD, else 10^7."""
    value = os.environ.get("GRAMATA_MEM_GUARD")
    return int(value) if value else DEFAULT_MEM_GUARD


def bfs_layers(root, expand, depth, data=None):
    """Layered breadth-first search from root, at most depth layers deep.
    expand(node, data) lists (child, child data) pairs; a child reached for
    the first time is stored with its data, and the memory guard is checked
    on every insert. Returns the stored nodes, node -> data, in order of
    discovery, and the number stored after each layer (root's first)."""
    guard = _mem_guard()
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
                        raise MemoryGuard(f"search stored more than {guard} elements")
                    nxt.append(child)
        sizes.append(len(seen))
        layer = nxt
    return seen, sizes


def _ceil_log2(n):
    return (n - 1).bit_length()


@dataclass(frozen=True)
class BudgetPolicy:
    """Depth budget slope*m + log_coeff*ceil(log2(m + log_shift)) + offset.
    Monotone nondecreasing and picklable, so policies travel to workers."""

    slope: int
    offset: int
    log_coeff: int = 0
    log_shift: int = 1

    def __call__(self, m):
        budget = self.slope * m + self.offset
        if self.log_coeff:
            budget += self.log_coeff * _ceil_log2(m + self.log_shift)
        return max(1, budget)


@dataclass(frozen=True)
class ConstantPolicy:
    depth: int

    def __call__(self, m):
        return self.depth


# the stock depth budget: 4m + 8*ceil(log2(m+2)) + 16
default_policy = BudgetPolicy(slope=4, offset=16, log_coeff=8, log_shift=2)


def constant_policy(depth):
    return ConstantPolicy(depth)


class Verdict(str, Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"
    BUDGET_EXHAUSTED = "BudgetExhausted"

    def __str__(self):
        return self.value


class Configuration(NamedTuple):
    state: str
    position: int
    register: object


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

    @property
    def accepted(self):
        return self.verdict is Verdict.ACCEPT


def tokenize_word(text, alphabet):
    """Split CLI/word input into symbols of the given alphabet."""
    if text in ("", "ε"):
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
        return "ε"
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


def _distances_to_accept(efa, word):
    """Register-ignoring distance from each (state, position) to acceptance,
    via backward breadth-first search over the machine's source table."""
    sources = efa.sources
    n = len(word)
    dist = {(q, n): 0 for q in efa.accepting}
    frontier = list(dist)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for q, p in frontier:
            prev = [(src, p) for src in sources.get((q, None), ())]
            if p:
                prev += [(src, p - 1) for src in sources.get((q, word[p - 1]), ())]
            for node in prev:
                if node not in dist:
                    dist[node] = d
                    nxt.append(node)
        frontier = nxt
    return dist


def step(efa, config, word):
    """All one-transition successors of a configuration on the given word."""
    q, pos, reg = config
    # a symbol outside the alphabet leaves only the epsilon moves
    moves = efa.moves.get((q, word[pos] if pos < len(word) else None), efa.moves[(q, None)])
    return {
        Configuration(t.target, pos if t.symbol is None else pos + 1, efa.group.mul(reg, t.register))
        for t in moves
    }


def accepts(efa, word, policy=default_policy, *, dedup=True):
    """Run the machine on a word under a depth budget."""
    word = _checked_word(word, efa.alphabet)
    budget = max(1, policy(len(word)))
    dist = _distances_to_accept(efa, word)
    d_min = dist.get((efa.initial, 0))

    if not word and efa.initial in efa.accepting:
        stats, certificate = SearchStats(accept_depth=0), ()  # the empty path accepts
    else:
        search = _search_bfs if dedup else _search_dfs
        stats, certificate = search(efa, word, budget, dist)
    if certificate is not None:
        _verify_certificate(efa, word, certificate)
        return RunResult(Verdict.ACCEPT, stats, certificate)
    if d_min is not None and d_min > budget:
        return RunResult(Verdict.BUDGET_EXHAUSTED, stats)
    return RunResult(Verdict.REJECT, stats)


def _search_bfs(efa, word, budget, dist):
    """Breadth-first search over (state, position, register) tuples that
    stores each configuration once, with its parent link for the
    certificate."""
    group = efa.group
    n = len(word)
    accepting = efa.accepting
    is_identity = group.is_identity
    mul = group.mul
    moves = efa.moves
    symbols = word + (None,)  # the symbol under the cursor, None at the end
    guard = _mem_guard()

    root = (efa.initial, 0, group.identity())
    stats = SearchStats()
    parents = {root: None}
    frontier = [root]
    depth = 0
    while frontier and depth < budget:
        depth += 1
        nxt = []
        for config in frontier:
            stats.expanded += 1
            q, pos, reg = config
            for t in moves[(q, symbols[pos])]:
                npos = pos if t.symbol is None else pos + 1
                remaining = dist.get((t.target, npos))
                if remaining is None or depth + remaining > budget:
                    continue
                child_reg = mul(reg, t.register)
                child = (t.target, npos, child_reg)
                if child in parents:
                    continue
                parents[child] = (config, t)
                if t.target in accepting and npos == n and is_identity(child_reg):
                    stats.accept_depth = depth
                    stats.max_depth = depth
                    return stats, _unwind(parents, child)
                if len(parents) > guard:
                    raise MemoryGuard(f"search stored more than {guard} elements")
                nxt.append(child)
        if nxt:
            stats.max_depth = depth
        frontier = nxt
    return stats, None


def _search_dfs(efa, word, budget, dist):
    """The same bounded search without duplicate pruning (verdict oracle for
    the deduplication-soundness check). The tree can be millions of nodes,
    so the loop leans on locals and flat stack frames."""
    group = efa.group
    n = len(word)
    accepting = efa.accepting
    is_identity = group.is_identity
    mul = group.mul
    dist_get = dist.get
    table = efa.moves
    symbols = word + (None,)

    stats = SearchStats()
    # frames: [position, register, moves, next-move index]
    stack = [[0, group.identity(), table[(efa.initial, symbols[0])], 0]]
    expanded = 0
    max_depth = 0
    while stack:
        frame = stack[-1]
        moves = frame[2]
        idx = frame[3]
        if idx >= len(moves):
            stack.pop()
            continue
        frame[3] = idx + 1
        t = moves[idx]
        depth = len(stack)
        npos = frame[0] if t.symbol is None else frame[0] + 1
        # once depth reaches the budget, remaining >= 0 prunes everything
        remaining = dist_get((t.target, npos))
        if remaining is None or depth + remaining > budget:
            continue
        reg = mul(frame[1], t.register)
        expanded += 1
        if depth > max_depth:
            max_depth = depth
        if npos == n and t.target in accepting and is_identity(reg):
            stats.expanded = expanded
            stats.max_depth = max_depth
            stats.accept_depth = depth
            return stats, tuple(f[2][f[3] - 1] for f in stack)
        stack.append([npos, reg, table[(t.target, symbols[npos])], 0])
    stats.expanded = expanded
    stats.max_depth = max_depth
    return stats, None


def _unwind(parents, config):
    path = []
    while parents[config] is not None:
        parent, t = parents[config]
        path.append(t)
        config = parent
    path.reverse()
    return tuple(path)


def _verify_certificate(efa, word, certificate):
    """Re-multiply the register product along the claimed accepting path."""
    group = efa.group
    state, pos, reg = efa.initial, 0, group.identity()
    for t in certificate:
        if t.source != state:
            raise GramataError("unsound certificate: broken path")
        if t.symbol is not None:
            if pos >= len(word) or word[pos] != t.symbol:
                raise GramataError("unsound certificate: symbol mismatch")
            pos += 1
        state = t.target
        reg = group.mul(reg, t.register)
    if state not in efa.accepting or pos != len(word) or not group.is_identity(reg):
        raise GramataError("unsound certificate: not accepting")


@dataclass
class EnumerationResult:
    words: list
    budget_exhausted: list

    def __iter__(self):
        return iter(self.words)


def all_words(alphabet, max_len):
    alphabet = tuple(sorted(alphabet))
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def _verdict_chunk(args):
    efa, words, policy = args
    return [(w, accepts(efa, w, policy).verdict) for w in words]


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _verdicts_for_words(efa, words, policy, workers=1):
    # never more workers than usable CPUs, nor than chunks with a word in them
    workers = min(workers or 1, _usable_cpus(), len(words))
    if workers > 1 and len(words) > 256:
        chunks = [words[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_verdict_chunk, [(efa, chunk, policy) for chunk in chunks])
        merged = dict(pair for part in parts for pair in part)
        return [merged[w] for w in words]
    return [accepts(efa, w, policy).verdict for w in words]


def enumerate_words(efa, max_len, policy=default_policy, workers=1):
    """All accepted words of length <= max_len, in length-then-lex order.
    BudgetExhausted words are attached as warnings."""
    words = list(all_words(efa.alphabet, max_len))
    verdicts = _verdicts_for_words(efa, words, policy, workers)
    accepted = [w for w, v in zip(words, verdicts) if v is Verdict.ACCEPT]
    undecided = [w for w, v in zip(words, verdicts) if v is Verdict.BUDGET_EXHAUSTED]
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
    """Exhaustively compare machine verdicts against a membership predicate."""
    words = list(all_words(alphabet, max_len))
    verdicts = _verdicts_for_words(efa, words, policy, workers)
    report = EquivReport(
        machine_name=name or "machine",
        oracle_name=getattr(oracle, "name", "oracle"),
        max_len=max_len,
        checked=len(words),
    )
    member = oracle.member if hasattr(oracle, "member") else oracle
    for word, verdict in zip(words, verdicts):
        expected = bool(member(word))
        if verdict is Verdict.BUDGET_EXHAUSTED:
            report.budget_exhausted.append(word)
        elif (verdict is Verdict.ACCEPT) != expected:
            report.mismatches.append((word, expected, verdict))
    return report


def reachable_register_count(efa, max_len, policy=default_policy):
    """Per length l <= max_len: the number of distinct (state, register)
    pairs reachable while consuming any input of length at most l, within
    the depth budget policy(l)."""
    mul = efa.group.mul
    outgoing = {}
    for t in efa.transitions:
        outgoing.setdefault(t.source, []).append(t)

    def expand(node, depth):
        q, k, reg = node
        moves = outgoing.get(q, ()) if k < max_len else efa.moves[(q, None)]
        return [((t.target, k if t.symbol is None else k + 1, mul(reg, t.register)), depth + 1) for t in moves]

    # (state, symbols consumed, register) -> min depth
    root = (efa.initial, 0, efa.group.identity())
    visited, _ = bfs_layers(root, expand, max(1, policy(max_len)), 0)

    counts = []
    for length in range(max_len + 1):
        limit = max(1, policy(length))
        seen = {(q, reg) for (q, k, reg), d in visited.items() if k <= length and d <= limit}
        counts.append(len(seen))
    return counts
