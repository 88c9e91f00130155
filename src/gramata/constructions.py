"""Builders for the automata behind each recognizability result, the
matching language membership oracles, and the embedding-based transforms.

The machines are reconstructed from the proofs' register traces. Their
correctness is established behaviorally: every builder ships with an
arithmetic oracle and a depth-budget policy under which the exhaustive
equivalence check passes with no undecided words.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import algebra
from .algebra import (
    DET_ANY,
    DET_ONE,
    BS_A,
    BS_B,
    HEIS_A,
    HEIS_B,
    HEIS_C,
    FreeAbelian,
    FreeGroup,
    HeisenbergGroup,
    Matrix,
    MatrixGroup,
    PositiveRationals,
    Word,
    heis_inverse,
    qplus_embed,
)
from .errors import GramataError, InstanceTooLarge, UnknownOracle
from .model import EFA, Transition, save_efa
from .simulate import BudgetPolicy, Fold, default_policy, mem_guard


@dataclass(frozen=True)
class NamedOracle:
    name: str
    alphabet: tuple
    member: Callable

    def __call__(self, word):
        return self.member(word)


# --- unary powers of two over BS(1,2) ---------------------------------------

# A1 = B^-1 A^-1, A2 = A, A3 = B for the BS(1,2) generator matrices
UPOW_A1 = BS_B.inverse() * BS_A.inverse()
UPOW_A2 = BS_A
UPOW_A3 = BS_B


def build_upow():
    """Unary powers of two: pump A1 = B^-1 A^-1 silently, read the first
    symbol for free, count the rest with A = A2, then divide out with
    B = A3. The exit edge from the reading state carries the identity so
    that the single-letter member (one pump phase of length zero) is
    reachable."""
    group = MatrixGroup(2, "Q", DET_ANY)
    e = group.identity()
    ts = [
        Transition("q0", None, "q0", UPOW_A1),
        Transition("q0", "a", "q1", e),
        Transition("q1", "a", "q1", UPOW_A2),
        Transition("q1", None, "q2", e),
        Transition("q2", None, "q2", UPOW_A3),
        Transition("q2", None, "q3", e),
    ]
    return EFA(group, ["q0", "q1", "q2", "q3"], ["a"], ts, "q0", ["q3"])


ODDPOW_A1 = Matrix(((2, 0), (1, Fraction(1, 2))))
ODDPOW_A2 = Matrix(((2, 0), (0, Fraction(1, 2))))
ODDPOW_A3 = Matrix(((1, 0), (-1, 1)))
ODDPOW_A4 = Matrix(((Fraction(1, 2), 0), (0, 2)))


def build_odd_power():
    """Unary a^(2^(2n+1)): one forced A1, a silent A2 pump, one A3 per
    scanned symbol, then an A4 pump; the register is the identity exactly
    when the symbol count is 2^(2x+1) and x+1 A4's were applied."""
    group = MatrixGroup(2, "Q", DET_ONE)
    e = group.identity()
    ts = [
        Transition("r0", None, "r1", ODDPOW_A1),
        Transition("r1", None, "r1", ODDPOW_A2),
        Transition("r1", "a", "r2", ODDPOW_A3),
        Transition("r2", "a", "r2", ODDPOW_A3),
        Transition("r2", None, "r3", ODDPOW_A4),
        Transition("r3", None, "r3", ODDPOW_A4),
        Transition("r3", None, "r4", e),
    ]
    return EFA(group, ["r0", "r1", "r2", "r3", "r4"], ["a"], ts, "r0", ["r4"])


# --- Heisenberg machines -----------------------------------------------------

_H = HeisenbergGroup()
_H_E = _H.identity()
HEIS_A_INV = heis_inverse(HEIS_A)
HEIS_B_INV = heis_inverse(HEIS_B)
HEIS_C_INV = heis_inverse(HEIS_C)


def build_mult():
    """x^p y^q z^(pq): reading y's after the a-block pushes p onto the
    c-coordinate once per y, the z-block subtracts, and silent cancellation
    of the a's and then the b's leaves the identity exactly on members."""
    ts = [
        Transition("m0", "x", "m0", HEIS_A),
        Transition("m0", None, "m1", _H_E),
        Transition("m1", "y", "m1", HEIS_B),
        Transition("m1", None, "m2", _H_E),
        Transition("m2", "z", "m2", HEIS_C_INV),
        Transition("m2", None, "m3", _H_E),
        Transition("m3", None, "m3", HEIS_A_INV),
        Transition("m3", None, "m4", _H_E),
        Transition("m4", None, "m4", HEIS_B_INV),
    ]
    return EFA(_H, ["m0", "m1", "m2", "m3", "m4"], ["x", "y", "z"], ts, "m0", ["m4"])


def build_composite():
    """x^N with N composite: guess p >= 2 by pumping a, then apply at least
    two silent b's with the x's (each multiplying c^-1) interleaved; the
    c-coordinate accumulates pq - N and everything else cancels."""
    ts = [
        Transition("c0", None, "c1", HEIS_A),
        Transition("c1", None, "c2", HEIS_A),
        Transition("c2", None, "c2", HEIS_A),
        Transition("c2", None, "c3", HEIS_B),
        Transition("c3", "x", "c3", HEIS_C_INV),
        Transition("c3", None, "c4", HEIS_B),
        Transition("c4", "x", "c4", HEIS_C_INV),
        Transition("c4", None, "c4", HEIS_B),
        Transition("c4", None, "c5", _H_E),
        Transition("c5", None, "c5", HEIS_A_INV),
        Transition("c5", None, "c6", _H_E),
        Transition("c6", None, "c6", HEIS_B_INV),
    ]
    states = ["c0", "c1", "c2", "c3", "c4", "c5", "c6"]
    return EFA(_H, states, ["x"], ts, "c0", ["c6"])


def build_multiple():
    """x^p y^(pn): count the x-block with a, then interleave silent b's
    (each adding p to the c-coordinate) with y's multiplying c^-1."""
    ts = [
        Transition("u0", "x", "u0", HEIS_A),
        Transition("u0", None, "u1", _H_E),
        Transition("u1", "y", "u1", HEIS_C_INV),
        Transition("u1", None, "u1", HEIS_B),
        Transition("u1", None, "u2", _H_E),
        Transition("u2", None, "u2", HEIS_A_INV),
        Transition("u2", None, "u3", _H_E),
        Transition("u3", None, "u3", HEIS_B_INV),
    ]
    return EFA(_H, ["u0", "u1", "u2", "u3"], ["x", "y"], ts, "u0", ["u3"])


def build_anbncn():
    """a^n b^n c^n over Z^2: a adds (1,0), b trades it for the second
    counter via (-1,1), c subtracts (0,1); zero vector on members only."""
    group = FreeAbelian(2)
    ts = [
        Transition("n0", "a", "n0", (1, 0)),
        Transition("n0", None, "n1", (0, 0)),
        Transition("n1", "b", "n1", (-1, 1)),
        Transition("n1", None, "n2", (0, 0)),
        Transition("n2", "c", "n2", (0, -1)),
    ]
    return EFA(group, ["n0", "n1", "n2"], ["a", "b", "c"], ts, "n0", ["n2"])


def _word_problem_symbols(group, gens):
    """The word problem's alphabet: each named generator's symbol and its
    inverse's, in order, mapped to their checked elements. Two symbols that
    coincide are refused."""
    pairs = []
    for name, elem in gens:
        group.check(elem)
        pairs += [(name, elem), (name + "^-1", group.inverse(elem))]
    table = dict(pairs)
    if len(table) != len(pairs):
        raise GramataError("generator names collide")
    return table


def build_word_problem_acceptor(group, gens):
    """Single-state acceptor of the word problem: one loop per named
    generator and one per its inverse."""
    if not gens:
        raise GramataError("word-problem acceptor needs at least one generator")
    table = _word_problem_symbols(group, gens)
    ts = [Transition("w0", sym, "w0", elem) for sym, elem in table.items()]
    return EFA(group, ["w0"], list(table), ts, "w0", ["w0"])


def build_qplus_eqcount():
    """Words over {a, b} with equally many a's and b's, via registers 2 and 1/2."""
    group = PositiveRationals()
    ts = [
        Transition("p0", "a", "p0", Fraction(2)),
        Transition("p0", "b", "p0", Fraction(1, 2)),
    ]
    return EFA(group, ["p0"], ["a", "b"], ts, "p0", ["p0"])


def transform_qplus_to_sl2q(efa):
    """Replace every positive-rational label s by diag(s, 1/s); the state
    graph is untouched and the recognized language is preserved."""
    if not isinstance(efa.group, PositiveRationals):
        raise GramataError("transform expects a positive-rationals machine")
    for t in efa.transitions:
        efa.group.check(t.register)
    group = MatrixGroup(2, "Q", DET_ONE)
    ts = [Transition(t.source, t.symbol, t.target, qplus_embed(t.register)) for t in efa.transitions]
    return EFA(group, efa.states, efa.alphabet, ts, efa.initial, efa.accepting)


# --- generators and word-problem oracles -------------------------------------

_GEN_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _standard_entries(group):
    """k for free:k's words, k^2 for zk:k's vectors, a product's sum, else 0."""
    if isinstance(group, algebra.DirectProduct):
        return _standard_entries(group.left) + _standard_entries(group.right)
    if isinstance(group, FreeGroup):
        return group.rank
    return group.k**2 if isinstance(group, FreeAbelian) else 0


def standard_generators(group):
    """A conventional named generating set for the groups that have one.
    Its entries (_standard_entries) are charged against mem_guard() before
    any is built: InstanceTooLarge past it."""
    size = _standard_entries(group)
    guard = mem_guard()
    if size > guard:
        raise InstanceTooLarge(
            f"the standard generating set of {group.spec_text()} has {size} entries, more than the guard {guard}"
        )
    if isinstance(group, FreeGroup):
        names = [_GEN_NAMES[i] if group.rank <= 26 else f"g{i}" for i in range(group.rank)]
        return [(names[i], Word.generator(i)) for i in range(group.rank)]
    if isinstance(group, FreeAbelian):
        names = [_GEN_NAMES[i] if group.k <= 26 else f"g{i}" for i in range(group.k)]
        return [
            (names[i], tuple(1 if j == i else 0 for j in range(group.k)))
            for i in range(group.k)
        ]
    if isinstance(group, HeisenbergGroup):
        return [("a", HEIS_A), ("b", HEIS_B), ("c", HEIS_C)]
    if isinstance(group, algebra.DirectProduct):
        le, re_ = group.left.identity(), group.right.identity()
        out = [(f"{n}.l", (g, re_)) for n, g in standard_generators(group.left)]
        out += [(f"{n}.r", (le, g)) for n, g in standard_generators(group.right)]
        return out
    raise GramataError(f"no standard generating set for {group!r}")


def wp_oracle(group, gens, name=None):
    """Membership predicate of the word problem, as a Fold: its state is the
    group element read so far, each symbol steps by its generator's compiled
    right action, as in the searches, and a member ends at the identity. A
    foreign symbol makes the word a non-member."""
    table = {sym: group.right_mul(elem) for sym, elem in _word_problem_symbols(group, gens).items()}
    alphabet = tuple(sorted(table))
    action = table.get

    def step(value, sym):
        act = action(sym)
        return None if act is None else act(value)

    member = Fold(group.identity(), step, group.is_identity)
    return NamedOracle(name or f"WP:{algebra.compact_group_text(group)}", alphabet, member)


# --- arithmetic language oracles ----------------------------------------------
#
# Each oracle is a Fold. A unary language's state is the number of letters
# read; a block language's is the rank of the current block, the counts of
# the blocks before it and the current block's count, and it dies at the
# first symbol out of order.


def _unary_step(letter, n, sym):
    return n + 1 if sym == letter else None


def _ranks(order):
    """Each symbol's position in a block order, the table a block fold reads."""
    return {sym: i for i, sym in enumerate(order)}


_XYZ, _XY, _ABC = _ranks(("x", "y", "z")), _ranks(("x", "y")), _ranks(("a", "b", "c"))


def _block_counts(size, state):
    """Every block's count in a block state of size blocks."""
    i, closed, n = state
    return closed + (n,) + (0,) * (size - i - 1)


def _block_fold(ranks, final):
    """The Fold of a block language whose final(*counts) decides a word. Its
    state is (rank, closed counts, count): within a block a symbol only
    adds one to the count, and a later block closes the ones it skips; a
    foreign symbol or one ranked below the current block kills it."""
    rank = ranks.get
    size = len(ranks)

    def step(state, sym):
        i, closed, n = state
        r = rank(sym, -1)
        if r == i:
            return i, closed, n + 1
        if r < i:
            return None
        return r, closed + (n,) + (0,) * (r - i - 1), 1

    return Fold((0, (), 0), step, lambda state: final(*_block_counts(size, state)))


def _is_power_of_two(n):
    return n >= 1 and n & (n - 1) == 0


def _is_odd_power_of_two(n):
    return _is_power_of_two(n) and (n.bit_length() - 1) % 2 == 1


def _is_composite(n):
    return n >= 4 and any(n % d == 0 for d in range(2, math.isqrt(n) + 1))


def _mult_final(p, q, r):
    return r == p * q


def _multiple_final(p, m):
    if p == 0:
        return m == 0
    return m % p == 0


def _multiple_pos_final(p, m):
    return p >= 1 and m % p == 0


def _anbncn_final(a, b, c):
    return a == b == c


def _anbn_star_step(state, sym):
    """Words of (a^k b^k)*, k >= 1, split greedily into their unique blocks:
    the state is the current block's a's and the b's read of it."""
    a, b = state
    if sym == "a":
        if b == 0:
            return a + 1, 0
        return (1, 0) if b == a else None
    if sym == "b" and b < a:
        return a, b + 1
    return None


def _anbn_star_final(state):
    return state[0] == state[1]


_ORACLES = {
    "UPOW": NamedOracle("UPOW", ("a",), Fold(0, partial(_unary_step, "a"), _is_power_of_two)),
    "ODDPOW": NamedOracle("ODDPOW", ("a",), Fold(0, partial(_unary_step, "a"), _is_odd_power_of_two)),
    "MULT": NamedOracle("MULT", ("x", "y", "z"), _block_fold(_XYZ, _mult_final)),
    "COMPOSITE": NamedOracle("COMPOSITE", ("x",), Fold(0, partial(_unary_step, "x"), _is_composite)),
    "MULTIPLE": NamedOracle("MULTIPLE", ("x", "y"), _block_fold(_XY, _multiple_final)),
    "MULTIPLE-POS": NamedOracle("MULTIPLE-POS", ("x", "y"), _block_fold(_XY, _multiple_pos_final)),
    "ANBNCN": NamedOracle("ANBNCN", ("a", "b", "c"), _block_fold(_ABC, _anbncn_final)),
    "ANBN-STAR": NamedOracle("ANBN-STAR", ("a", "b"), Fold((0, 0), _anbn_star_step, _anbn_star_final)),
}


def oracle(name):
    """Resolve an oracle by its stable identifier; WP:<group-spec> builds a
    word-problem oracle over the group's standard generators."""
    if name in _ORACLES:
        return _ORACLES[name]
    if name.startswith("WP:"):
        group = algebra.parse_group_compact(name[3:])
        return wp_oracle(group, standard_generators(group), name=name)
    raise UnknownOracle(f"unknown oracle {name!r}")


def oracle_names():
    return sorted(_ORACLES) + ["WP:<group>"]


# --- construction registry ----------------------------------------------------


@dataclass(frozen=True)
class Construction:
    name: str
    build: Callable[[], EFA]
    oracle_name: str
    budget: Callable[[int], int]


def _word_problem_machine(group):
    return build_word_problem_acceptor(group, standard_generators(group))


def _build_qplus_eqcount_sl2q():
    return transform_qplus_to_sl2q(build_qplus_eqcount())


CONSTRUCTIONS = {
    c.name: c
    for c in [
        Construction("upow", build_upow, "UPOW", BudgetPolicy(1, 4, log_coeff=2, log_shift=1)),
        Construction("oddpow", build_odd_power, "ODDPOW", BudgetPolicy(1, 6, log_coeff=2, log_shift=1)),
        Construction("mult", build_mult, "MULT", BudgetPolicy(3, 8)),
        Construction("composite", build_composite, "COMPOSITE", BudgetPolicy(2, 10)),
        Construction("multiple", build_multiple, "MULTIPLE", BudgetPolicy(3, 8)),
        Construction("anbncn", build_anbncn, "ANBNCN", BudgetPolicy(1, 6)),
        Construction("wp-z", partial(_word_problem_machine, FreeAbelian(1)), "WP:zk:1", BudgetPolicy(1, 2)),
        Construction("wp-f2", partial(_word_problem_machine, FreeGroup(2)), "WP:free:2", BudgetPolicy(1, 2)),
        Construction("wp-heis", partial(_word_problem_machine, HeisenbergGroup()), "WP:heis", BudgetPolicy(1, 2)),
        Construction("qplus-eqcount", build_qplus_eqcount, None, BudgetPolicy(1, 2)),
        Construction("qplus-eqcount-sl2q", _build_qplus_eqcount_sl2q, None, BudgetPolicy(1, 2)),
    ]
}


def construction_budget(name):
    if name == "default":
        return default_policy
    if name in CONSTRUCTIONS:
        return CONSTRUCTIONS[name].budget
    raise GramataError(f"unknown budget policy {name!r} (use 'default' or a construction name)")


def emit_corpus(directory):
    """Write every construction's .efa document into the corpus directory."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, spec in sorted(CONSTRUCTIONS.items()):
        path = os.path.join(directory, f"{name}.efa")
        save_efa(spec.build(), path)
        written.append(path)
    return written
