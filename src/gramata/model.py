"""The group-automaton data model and its textual file format.

A machine document has the sections group / states / initial / accepting /
alphabet, each once and in any order, then transitions; each transition
line reads `from symbol|~ to element-literal` with `~` standing for the
empty input.
Serialization is canonical (sorted states and transitions), so documents
round-trip byte-exactly after one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import algebra
from .errors import EfaParseError, GramataError

EPSILON_TOKEN = "~"
EMPTY_WORD_TOKEN = "ε"  # the empty word, as a word on the command line or in a report spells it
_RESERVED_TOKENS = {EPSILON_TOKEN, EMPTY_WORD_TOKEN, "#"}
_SECTIONS = ("group", "states", "initial", "accepting", "alphabet")


@dataclass(frozen=True)
class Transition:
    source: str
    symbol: Optional[str]  # None means epsilon
    target: str
    register: object


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    location: str = ""

    def render(self):
        loc = f" [{self.location}]" if self.location else ""
        return f"{self.code}: {self.message}{loc}"


@dataclass(frozen=True)
class EFA:
    group: algebra.Group
    states: tuple
    alphabet: tuple
    transitions: tuple
    initial: str
    accepting: frozenset

    def __init__(self, group, states, alphabet, transitions, initial, accepting):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "states", tuple(sorted(set(states))))
        object.__setattr__(self, "alphabet", tuple(sorted(set(alphabet))))

        def key(t):
            # invalid registers must still sort so validate() can report them
            try:
                literal = group.format_element(t.register)
            except Exception:
                literal = repr(t.register)
            return (t.source, t.symbol or "", t.target, literal)

        object.__setattr__(self, "transitions", tuple(sorted(transitions, key=key)))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", frozenset(accepting))

    def __reduce__(self):
        # rebuilt from its fields: the cached tables hold compiled actions,
        # which are local functions and do not pickle
        return EFA, (self.group, self.states, self.alphabet, self.transitions, self.initial, self.accepting)

    # The transition tables are built once per machine, on first use.

    @cached_property
    def moves(self):
        """(state, symbol or None) -> the moves applicable there, compiled
        as (target, advances, action, transition): advances is 1 for a
        symbol move and 0 for an epsilon move, and action is the register's
        right action group.right_mul(register), or None when the register
        is the identity, so that a search skips the product. Epsilon moves
        come first, then the symbol's moves, each in transition order. None
        stands for the end of the input."""
        group = self.group
        own = {}
        for t in self.transitions:
            action = None if group.is_identity(t.register) else group.right_mul(t.register)
            move = (t.target, 0 if t.symbol is None else 1, action, t)
            own.setdefault((t.source, t.symbol), []).append(move)
        return {
            (q, s): tuple(own.get((q, None), []) + (own.get((q, s), []) if s is not None else []))
            for q in self.states
            for s in (None,) + self.alphabet
        }

    @cached_property
    def deterministic(self):
        """No epsilon move, and at most one transition per (state, symbol):
        every run of the machine on a word is then a single path."""
        keys = [(t.source, t.symbol) for t in self.transitions]
        return all(s is not None for _, s in keys) and len(set(keys)) == len(keys)

    @cached_property
    def move_floors(self):
        """state -> the move floor of the registers that a path from the
        state can still apply (simulate.state_floors), built on the first
        sweep that reads it."""
        from .simulate import state_floors  # simulate imports this module

        return state_floors(self)

    @cached_property
    def distance_levels(self):
        """The memo of the distance levels that simulate's deciders look
        up, filled as they need them (DistanceLevels)."""
        from .simulate import DistanceLevels  # simulate imports this module

        return DistanceLevels(self)


def validate(efa):
    """All invariant violations as diagnostics; empty list means well-formed."""
    diags = []
    states = set(efa.states)
    if not efa.alphabet:
        diags.append(Diagnostic("empty-alphabet", "alphabet must be non-empty"))
    # a word of one-character symbols prints without spaces, so a longer
    # symbol spelled by them would print alike and read back as itself
    letters = {sym for sym in efa.alphabet if len(sym) == 1}
    for sym in efa.alphabet:
        if sym in _RESERVED_TOKENS or not sym or any(ch.isspace() for ch in sym):
            diags.append(Diagnostic("bad-symbol", f"symbol {sym!r} is reserved or contains whitespace"))
        elif len(sym) > 1 and set(sym) <= letters:
            diags.append(Diagnostic("bad-symbol", f"symbol {sym!r} is spelled by one-character symbols"))
    for q in efa.states:
        if not q or any(ch.isspace() for ch in q) or q.startswith("#"):
            diags.append(Diagnostic("bad-state-name", f"state {q!r} would not serialize"))
    if efa.initial not in states:
        diags.append(Diagnostic("unknown-initial-state", f"initial state {efa.initial!r} not declared"))
    for q in sorted(efa.accepting):
        if q not in states:
            diags.append(Diagnostic("unknown-accepting-state", f"accepting state {q!r} not declared"))
    alphabet = set(efa.alphabet)
    for i, t in enumerate(efa.transitions):
        loc = f"transition {i}"
        if t.source not in states:
            diags.append(Diagnostic("unknown-state", f"source state {t.source!r} not declared", loc))
        if t.target not in states:
            diags.append(Diagnostic("unknown-state", f"target state {t.target!r} not declared", loc))
        if t.symbol is not None and t.symbol not in alphabet:
            diags.append(Diagnostic("unknown-symbol", f"symbol {t.symbol!r} not in alphabet", loc))
        try:
            efa.group.check(t.register)
        except GramataError as err:
            diags.append(Diagnostic(err.code, str(err), loc))
    return diags


def serialize_efa(efa):
    lines = [
        "group " + efa.group.spec_text(),
        "states " + " ".join(efa.states),
        "initial " + efa.initial,
        "accepting " + " ".join(sorted(efa.accepting)),
        "alphabet " + " ".join(efa.alphabet),
        "transitions",
    ]
    for t in efa.transitions:
        sym = t.symbol if t.symbol is not None else EPSILON_TOKEN
        lines.append(f"{t.source} {sym} {t.target} {efa.group.format_element(t.register)}")
    return "\n".join(lines) + "\n"


def parse_efa(text):
    sections = {}  # each of _SECTIONS once, by name
    transitions = []
    in_transitions = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_transitions:
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise EfaParseError("transition needs 'from symbol to element'", line=lineno)
            src, sym, dst, literal = parts
            symbol = None if sym == EPSILON_TOKEN else sym
            if "group" not in sections:
                raise EfaParseError("transitions before group declaration", line=lineno)
            try:
                register = sections["group"].parse_element(literal)
            except GramataError as err:
                column = raw.find(literal) + 1 or None
                raise EfaParseError(str(err), line=lineno, column=column, cause=err) from err
            transitions.append(Transition(src, symbol, dst, register))
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "transitions":
            in_transitions = True
            continue
        if key not in _SECTIONS:
            raise EfaParseError(f"unknown section {key!r}", line=lineno)
        if key in sections:
            raise EfaParseError(f"repeated section {key!r}", line=lineno)
        if key == "group":
            try:
                sections[key] = algebra.parse_group_spec(rest)
            except GramataError as err:
                raise EfaParseError(str(err), line=lineno, cause=err) from err
        elif key == "initial":
            if len(rest.split()) != 1:
                raise EfaParseError("initial takes exactly one state", line=lineno)
            sections[key] = rest
        else:
            sections[key] = rest.split()

    missing = [name for name in _SECTIONS if name not in sections]
    if missing:
        raise EfaParseError("missing sections: " + ", ".join(missing))

    efa = EFA(transitions=transitions, **sections)
    diags = validate(efa)
    if diags:
        first = diags[0]
        err = EfaParseError("; ".join(d.render() for d in diags))
        err.cause = first.code
        raise err
    return efa


def load_efa(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_efa(fh.read())


def save_efa(efa, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_efa(efa))
