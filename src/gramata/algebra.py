"""Exact-arithmetic register groups and the embeddings between them.

Every element is an immutable value with structural equality: free-group
words are kept reduced, rationals normalized, matrices are integer
numerator rows over one common denominator in lowest terms, Heisenberg
elements live in their (x, y, z) normal form. Registers are compared
bit-exactly, so nothing here may ever touch floats.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple

from .errors import (
    DeterminantConstraint,
    ElementGroupMismatch,
    GramataError,
    NotPositive,
    SingularMatrix,
    ZeroDenominator,
)


def rat_normalize(num, den):
    """Exact rational num/den in lowest terms with a positive denominator."""
    if den == 0:
        raise ZeroDenominator("zero denominator")
    return Fraction(num, den)


def format_int(n):
    """n as an integer literal: decimal, or hexadecimal (0x followed by
    lowercase digits) past the digits str() converts, which CPython limits
    (sys.get_int_max_str_digits(), 4,300 by default) because decimal
    conversion takes quadratic time. A power-of-two base takes linear time
    and has no limit, so any exact register prints, and parse_int reads it
    back."""
    try:
        return str(n)
    except ValueError:
        return f"-0x{-n:x}" if n < 0 else f"0x{n:x}"


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return format_int(q.numerator)
    return f"{format_int(q.numerator)}/{format_int(q.denominator)}"


# an integer literal as the formatters write it: a minus sign and ASCII
# digits, or lowercase hexadecimal digits after 0x
_INT = r"-?(?:0x[0-9a-f]+|[0-9]+)"
_HEX = re.compile(r"0x[0-9a-f]+")
_RATIONAL = re.compile(rf"({_INT})(?:/({_INT}))?")
_HEIS = re.compile(rf"H\(({_INT}),({_INT}),({_INT})\)")


def parse_int(text):
    """An integer literal of _INT, the one reader of every element literal
    and, under parse_count, of every count. '+', '_', '.', exponents and
    non-ASCII digits, all of which int() would take or choke on, raise
    GramataError, and so does a decimal literal longer than int() converts
    (sys.get_int_max_str_digits()); format_int writes a longer value in
    hexadecimal, which has no limit."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:
            raise GramataError(f"integer literal of {len(text)} characters is too long") from None
    if _HEX.fullmatch(digits):
        return int(text, 16)
    raise GramataError(f"not an integer literal: {text!r}")


def parse_count(text, low, name):
    """text, named name in errors, as a count of at least low: ASCII decimal
    digits read by parse_int. The one reader of group dimensions, integer
    flags and GRAMATA_MEM_GUARD; a sign, whitespace or hexadecimal raise
    GramataError like parse_int's refusals, and so does a value below low."""
    value = parse_int(text) if text.isascii() and text.isdigit() else low - 1
    if value < low:
        bound = "a positive integer" if low == 1 else f"an integer of at least {low}"
        raise GramataError(f"{name} must be {bound} in decimal digits, got {text!r}")
    return value


def parse_rational(text):
    text = text.strip()
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise GramataError(f"not a rational literal: {text!r}")
    num = parse_int(m.group(1))
    den = parse_int(m.group(2)) if m.group(2) else 1
    return rat_normalize(num, den)


@cache
def _identity_num(dim):
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


# builds a Matrix, a Word or a Heis from a tuple without its Python-level
# __new__ (for a Matrix: a pair already in lowest terms; for a Word: codes
# that are already reduced, with no re-check)
_tuple_new = tuple.__new__


class Matrix(tuple):
    """Immutable square matrix over the rationals, the pair (num, den) of
    integer numerator rows over one positive common denominator in lowest
    terms: entry (i, j) is num[i][j] / den. The pair is canonical, so
    equality and hashing are the tuple's own, in C, and hash(m) is
    hash((num, den)). The group product is `*`; `k * m`, `m * k` and
    `m + m` are TypeErrors, not the tuple's repetition or concatenation."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise GramataError("matrix must be square and non-empty")
        for row in rows:
            for x in row:
                if not isinstance(x, (int, Fraction)):
                    raise GramataError(f"matrix entries must be int or Fraction, got {x!r}")
        # the lcm of the entries' reduced denominators leaves the numerators
        # and den without a common factor, so the pair is in lowest terms
        den = lcm(*(x.denominator for row in rows for x in row))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)
        return _matrix(num, den)

    num = property(operator.itemgetter(0), doc="The integer numerator rows.")
    den = property(operator.itemgetter(1), doc="The positive common denominator.")

    def __reduce__(self):
        return (_matrix, tuple(self))

    @property
    def rows(self):
        """The entries as tuples of Fractions."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    @property
    def dim(self):
        return len(self.num)

    @classmethod
    def identity(cls, dim):
        return _matrix(_identity_num(dim), 1)

    def __mul__(self, other):
        if not isinstance(other, Matrix) or len(other[0]) != len(self[0]):
            return NotImplemented
        return _right_action(other)(self)

    def __rmul__(self, other):
        # k * m is no group operation; refuse the tuple's repetition
        return NotImplemented

    def __add__(self, other):
        # nor is m + m; refuse the tuple's concatenation
        return NotImplemented

    def __pow__(self, exp):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = Matrix.identity(self.dim)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def is_identity(self):
        num, den = self
        return den == 1 and num == _identity_num(len(num))

    def det(self):
        """Exact determinant: det(num / den) = det(num) / den**n, with det(num)
        by fraction-free Bareiss elimination."""
        n = len(self.num)
        rows = [list(row) for row in self.num]
        sign, prev = 1, 1
        for k in range(n - 1):
            if rows[k][k] == 0:
                pivot = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
                if pivot is None:
                    return Fraction(0)
                rows[k], rows[pivot] = rows[pivot], rows[k]
                sign = -sign
            pk, row_k = rows[k][k], rows[k]
            for i in range(k + 1, n):
                row_i = rows[i]
                f = row_i[k]
                for j in range(k + 1, n):
                    # exact: every entry is a minor of num (Bareiss, 1968)
                    row_i[j] = (pk * row_i[j] - f * row_k[j]) // prev
            prev = pk
        return Fraction(sign * rows[n - 1][n - 1], self.den**n)

    def inverse(self):
        """Exact inverse by fraction-free Gauss-Jordan elimination of
        [num | I] to [d I | R], where R = d num^-1; then
        (num / den)^-1 = den R / d."""
        n = len(self.num)
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.num)]
        prev = 1
        for k in range(n):
            pivot = next((r for r in range(k, n) if aug[r][k] != 0), None)
            if pivot is None:
                raise SingularMatrix("matrix is not invertible")
            aug[k], aug[pivot] = aug[pivot], aug[k]
            pk, row_k = aug[k][k], aug[k]
            for i in range(n):
                if i != k:
                    f = aug[i][k]
                    aug[i] = [(pk * x - f * y) // prev for x, y in zip(aug[i], row_k)]
            prev = pk
        den = self.den
        return _reduced_matrix(tuple(tuple(den * x for x in row[n:]) for row in aug), prev)

    def __repr__(self):
        return f"Matrix({format_matrix(self)})"


def _matrix(num, den):
    """Matrix num / den from integer rows already in lowest terms, den > 0.
    The products build the same tuple inline, saving the call."""
    return _tuple_new(Matrix, (num, den))


def _reduced_matrix(num, den):
    """Matrix num / den from integer rows over any nonzero den."""
    if den < 0:
        num, den = tuple([tuple([-x for x in row]) for row in num]), -den
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num, den = tuple([tuple([x // g for x in row]) for row in num]), den // g
    return _matrix(num, den)


def _right_action(h):
    """The right action m -> m * h, compiled once from h's entries: integer
    arithmetic on m's numerators and one gcd, skipped when the product's
    denominator is 1. It checks neither m's type nor its shape, and its
    product is a Matrix."""
    hnum, hden = h
    if len(hnum) == 2:
        (e, f), (g, k) = hnum

        def act(m):
            ((a, b), (c, d)), den = m
            p, q, r, s = a * e + b * g, a * f + b * k, c * e + d * g, c * f + d * k
            den *= hden
            if den != 1:
                n = gcd(den, p, q, r, s)
                if n != 1:
                    p, q, r, s, den = p // n, q // n, r // n, s // n, den // n
            return _tuple_new(Matrix, (((p, q), (r, s)), den))

        return act
    cols = tuple(zip(*hnum))
    mul = operator.mul

    def act(m):
        rows, den = m
        num = tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in rows])
        den *= hden
        return _matrix(num, 1) if den == 1 else _reduced_matrix(num, den)

    return act


def format_matrix(m):
    return "[" + ",".join("[" + ",".join(format_rational(x) for x in row) + "]" for row in m.rows) + "]"


class Word(tuple):
    """Reduced word in a free group, a tuple of letter codes: generator i
    is 2i and its inverse 2i + 1, so neighbours a, b cancel exactly when
    a ^ 1 == b. Equality, hashing, slicing and concatenation are the
    tuple's own, in C, and no other module reads the codes: `letters` is
    the (generator index, sign) view. Codes are not signed (+-(i + 1)),
    because CPython hashes -1 and -2 alike, which crowds signed words into
    fewer hashes."""

    __slots__ = ()

    def __new__(cls, letters=()):
        return _tuple_new(cls, _reduce_letters(letters))

    def __reduce__(self):
        return (Word, (self.letters,))

    @property
    def letters(self):
        return tuple([(c >> 1, -1 if c & 1 else 1) for c in self])

    @classmethod
    def generator(cls, index, sign=1):
        return cls(((index, sign),))

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return _tuple_new(Word, _word_product(self, other))

    def __rmul__(self, other):
        # k * word is no group operation; refuse the tuple's repetition
        return NotImplemented

    def inverse(self):
        return _tuple_new(Word, [c ^ 1 for c in reversed(self)])

    def is_identity(self):
        return not self

    def __repr__(self):
        return f"Word({format_word(self)!r})"


def _word_product(g, h):
    """The reduced codes of g*h as a plain tuple, g and h being reduced code
    tuples, a Word or not: cancellation only happens where g's tail meets
    h's head."""
    i, j, n = len(g), 0, len(h)
    while i and j < n and g[i - 1] ^ 1 == h[j]:
        i -= 1
        j += 1
    return g[:i] + h[j:] if j else g + h


def _reduce_letters(letters):
    """The reduced codes of (generator index, sign) letters."""
    out = []
    for g, s in letters:
        # the product trusts a word's codes, so an index must be a real int
        if not isinstance(g, int) or g < 0:
            raise ElementGroupMismatch(f"generator index must be a non-negative int, got {g!r}")
        if s not in (1, -1):
            raise GramataError(f"letter sign must be +-1, got {s}")
        c = 2 * g + (s == -1)
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return out


def format_word(w):
    if not w:
        return "e"
    return " ".join(f"g{c >> 1}^-1" if c & 1 else f"g{c >> 1}" for c in w)


def parse_word(text, rank):
    text = text.strip()
    if text == "e":
        return Word()
    letters = []
    for token in text.split():
        m = re.fullmatch(r"g([0-9]+)(\^-1)?", token)
        if not m:
            raise GramataError(f"bad free-word token: {token!r}")
        g = parse_int(m.group(1))
        if g >= rank:
            raise ElementGroupMismatch(f"generator g{g} outside rank {rank}")
        letters.append((g, -1 if m.group(2) else 1))
    return Word(letters)


class Heis(NamedTuple):
    """Heisenberg normal form b^x a^y c^z."""

    x: int
    y: int
    z: int


HEIS_IDENTITY = Heis(0, 0, 0)
# generators in normal-form coordinates
HEIS_A = Heis(0, 1, 0)
HEIS_B = Heis(1, 0, 0)
HEIS_C = Heis(0, 0, 1)


def heis_mul(g, h):
    # closed-form law: (b^x a^y c^z)(b^x' a^y' c^z') = b^(x+x') a^(y+y') c^(z+z'+y*x')
    gx, gy, gz = g
    hx, hy, hz = h
    return _tuple_new(Heis, (gx + hx, gy + hy, gz + hz + gy * hx))


def heis_inverse(g):
    # solve g * inv = identity in the closed form
    x, y, z = g
    return _tuple_new(Heis, (-x, -y, x * y - z))


def heis_to_matrix(t):
    """Upper unitriangular 3x3 view: a-exponent above the diagonal left,
    b-exponent right, c-exponent in the corner."""
    return Matrix(((1, t.y, t.z), (0, 1, t.x), (0, 0, 1)))


def format_heis(t):
    return f"H({format_int(t.x)},{format_int(t.y)},{format_int(t.z)})"


def parse_heis(text):
    m = _HEIS.fullmatch(text.strip().replace(" ", ""))
    if not m:
        raise GramataError(f"bad Heisenberg literal: {text!r}")
    return Heis(*map(parse_int, m.groups()))


# --- groups -----------------------------------------------------------------

# the weight that a broken pin adds to a norm (Group.move_floor): an element
# that moves a coordinate which no register moves never returns, and a floor
# of NEVER / scale moves is more than any budget below 2^64 / scale leaves
NEVER = 1 << 64


class MoveFloor(NamedTuple):
    """h(g) = ceil(norm(g) / scale), a lower bound on the moves that take
    g back to the identity when each move multiplies by a register of norm
    at most scale. A search compares norm(g) with scale * moves left, which
    is the same test without the division. The scale is at least 1, also
    for registers that all have norm 0 (Group.move_floor)."""

    norm: Callable
    scale: int

    def __call__(self, g):
        return -(-self.norm(g) // self.scale)


# the floor of a component with none, inside a direct product
_NO_FLOOR = MoveFloor(lambda g: 0, 1)


def _move_floor(group, registers, pins=()):
    """Group.move_floor of a group with a norm, pins being the indices of
    the coordinates that no register moves."""
    norm = group.norm
    scale = max(map(norm, registers), default=0)
    if pins:
        moved = operator.itemgetter(*pins)
        rest = moved(group.identity())

        def pinned(g):
            n = norm(g)
            return n + NEVER if moved(g) != rest else n

        # with scale 0 the pins cover the norm: what is not pinned has norm 0
        return MoveFloor(pinned, scale or 1)
    if scale:
        return MoveFloor(norm, scale)
    return MoveFloor(lambda g: (n := norm(g)) and n + NEVER, 1)


DET_ANY = "any"
DET_PM1 = "pm1"
DET_ONE = "one"
_DET_TOKENS = {DET_ANY: "det=any", DET_PM1: "det=+-1", DET_ONE: "det=1"}
_DET_FROM_TOKEN = {v: k for k, v in _DET_TOKENS.items()}


class Group:
    """Common interface of all register groups. Instances are immutable and
    hashable; elements are plain values owned by the group. The operations
    assume elements that passed check(), which runs where elements enter the
    program (parsing, validate, the builders, wp_oracle, generator lists)."""

    # a norm with norm(e) = 0 and norm(g) <= norm(g*r) + norm(r), taking
    # elements and right_mul's products; None for a group without one
    norm = None

    def identity(self):
        raise NotImplementedError

    def move_floor(self, registers):
        """h with h(e) = 0 and h(g) <= 1 + h(g*r) for every r in registers:
        the MoveFloor of the norm, scaled by the registers' largest norm c.
        A group may pin a coordinate that no register moves: an element
        that moves it never returns, and its norm gains NEVER. When c is 0
        no register moves the norm, so an element of norm > 0 never
        returns either, and the scale is 1. The floor of a subset of the
        registers is at least as high, so a search may give each state the
        floor of the registers that its paths can still apply. None when
        the group has no norm."""
        return None if self.norm is None else _move_floor(self, registers)

    def mul(self, g, h):
        """The product g*h of two checked elements."""
        raise NotImplementedError

    def right_mul(self, h):
        """The right action g -> g*h of one checked element h, compiled once
        for the searches. It may return another representation of the
        product than mul, equal and with the same hash, which every
        operation of the group accepts but check() need not."""
        raise NotImplementedError

    def inverse(self, g):
        """The inverse of a checked element."""
        raise NotImplementedError

    def is_identity(self, g):
        raise NotImplementedError

    def check(self, g):
        """Raise ElementGroupMismatch / DeterminantConstraint unless g is a
        valid element of this group."""
        raise NotImplementedError

    def format_element(self, g):
        raise NotImplementedError

    def parse_element(self, text):
        """The element that text writes, as format_element writes it. The
        element passes check(), so a parsed register needs no second check;
        text that writes no element of the group raises GramataError."""
        raise NotImplementedError

    def spec_text(self):
        """The group's declaration in the machine file format."""
        raise NotImplementedError

    def __repr__(self):
        return f"<group {self.spec_text()}>"


@dataclass(frozen=True, repr=False)
class FreeGroup(Group):
    rank: int

    norm = staticmethod(len)  # the reduced length

    def identity(self):
        return Word()

    # g may be right_mul's plain code tuple; the product is a Word
    def mul(self, g, h):
        return _tuple_new(Word, _word_product(g, h))

    def right_mul(self, h):
        # the product as a plain code tuple, which equals and hashes like
        # its Word: the slice or concatenation itself, with no second copy
        if len(h) != 1:
            return lambda g: _word_product(g, h)
        # one letter: the product cancels g's last letter or appends it
        tail = tuple(h)
        inverse = tail[0] ^ 1

        def act(g):
            if g and g[-1] == inverse:
                return g[:-1]
            return g + tail

        return act

    def inverse(self, g):
        return Word.inverse(g)

    def is_identity(self, g):
        return not g

    def check(self, g):
        if not isinstance(g, Word):
            raise ElementGroupMismatch(f"expected a free-group word, got {g!r}")
        # Word() admits only non-negative int indices; the rank bounds them
        if g and max(g) >= 2 * self.rank:
            raise ElementGroupMismatch(f"generator index must be an int in range({self.rank})")

    def format_element(self, g):
        return format_word(g)

    def parse_element(self, text):
        return parse_word(text, self.rank)

    def spec_text(self):
        return f"free {self.rank}"


@dataclass(frozen=True, repr=False)
class FreeAbelian(Group):
    k: int

    norm = staticmethod(lambda g: sum(map(abs, g)))  # the L1 norm

    def identity(self):
        return (0,) * self.k

    def mul(self, g, h):
        return tuple(map(operator.add, g, h))

    def right_mul(self, h):
        # Z^3, cayley's z3 ball, builds its product with a tuple display
        # and no map object
        if self.k == 3:
            a, b, c = h
            return lambda g: (g[0] + a, g[1] + b, g[2] + c)
        add = operator.add
        return lambda g: tuple(map(add, g, h))

    def move_floor(self, registers):
        # a coordinate that every register leaves at 0 is pinned
        return _move_floor(self, registers, tuple(i for i in range(self.k) if all(r[i] == 0 for r in registers)))

    def inverse(self, g):
        return tuple(map(operator.neg, g))

    def is_identity(self, g):
        return all(a == 0 for a in g)

    def check(self, g):
        # a plain tuple: a Word is a tuple of int codes too, but no vector
        if not (type(g) is tuple and len(g) == self.k and all(isinstance(a, int) for a in g)):
            raise ElementGroupMismatch(f"expected an integer {self.k}-vector, got {g!r}")

    def format_element(self, g):
        return "[" + ",".join(map(format_int, g)) + "]"

    def parse_element(self, text):
        text = text.strip().replace(" ", "")
        if not (text.startswith("[") and text.endswith("]")):
            raise GramataError(f"bad vector literal: {text!r}")
        body = text[1:-1]
        coords = tuple(parse_int(tok) for tok in body.split(",")) if body else ()
        if len(coords) != self.k:
            raise ElementGroupMismatch(f"vector length {len(coords)} != {self.k}")
        return coords

    def spec_text(self):
        return f"free-abelian {self.k}"


@dataclass(frozen=True, repr=False)
class PositiveRationals(Group):
    def identity(self):
        return Fraction(1)

    def mul(self, g, h):
        return g * h

    def right_mul(self, h):
        return lambda g: g * h

    def inverse(self, g):
        return 1 / g

    def is_identity(self, g):
        return g == 1

    def check(self, g):
        if not isinstance(g, Fraction):
            raise ElementGroupMismatch(f"expected a Fraction, got {g!r}")
        if g <= 0:
            raise NotPositive(f"positive rational required, got {format_rational(g)}")

    def format_element(self, g):
        return format_rational(g)

    def parse_element(self, text):
        q = parse_rational(text)
        self.check(q)
        return q

    def spec_text(self):
        return "positive-rationals"


@dataclass(frozen=True, repr=False)
class MatrixGroup(Group):
    dim: int
    field: str  # "Z" or "Q"
    det: str = DET_ANY

    def identity(self):
        return Matrix.identity(self.dim)

    # a plain (self, g, h) method like every group's: perfbench's tracer
    # wraps the class's own `mul`
    def mul(self, g, h):
        return g * h

    def right_mul(self, h):
        return _right_action(h)

    def inverse(self, g):
        return g.inverse()

    def is_identity(self, g):
        return g.is_identity()

    def check(self, g):
        if not isinstance(g, Matrix) or g.dim != self.dim:
            raise ElementGroupMismatch(f"expected a {self.dim}x{self.dim} matrix, got {g!r}")
        if self.field == "Z" and g.den != 1:
            raise ElementGroupMismatch("integer matrix required")
        d = g.det()
        if self.det == DET_ONE:
            if d != 1:
                raise DeterminantConstraint(f"determinant must be 1, got {format_rational(d)}")
        elif self.det == DET_PM1 or self.field == "Z":
            # invertible over Z forces det = +-1 even under det=any
            if d != 1 and d != -1:
                raise DeterminantConstraint(f"determinant must be +-1, got {format_rational(d)}")
        elif d == 0:
            raise DeterminantConstraint("matrix must be invertible")

    def format_element(self, g):
        return format_matrix(g)

    def parse_element(self, text):
        text = text.strip().replace(" ", "")
        rows = _parse_matrix_rows(text)
        m = Matrix(rows)
        self.check(m)
        return m

    def spec_text(self):
        return f"matrix-{self.field} {self.dim} {_DET_TOKENS[self.det]}"


def _parse_matrix_rows(text):
    if not (text.startswith("[[") and text.endswith("]]")):
        raise GramataError(f"bad matrix literal: {text!r}")
    rows = []
    for part in text[2:-2].split("],["):
        rows.append(tuple(parse_rational(tok) for tok in part.split(",")))
    return tuple(rows)


@dataclass(frozen=True, repr=False)
class HeisenbergGroup(Group):
    # the L1 norm of the abelianisation (x, y, z) -> (x, y)
    norm = staticmethod(lambda g: abs(g[0]) + abs(g[1]))

    def identity(self):
        return HEIS_IDENTITY

    # a plain (self, g, h) method like every group's: perfbench's tracer
    # wraps the class's own `mul`, so staticmethod(heis_mul) would break it
    def mul(self, g, h):
        return heis_mul(g, h)

    def right_mul(self, h):
        # the product as a plain int triple: building a Heis costs more than
        # the arithmetic, and a triple equals and hashes like its Heis
        hx, hy, hz = h

        def act(g):
            x, y, z = g
            return (x + hx, y + hy, z + hz + y * hx)

        return act

    def move_floor(self, registers):
        # x or y is pinned when every register's is 0, and then z too when
        # every register's z is 0: (x, y, z)(hx, hy, hz) moves z by
        # hz + y*hx, which is hz when hx = 0, or when y = 0, as it is on a
        # returning element whose y is pinned
        pins = [i for i in (0, 1) if all(r[i] == 0 for r in registers)]
        if pins and all(r[2] == 0 for r in registers):
            pins.append(2)
        return _move_floor(self, registers, tuple(pins))

    def inverse(self, g):
        return heis_inverse(g)

    def is_identity(self, g):
        # a Heis or a plain triple from right_mul
        return g == HEIS_IDENTITY

    def check(self, g):
        if not (isinstance(g, Heis) and all(isinstance(v, int) for v in g)):
            raise ElementGroupMismatch(f"expected an integer Heisenberg triple, got {g!r}")

    def format_element(self, g):
        return format_heis(g)

    def parse_element(self, text):
        return parse_heis(text)

    def spec_text(self):
        return "heisenberg"


@dataclass(frozen=True, repr=False)
class DirectProduct(Group):
    left: Group
    right: Group

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def mul(self, g, h):
        return (self.left.mul(g[0], h[0]), self.right.mul(g[1], h[1]))

    def right_mul(self, h):
        left, right = self.left.right_mul(h[0]), self.right.right_mul(h[1])
        return lambda g: (left(g[0]), right(g[1]))

    def move_floor(self, registers):
        """The larger of the components' floors, each scaled and pinned by
        its own registers: max(ln/lc, rn/rc) is max(ln*rc, rn*lc) / (lc*rc)."""
        left = self.left.move_floor([r[0] for r in registers])
        right = self.right.move_floor([r[1] for r in registers])
        if left is None and right is None:
            return None
        (ln, lc), (rn, rc) = left or _NO_FLOOR, right or _NO_FLOOR
        return MoveFloor(lambda g: max(ln(g[0]) * rc, rn(g[1]) * lc), lc * rc)

    def inverse(self, g):
        return (self.left.inverse(g[0]), self.right.inverse(g[1]))

    def is_identity(self, g):
        return self.left.is_identity(g[0]) and self.right.is_identity(g[1])

    def check(self, g):
        # a plain tuple, as for FreeAbelian: a two-letter Word is no pair
        if not (type(g) is tuple and len(g) == 2):
            raise ElementGroupMismatch(f"expected a pair, got {g!r}")
        self.left.check(g[0])
        self.right.check(g[1])

    def format_element(self, g):
        return f"({self.left.format_element(g[0])}|{self.right.format_element(g[1])})"

    def parse_element(self, text):
        text = text.strip()
        halves = _split_outside_parens(text[1:-1], "|") if text.startswith("(") and text.endswith(")") else None
        if halves is None:
            raise GramataError(f"bad pair literal: {text!r}")
        return (self.left.parse_element(halves[0]), self.right.parse_element(halves[1]))

    def spec_text(self):
        return f"direct-product ({self.left.spec_text()}) ({self.right.spec_text()})"


# --- group spec grammars ----------------------------------------------------


def _split_outside_parens(text, sep):
    """text split in two at the first sep outside parentheses, or None."""
    depth = 0
    for i, ch in enumerate(text):
        # the separator is tested first, so sep may be the closing ")"
        if ch == sep and depth == 0:
            return text[:i], text[i + 1 :]
        depth += (ch == "(") - (ch == ")")
    return None


# the six group kinds by their file-format names: the constructor, and how
# many tokens may follow the name (a dimension, then for a matrix group an
# optional determinant token)
_KINDS = {
    "free": (FreeGroup, 1),
    "free-abelian": (FreeAbelian, 1),
    "positive-rationals": (PositiveRationals, 0),
    "heisenberg": (HeisenbergGroup, 0),
    "matrix-Z": (lambda dim, det=DET_ANY: MatrixGroup(dim, "Z", det), 2),
    "matrix-Q": (lambda dim, det=DET_ANY: MatrixGroup(dim, "Q", det), 2),
}

# the command-line names of the kinds and of the determinant constraints
_COMPACT_KINDS = {
    "free": "free",
    "zk": "free-abelian",
    "qplus": "positive-rationals",
    "heis": "heisenberg",
    "matz": "matrix-Z",
    "matq": "matrix-Q",
}
_COMPACT_DET = {"det1": DET_ONE, "detpm1": DET_PM1, "detany": DET_ANY}


def _group(kind, tokens, det_tokens, text):
    """The group that kind (a file-format kind name) and the tokens after
    its name declare, with a determinant token read through det_tokens: the
    one builder of both grammars. text is the whole spec, for errors."""
    make, most = _KINDS.get(kind, (None, -1))
    # a kind that takes tokens needs its dimension; an unknown kind fits none
    if not min(most, 1) <= len(tokens) <= most:
        raise GramataError(f"bad group spec {text!r}")
    args = [parse_count(token, 1, "a group dimension") for token in tokens[:1]]
    for token in tokens[1:]:
        if token not in det_tokens:
            raise GramataError(f"bad determinant constraint {token!r}")
        args.append(det_tokens[token])
    return make(*args)


def parse_group_spec(text):
    """Parse the file-format group declaration, e.g. 'matrix-Q 2 det=1'."""
    text = text.strip()
    if text.startswith("direct-product"):
        left, rest = _parse_paren_spec(text[len("direct-product") :].lstrip())
        right, rest = _parse_paren_spec(rest.lstrip())
        if rest:
            raise GramataError(f"trailing characters in group spec: {rest!r}")
        return DirectProduct(left, right)
    kind, *tokens = text.split() or [""]
    return _group(kind, tokens, _DET_FROM_TOKEN, text)


def _parse_paren_spec(text):
    """The group declared inside text's leading parentheses, and the text
    after them."""
    if not text.startswith("("):
        raise GramataError(f"expected '(' in group spec near {text!r}")
    halves = _split_outside_parens(text[1:], ")")
    if halves is None:
        raise GramataError("unbalanced parentheses in group spec")
    return parse_group_spec(halves[0]), halves[1]


def parse_group_compact(text):
    """Parse the command-line group grammar: free:2, zk:3, qplus,
    matq:2:det1, matz:2:detpm1, heis, prod(a,b)."""
    text = text.strip()
    if text.startswith("prod(") and text.endswith(")"):
        halves = _split_outside_parens(text[5:-1], ",")
        if halves is None:
            raise GramataError(f"bad product spec {text!r}")
        return DirectProduct(parse_group_compact(halves[0]), parse_group_compact(halves[1]))
    name, *tokens = text.split(":")
    return _group(_COMPACT_KINDS.get(name), tokens, _COMPACT_DET, text)


_KIND_COMPACT = {kind: name for name, kind in _COMPACT_KINDS.items()}
_DET_COMPACT = {det: token for token, det in _COMPACT_DET.items()}


def compact_group_text(group):
    """The group in the command-line grammar: its file declaration, token
    by token."""
    if isinstance(group, DirectProduct):
        return f"prod({compact_group_text(group.left)},{compact_group_text(group.right)})"
    kind, *tokens = group.spec_text().split()
    tokens[1:] = [_DET_COMPACT[_DET_FROM_TOKEN[token]] for token in tokens[1:]]
    return ":".join([_KIND_COMPACT[kind], *tokens])


# --- the paper's matrices and embeddings ------------------------------------

SANOV_A = Matrix(((1, 2), (0, 1)))
SANOV_B = Matrix(((1, 0), (2, 1)))

BS_A = Matrix(((1, 0), (-1, 1)))
BS_B = Matrix(((Fraction(1, 2), 0), (0, 1)))


# indexed by letter code: g0, g0^-1, g1, g1^-1
_SANOV_LETTERS = (SANOV_A, SANOV_A.inverse(), SANOV_B, SANOV_B.inverse())


def sanov_embed(w):
    """Image of a rank-2 free word under g0 -> [[1,2],[0,1]], g1 -> [[1,0],[2,1]]."""
    if w and max(w) > 3:
        raise ElementGroupMismatch("sanov embedding is defined on rank-2 words")
    out = Matrix.identity(2)
    for c in w:
        out = out * _SANOV_LETTERS[c]
    return out


def qplus_embed(s):
    """Positive rational s as the determinant-1 diagonal matrix diag(s, 1/s)."""
    s = Fraction(s)
    if s <= 0:
        raise NotPositive(f"positive rational required, got {s}")
    return Matrix(((s, 0), (0, 1 / s)))


def pair_embed(m1, m2):
    """Two 2x2 matrices as one block-diagonal 4x4 matrix."""
    if m1.dim != 2 or m2.dim != 2:
        raise ElementGroupMismatch("pair embedding takes 2x2 matrices")
    a, b = m1.rows, m2.rows
    return Matrix(
        (
            (a[0][0], a[0][1], 0, 0),
            (a[1][0], a[1][1], 0, 0),
            (0, 0, b[0][0], b[0][1]),
            (0, 0, b[1][0], b[1][1]),
        )
    )


_BS_TOKENS = {"a": BS_A, "b": BS_B}


def bs_word_to_matrix(tokens: Iterable[str]):
    """Product of the BS(1,2) generator matrices named by tokens
    ('a', 'a^-1', 'b', 'b^-1'), in order."""
    out = Matrix.identity(2)
    for token in tokens:
        name, _, inv = token.partition("^")
        if name not in _BS_TOKENS or inv not in ("", "-1"):
            raise GramataError(f"bad BS(1,2) token {token!r}")
        m = _BS_TOKENS[name]
        out = out * (m.inverse() if inv else m)
    return out


def z2_to_heisenberg(v):
    """Z^2 vector (m, n) as B^m C^n inside the Heisenberg group."""
    m, n = v
    return Heis(m, 0, n)
