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
from typing import Iterable, NamedTuple

from .errors import (
    DeterminantConstraint,
    ElementGroupMismatch,
    GramataError,
    NotPositive,
    SingularMatrix,
    ZeroDenominator,
)

Rational = Fraction


def rat_normalize(num, den):
    """Exact rational num/den in lowest terms with a positive denominator."""
    if den == 0:
        raise ZeroDenominator("zero denominator")
    return Fraction(num, den)


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text):
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)(?:/(-?\d+))?", text)
    if not m:
        raise GramataError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return rat_normalize(num, den)


@cache
def _identity_num(dim):
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


class Matrix:
    """Immutable square matrix over the rationals, held as integer numerator
    rows `num` over one positive common denominator `den` in lowest terms:
    entry (i, j) is num[i][j] / den. The pair is canonical, so equality and
    hashing compare it directly."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, rows):
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
        _fill_matrix(self, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return (_matrix, (self.num, self.den))

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
        if not isinstance(other, Matrix) or len(other.num) != len(self.num):
            return NotImplemented
        den = self.den * other.den
        if len(self.num) == 2:
            (a, b), (c, d) = self.num
            (e, f), (g, h) = other.num
            p, q, r, s = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            if den != 1:
                k = gcd(den, p, q, r, s)
                if k != 1:
                    p, q, r, s, den = p // k, q // k, r // k, s // k, den // k
            return _matrix(((p, q), (r, s)), den)
        cols = list(zip(*other.num))
        num = tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in self.num])
        return _matrix(num, 1) if den == 1 else _reduced_matrix(num, den)

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

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return self._hash

    def is_identity(self):
        return self.den == 1 and self.num == _identity_num(len(self.num))

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


# The internal constructors below fill the slots through their descriptors,
# which skips Matrix.__init__'s normalization and the immutability guard.
_new = object.__new__
_set_num, _set_den, _set_matrix_hash = Matrix.num.__set__, Matrix.den.__set__, Matrix._hash.__set__


def _fill_matrix(m, num, den):
    _set_num(m, num)
    _set_den(m, den)
    _set_matrix_hash(m, hash((num, den)))
    return m


def _matrix(num, den):
    """Matrix num / den from integer rows already in lowest terms, den > 0."""
    return _fill_matrix(_new(Matrix), num, den)


def _reduced_matrix(num, den):
    """Matrix num / den from integer rows over any nonzero den."""
    if den < 0:
        num, den = tuple([tuple([-x for x in row]) for row in num]), -den
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num, den = tuple([tuple([x // g for x in row]) for row in num]), den // g
    return _matrix(num, den)


def determinant(m):
    return m.det()


def format_matrix(m):
    return "[" + ",".join("[" + ",".join(format_rational(x) for x in row) + "]" for row in m.rows) + "]"


class Word:
    """Reduced word in a free group: letters are (generator index, sign)."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters=()):
        letters = _reduce_letters(letters)
        _set_letters(self, letters)
        _set_word_hash(self, hash(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return (Word, (self.letters,))

    @classmethod
    def generator(cls, index, sign=1):
        return cls(((index, sign),))

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        a, b = self.letters, other.letters
        # both operands are reduced, so cancellation only happens where the
        # left word's tail meets the right word's head
        i, j, n = len(a), 0, len(b)
        while i and j < n and a[i - 1][0] == b[j][0] and a[i - 1][1] != b[j][1]:
            i -= 1
            j += 1
        return _word(a[:i] + b[j:] if j else a + b)

    def inverse(self):
        return _word(tuple((g, -s) for g, s in reversed(self.letters)))

    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Word({format_word(self)!r})"


_set_letters, _set_word_hash = Word.letters.__set__, Word._hash.__set__


def _word(letters):
    """Word from letters that are already a reduced tuple of (index, +-1)
    pairs, with no re-check (the internal constructor of the product)."""
    w = _new(Word)
    _set_letters(w, letters)
    _set_word_hash(w, hash(letters))
    return w


def _reduce_letters(letters):
    out = []
    for g, s in letters:
        if s not in (1, -1):
            raise GramataError(f"letter sign must be +-1, got {s}")
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def format_word(w):
    if not w.letters:
        return "e"
    return " ".join(f"g{g}" if s == 1 else f"g{g}^-1" for g, s in w.letters)


def parse_word(text, rank):
    text = text.strip()
    if text == "e":
        return Word()
    letters = []
    for token in text.split():
        m = re.fullmatch(r"g(\d+)(\^-1)?", token)
        if not m:
            raise GramataError(f"bad free-word token: {token!r}")
        g = int(m.group(1))
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


# builds a Heis from a 3-tuple without the generated Python-level __new__
_heis_new = tuple.__new__


def heis_mul(g, h):
    # closed-form law: (b^x a^y c^z)(b^x' a^y' c^z') = b^(x+x') a^(y+y') c^(z+z'+y*x')
    gx, gy, gz = g
    hx, hy, hz = h
    return _heis_new(Heis, (gx + hx, gy + hy, gz + hz + gy * hx))


def heis_inverse(g):
    # solve g * inv = identity in the closed form
    x, y, z = g
    return _heis_new(Heis, (-x, -y, x * y - z))


def heis_to_matrix(t):
    """Upper unitriangular 3x3 view: a-exponent above the diagonal left,
    b-exponent right, c-exponent in the corner."""
    return Matrix(((1, t.y, t.z), (0, 1, t.x), (0, 0, 1)))


def format_heis(t):
    return f"H({t.x},{t.y},{t.z})"


def parse_heis(text):
    m = re.fullmatch(r"H\((-?\d+),(-?\d+),(-?\d+)\)", text.strip().replace(" ", ""))
    if not m:
        raise GramataError(f"bad Heisenberg literal: {text!r}")
    return Heis(int(m.group(1)), int(m.group(2)), int(m.group(3)))


# --- groups -----------------------------------------------------------------

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

    def identity(self):
        raise NotImplementedError

    def mul(self, g, h):
        """The product g*h of two checked elements."""
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
        raise NotImplementedError

    def spec_text(self):
        """The group's declaration in the machine file format."""
        raise NotImplementedError

    def __repr__(self):
        return f"<group {self.spec_text()}>"


@dataclass(frozen=True, repr=False)
class FreeGroup(Group):
    rank: int

    def identity(self):
        return Word()

    def mul(self, g, h):
        return g * h

    def inverse(self, g):
        return g.inverse()

    def is_identity(self, g):
        return not g.letters

    def check(self, g):
        if not isinstance(g, Word):
            raise ElementGroupMismatch(f"expected a free-group word, got {g!r}")
        # the product trusts checked words, so an index must be a real int
        if not all(isinstance(i, int) and 0 <= i < self.rank for i, _ in g.letters):
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

    def identity(self):
        return (0,) * self.k

    def mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def is_identity(self, g):
        return all(a == 0 for a in g)

    def check(self, g):
        if not (isinstance(g, tuple) and len(g) == self.k and all(isinstance(a, int) for a in g)):
            raise ElementGroupMismatch(f"expected an integer {self.k}-vector, got {g!r}")

    def format_element(self, g):
        return "[" + ",".join(str(a) for a in g) + "]"

    def parse_element(self, text):
        text = text.strip().replace(" ", "")
        if not (text.startswith("[") and text.endswith("]")):
            raise GramataError(f"bad vector literal: {text!r}")
        body = text[1:-1]
        coords = tuple(int(tok) for tok in body.split(",")) if body else ()
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

    def inverse(self, g):
        return 1 / g

    def is_identity(self, g):
        return g == 1

    def check(self, g):
        if not isinstance(g, Fraction):
            raise ElementGroupMismatch(f"expected a Fraction, got {g!r}")
        if g <= 0:
            raise NotPositive(f"positive rational required, got {g}")

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

    def mul(self, g, h):
        return g * h

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
    def identity(self):
        return HEIS_IDENTITY

    # a plain (self, g, h) method like every group's: perfbench's tracer
    # wraps the class's own `mul`, so staticmethod(heis_mul) would break it
    def mul(self, g, h):
        return heis_mul(g, h)

    def inverse(self, g):
        return heis_inverse(g)

    def is_identity(self, g):
        return g.x == 0 and g.y == 0 and g.z == 0

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

    def inverse(self, g):
        return (self.left.inverse(g[0]), self.right.inverse(g[1]))

    def is_identity(self, g):
        return self.left.is_identity(g[0]) and self.right.is_identity(g[1])

    def check(self, g):
        if not (isinstance(g, tuple) and len(g) == 2):
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
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            return text[:i], text[i + 1 :]
    return None


def parse_group_spec(text):
    """Parse the file-format group declaration, e.g. 'matrix-Q 2 det=1'."""
    spec, rest = _parse_group_spec_prefix(text.strip())
    if rest:
        raise GramataError(f"trailing characters in group spec: {rest!r}")
    return spec


def _parse_group_spec_prefix(text):
    text = text.lstrip()
    if text.startswith("direct-product"):
        rest = text[len("direct-product") :].lstrip()
        left, rest = _parse_paren_spec(rest)
        right, rest = _parse_paren_spec(rest.lstrip())
        return DirectProduct(left, right), rest
    tokens = text.split()
    if not tokens:
        raise GramataError("empty group spec")
    kind = tokens[0]
    if kind == "free":
        return FreeGroup(_positive_int(tokens, 1)), " ".join(tokens[2:])
    if kind == "free-abelian":
        return FreeAbelian(_positive_int(tokens, 1)), " ".join(tokens[2:])
    if kind == "positive-rationals":
        return PositiveRationals(), " ".join(tokens[1:])
    if kind == "heisenberg":
        return HeisenbergGroup(), " ".join(tokens[1:])
    if kind in ("matrix-Z", "matrix-Q"):
        dim = _positive_int(tokens, 1)
        det = DET_ANY
        rest = tokens[2:]
        if rest and rest[0].startswith("det="):
            if rest[0] not in _DET_FROM_TOKEN:
                raise GramataError(f"bad determinant constraint {rest[0]!r}")
            det = _DET_FROM_TOKEN[rest[0]]
            rest = rest[1:]
        return MatrixGroup(dim, kind[-1], det), " ".join(rest)
    raise GramataError(f"unknown group kind {kind!r}")


def _parse_paren_spec(text):
    if not text.startswith("("):
        raise GramataError(f"expected '(' in group spec near {text!r}")
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                inner, rest = _parse_group_spec_prefix(text[1:i])
                if rest:
                    raise GramataError(f"trailing characters in group spec: {rest!r}")
                return inner, text[i + 1 :]
    raise GramataError("unbalanced parentheses in group spec")


def _positive_int(tokens, i):
    """tokens[i] as a positive integer; shared by the file and command-line grammars."""
    token = tokens[i] if i < len(tokens) else ""
    if not token.isdecimal() or int(token) < 1:
        raise GramataError(f"expected a positive integer in group spec, got {token!r}")
    return int(token)


_COMPACT_DET = {"det1": DET_ONE, "detpm1": DET_PM1, "detany": DET_ANY}


def parse_group_compact(text):
    """Parse the command-line group grammar: free:2, zk:3, qplus,
    matq:2:det1, matz:2:detpm1, heis, prod(a,b)."""
    text = text.strip()
    if text.startswith("prod(") and text.endswith(")"):
        halves = _split_outside_parens(text[5:-1], ",")
        if halves is None:
            raise GramataError(f"bad product spec {text!r}")
        return DirectProduct(parse_group_compact(halves[0]), parse_group_compact(halves[1]))
    parts = text.split(":")
    kind = parts[0]
    if kind == "free" and len(parts) == 2:
        return FreeGroup(_positive_int(parts, 1))
    if kind == "zk" and len(parts) == 2:
        return FreeAbelian(_positive_int(parts, 1))
    if kind == "qplus" and len(parts) == 1:
        return PositiveRationals()
    if kind == "heis" and len(parts) == 1:
        return HeisenbergGroup()
    if kind in ("matq", "matz") and len(parts) in (2, 3):
        det = DET_ANY
        if len(parts) == 3:
            if parts[2] not in _COMPACT_DET:
                raise GramataError(f"bad determinant constraint {parts[2]!r}")
            det = _COMPACT_DET[parts[2]]
        return MatrixGroup(_positive_int(parts, 1), "Q" if kind == "matq" else "Z", det)
    raise GramataError(f"bad group spec {text!r}")


def compact_group_text(group):
    if isinstance(group, FreeGroup):
        return f"free:{group.rank}"
    if isinstance(group, FreeAbelian):
        return f"zk:{group.k}"
    if isinstance(group, PositiveRationals):
        return "qplus"
    if isinstance(group, HeisenbergGroup):
        return "heis"
    if isinstance(group, MatrixGroup):
        det = {DET_ONE: "det1", DET_PM1: "detpm1", DET_ANY: "detany"}[group.det]
        return f"mat{group.field.lower()}:{group.dim}:{det}"
    if isinstance(group, DirectProduct):
        return f"prod({compact_group_text(group.left)},{compact_group_text(group.right)})"
    raise GramataError(f"unknown group {group!r}")


# --- the paper's matrices and embeddings ------------------------------------

SANOV_A = Matrix(((1, 2), (0, 1)))
SANOV_B = Matrix(((1, 0), (2, 1)))

BS_A = Matrix(((1, 0), (-1, 1)))
BS_B = Matrix(((Fraction(1, 2), 0), (0, 1)))


_SANOV_LETTERS = {
    (0, 1): SANOV_A,
    (0, -1): SANOV_A.inverse(),
    (1, 1): SANOV_B,
    (1, -1): SANOV_B.inverse(),
}


def sanov_embed(w):
    """Image of a rank-2 free word under g0 -> [[1,2],[0,1]], g1 -> [[1,0],[2,1]]."""
    out = Matrix.identity(2)
    for letter in w.letters:
        if letter[0] not in (0, 1):
            raise ElementGroupMismatch("sanov embedding is defined on rank-2 words")
        out = out * _SANOV_LETTERS[letter]
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
