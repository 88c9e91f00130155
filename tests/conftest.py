import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from gramata.algebra import (
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    Heis,
    HeisenbergGroup,
    Matrix,
    MatrixGroup,
    PositiveRationals,
    Word,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"

# HYPOTHESIS_PROFILE=ci runs every property on 200 reproducible examples,
# the random-machine fuzzing of test_reference.py included, which Tier-1
# keeps at 60 per group
settings.register_profile("ci", max_examples=200, derandomize=True)
CI_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "ci"
if CI_PROFILE:
    settings.load_profile("ci")


@pytest.fixture
def corpus_dir():
    assert CORPUS_DIR.is_dir(), "corpus directory missing; run `gramata corpus`"
    return CORPUS_DIR


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_element(group, rng, bound=50):
    """A random element with coordinates/entries bounded by `bound`."""
    if isinstance(group, FreeGroup):
        letters = []
        for _ in range(rng.randint(0, 10)):
            g = rng.randrange(group.rank)
            letters.append((g, rng.choice((1, -1))))
        return Word(tuple(letters))
    if isinstance(group, FreeAbelian):
        return tuple(rng.randint(-bound, bound) for _ in range(group.k))
    if isinstance(group, PositiveRationals):
        return Fraction(rng.randint(1, bound), rng.randint(1, bound))
    if isinstance(group, HeisenbergGroup):
        return Heis(rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound))
    if isinstance(group, MatrixGroup):
        # random product of a few elementary shears: entries stay around the
        # bound and every det constraint is respected; over Q the shear
        # factors are proper fractions too
        m = Matrix.identity(group.dim)
        for _ in range(rng.randint(0, 4)):
            i, j = rng.sample(range(group.dim), 2)
            shear = [[Fraction(int(r == c)) for c in range(group.dim)] for r in range(group.dim)]
            shear[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3) if group.field == "Q" else 1)
            m = m * Matrix(shear)
        return m
    if isinstance(group, DirectProduct):
        return (random_element(group.left, rng, bound), random_element(group.right, rng, bound))
    raise AssertionError(f"no generator for {group!r}")


ALL_GROUPS = [
    FreeGroup(2),
    FreeAbelian(3),
    PositiveRationals(),
    MatrixGroup(2, "Q", "one"),
    MatrixGroup(2, "Z", "pm1"),
    MatrixGroup(3, "Q"),
    HeisenbergGroup(),
    DirectProduct(FreeGroup(2), FreeAbelian(2)),
]


# one malformed shape in each grammar: file declaration, command-line spec
MALFORMED_GROUPS = {
    "missing dimension": ("matrix-Q", "matq"),
    "extra token": ("free 2 3", "free:2:3"),
    "token after a kind that takes none": ("heisenberg 1", "heis:1"),
    "token after the determinant": ("matrix-Q 2 det=1 det=1", "matq:2:det1:det1"),
    "unknown kind": ("bogus 2", "bogus:2"),
    "the other grammar's kind": ("zk 2", "free-abelian:2"),
    "bad determinant token": ("matrix-Z 2 det=2", "matz:2:det2"),
    "the other grammar's determinant token": ("matrix-Q 2 det1", "matq:2:det=1"),
    "product with one half": ("direct-product (free 1)", "prod(free:1)"),
    "unbalanced open parenthesis": ("direct-product ((free 1) (free 1)", "prod((free:1,free:1)"),
    "unbalanced close parenthesis": ("direct-product (free 1) (free 1))", "prod(free:1,free:1))"),
    "empty": ("", ""),
}
