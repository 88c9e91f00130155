import random
from fractions import Fraction
from pathlib import Path

import pytest

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
