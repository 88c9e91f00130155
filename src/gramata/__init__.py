"""Group automata with exact-arithmetic registers.

A finite automaton whose register holds an element of a group (free groups,
integer vectors, positive rationals, rational matrix groups, the discrete
Heisenberg group, or direct products) and accepts on an accepting state with
an identity register. The package bundles the classic constructions over
these groups, a depth-budgeted nondeterministic simulator, and an analysis
suite for Cayley-graph growth and dissimilarity counts.
"""

from .algebra import (
    DET_ANY,
    DET_ONE,
    DET_PM1,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    Group,
    Heis,
    HeisenbergGroup,
    Matrix,
    MatrixGroup,
    PositiveRationals,
    Word,
    bs_word_to_matrix,
    heis_to_matrix,
    pair_embed,
    parse_group_compact,
    parse_group_spec,
    qplus_embed,
    rat_normalize,
    sanov_embed,
    z2_to_heisenberg,
)
from .errors import GramataError
from .model import EFA, Transition, load_efa, parse_efa, save_efa, serialize_efa, validate
from .simulate import (
    RunResult,
    Verdict,
    accepts,
    default_policy,
    enumerate_words,
    equiv_check,
    reachable_register_count,
)

__version__ = "0.1.0"
