"""Exact computational homological algebra over k[t_1..t_r].

Koszul-type free complexes, chain maps and homotopies, additive minimal
models, the inductive filtration on minimal models, and the lifting
pipeline giving lower bounds on total homology dimension and map ranks.
All arithmetic is exact (rationals or prime fields).
"""

from .ring import FieldSpec, RingSpec, Polynomial
from .linalg import PolyMatrix, rank_exact, rank_probabilistic
from .complexes import (
    FreeComplex,
    KoszulComplex,
    koszul,
    direct_sum,
    Augmentation,
    canonical_augmentation,
    DgaStructure,
    tensor_quotient,
    min_generators_of_homology,
)
from .chainmaps import (
    ChainMap,
    Homotopy,
    standard_iota,
    perturb,
    is_chain_map,
    rank_of_map,
    restricted_rank,
    random_homotopy,
    rank_six_fixture,
)
from .minimal import (
    MinimalModel,
    minimal_model,
    is_minimal,
    LambdaAction,
    lambda_ops,
    lambda_length,
)
from .filtration import Filtration, compute_filtration, check_properties, bound_checks
from .lift import (
    LiftError,
    lift_alpha,
    lift_beta,
    pipeline,
    verify_bounds,
    case0_improved_bound,
    multiplicative_alpha,
    solve_boundary_equation,
)
from .fileio import (
    read_complex,
    write_complex,
    read_map,
    write_map,
    FileFormatError,
)

__version__ = "1.0.0"
