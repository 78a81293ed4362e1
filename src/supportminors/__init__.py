"""SupportMinors toolkit: MinRank instances over GF(q), the bilinear minor
modeling, Macaulay-matrix linearization, and explicit syzygy verification."""

from .errors import CapExceededError
from .estimator import (
    ComplexityReport,
    ParameterSet,
    complexity_report,
    cost_estimate,
    eqs,
    format_report,
    macaulay_dims,
    solvable,
    sprime_count,
    submax_dim_formula,
)
from .field import PrimeField, is_prime
from .instance import (
    MinRankInstance,
    SolutionCandidate,
    brute_force_solve,
    decoding_coefficients,
    decoding_to_minrank,
    elementary_instance,
    evaluate_pencil,
    gen_planted,
    gen_random,
    normalize_projective,
    verify_solution,
)
from .modeling import (
    BilinearSystem,
    MacaulayMatrix,
    RankCheckReport,
    build_equations,
    macaulay,
    rank_check,
)
from .serialization import (
    load_instance,
    parse_instance,
    parse_witness,
    save_instance,
    witness_path,
    write_instance,
    write_witness,
)
from .solver import SolveDiagnostics, solve_linearization
from .syzygies import (
    SpecializedFamily,
    SyzygyFamily,
    check_annihilation,
    enumerate_sprime,
    enumerate_sprime1,
    enumerate_sprime3,
    generator_family_counts,
    linear_syzygy_dim_prediction,
    specialize,
    syzygy_row_vector,
    xonly_syzygy_dim,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
