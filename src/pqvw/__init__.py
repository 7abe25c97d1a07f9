"""Exact symbolic toolkit for the two-parameter deformed Virasoro-Witt n-algebra.

Layers, bottom up:

* :mod:`pqvw.ring`       exact Laurent-polynomial coefficient rings
* :mod:`pqvw.algebra`    closed-form n-brackets
* :mod:`pqvw.oracle`     recursive operator brackets on a symbolic module
* :mod:`pqvw.identities` skew / shuffle-Jacobi / fundamental-identity checks
* :mod:`pqvw.subalgebra` n-Lie subalgebra classification in index windows
* :mod:`pqvw.cli`        the ``pqvw`` command-line front end

Every check is decided in exact rational arithmetic: a passing identity has
residual identically zero, a failing one ships its nonzero residual.
"""

__version__ = "0.1.0"

from .ring import (
    ExponentOverflow,
    LPoly,
    ModScalar,
    NotDivisible,
    PoleAtOne,
    QModScalar,
    Rat,
    Scalar,
    UniScalar,
    classical_value,
    mod_at_level,
    mod_from_scalar,
    mod_shift,
    mod_to_scalar,
    pq_number,
    q_number,
    specialize_pq,
)
from .algebra import (
    BadArity,
    GenIndex,
    RecursionWeights,
    Term,
    bracket,
    bracket2,
    bracket3_closed,
    bracket_coeff,
    bracketn_closed,
    recursion_weights,
    sign_of,
    vandermonde_det,
)
from .oracle import (
    InconsistentSign,
    ModVector,
    NotProportional,
    WordSum,
    bracket2_def,
    bracket3_def,
    bracketn_def,
    derive_sign,
    extract_structure_constant,
    fock_act,
    osc_relations_check,
    structure_constant,
    word_act,
)
from .identities import (
    IdentityReport,
    Shuffle,
    UnexpectedZero,
    check_skew,
    deformed_jacobi2_residual,
    fi_counterexample_even,
    fi_residual,
    q_jacobi2_residual,
    sh_jacobi_residual,
    shuffles,
    sweep_sh_jacobi,
)
from .subalgebra import (
    CanonicalNLie,
    FMatrix,
    SubalgebraReport,
    UnexpectedSubalgebra,
    ZeroCoefficient,
    canonical_basis,
    canonical_coeff,
    closure_check,
    fi_check_span,
    filippov_matrix,
    ideal_check,
    iso_canonical_check,
    search,
)

__all__ = [name for name in dir() if not name.startswith("_")]
