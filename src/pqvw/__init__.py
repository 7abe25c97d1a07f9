"""Exact symbolic toolkit for the two-parameter deformed Virasoro-Witt n-algebra.

Layers, bottom up:

* :mod:`pqvw.ring`       exact Laurent-polynomial coefficient rings
* :mod:`pqvw.algebra`    closed-form n-brackets
* :mod:`pqvw.oracle`     recursive operator brackets on a symbolic module
* :mod:`pqvw.identities` skew / shuffle-Jacobi / fundamental-identity checks
* :mod:`pqvw.subalgebra` n-Lie subalgebra classification in index windows
* :mod:`pqvw.cli`        the ``pqvw`` command-line front end

Every check is decided in exact integer arithmetic, in Laurent polynomials
with int coefficients over a power of a localization divisor: a passing
identity has residual identically zero, a failing one ships its nonzero
residual.

The re-exported names below resolve on first access (a module
``__getattr__``), so importing the package, or running ``python -m pqvw``,
loads no layer until something asks for it.
"""

from importlib import import_module

__version__ = "0.1.0"

# layer -> the public names the package re-exports from it
_EXPORTS = {
    "ring": (
        "ExponentOverflow", "LPoly", "ModScalar", "NotDivisible", "PoleAtOne",
        "Scalar", "UniScalar", "at_indices", "classical_value",
        "mod_at_level", "mod_from_scalar", "mod_to_scalar",
        "pq_number", "pq_ring", "q_number", "specialize_pq",
    ),
    "algebra": (
        "BadArity", "GenIndex", "bracket", "bracket2", "bracketn_closed",
        "sign_of",
    ),
    "oracle": (
        "NotProportional", "Term", "bracketn_def",
        "extract_structure_constant", "fock_act", "osc_relations_check",
        "structure_constant", "word_act",
    ),
    "identities": (
        "IdentityReport", "check_skew",
        "fi_counterexample_even", "fi_residual",
        "sh_jacobi_residual", "sweep_sh_jacobi",
    ),
    "subalgebra": (
        "CanonicalNLie", "FMatrix", "SubalgebraReport", "UnexpectedSubalgebra",
        "canonical_basis", "closure_check", "fi_check_span", "filippov_matrix",
        "ideal_check", "iso_canonical_check", "search",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_LAYER_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
