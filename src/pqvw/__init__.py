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
"""

__version__ = "0.1.0"
