"""Exact perturbative metric operators for H = p^2/2 + i eps x^3.

The package constructs the most general Hermitian generator Q with
eta = exp(-Q) order by order in eps, carrying the two free real
amplitudes (plain and parity) of every odd order symbolically, and
derives from it the dressed observables, the equivalent Hermitian
Hamiltonian, its classical limit, and the exact parity-twisted metric
of the free-particle limit.  All symbolic arithmetic is exact over the
Gaussian rationals.

Coefficient arithmetic runs on one pure-Python core (see `backend`).
"""

from .algebra import (OperatorExpr, anticommutator, commutator,
                      from_symmetric_form, h0, h1, parse_expr,
                      scaling_degree, serialize_expr, symmetric_form)
from .backend import backend_name
from .errors import EngineError
from .flow import OrbitResult, integrate_orbit
from .freeparticle import (ParityLinear, free_metric, hyperbolic_pair,
                           inner_product_weights, localized_overlap,
                           localized_weights, momentum_observable,
                           position_observable)
from .kernels import Kernel, apply_wave_operator, is_hermitian_kernel, to_kernel
from .observables import (ClassicalHamiltonian, classical_limit,
                          equivalent_hermitian, observable_p, observable_x)
from .params import ParamPoly, format_poly, parse_poly
from .perturbation import (BbjReport, MetricParams, OrderRecord, QSeries,
                           bbj_compare, bbj_expansion, build_r,
                           derive_metric_series, extend_one_order,
                           q_coefficient, solve_commutator_equation)
from .rational import GaussianRational
from .series import SeriesExpr, series_commutator
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "BbjReport", "CheckResult", "ClassicalHamiltonian", "EngineError",
    "GaussianRational", "Kernel", "MetricParams", "OperatorExpr",
    "OrbitResult", "OrderRecord", "ParamPoly", "ParityLinear", "QSeries",
    "SeriesExpr",
    "VerificationReport", "anticommutator", "apply_wave_operator",
    "backend_name", "bbj_compare", "bbj_expansion", "build_r",
    "classical_limit", "commutator", "derive_metric_series",
    "equivalent_hermitian", "extend_one_order", "format_poly", "free_metric",
    "from_symmetric_form", "h0", "h1", "hyperbolic_pair",
    "inner_product_weights", "integrate_orbit", "is_hermitian_kernel",
    "localized_overlap",
    "localized_weights", "momentum_observable", "observable_p",
    "observable_x", "parse_expr", "parse_poly", "position_observable",
    "q_coefficient", "run_verification", "scaling_degree", "serialize_expr",
    "series_commutator", "solve_commutator_equation", "symmetric_form",
    "to_kernel", "__version__",
]
