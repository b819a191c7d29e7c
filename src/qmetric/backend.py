"""The arithmetic core's entry points, as the layers above import them.

qmetric has one core, the pure-Python ``_core_py``; this module names
what the algebra code uses from it.
"""

from ._core_py import (Q_ONE, Q_ZERO, ev_mul, expr_add, expr_commutator,
                       expr_lincomb, expr_mul, expr_scale, h0_commutator_equals,
                       poly_add, poly_conj, poly_mul, poly_neg,
                       poly_real_split, poly_scale, q_add, q_conj, q_is_zero,
                       q_make, q_mul, q_neg, to_normal, to_weyl,
                       weyl_commutator, weyl_is_antihermitian,
                       weyl_is_hermitian, weyl_solve_h0)


def backend_name() -> str:
    """Which arithmetic core is active; there is one, 'python'."""
    return "python"
