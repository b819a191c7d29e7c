"""Package-level surface: everything advertised must resolve."""

import pytest

import qmetric
from qmetric.observables import conjugate_by_sqrt_metric


def test_all_names_resolve():
    missing = [n for n in qmetric.__all__ if not hasattr(qmetric, n)]
    assert missing == []


def test_version():
    assert qmetric.__version__.count(".") == 2


def test_backend_is_one_of_the_two():
    assert qmetric.backend_name() in ("python", "compiled")


def _formal2_h():
    return qmetric.equivalent_hermitian(
        qmetric.derive_metric_series(qmetric.MetricParams.formal(2)))


def _conjugate(sign):
    x = qmetric.OperatorExpr.x_power(1)
    return conjugate_by_sqrt_metric(qmetric.SeriesExpr.of(x, order=2),
                                    qmetric.SeriesExpr(2, {1: x}), sign=sign)


@pytest.mark.parametrize("call, error, message", [
    (lambda: qmetric.MetricParams.formal(True), TypeError, "order must be an int"),
    (lambda: qmetric.MetricParams.formal(2.0), TypeError, "order must be an int"),
    (lambda: qmetric.MetricParams.numeric(2.5), TypeError, "order must be an int"),
    (lambda: qmetric.build_r(True, []), TypeError, "order must be an int"),
    (lambda: qmetric.commutator(qmetric.OperatorExpr.x_power(1),
                                qmetric.OperatorExpr.p_power(1), k=True),
     TypeError, "commutator nesting must be an int"),
    (lambda: _conjugate(True), TypeError, "sign must be an int"),
    (lambda: _conjugate(1.0), TypeError, "sign must be an int"),
    (lambda: qmetric.classical_limit(_formal2_h(), mass=0), ValueError, "mass must be positive"),
    (lambda: qmetric.classical_limit(_formal2_h(), mass=-1), ValueError, "mass must be positive"),
], ids=["formal-bool", "formal-float", "numeric-float", "build_r-bool", "commutator-bool",
        "sign-bool", "sign-float", "mass-zero", "mass-negative"])
def test_library_entry_points_reject_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()
