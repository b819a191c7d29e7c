"""The cross-check battery as a library object."""

from qmetric import reference as ref
from qmetric.verify import CheckResult, VerificationReport, run_verification


def battery():
    # determinism across runs is asserted separately in the acceptance tests
    return run_verification()


def test_counts_and_status():
    report = battery()
    np, ng, nf = report.counts()
    assert (np, ng, nf) == (66, 12, 0)
    assert not report.failed
    assert len(report.checks) == 78


def test_flagged_keys_are_exactly_the_documented_findings():
    report = battery()
    flagged = {c.key for c in report.checks if c.status == "FLAG"}
    assert flagged == set(ref.EXPECTED_FINDINGS)


def test_render_shape():
    report = battery()
    lines = report.render().splitlines()
    assert len(lines) == 79
    assert lines[-1] == "78 checks: 66 passed, 12 flagged, 0 failed"
    for line in lines[:-1]:
        status, key = line.split()[:2]
        assert status in ("PASS", "FLAG")
        assert line == next(c.line() for c in report.checks if c.key == key)


def test_every_flag_message_carries_both_values():
    report = battery()
    for check in report.checks:
        if check.status != "FLAG":
            continue
        assert "printed" in check.message and "recomputed" in check.message


def test_report_is_a_value():
    rep = VerificationReport(checks=(CheckResult("k", "PASS", "m"),))
    assert rep.counts() == (1, 0, 0)
    assert rep.render() == "PASS k                    m\n1 checks: 1 passed, 0 flagged, 0 failed\n"
