"""The verification registry: what its checks return."""

from mobiuscs import report


def test_every_max_error_is_a_float():
    checks = report.run_suite("all")
    assert [check.check for check in checks] == [check.name for check in report.CHECKS]
    assert [type(check.max_error) for check in checks] == [float] * len(checks)


def test_every_evaluator_returns_a_float():
    # so the checks drive the scalar routes with Python floats, not numpy scalars
    assert {check.name: type(check.evaluate()) for check in report.CHECKS} == {
        check.name: float for check in report.CHECKS}
