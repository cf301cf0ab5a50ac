"""The verification registry: what its checks return."""

from mobiuscs import dynamics, report


def test_every_max_error_is_a_float():
    checks = report.run_suite("all")
    assert [check.check for check in checks] == [check.name for check in report.CHECKS]
    assert [type(check.max_error) for check in checks] == [float] * len(checks)


def test_every_evaluator_returns_a_float():
    # so the checks drive the scalar routes with Python floats, not numpy scalars
    assert {check.name: type(check.evaluate()) for check in report.CHECKS} == {
        check.name: float for check in report.CHECKS}


def test_the_strip_orbit_is_integrated_once_per_run(monkeypatch):
    # conservation-short and strip-flow-dual-route share one RK4 orbit within a run_suite
    # call, and no call reuses another's
    calls = []
    integrate = dynamics.integrate_mobius

    def counted(*args, **kwargs):
        calls.append(kwargs["t_end"])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_mobius", counted)
    first = report.run_suite("dynamics")
    second = report.run_suite("dynamics")
    assert calls == [10.0, 10.0]
    assert first == second
    assert all(check.passed for check in first)
    # alone, each check integrates the orbit itself
    for name in ("conservation-short", "strip-flow-dual-route"):
        check = next(c for c in report.CHECKS if c.name == name)
        assert check.run() == next(c for c in first if c.check == name)
    assert calls == [10.0] * 4
