"""The verification registry: what its checks return."""

import dataclasses

import pytest

from mobiuscs import dynamics, projection, report, states


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


def perturbed(fn):
    """fn with its value scaled by 1 + 1e-6."""
    return lambda *args, **kwargs: fn(*args, **kwargs) * (1.0 + 1e-6)


def check_named(name: str) -> report.Check:
    return next(check for check in report.CHECKS if check.name == name)


@pytest.mark.parametrize("closed_form", ["mobius_lagrangian", "torus_lagrangian"])
def test_lagrangian_embedding_fails_a_perturbed_closed_form(closed_form, monkeypatch):
    check = check_named("lagrangian-embedding")
    assert check.run().passed
    monkeypatch.setattr(dynamics, closed_form, perturbed(getattr(dynamics, closed_form)))
    assert not check.run().passed


@pytest.mark.parametrize("module, route", [(states, "overlap"), (projection, "project_overlap"),
                                           (projection, "build_torus_cs")],
                         ids=["overlap", "project_overlap", "build_torus_cs"])
def test_torus_projection_fails_a_perturbed_route(module, route, monkeypatch):
    # the theta closed form, and each of the two sums checked against it
    check = check_named("torus-projection")
    assert check.run().passed
    fn = getattr(module, route)
    if route == "build_torus_cs":  # the m = 0 contraction, through the strip-plane coefficients
        def bumped(*args, **kwargs):
            torus = fn(*args, **kwargs)
            return dataclasses.replace(torus, a=torus.a * (1.0 + 1e-6))
        monkeypatch.setattr(module, route, bumped)
    else:
        monkeypatch.setattr(module, route, perturbed(fn))
    assert not check.run().passed
