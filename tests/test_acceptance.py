"""Acceptance gate: every criterion runs at its stated (exact) tolerance
and prints one pass/fail line."""

import importlib
import inspect
import sys
import textwrap

import pytest

from fstarcount import acceptance


@pytest.mark.parametrize("number,check",
                         acceptance.CRITERIA,
                         ids=[f"criterion_{n}" for n, _ in acceptance.CRITERIA])
def test_criterion(number, check):
    try:
        detail = check()
    except AssertionError:
        print(f"FAIL criterion {number}")
        raise
    print(f"PASS criterion {number}: {detail}")


def _bump(v):
    """The f* or h* vector v with its first entry raised by one."""
    return type(v)((v.entries[0] + 1,) + v.entries[1:], v.ambient_degree)


def _off_by_one(func):
    """func with the first entry of its returned vector raised by one."""
    def wrapped(*args, **kwargs):
        return _bump(func(*args, **kwargs))
    return wrapped


def _plus_one(func):
    """func with its returned count raised by one."""
    def wrapped(*args, **kwargs):
        return func(*args, **kwargs) + 1
    return wrapped


def _residue_off_by_one(func):
    """func with the first entry of its first residue class raised by one."""
    def wrapped(*args, **kwargs):
        qp = func(*args, **kwargs)
        return type(qp)(qp.period, qp.ambient_degree,
                        (_bump(qp.residue_fstar[0]),) + qp.residue_fstar[1:])
    return wrapped


def _one_level_up(func):
    """func with its first atomic point below the top level moved up one
    level, by raising its last scaled coefficient by denom."""
    def wrapped(basis):
        points = list(func(basis))
        for i, p in enumerate(points):
            if p.level < basis.dim:
                points[i] = type(p)(p.point, p.scaled[:-1]
                                    + (p.scaled[-1] + p.denom,), p.denom)
                break
        return tuple(points)
    return wrapped


def _drop_first_open_cone_point(scan):
    """scan with the first point of each open-cone scan dropped."""
    def wrapped(basis, max_level=None):
        points = scan(basis, max_level)
        if max_level is not None:
            next(points, None)
        return points
    return wrapped


def _drop_last_point(parallelepiped):
    """parallelepiped with the last of its points dropped."""
    def wrapped(basis):
        items, denom = parallelepiped(basis)
        return items[:-1], denom
    return wrapped


def _interval_without_top(scan):
    """scan_constrained rebuilt from its own source with every
    coordinate's feasible interval stepped one short of its top value."""
    source = textwrap.dedent(inspect.getsource(scan))
    step = "range(lo, hi + 1)"
    if source.count(step) != 1:
        pytest.fail(f"scan_constrained no longer steps through {step}")
    namespace = dict(scan.__globals__)
    exec(source.replace(step, "range(lo, hi)"), namespace)
    return namespace[scan.__name__]


@pytest.mark.parametrize("owner,name,sabotage,check", [
    ("bases", "fstar_from_poly", _off_by_one, acceptance.criterion_9),
    ("bases", "hstar_from_poly", _off_by_one, acceptance.criterion_9),
    ("simplices", "fstar_interpolate", _off_by_one, acceptance.criterion_5),
    ("simplices", "fstar_simplex", _off_by_one, acceptance.criterion_5),
    ("simplices", "hstar_simplex", _off_by_one, acceptance.criterion_6),
    ("simplices", "count_points", _plus_one, acceptance.criterion_3),
    ("rational", "residue_fstar", _residue_off_by_one,
     acceptance.criterion_7),
    ("rational", "count_via_profile", _plus_one, acceptance.criterion_8),
    ("cones", "enumerate_atomic", _one_level_up, acceptance.criterion_5),
    ("cones", "_scan_scaled", _drop_first_open_cone_point,
     acceptance.criterion_4),
    ("cones", "_parallelepiped_scaled", _drop_last_point,
     acceptance.criterion_4),
    ("cones", "scan_constrained", _interval_without_top,
     acceptance.criterion_3),
], ids=["fstar_from_poly", "hstar_from_poly", "fstar_interpolate",
        "fstar_simplex", "hstar_simplex", "count_points", "residue_fstar",
        "count_via_profile", "enumerate_atomic", "_scan_scaled",
        "_parallelepiped_scaled", "scan_constrained"])
def test_criterion_catches_an_off_by_one(owner, name, sabotage, check,
                                         monkeypatch):
    """A criterion that checks a route must fail when that route is
    wrong, wherever the route is looked up: in its owning module and in
    every package module that bound it by name."""
    original = getattr(importlib.import_module(f"fstarcount.{owner}"), name)
    wrong = sabotage(original)
    for module in list(sys.modules.values()):
        if (module.__name__.split(".")[0] == "fstarcount"
                and vars(module).get(name) is original):
            monkeypatch.setattr(module, name, wrong)
    with pytest.raises(AssertionError):
        check()
