"""Acceptance gate: every criterion runs at its stated (exact) tolerance
and prints one pass/fail line."""

import importlib

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


def _off_by_one(func):
    """func with the first entry of its returned vector raised by one."""
    def wrapped(*args, **kwargs):
        v = func(*args, **kwargs)
        return type(v)((v.entries[0] + 1,) + v.entries[1:], v.ambient_degree)
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


@pytest.mark.parametrize("owner,name,sabotage,check", [
    ("bases", "fstar_from_poly", _off_by_one, acceptance.criterion_9),
    ("bases", "hstar_from_poly", _off_by_one, acceptance.criterion_9),
    ("simplices", "fstar_interpolate", _off_by_one, acceptance.criterion_5),
    ("cones", "_scan_scaled", _drop_first_open_cone_point,
     acceptance.criterion_4),
    ("cones", "_parallelepiped_scaled", _drop_last_point,
     acceptance.criterion_4),
], ids=["fstar_from_poly", "hstar_from_poly", "fstar_interpolate",
        "_scan_scaled", "_parallelepiped_scaled"])
def test_criterion_catches_an_off_by_one(owner, name, sabotage, check,
                                         monkeypatch):
    """A criterion that checks a route must fail when that route is
    wrong, wherever the route is looked up."""
    module = importlib.import_module(f"fstarcount.{owner}")
    wrong = sabotage(getattr(module, name))
    monkeypatch.setattr(module, name, wrong)
    if hasattr(acceptance, name):
        monkeypatch.setattr(acceptance, name, wrong)
    with pytest.raises(AssertionError):
        check()
