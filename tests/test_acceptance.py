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


@pytest.mark.parametrize("owner,name,check", [
    ("bases", "fstar_from_poly", acceptance.criterion_9),
    ("bases", "hstar_from_poly", acceptance.criterion_9),
    ("simplices", "fstar_interpolate", acceptance.criterion_5),
], ids=["fstar_from_poly", "hstar_from_poly", "fstar_interpolate"])
def test_criterion_catches_an_off_by_one(owner, name, check, monkeypatch):
    """A criterion that checks a conversion route must fail when that
    route is wrong, wherever the route is looked up."""
    module = importlib.import_module(f"fstarcount.{owner}")
    wrong = _off_by_one(getattr(module, name))
    monkeypatch.setattr(module, name, wrong)
    monkeypatch.setattr(acceptance, name, wrong)
    with pytest.raises(AssertionError):
        check()
