"""Fixtures shared by the test modules."""

import pytest

from duality import sweep


@pytest.fixture
def fail_every_deviation_check(monkeypatch):
    """A call that sets every deviation check of a sweep to fail (threshold -1) for the rest of the test."""
    def fail():
        monkeypatch.setattr(sweep, "CHECKS", tuple(
            check._replace(threshold=-1.0) if check.kind == "deviation" else check for check in sweep.CHECKS))
    return fail
