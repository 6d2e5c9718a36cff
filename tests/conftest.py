"""Shared fixtures."""

import pytest

from fastsignal import cli


@pytest.fixture(scope="session")
def verify_homogeneous():
    """cli._verify_homogeneous, computed once per (params, L) for the session.

    It is nearly all of `verify`'s time, and the `verify` golden, the verify
    gate and criterion 7 each run it at the default parameters.  Install it
    with monkeypatch.setattr(cli, "_verify_homogeneous", verify_homogeneous)
    where `verify` runs through `main`.
    """
    results = {}
    compute = cli._verify_homogeneous

    def once(p, L):
        if (p, L) not in results:
            results[p, L] = compute(p, L)
        worst, failures = results[p, L]
        return worst, list(failures)

    return once
