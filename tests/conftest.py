"""Shared helpers: the acceptance tests record one summary line per criterion
and this hook prints them at the end of the pytest run; `EnumeratedStacks`
records which stacks the centroid kernel enumerated."""

import numpy as np
import pytest

from consensus_dyn import geometry

_RESULTS = []


def record(criterion: int, passed: bool, detail: str = "") -> None:
    _RESULTS.append((criterion, passed, detail))


def check(criterion: int, passed: bool, detail: str = "") -> None:
    """Record the outcome, then fail the test if it did not hold."""
    record(criterion, passed, detail)
    assert passed, f"ACCEPTANCE {criterion}: FAIL - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in sorted(_RESULTS):
        status = "PASS" if passed else "FAIL"
        suffix = f" - {detail}" if detail else ""
        terminalreporter.write_line(f"ACCEPTANCE {criterion}: {status}{suffix}")


class EnumeratedStacks:
    """Context that records, in `rows`, the centered rows of every stack
    whose centroid `geometry.hull_centroids` takes from facet enumeration
    while it is open (oracles.check_kernel_centroid reads them)."""

    def __enter__(self):
        self.rows, real = set(), geometry._enumerated_centroids

        def spy(proj, count, extent):
            mean, ok = real(proj, count, extent)
            self.rows.update(proj[s, :count[s]].tobytes() for s in np.flatnonzero(ok))
            return mean, ok

        self._patch = pytest.MonkeyPatch()
        self._patch.setattr(geometry, "_enumerated_centroids", spy)
        return self

    def __exit__(self, *exc):
        self._patch.undo()
