"""The round engine must reproduce the recorded artifacts byte for byte.

tests/golden/digests.json holds SHA-256 digests of trace.csv, deltas.csv and
margins.csv over the scenario matrix in
tests/golden/make_digests.py, plus the `audits` block of summary.json for the
audited scenarios. A failure lists every differing key, so that a change
that alters artifacts on purpose can be checked key by key against the list
in CHANGES.md; make_digests.py states how to update the digests then.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import make_digests  # noqa: E402


def test_engine_artifacts_match_golden_digests(tmp_path):
    expected = json.loads(make_digests.DIGESTS.read_text())
    actual = make_digests.digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    differing = [k for k in expected if actual[k] != expected[k]]
    assert not differing, f"{len(differing)} artifacts differ:\n" + "\n".join(differing)
