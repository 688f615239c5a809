"""Same-seed traces pinned against ``tests/golden/trace_digests.json``.

The golden file holds one sha256 per configuration of ``trace_digests``
(trace rows, summary and window means of a seeded run, or a small
stability probe's reports).  A change that alters traces on purpose
regenerates it with ``PYTHONPATH=src python tests/trace_digests.py``.
"""

import json

from trace_digests import GOLDEN, compute


def test_same_seed_traces_unchanged():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(want), "configuration list differs from golden"
    differ = [name for name in got if got[name] != want[name]]
    assert not differ, f"traces changed: {differ}"
