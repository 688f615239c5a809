"""Analysis outputs pinned against ``tests/golden/analysis_digests.json``.

The golden file holds one sha256 per output of ``analysis_digests``: the
4-user certificates of both constructions and their verdicts, transition
tables under iid, per-user and joint erasures, the N=2 and N=3 flow
polyhedra and their Fourier-Motzkin projections, and the ``regions``
command's CSV files.  A change that alters them on purpose regenerates it
with ``PYTHONPATH=src python tests/analysis_digests.py``.
"""

import json

from analysis_digests import GOLDEN, compute


def test_analysis_outputs_unchanged():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert sorted(got) == sorted(want), "output list differs from golden"
    differ = [name for name in got if got[name] != want[name]]
    assert not differ, f"analysis outputs changed: {differ}"
