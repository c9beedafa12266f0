"""The library surface that the benchmark reads.

``perfbench/job.py --trace`` wraps the library's public functions and reads
some of their arguments and results (the dense ``table`` view of the
cochain given to ``diff_d``, ``MultContext.matrix_cache``, the ``workers``
argument of ``verify_system``).  Its ``d_squared`` job, traced or not,
reads ``DifferentialMatrix.entries``, ``degree``, ``nrows`` and ``ncols``
and calls ``matrix_product_is_zero(upper, lower, field)``.  Each job here
runs the way the benchmark runs it and must finish with exit 0 and a
nonempty span list.

The traced run records a span per call of every public function of
``params``, ``preoperadic`` and ``cochains``, so per-element work in the
structure maps and in the composition kernel must stay in private helpers;
the planar scan job and the tricub identities job check that.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
JOB = ROOT / "perfbench" / "job.py"
REPORT_PREFIX = "PERFBENCH "

JOBS = {
    "d-squared:trias_dim1:3": {
        "kind": "d_squared", "algebra": "fixtures/trias_dim1.alg",
        "max_degree": 3},
    "identities:tricub_dim1": {
        "kind": "cli", "algebra": "fixtures/tricub_dim1.alg",
        "argv": ["identities", "fixtures/tricub_dim1.alg", "--samples", "26"]},
    "verify-system:linear": {
        "kind": "cli", "algebra": None,
        "argv": ["verify-system", "--kind", "linear", "--max-total", "3",
                 "--workers", "2"]},
    "verify-system:planar": {
        "kind": "cli", "algebra": None,
        "argv": ["verify-system", "--kind", "planar", "--max-total", "4",
                 "--workers", "2"]},
}


@pytest.mark.parametrize("label", sorted(JOBS))
def test_traced_job_runs(label):
    spec = dict(JOBS[label], label=label, root=str(ROOT), trace=1,
                setup_only=False, t_spawn=time.monotonic())
    proc = subprocess.run([sys.executable, str(JOB), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(REPORT_PREFIX), proc.stderr
    report = json.loads(last[len(REPORT_PREFIX):])
    assert report["status"] == 0
    names = {span[2] for span in report["spans"]}
    assert "job" in names and len(names) > 1
    if label.startswith("identities"):
        assert "cochains.diff_d" in names
    if label == "identities:tricub_dim1":
        # braces fill free slots with the unit by index: no unit cochain;
        # the job records 1,245 spans (2,415 when each brace built the unit)
        assert "cochains.identity_cochain" not in names
        assert len(report["spans"]) < 1500
    if label == "verify-system:planar":
        assert not names & {"params.encode", "params.validate_element"}
        assert len(report["spans"]) < 1000
