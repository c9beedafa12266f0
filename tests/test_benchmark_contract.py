"""The library surface that the benchmark reads.

``perfbench/job.py --trace`` wraps the library's public functions and reads
some of their arguments and results (the dense ``table`` view of the
cochain given to ``diff_d``, the ``ctx`` and ``n`` of ``matrix_of_d`` and
``MultContext.matrix_cache``, the ``rows`` and ``ncols`` of
``rank_bareiss``, the ``workers`` argument of ``verify_system``).  Its
``d_squared`` job, traced or not, reads ``DifferentialMatrix.entries``,
``degree``, ``nrows`` and ``ncols`` and calls
``matrix_product_is_zero(upper, lower, field)``.  Each job here
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
    "cohomology:trias_dim2:3": {
        "kind": "cli", "algebra": "fixtures/trias_dim2.alg",
        "argv": ["cohomology", "fixtures/trias_dim2.alg", "--max-degree", "3"]},
    "d-squared:trias_dim1:3": {
        "kind": "d_squared", "algebra": "fixtures/trias_dim1.alg",
        "max_degree": 3},
    "gerstenhaber:trias_dim2:4": {
        "kind": "cli", "algebra": "fixtures/trias_dim2.alg",
        "argv": ["gerstenhaber", "fixtures/trias_dim2.alg", "--max-degree",
                 "4"]},
    "identities:trias_dim1": {
        "kind": "cli", "algebra": "fixtures/trias_dim1.alg",
        "argv": ["identities", "fixtures/trias_dim1.alg", "--samples", "52"]},
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
    attrs = {}
    for span in report["spans"]:
        attrs.setdefault(span[2], []).append(span[5])
    names = set(attrs)
    assert "job" in names and len(names) > 1
    if label.startswith(("cohomology", "gerstenhaber")):
        # the counters read matrix_of_d's ctx and n, rank_bareiss's rows and
        # ncols, and the G-algebra report
        assert any(a["built"] and a["nnz"]
                   for a in attrs["cohomology.matrix_of_d"])
        assert "linalg.column_echelon" in names
    if label.startswith("cohomology"):
        assert all(a["rows"] and a["cols"]
                   for a in attrs["linalg.rank_bareiss"])
    if label.startswith("gerstenhaber"):
        assert attrs["cohomology.check_g_algebra"][0]["instances"] > 0
    if label.startswith("identities"):
        assert "cochains.diff_d" in names
    if label == "identities:tricub_dim1":
        # braces fill free slots with the unit by index: no unit cochain;
        # the job records 1,245 spans (2,415 when each brace built the unit)
        assert "cochains.identity_cochain" not in names
        assert len(report["spans"]) < 1500
    if label == "verify-system:planar":
        # the scan reads indices only: no element is printed or mapped
        assert not names & {"params.param_text", "preoperadic.r_zero",
                            "preoperadic.r_part"}
        assert len(report["spans"]) < 1000



def test_warm_operations_call_no_traced_function(monkeypatch):
    # the traced run records a span per call of a public function of
    # params, preoperadic and cochains; once the caches are warm, brace,
    # bracket, dot and d must do all their work in private helpers, so each
    # call is one span.  This is the span budget above, checked in-process.
    import inspect
    import random

    from lodayops import cochains, params, preoperadic
    from lodayops.algfile import load_algebra

    contexts = [cochains.MultContext(load_algebra(
        ROOT / "fixtures" / ("%s.alg" % name)))
        for name in ("trias_dim2", "tricub_dim1")]
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    # the functions perfbench/tracing.py wraps: public functions and public
    # lru_caches, replaced wherever a lodayops module holds them
    wrapped = {}
    for module in (params, preoperadic, cochains):
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and getattr(obj, "__module__", None) == module.__name__
                    and (inspect.isfunction(obj)
                         or hasattr(obj, "cache_info"))):
                wrapped[id(obj)] = (obj, counting(short + "." + name, obj))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "lodayops" or mod_name.startswith("lodayops."):
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(module, attr, hit[1])

    for ctx in contexts:
        rng = random.Random(7)
        x1, y1 = (cochains.random_cochain(ctx.alg, 1, rng) for _ in range(2))
        x2 = cochains.random_cochain(ctx.alg, 2, rng)
        operations = {
            "brace": lambda: cochains.brace(x2, [x1]),
            "brace-two": lambda: cochains.brace(x2, [x1, y1]),
            "brace-too-many": lambda: cochains.brace(x1, [x1, y1]),
            "bracket": lambda: cochains.bracket(x2, x1),
            "dot": lambda: cochains.dot(ctx, x1, x2),
            "diff_d": lambda: cochains.diff_d(ctx, x2),
        }
        for label, operation in operations.items():
            operation()                                 # warm the caches
            calls.clear()
            operation()
            assert calls == ["cochains." + label.partition("-")[0]], \
                (ctx.alg.type_tag, label, calls)
