"""Run one benchmark job in a fresh interpreter.

Every job gets its own process, so it starts with cold module caches
(``lru_cache`` tables, ``MultContext.matrix_cache``), as every CLI call does.

    python3 perfbench/job.py '<job spec as JSON>'

The spec is written by ``run.py``.  The job's report goes to stdout
untouched; the job's measurements go to stderr as one last line,
``PERFBENCH <json>``.
"""

import sys
import time

START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

# the layers whose public functions the traced run wraps
MODULES = ("params", "preoperadic", "algfile", "cochains", "cohomology",
           "linalg", "identities", "cli")
REPORT_PREFIX = "PERFBENCH "


def _ignore_result(attrs, result):
    pass


def _cochain_cells(args):
    cells = nonzero = 0
    for rows in args["x"].table:
        for row in rows:
            cells += len(row)
            nonzero += sum(map(bool, row))
    return {"cells": cells, "nonzero": nonzero}


def _elimination_input(args):
    rows = args["rows"]
    ncols = args.get("ncols", len(rows[0]) if rows else 0)
    return {"rows": len(rows), "cols": ncols,
            "nonzero": sum(sum(map(bool, r)) for r in rows)}


def _cache_builds(fn):
    """Counter marking the calls of an lru_cache'd fn that missed its cache."""
    def before(args):
        return {"misses": fn.cache_info().misses}

    def after(attrs, result):
        attrs["built"] = fn.cache_info().misses > attrs.pop("misses")
    return before, after


def _matrix_before(args):
    return {"n": args["n"], "built": args["n"] not in args["ctx"].matrix_cache}


def _matrix_after(attrs, m):
    if attrs["built"]:
        attrs.update(rows=m.nrows, cols=m.ncols, nnz=len(m.entries))


def _scan_before(args):
    return {"kind": args["kind"], "workers": args["workers"]}


def _scan_after(attrs, report):
    attrs["checked"] = report.checked


def _g_after(attrs, report):
    attrs["instances"] = len(report.checks)


def _identities_after(attrs, results):
    attrs["instances"] = len(results)


def counters():
    """Counts recorded at the layer boundaries, by span name."""
    from lodayops import params, preoperadic
    elimination = (_elimination_input, _ignore_result)
    return {
        "params.enumerate_params": _cache_builds(params.enumerate_params),
        "preoperadic.r_index_tables":
            _cache_builds(preoperadic.r_index_tables),
        "preoperadic.verify_system": (_scan_before, _scan_after),
        "cochains.diff_d": (_cochain_cells, _ignore_result),
        "cohomology.matrix_of_d": (_matrix_before, _matrix_after),
        "cohomology.check_g_algebra": (lambda args: {}, _g_after),
        "identities.run_identity_suite": (lambda args: {}, _identities_after),
        "linalg.rank_bareiss": elimination,
        "linalg.rank_rref": elimination,
        "linalg.kernel_basis": elimination,
        "linalg.solve": elimination,
    }


class SetupClock:
    """Time spent loading the algebra and building its MultContext."""

    def __init__(self):
        self.seconds = {"load": 0.0, "context": 0.0}

    def timed(self, key, fn):
        def run(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.monotonic() - t0
        return run


def d_squared(load, context, path, max_degree):
    """Assemble d^1..d^max_degree and check d^(n+1) d^n = 0 for each n.

    Prints one ``MATRIX-SHAPE`` line per matrix (with a digest of its
    entries) and one ``CHECK`` line per product; returns the exit status.
    """
    from lodayops import cohomology
    alg = load(path)
    ctx = context(alg)
    mats = [cohomology.matrix_of_d(ctx, n) for n in range(1, max_degree + 1)]
    for m in mats:
        text = "".join("%d %d %s\n" % e for e in m.entries)
        print("MATRIX-SHAPE", m.degree, m.nrows, m.ncols, len(m.entries),
              hashlib.sha256(text.encode()).hexdigest())
    ok = True
    for lower, upper in zip(mats, mats[1:]):
        zero = cohomology.matrix_product_is_zero(upper, lower, alg.field)
        print("CHECK d-squared-zero-degree-%d %s"
              % (lower.degree, "PASS" if zero else "FAIL"))
        ok = ok and zero
    return 0 if ok else 1


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    recorder = None
    if spec["trace"]:
        import tracing
        recorder = tracing.Recorder(spec["t_spawn"])
        recorder.add("proc.start", spec["t_spawn"], START)
    t0 = time.monotonic()
    from lodayops import algfile, cli, cochains
    t1 = time.monotonic()
    if recorder:
        recorder.add("proc.import", t0, t1)
        tracing.instrument(recorder, "lodayops", MODULES,
                           classes=("cochains.MultContext",),
                           counters=counters())
    setup = SetupClock()
    load = setup.timed("load", algfile.load_algebra)
    context = setup.timed("context", cochains.MultContext)
    status = 0
    if spec["setup_only"]:
        if spec["algebra"]:
            context(load(spec["algebra"]))
    elif spec["kind"] == "cli":
        cli.load_algebra = load
        cli.MultContext = context
        status = cli.main(spec["argv"])
    else:
        run = d_squared
        if recorder:
            run = recorder.wrap("perfbench.d_squared", d_squared)
        status = run(load, context, spec["algebra"], spec["max_degree"])
    sys.stdout.flush()
    t_out = time.monotonic()
    if recorder:
        recorder.close(t_out)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "setup": {"start": START - spec["t_spawn"], "import": t1 - t0,
                  **setup.seconds},
        "t_out": t_out,
        "status": status,
        "rss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "spans": recorder.spans if recorder else None,
    }
    sys.stderr.write("\n" + REPORT_PREFIX + json.dumps(report) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
