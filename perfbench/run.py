"""lodayops benchmark: time verified reports end to end, and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client in a closed loop: the jobs of
a workload run one after another, each in a fresh process (``job.py``), and
a pass is one run of all of them.  Passes repeat until ``--seconds`` have
gone by (at least one pass).  Every job's output is checked (``workloads``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
medians over the passes, with times in reference seconds (``SpeedProbe``).
With ``--trace 1`` the untraced passes are
followed by one traced pass (and, on ``scan``, one traced pass with
``--workers 1``), and the last line carries the per-layer metrics.  Spans
go to ``.perfbench-out/trace-<workload>-seed<seed>.json``.  See README.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

import tracing
import workloads
from job import REPORT_PREFIX

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
OUT_DIR = ".perfbench-out"
JOB_TIMEOUT_S = 170
# setup_s is a median over at least this many samples; set-up-only passes
# make up the samples that the timed passes do not give
SETUP_SAMPLES = 7
# The speed probe times the calibration kernel every PROBE_EVERY_S seconds.
# CAL_REFERENCE_S is the kernel's median time while the jobs ran, on the
# 2-core host the benchmark was sized on (Python 3.11.7), so scaled times
# are in seconds at that host's typical speed.
PROBE_EVERY_S = 0.25
CAL_REFERENCE_S = 0.067

# entry points that eliminate a whole matrix; the RREF-based three do it
# through linalg.rref, whose self time holds that work
ELIMINATIONS = ("linalg.rank_bareiss", "linalg.rank_rref",
                "linalg.kernel_basis", "linalg.solve")
SELF_TIME_SPANS = (
    "proc.start", "proc.import",
    "params.enumerate_params", "preoperadic.r_index_tables",
    "preoperadic.verify_system", "algfile.load_algebra",
    "cochains.MultContext", "cochains.diff_d", "cochains.delta_trias",
    "cochains.brace", "cochains.dot", "cochains.bracket",
    "cohomology.matrix_of_d", "cohomology.matrix_product_is_zero",
    "cohomology.cohomology_dims", "cohomology.cocycle_representatives",
    "cohomology.coboundary_preimage", "cohomology.check_g_algebra",
) + ELIMINATIONS + ("linalg.rref", "linalg.extend_independent")
CALL_SPANS = ("cochains.diff_d", "cochains.delta_trias", "cochains.brace",
              "cochains.dot", "cochains.bracket",
              "cohomology.coboundary_preimage") + ELIMINATIONS + (
              "linalg.rref", "linalg.extend_independent")


def run_job(job, trace, setup_only=False):
    spec = dict(job, root=ROOT, trace=trace, setup_only=setup_only)
    spec["t_spawn"] = tracing.clock()
    proc = subprocess.Popen([sys.executable, JOB, json.dumps(spec)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    t_exit = tracing.clock()
    report = None
    lines = err.splitlines()
    if lines and lines[-1].startswith(REPORT_PREFIX):
        report = json.loads(lines[-1][len(REPORT_PREFIX):])
        err = "\n".join(lines[:-1])
    return {"job": job, "t_spawn": spec["t_spawn"], "t_exit": t_exit,
            "status": proc.returncode, "stdout": out, "stderr": err,
            "report": report}


def _calibration_kernel(n=20):
    """Fixed pure-Python work like the library's hot loops: Gauss-Jordan
    elimination with exact Fractions on a seeded n x n integer matrix."""
    rng = random.Random(5)
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [inv * a for a in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return m


class SpeedProbe:
    """How fast the host runs Python, sampled while the jobs run.

    The host is shared, and its speed drifts by tens of percent over seconds
    to minutes, for every process alike.  A thread of the benchmark times
    the calibration kernel every PROBE_EVERY_S seconds (about a tenth of one
    core) while the job runs on the other core.  ``factor`` turns the time
    of an interval into reference seconds.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        while not self.samples:
            time.sleep(0.01)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while True:
            t0 = tracing.clock()
            _calibration_kernel()
            self.samples.append((t0, tracing.clock() - t0))
            if self._stop.wait(PROBE_EVERY_S):
                return

    def factor(self, start, end):
        """CAL_REFERENCE_S over the mean kernel time from start to end; the
        window reaches back one period so that it is never empty."""
        times = [d for t, d in list(self.samples)
                 if start - PROBE_EVERY_S <= t <= end]
        if not times:
            times = [self.samples[-1][1]]
        return CAL_REFERENCE_S / statistics.mean(times)


def setup_seconds(report):
    return sum(report["setup"].values())


def run_pass(jobs, expected, probe, trace=False):
    """Run the jobs one after another and check each one's output.

    ``raw_wall_s`` runs from the first job's spawn to the last job's output.
    ``wall_s`` and ``setup_s`` are in reference seconds: the time from each
    job's spawn to the next one's is scaled by the probe's factor for that
    interval, and so is the job's set-up time.
    """
    results = []
    for job in jobs:
        r = run_job(job, trace)
        if r["report"] is None:
            r["problems"] = ["no measurements (exit status %s): %s"
                             % (r["status"], r["stderr"].strip()[-300:])]
        else:
            r["problems"] = workloads.check(expected[job["label"]],
                                            r["status"], r["stdout"])
        for p in r["problems"]:
            print("FAILED %s: %s" % (job["label"], p), file=sys.stderr)
        results.append(r)
    last = results[-1]
    end = last["report"]["t_out"] if last["report"] else last["t_exit"]
    bounds = [r["t_spawn"] for r in results] + [end]
    wall = setup = 0.0
    for r, start, stop in zip(results, bounds, bounds[1:]):
        f = probe.factor(start, stop)
        wall += (stop - start) * f
        if r["report"]:
            setup += setup_seconds(r["report"]) * f
    reports = [r["report"] for r in results if r["report"]]
    return {
        "results": results,
        "raw_wall_s": end - results[0]["t_spawn"],
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": max((rep["rss_kb"] for rep in reports),
                           default=0) / 1024,
        "cpu_s": sum(rep["cpu_s"] for rep in reports),
        "failed": sum(1 for r in results if r["problems"]),
    }


def setup_probe(jobs, probe):
    """Summed set-up time of the jobs, each started and stopped after set-up,
    in reference seconds; None if a set-up fails (the timed passes have then
    counted the failure)."""
    total = 0.0
    for job in jobs:
        r = run_job(job, False, setup_only=True)
        if r["report"] is None:
            return None
        total += setup_seconds(r["report"]) * probe.factor(r["t_spawn"],
                                                          r["t_exit"])
    return total


def timed_passes(jobs, expected, seconds, probe):
    start = tracing.clock()
    passes = [run_pass(jobs, expected, probe)]
    while tracing.clock() - start < seconds:
        passes.append(run_pass(jobs, expected, probe))
    return passes


def end_to_end(jobs, passes, probe):
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        sample = setup_probe(jobs, probe)
        if sample is None:
            break
        setups.append(sample)
    # failed jobs / attempted jobs, as a rule-of-succession estimate
    # (failed + 1) / (attempted + 2) so that the metric is never 0
    ratios = [(p["failed"] + 1) / (len(p["results"]) + 2) for p in passes]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "failed_ratio": (statistics.median(ratios), "ratio"),
    }


def pass_spans(p, pass_name):
    """Every span of a traced pass as (trace id, span, self time) rows.

    Besides the job's own spans there is one ``proc.exit`` span per gap
    between one job's output and the next job's start, so that the
    top-level spans cover the pass from end to end.
    """
    rows = []
    results = p["results"]
    for i, r in enumerate(results):
        spans = list(r["report"]["spans"]) if r["report"] else []
        if i + 1 < len(results) and r["report"]:
            sid = max(s[0] for s in spans) + 1
            spans.append([sid, None, "proc.exit", r["report"]["t_out"],
                          results[i + 1]["t_spawn"], {}])
        selfs = tracing.self_times(spans)
        trace_id = "%s/%d/%s" % (pass_name, i, r["job"]["label"])
        rows += [(trace_id, s, selfs[s[0]]) for s in spans]
    return rows


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced, untraced_wall, workers1=None):
    """Per-layer metrics of a traced pass, and the bases of the ratios.

    Times are self times.  ``workers1`` is the traced ``--workers 1`` pass
    of ``scan``, absent elsewhere.
    """
    rows = pass_spans(traced, "traced")
    by_name = {}
    for trace_id, span, self_s in rows:
        by_name.setdefault(span[2], []).append((trace_id, span, self_s))

    def spans(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(s for _, _, s in spans(name))

    def inclusive(name, pick=lambda a: True):
        return sum(sp[4] - sp[3] for _, sp, _ in spans(name) if pick(sp[5]))

    def attr_sum(name, key, pick=lambda a: True):
        return sum(sp[5].get(key, 0) for _, sp, _ in spans(name)
                   if pick(sp[5]))

    built = lambda a: a.get("built")
    m = {}
    bases = {}
    for name in SELF_TIME_SPANS:
        m[name + ".s"] = (self_s(name), "s")
    for name in CALL_SPANS:
        m[name + ".calls"] = (len(spans(name)), "count")

    m["preoperadic.r_index_tables.builds"] = (
        attr_sum("preoperadic.r_index_tables", "built"), "count")
    instances = attr_sum("preoperadic.verify_system", "checked")
    scan_s = inclusive("preoperadic.verify_system")
    m["preoperadic.instances"] = (instances, "count")
    m["preoperadic.instances_per_s"] = (_ratio(instances, scan_s), "1/s")
    bases["preoperadic.instances_per_s"] = (
        "%d instances / %.4f s inside verify_system" % (instances, scan_s))
    speedup = (_ratio(workers1["raw_wall_s"], traced["raw_wall_s"])
               if workers1 else 0.0)
    m["preoperadic.workers_speedup"] = (speedup, "ratio")
    bases["preoperadic.workers_speedup"] = (
        "%.4f s at --workers 1 / %.4f s at --workers 2"
        % (workers1["raw_wall_s"], traced["raw_wall_s"]) if workers1
        else "no verify-system jobs in this workload")

    cells = attr_sum("cochains.diff_d", "cells")
    nonzero = attr_sum("cochains.diff_d", "nonzero")
    m["cochains.input_density"] = (_ratio(nonzero, cells), "ratio")
    bases["cochains.input_density"] = (
        "%d nonzero / %d cells of diff_d inputs" % (nonzero, cells))
    m["identities.instances"] = (
        attr_sum("identities.run_identity_suite", "instances"), "count")

    columns = attr_sum("cohomology.matrix_of_d", "cols", built)
    build_s = inclusive("cohomology.matrix_of_d", built)
    m["cohomology.matrix_of_d.builds"] = (
        attr_sum("cohomology.matrix_of_d", "built"), "count")
    m["cohomology.matrix_of_d.columns"] = (columns, "count")
    m["cohomology.matrix_of_d.nnz"] = (
        attr_sum("cohomology.matrix_of_d", "nnz", built), "count")
    m["cohomology.columns_per_s"] = (_ratio(columns, build_s), "1/s")
    bases["cohomology.columns_per_s"] = (
        "%d columns / %.4f s in matrix_of_d builds, children included"
        % (columns, build_s))
    m["cohomology.g_instances"] = (
        attr_sum("cohomology.check_g_algebra", "instances"), "count")

    dense = sum(sp[5]["rows"] * sp[5]["cols"]
                for n in ELIMINATIONS for _, sp, _ in spans(n))
    nnz = sum(attr_sum(n, "nonzero") for n in ELIMINATIONS)
    elim_calls = sum(len(spans(n)) for n in ELIMINATIONS)
    matrices = {(tid, sp[5]["cols"]) for n in ELIMINATIONS
                for tid, sp, _ in spans(n)}
    m["linalg.dense_cells"] = (dense, "count")
    m["linalg.nnz_ratio"] = (_ratio(nnz, dense), "ratio")
    bases["linalg.nnz_ratio"] = "%d nonzero / %d dense cells" % (nnz, dense)
    m["linalg.eliminations_per_matrix"] = (
        _ratio(elim_calls, len(matrices)), "ratio")
    bases["linalg.eliminations_per_matrix"] = (
        "%d elimination calls / %d distinct matrices (job, column count)"
        % (elim_calls, len(matrices)))

    m["proc.cpu_s"] = (traced["cpu_s"], "s")
    bases["proc.cpu_s"] = ("%.4f s CPU in a traced pass of %.4f s wall"
                           % (traced["cpu_s"], traced["raw_wall_s"]))
    accounted = sum(s for _, _, s in rows)
    m["trace.wall_s"] = (traced["raw_wall_s"], "s")
    m["trace.accounted_s"] = (accounted, "s")
    m["trace.overhead_s"] = (traced["raw_wall_s"] - untraced_wall, "s")
    bases["trace.overhead_s"] = (
        "%.4f s traced - %.4f s untraced wall; self times of all spans sum "
        "to %.4f s" % (traced["raw_wall_s"], untraced_wall, accounted))
    return m, bases, rows


def baseline_rows(rows, workers1_rows=()):
    """The rows of ROADMAP's baseline table that this workload runs.

    Each is the duration of one span, its children included.
    """
    def first(label, name, pick, source=rows):
        for trace_id, sp, _ in source:
            if (sp[2] == name and trace_id.endswith("/" + label)
                    and pick(sp[5])):
                return sp[4] - sp[3], sp[5]
        return None, None

    out = []
    q3 = "cohomology:trias_dim2:3"
    for n in (2, 3):
        t, a = first(q3, "cohomology.matrix_of_d",
                     lambda a, n=n: a.get("n") == n and a.get("built"))
        out.append(("matrix_of_d degree %d" % n,
                    a and "%dx%d, nnz %d" % (a["rows"], a["cols"], a["nnz"]),
                    t))
    d3_cols = a and a["cols"]
    for name, engine in (("linalg.rank_bareiss", "Bareiss"),
                         ("linalg.rank_rref", "RREF")):
        t, a = first(q3, name, lambda a: a.get("cols") == d3_cols)
        out.append(("rank of d^3, dense %s" % engine,
                    a and "%dx%d nonzero rows" % (a["rows"], a["cols"]), t))
    t, a = first("gerstenhaber:trias_dim2:4", "cohomology.check_g_algebra",
                 lambda a: True)
    out.append(("check_g_algebra(trias_dim2, 4)",
                a and "%d instances" % a["instances"], t))
    for workers, source in ((1, workers1_rows), (2, rows)):
        t, a = first("verify-system:planar", "preoperadic.verify_system",
                     lambda a: True, source)
        out.append(('verify_system("planar", 5), workers=%d' % workers,
                    a and "%d instances" % a["checked"], t))
    return out


def print_layers(metrics, bases, baseline):
    for name, (value, unit) in metrics.items():
        print("layer %-40s %14.6g %-6s %s" % (name, value, unit,
                                             bases.get(name, "")))
    print("baseline rows (ROADMAP table), from the traced pass:")
    for row, size, t in baseline:
        print("baseline %-36s %-26s %s" % (
            row, size or "-",
            "not run in this workload" if t is None else "%.3f s" % t))


def write_trace(path, workload, seed, rows):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "spans": [{"trace": tid, "id": sp[0], "parent": sp[1],
                              "name": sp[2], "start": sp[3], "end": sp[4],
                              "self": self_s, "attrs": sp[5]}
                             for tid, sp, self_s in rows]}, fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lodayops", "cli.py")):
        print("error: no lodayops sources under %s" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    expected = workloads.load_expected()
    jobs = workloads.jobs(args.workload, ROOT, OUT_DIR, args.seed)
    with SpeedProbe() as probe:
        passes = timed_passes(jobs, expected, args.seconds, probe)
        if args.trace:
            traced = run_pass(jobs, expected, probe, trace=True)
            workers1 = None
            if args.workload == "scan":
                workers1 = run_pass(workloads.scan_jobs(1), expected, probe,
                                    trace=True)
        else:
            metrics = end_to_end(jobs, passes, probe)
    untraced_wall = statistics.median(p["raw_wall_s"] for p in passes)
    if args.trace:
        metrics, bases, rows = layer_metrics(traced, untraced_wall, workers1)
        w1_rows = pass_spans(workers1, "workers1") if workers1 else []
        print_layers(metrics, bases, baseline_rows(rows, w1_rows))
        trace_path = os.path.join(ROOT, OUT_DIR, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        write_trace(trace_path, args.workload, args.seed, rows + w1_rows)
        print("spans written to %s" % os.path.relpath(trace_path, ROOT))
        passes += [traced] + ([workers1] if workers1 else [])
    else:
        for name, (value, unit) in metrics.items():
            print("%-12s %.6f %s" % (name, value, unit))
        print("raw wall_s   %.6f s (median, not scaled to reference speed)"
              % untraced_wall)
        print("passes       %d" % len(passes))
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
