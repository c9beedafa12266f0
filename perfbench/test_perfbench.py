"""Tests of the benchmark itself: its correctness gate, its span arithmetic
and its agreement with BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import run
import tracing
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


class _Unscaled:
    def factor(self, start, end):
        return 1.0


def _job(workload, label, seed=0):
    os.makedirs(os.path.join(run.ROOT, run.OUT_DIR), exist_ok=True)
    for job in workloads.jobs(workload, run.ROOT, run.OUT_DIR, seed):
        if job["label"] == label:
            return job
    raise KeyError(label)


def test_recorded_values_pass():
    job = _job("cohomology", "cohomology:trias_dim2_fp101:3")
    p = run.run_pass([job], workloads.load_expected(), _Unscaled())
    assert p["failed"] == 0 and p["results"][0]["problems"] == []


def test_corrupted_digest_fails_the_job():
    job = _job("scan", "verify-system:linear")
    expected = workloads.load_expected()
    expected[job["label"]]["digest"] = "0" * 64
    p = run.run_pass([job], expected, _Unscaled())
    assert p["failed"] == 1
    assert p["results"][0]["problems"] == [
        "stdout digest differs from the recorded one"]


def test_corrupted_golden_dimension_fails_the_job():
    job = _job("cohomology", "cohomology:trias_dim2_fp101:3")
    expected = workloads.load_expected()
    expected[job["label"]]["dims"][2] = [3, 2]
    p = run.run_pass([job], expected, _Unscaled())
    assert p["failed"] == 1
    assert any("H dimensions" in msg for msg in p["results"][0]["problems"])


def test_check_rejects_zero_and_wrong_instance_counts():
    entry = {"counts": {"graded-jacobi": 4}}
    ok = "# graded-jacobi: 4 instances\nCHECK graded-jacobi PASS\n"
    assert workloads.check(entry, 0, ok) == []
    assert workloads.check({"counts": {"graded-jacobi": 0}}, 0,
                           ok.replace(": 4", ": 0"))
    assert workloads.check(entry, 0, ok.replace(": 4", ": 3"))
    assert workloads.check(entry, 0, ok.replace("PASS", "FAIL"))
    assert workloads.check(entry, 1, ok)


def test_digest_ignores_only_the_command_echo():
    a = "# command: cohomology a.alg\nH 1 1\n"
    b = "# command: cohomology b.alg\nH 1 1\n"
    assert workloads.stdout_digest(a) == workloads.stdout_digest(b)
    assert workloads.stdout_digest(a) != workloads.stdout_digest(a + "REP 1\n")


def test_fp_copy_differs_by_seed_but_parses_to_one_algebra():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from lodayops.algfile import load_algebra
    os.makedirs(os.path.join(run.ROOT, run.OUT_DIR), exist_ok=True)
    paths = [workloads.write_fp_copy(run.ROOT, run.OUT_DIR, s) for s in (1, 2)]
    texts = [open(os.path.join(run.ROOT, p)).read() for p in paths]
    assert texts[0] != texts[1]
    algs = [load_algebra(os.path.join(run.ROOT, p)) for p in paths]
    assert algs[0] == algs[1]
    assert algs[0].field.characteristic == workloads.FP_PRIME


def test_speed_probe_scales_to_reference_seconds():
    with run.SpeedProbe() as probe:
        time.sleep(3 * run.PROBE_EVERY_S)
    assert len(probe.samples) >= 2
    t0, kernel_s = probe.samples[-1]
    assert probe.factor(t0, t0) == run.CAL_REFERENCE_S / kernel_s
    assert not probe._thread.is_alive()


def test_self_times_subtract_the_union_of_children():
    spans = [
        [1, None, "job", 0.0, 10.0, {}],
        [2, 1, "a", 1.0, 4.0, {}],
        [3, 1, "b", 3.0, 6.0, {}],      # overlaps a, as on a worker thread
        [4, 2, "c", 2.0, 3.0, {}],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_recorder_nests_spans_and_keeps_counter_time_out():
    rec = tracing.Recorder(tracing.clock())
    inner = rec.wrap("m.inner", lambda x: x + 1)
    outer = rec.wrap("m.outer", lambda x: inner(x) * 2,
                     (lambda args: {"x": args["x"]},
                      lambda attrs, result: attrs.update(result=result)))
    assert outer(3) == 8
    rec.close(tracing.clock())
    by_name = {s[2]: s for s in rec.spans}
    assert by_name["m.inner"][1] == by_name["m.outer"][0]
    assert by_name["m.outer"][1] == tracing.ROOT_ID
    assert by_name["m.outer"][5] == {"x": 3, "result": 8}
    assert by_name["trace.count"][1] == tracing.ROOT_ID


def _fake_pass():
    spans = [[1, None, "job", 0.0, 2.0, {}],
             [2, 1, "linalg.solve", 0.5, 1.0,
              {"rows": 2, "cols": 3, "nonzero": 3}]]
    result = {"job": {"label": "x"}, "t_spawn": 0.0,
              "report": {"spans": spans, "t_out": 2.0}}
    return {"results": [result], "raw_wall_s": 2.0, "cpu_s": 1.9}


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    metrics, _, _ = run.layer_metrics(_fake_pass(), 1.5)
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in bench["per_layer"])
    assert metrics["linalg.dense_cells"][0] == 6
    assert metrics["linalg.nnz_ratio"][0] == 0.5
    assert metrics["trace.overhead_s"][0] == 0.5
    p = copy.deepcopy(_fake_pass())
    p.update(wall_s=2.0, setup_s=0.1, peak_rss_mb=20.0, failed=0)
    e2e = run.end_to_end([], [p] * run.SETUP_SAMPLES, _Unscaled())
    assert list(e2e) == [m["name"] for m in bench["end_to_end"]]
    assert all(e2e[m["name"]][1] == m["unit"] for m in bench["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
