"""The benchmark's workloads, their generated inputs and correctness checks.

A job is one CLI call (``kind == "cli"``) or one ``d_squared`` call of
``job.py``, run in its own process.  ``label`` keys the job's golden values
in ``expected.json``; the digests there were recorded at the commit that
introduced the benchmark.
"""

import hashlib
import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))

SCAN_KINDS = ("linear", "binary", "planar", "subsets", "signs")
# (fixture, highest degree of d assembled)
D_SQUARED = (("trias_dim2", 3), ("trias_dim1", 5), ("tricub_dim1", 5),
             ("dias_dim1", 6), ("tridend_dim1", 7))
FP_PRIME = 101
IDENTITY_SAMPLES = 208


def fixture(name):
    """Path of a shipped fixture, relative to the checkout root."""
    return os.path.join("fixtures", name + ".alg")


def write_fp_copy(root, out_dir, seed):
    """trias_dim2 over F_101, written differently for every seed.

    Each structure constant c becomes two entries a and c - a (mod 101),
    with a drawn from the seed, and the entries of each block are shuffled.
    The parser sums repeated entries, so every seed gives the same algebra
    and the same report.
    """
    rng = random.Random(seed)
    lines = ["# trias_dim2 over F_%d, generated with seed %d"
             % (FP_PRIME, seed)]
    block = []

    def flush():
        rng.shuffle(block)
        lines.extend(block)
        block.clear()

    source = os.path.join(root, fixture("trias_dim2"))
    with open(source, encoding="utf-8") as fh:
        for raw in fh:
            tokens = raw.split()
            if tokens[:1] == ["field"]:
                lines.append("field = Fp:%d" % FP_PRIME)
            elif len(tokens) == 4 and all(t.isdigit() for t in tokens[:3]):
                i, j, k, c = tokens
                a = rng.randrange(FP_PRIME)
                block.append("%s %s %s %d" % (i, j, k, a))
                rest = (int(c) - a) % FP_PRIME
                block.append("%s %s %s %d" % (i, j, k, rest))
            else:
                flush()
                lines.append(raw.rstrip("\n"))
    flush()
    path = os.path.join(out_dir, "trias_dim2_fp%d_seed%d.alg"
                        % (FP_PRIME, seed))
    with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _cli(label, argv, algebra=None):
    return {"label": label, "kind": "cli", "argv": argv, "algebra": algebra}


def scan_jobs(workers):
    return [_cli("verify-system:%s" % k,
                 ["verify-system", "--kind", k, "--max-total", "5",
                  "--workers", str(workers)])
            for k in SCAN_KINDS]


def jobs(workload, root, out_dir, seed):
    """The jobs of one pass of the workload, in the order they run.

    Paths are relative to ``root``, where the jobs run; ``out_dir`` (also
    relative) receives the generated inputs.
    """
    if workload == "cohomology":
        q = fixture("trias_dim2")
        fp = write_fp_copy(root, out_dir, seed)
        return [
            _cli("cohomology:trias_dim2:3",
                 ["cohomology", q, "--max-degree", "3"], q),
            _cli("cohomology:trias_dim2_fp101:3",
                 ["cohomology", fp, "--max-degree", "3"], fp),
            _cli("gerstenhaber:trias_dim2:4",
                 ["gerstenhaber", q, "--max-degree", "4"], q),
        ]
    if workload == "differential":
        out = [{"label": "d-squared:%s:%d" % (name, n), "kind": "d_squared",
                "algebra": fixture(name), "max_degree": n}
               for name, n in D_SQUARED]
        q = fixture("trias_dim2")
        out.append(_cli("compare-differentials:trias_dim2:3",
                        ["compare-differentials", q, "--max-degree", "3"], q))
        return out
    if workload == "calculus":
        return [_cli("identities:%s" % name,
                     ["identities", fixture(name), "--samples",
                      str(IDENTITY_SAMPLES), "--seed", str(seed)],
                     fixture(name))
                for name in ("trias_dim2", "tricub_dim1")]
    if workload == "scan":
        return scan_jobs(2)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("cohomology", "differential", "calculus", "scan")


def load_expected(path=os.path.join(HERE, "expected.json")):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stdout_digest(stdout):
    """sha256 of the report with the '# command:' echo line left out."""
    kept = [line for line in stdout.splitlines(keepends=True)
            if not line.startswith("# command:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


_COUNT_LINE = re.compile(r"^# ([\w-]+): (\d+) instances$", re.M)
_CHECKED = re.compile(r"^# kind=\w+ max-total=\d+ checked=(\d+)$", re.M)
_CHECK = re.compile(r"^CHECK (\S+) (\S+)$", re.M)
_H = re.compile(r"^H (\d+) (\d+)$", re.M)


def check(expected, status, stdout):
    """Reasons the job's result is wrong; empty when it is right.

    ``expected`` is the job's entry in expected.json: ``digest`` (for
    deterministic jobs), ``dims`` (golden H dimensions) and ``counts``
    (instances per law; each must be nonzero).
    """
    problems = []
    if status != 0:
        problems.append("exit status %s" % status)
    checks = _CHECK.findall(stdout)
    if not checks:
        problems.append("no CHECK lines")
    problems += ["CHECK %s %s" % c for c in checks if c[1] != "PASS"]
    if "dims" in expected:
        dims = [[int(n), int(d)] for n, d in _H.findall(stdout)]
        if dims != expected["dims"]:
            problems.append("H dimensions %s, expected %s"
                            % (dims, expected["dims"]))
    if "counts" in expected:
        counts = {law: int(n) for law, n in _COUNT_LINE.findall(stdout)}
        checked = _CHECKED.findall(stdout)
        if checked:
            counts["checked"] = int(checked[0])
        for law, want in expected["counts"].items():
            got = counts.get(law, 0)
            if got == 0 or got != want:
                problems.append("%s: %d instances, expected %d"
                                % (law, got, want))
    if "digest" in expected and stdout_digest(stdout) != expected["digest"]:
        problems.append("stdout digest differs from the recorded one")
    return problems
