import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from lodayops import cli, cohomology, identities, linalg, preoperadic
from lodayops.algebra import PI_OPS
from lodayops.algfile import load_algebra, serialize_algebra
from lodayops.cli import MAX_IDENTITY_CELLS, MAX_SCAN_INSTANCES, main
from lodayops.cochains import delta_trias, zero_cochain
from lodayops.preoperadic import r_index_tables, scan_instances

from corpus import suspension_fixture


ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fx(fixture_dir, name):
    return str(fixture_dir / ("%s.alg" % name))


def test_verify_system_passes():
    code, out, _ = run_cli("verify-system", "--kind", "linear", "--max-total", "4")
    assert code == 0
    assert "CHECK pre-operadic-identity PASS" in out
    assert "CHECK pre-operadic-closure PASS" in out


def _swapped_r0(kind, parts):
    """The index tables with the first two R_0 entries of every two-part
    profile swapped."""
    r0, part_tables = r_index_tables(kind, parts)
    if len(parts) == 2:
        r0 = (r0[1], r0[0]) + r0[2:]
    return r0, part_tables


def test_verify_system_lists_counterexamples(monkeypatch):
    monkeypatch.setattr(preoperadic, "r_index_tables", _swapped_r0)
    code, out, _ = run_cli("verify-system", "--kind", "linear",
                           "--max-total", "4")
    assert code == 1
    for axiom, verdict in (("identity", "FAIL"), ("idempotency", "FAIL"),
                           ("commutativity", "FAIL"), ("closure", "PASS")):
        assert "CHECK pre-operadic-%s %s" % (axiom, verdict) in out
    listed = [line for line in out.splitlines()
              if line.startswith("COUNTEREXAMPLE ")]
    assert len(listed) == 20        # the cap
    assert listed[0] == ("COUNTEREXAMPLE commutativity outer=(1, 1, 2) "
                         "inner=(1, 1, 1, 1) element=1 expected=2 actual=1")


def test_verify_algebra_valid(fixture_dir):
    code, out, _ = run_cli("verify-algebra", fx(fixture_dir, "trias_dim1"))
    assert code == 0
    assert "CHECK algebra-axioms PASS" in out
    assert "CHECK multiplication-square-zero PASS" in out


def test_verify_algebra_broken_names_axiom(fixture_dir):
    code, out, _ = run_cli("verify-algebra", fx(fixture_dir, "broken_trias_axiom7"))
    assert code == 1
    assert "CHECK algebra-axioms FAIL" in out
    assert "(x ⊥ y) ⊣ z = x ⊥ (y ⊣ z)" in out
    assert "CHECK multiplication-square-zero FAIL" in out


def test_cohomology_report(fixture_dir):
    code, out, _ = run_cli("cohomology", fx(fixture_dir, "didend_dim1"),
                           "--max-degree", "3")
    assert code == 0
    assert "# convention: H^1 = ker d^1" in out
    assert "H 1 0" in out
    assert "H 2 1" in out
    assert "H 3 0" in out
    assert "REP 2 1" in out
    assert "CHECK rank-engines-agree PASS" in out


def test_compare_differentials(fixture_dir):
    code, out, _ = run_cli("compare-differentials", fx(fixture_dir, "trias_dim1"),
                           "--max-degree", "2")
    assert code == 0
    assert "CHECK d-matches-delta-degree-1 PASS" in out
    assert "CHECK d-matches-delta-degree-2 PASS" in out


@pytest.mark.parametrize("table", [None, (("middle",), ("right",), ("left",)),
                                   (("left",), ("middle",), ("right",))],
                         ids=["shipped", "mirrored", "corolla-left"])
def test_compare_differentials_sees_the_pi_table(table, tmp_path, monkeypatch):
    # both wrong tables keep pi o pi = 0, and the shipped fixtures set all
    # three operations equal; only d against delta on an algebra whose
    # operations differ tells them from the shipped one
    path = tmp_path / "trias_suspension.alg"
    path.write_text(serialize_algebra(suspension_fixture("trias")),
                    encoding="utf-8")
    if table is not None:
        monkeypatch.setitem(PI_OPS, "trias", table)
    code, out, _ = run_cli("compare-differentials", str(path),
                           "--max-degree", "2")
    verdict = "PASS" if table is None else "FAIL"
    assert code == (0 if table is None else 1)
    assert [line for line in out.splitlines()
            if line.startswith("CHECK d-matches-delta")] == [
        "CHECK d-matches-delta-degree-%d %s" % (n, verdict) for n in (1, 2)]


def test_compare_differentials_on_dias(fixture_dir):
    # dias cochains are indexed by binary trees, whose faces are binary
    code, out, _ = run_cli("compare-differentials",
                           fx(fixture_dir, "dias_dim1"), "--max-degree", "4")
    assert code == 0
    assert [line for line in out.splitlines()
            if line.startswith("CHECK")] == [
        "CHECK d-matches-delta-degree-%d PASS" % n for n in range(1, 5)]


def test_compare_differentials_wrong_type(fixture_dir):
    code, out, err = run_cli("compare-differentials", fx(fixture_dir, "didend_dim1"))
    assert code == 2
    assert out == ""
    assert "trias" in err


@pytest.mark.parametrize("name", ["didend_dim1", "tridend_dim1",
                                  "tricub_dim1"])
def test_delta_is_defined_on_the_tree_kinds_only(fixture_dir, name):
    # delta and compare-differentials read one rule, the kind of the type:
    # binary trees for dias, planar trees for trias, no tree for the others
    alg = load_algebra(fx(fixture_dir, name))
    with pytest.raises(ValueError, match="^the explicit differential is "
                       "defined for dias and trias only$"):
        delta_trias(alg, zero_cochain(alg, 1))
    code, out, err = run_cli("compare-differentials", fx(fixture_dir, name))
    assert (code, out) == (2, "")
    assert err.startswith("error: compare-differentials requires a dias or "
                          "trias algebra\n")


def test_gerstenhaber(fixture_dir):
    code, out, _ = run_cli("gerstenhaber", fx(fixture_dir, "didend_dim1"),
                           "--max-degree", "4")
    assert code == 0
    assert "CHECK graded-commutativity PASS" in out
    assert "CHECK bracket-derivation PASS" in out
    assert "CHECK graded-jacobi PASS" in out


def test_identities_seeded(fixture_dir):
    code, out, _ = run_cli("identities", fx(fixture_dir, "didend_dim1"),
                           "--samples", "26", "--seed", "11")
    assert code == 0
    assert "CHECK brace-identity PASS" in out
    assert "CHECK hg-differential PASS" in out


def _fail_first_call(monkeypatch, module, name, failed):
    """Patch module.name so that its first call returns ``failed(...)``
    and every later call the real result."""
    real = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(args)
        return failed(*args) if len(calls) == 1 else real(*args)
    monkeypatch.setattr(module, name, patched)


def test_gerstenhaber_failed_instance_lines(fixture_dir, monkeypatch):
    # the first coboundary test, graded commutativity at degrees (1, 1),
    # is made to fail: the law fails on that one instance only
    _fail_first_call(monkeypatch, cohomology, "is_coboundary",
                     lambda ctx, c: False)
    code, out, _ = run_cli("gerstenhaber", fx(fixture_dir, "trias_dim2"),
                           "--max-degree", "4")
    assert code == 1
    assert out.splitlines()[5:] == [
        "# graded-commutativity: 6 instances",
        "CHECK graded-commutativity FAIL",
        "FAILED-AT graded-commutativity degrees=(1, 1)",
        "# bracket-derivation: 4 instances",
        "CHECK bracket-derivation PASS",
        "# graded-jacobi: 4 instances",
        "CHECK graded-jacobi PASS",
    ]


def test_identities_failed_instance_lines(fixture_dir, monkeypatch):
    # the first dg-algebra instance, pattern (1, 1, 1), gets sides of
    # different degrees, which are never equal
    def unequal(ctx, x, y, z):
        return ((x, zero_cochain(ctx.alg, x.degree + 1)),
                (x, zero_cochain(ctx.alg, x.degree + 1)))
    _fail_first_call(monkeypatch, identities, "dg_algebra_sides", unequal)
    code, out, _ = run_cli("identities", fx(fixture_dir, "trias_dim1"),
                           "--samples", "26", "--seed", "0")
    assert code == 1
    assert out.splitlines()[3:] == [
        "# brace-identity: 8 instances",
        "CHECK brace-identity PASS",
        "# dg-algebra: 4 instances",
        "CHECK dg-algebra FAIL",
        "FAILED-AT dg-algebra pattern=(1, 1, 1)",
        "# hg-differential: 9 instances",
        "CHECK hg-differential PASS",
        "# hg-dot-brace: 5 instances",
        "CHECK hg-dot-brace PASS",
    ]


@pytest.mark.parametrize("argv, echo, meta", [
    (["cohomology"], "--max-degree 3",
     ["# convention: H^1 = ker d^1 (there are no degree-0 cochains)"]),
    (["compare-differentials"], "--max-degree 3", []),
    (["gerstenhaber"], "--max-degree 4", []),
    (["identities", "--samples", "26"], "--samples 26 --seed 0",
     ["# samples=26 seed=0"]),
], ids=["cohomology", "compare-differentials", "gerstenhaber", "identities"])
def test_failed_square_zero_stops_the_command(fixture_dir, argv, echo, meta):
    # pi o pi != 0: the report ends at the failed check, and the exit is 1
    path = fx(fixture_dir, "broken_trias_axiom7")
    code, out, _ = run_cli(argv[0], path, *argv[1:])
    assert code == 1
    assert out.splitlines() == [
        "# command: %s %s %s" % (argv[0], path, echo),
        "# algebra: type=trias field=Q dim=11",
        *meta,
        "CHECK multiplication-square-zero FAIL",
    ]


def test_exit_codes_for_bad_input(fixture_dir, tmp_path):
    missing = tmp_path / "missing.alg"
    code, out, err = run_cli("cohomology", str(missing))
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == \
        "error: [Errno 2] No such file or directory: '%s'" % missing
    bad = tmp_path / "bad.alg"
    bad.write_text("type = didend\nfield = Fp:6\ndim = 1\n")
    code, out, err = run_cli("verify-algebra", str(bad))
    assert code == 2
    assert out == ""
    assert "not prime" in err
    code, out, _ = run_cli("no-such-command")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", ["verify-algebra", "cohomology",
                                     "compare-differentials", "gerstenhaber",
                                     "identities"])
def test_file_not_utf8_exits_2(tmp_path, command):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"type = trias\nfield = Q\ndim = 1\n\xff\xfe\n")
    code, out, err = run_cli(command, str(bad))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines()
            if not line.startswith("# elapsed")] == [
        "error: %s: line 4: not valid UTF-8" % bad]


@pytest.mark.parametrize("command", ["verify-algebra", "cohomology",
                                     "compare-differentials", "gerstenhaber",
                                     "identities"])
def test_non_ascii_dim_exits_2(tmp_path, command):
    # "\u00b2".isdigit() holds, but int() refuses it
    bad = tmp_path / "bad.alg"
    bad.write_text("type = trias\nfield = Q\ndim = \u00b2\n",
                   encoding="utf-8")
    code, out, err = run_cli(command, str(bad))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines()
            if not line.startswith("# elapsed")] == [
        "error: %s: line 3: malformed dim: '\u00b2' is not an ASCII number"
        % bad]


@pytest.mark.parametrize("command", ["verify-algebra", "cohomology",
                                     "compare-differentials", "gerstenhaber",
                                     "identities"])
def test_non_ascii_entry_token_exits_2(tmp_path, command):
    # int() reads the Arabic-Indic digit two, but the grammar does not
    bad = tmp_path / "bad.alg"
    bad.write_text("type = trias\nfield = Q\ndim = 1\nop left\n"
                   "1 1 1 1/\u0662\nop right\nop middle\n", encoding="utf-8")
    code, out, err = run_cli(command, str(bad))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines()
            if not line.startswith("# elapsed")] == [
        "error: %s: line 5: malformed coefficient: '1/\u0662'" % bad]


@pytest.mark.parametrize("header, message", [
    ("field = Fp:18446744073709551629\ndim = 1\n",
     "line 2: modulus 18446744073709551629 is not below 2^64"),
    ("field = Q\ndim = 2\nbasis = e e\n", "line 4: basis repeats a name"),
])
def test_bad_header_values_exit_2(tmp_path, header, message):
    bad = tmp_path / "bad.alg"
    bad.write_text("type = trias\n" + header, encoding="utf-8")
    code, out, err = run_cli("verify-algebra", str(bad))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines()
            if not line.startswith("# elapsed")] == [
        "error: %s: %s" % (bad, message)]


@pytest.mark.parametrize("body, message", [
    ("op\n", "line 4: operation block without a name"),
    ("op left\n1 1 1 1\nop left\n",
     "line 6: duplicate operation block 'left'"),
    ("dim = 2\n", "line 4: duplicate key 'dim'"),
    ("op left\n1 1 1 1\nop right\n1 1 1 1\nop middle\n1 x 1 1\n",
     "line 9: malformed basis index: 'x' is not an ASCII number"),
], ids=["op-without-name", "repeated-op", "repeated-dim", "index-not-int"])
def test_parser_diagnostics_exit_2(tmp_path, body, message):
    bad = tmp_path / "bad.alg"
    bad.write_text("type = trias\nfield = Q\ndim = 1\n" + body,
                   encoding="utf-8")
    code, out, err = run_cli("verify-algebra", str(bad))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines()
            if not line.startswith("# elapsed")] == [
        "error: %s: %s" % (bad, message)]


def test_modulus_2_61_minus_1_accepted(tmp_path):
    path = tmp_path / "big_p.alg"
    path.write_text("type = trias\nfield = Fp:2305843009213693951\ndim = 1\n"
                    "op left\n1 1 1 1\nop right\n1 1 1 1\n"
                    "op middle\n1 1 1 1\n", encoding="utf-8")
    code, out, _ = run_cli("verify-algebra", str(path))
    assert code == 0
    assert "CHECK algebra-axioms PASS" in out


def test_missing_key_names_no_line(tmp_path):
    # a key missing from the whole file has no line to name
    bad = tmp_path / "bad.alg"
    bad.write_text("type = trias\nfield = Q\n", encoding="utf-8")
    code, out, err = run_cli("verify-algebra", str(bad))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines()
            if not line.startswith("# elapsed")] == [
        "error: %s: missing key 'dim'" % bad]


@pytest.mark.parametrize("argv", [
    ["cohomology", "FIXTURE", "--max-degree", "0"],
    ["gerstenhaber", "FIXTURE", "--max-degree", "1"],
    ["verify-system", "--kind", "linear", "--max-total", "0"],
    ["compare-differentials", "FIXTURE", "--max-degree", "0"],
    ["identities", "FIXTURE", "--samples", "0"],
    ["verify-system", "--kind", "linear", "--workers", "0"],
    ["verify-system", "--kind", "linear", "--workers", "-2"],
    ["cohomology", "FIXTURE", "--max-degree", "three"],
    # int() reads these; the integer grammar of fields._ascii_int does not
    ["cohomology", "FIXTURE", "--max-degree", "\u0663"],
    ["cohomology", "FIXTURE", "--max-degree", "1_0"],
    ["identities", "FIXTURE", "--seed", "1_0"],
    ["verify-system", "--kind", "linear", "--workers", "\u0662"],
])
def test_out_of_range_numbers_exit_2(fixture_dir, argv):
    argv = [fx(fixture_dir, "trias_dim1") if a == "FIXTURE" else a
            for a in argv]
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error: argument %s: " % argv[-2] in err
    if re.fullmatch("-?[0-9]+", argv[-1]):
        # an int below the least valid one gets the library judge's text
        low = 2 if argv[0] == "gerstenhaber" else 1
        assert "value must be an int >= %d, got %s" % (low, argv[-1]) in err


def test_reports_byte_identical(fixture_dir):
    runs = [run_cli("cohomology", fx(fixture_dir, "trias_dim1"),
                    "--max-degree", "2") for _ in range(2)]
    assert runs[0][:2] == runs[1][:2]
    ids = [run_cli("identities", fx(fixture_dir, "trias_dim1"),
                   "--samples", "13", "--seed", "3") for _ in range(2)]
    assert ids[0][:2] == ids[1][:2]


def test_worker_configurations_identical():
    one = run_cli("verify-system", "--kind", "signs", "--max-total", "4",
                  "--workers", "1")
    many = run_cli("verify-system", "--kind", "signs", "--max-total", "4",
                   "--workers", "4")
    assert one[:2] == many[:2]


def test_worker_flag_spellings_identical():
    # the --workers=N form too; a prefix such as --work is refused
    runs = [run_cli("verify-system", "--kind", "linear", "--max-total", "4",
                    *flag)
            for flag in (["--workers", "1"], ["--workers=3"], ["--work", "4"])]
    assert runs[0][:2] == runs[1][:2]
    assert "# command: verify-system --kind linear --max-total 4\n" in \
        runs[0][1]
    assert runs[2][:2] == (2, "")


@pytest.mark.parametrize("kind, max_total", [("planar", "8"),
                                             ("linear", "1000000")])
def test_oversized_scan_refused(kind, max_total):
    code, out, err = run_cli("verify-system", "--kind", kind,
                             "--max-total", max_total)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "over the limit of %d" % MAX_SCAN_INSTANCES in err


def test_oversized_identity_run_refused(fixture_dir):
    # every sample is drawn before any is checked, about 2 KB each on
    # trias_dim2, so ten million would need some 21 GB before any output
    code, out, err = run_cli("identities", fx(fixture_dir, "trias_dim2"),
                             "--samples", "10000000")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == (
        "error: identities --samples 10000000 draws 413846224 cochain "
        "cells, over the limit of %d" % MAX_IDENTITY_CELLS)


def test_identity_limit_admits_a_run_at_the_limit(fixture_dir, monkeypatch):
    # the limit on a run of 27 samples on trias_dim1: 27 runs, 28 exits 2
    path = fx(fixture_dir, "trias_dim1")
    cells = identities.drawn_cells(load_algebra(path), 27)
    monkeypatch.setattr(cli, "MAX_IDENTITY_CELLS", cells)
    assert run_cli("identities", path, "--samples", "27")[0] == 0
    code, out, err = run_cli("identities", path, "--samples", "28")
    assert (code, out) == (2, "")
    assert "over the limit of %d" % cells in err


def test_scan_limit_admits_planar_at_total_7():
    # counted, not run: the scan itself takes many seconds
    size = scan_instances("planar", 7, MAX_SCAN_INSTANCES)
    assert size == 3361540 <= MAX_SCAN_INSTANCES
    assert scan_instances("planar", 8, MAX_SCAN_INSTANCES) == 48856624


def test_command_echo_is_canonical(fixture_dir):
    path = fx(fixture_dir, "didend_dim1")
    # the elapsed line of stderr is left out: a cold cache can move it
    spelled = [(code, out, re.sub(r"# elapsed \S+\n", "", err))
               for code, out, err in (
                   run_cli("cohomology", path, *args)
                   for args in ([], ["--max-degree", "3"],
                                ["--max-degree=3"], ["--max-d=3"]))]
    assert spelled[0] == spelled[1] == spelled[2]
    assert spelled[0][1].startswith(
        "# command: cohomology %s --max-degree 3\n" % path)
    assert spelled[3][:2] == (2, "")


# every long option of every subcommand: the subcommand, its fixture, the
# arguments before the option, the option and its value (None for a flag),
# and the canonical echo of the whole command
LONG_OPTIONS = [
    ("verify-system", None, ["--max-total", "3"], "--kind", "linear",
     "verify-system --kind linear --max-total 3"),
    ("verify-system", None, ["--kind", "linear"], "--max-total", "3",
     "verify-system --kind linear --max-total 3"),
    ("verify-system", None, ["--kind", "linear", "--max-total", "3"],
     "--workers", "2", "verify-system --kind linear --max-total 3"),
    ("cohomology", "didend_dim1", [], "--max-degree", "2",
     "cohomology {} --max-degree 2"),
    ("cohomology", "didend_dim1", ["--max-degree", "2"], "--dump-matrices",
     None, "cohomology {} --max-degree 2 --dump-matrices"),
    ("compare-differentials", "trias_dim1", [], "--max-degree", "2",
     "compare-differentials {} --max-degree 2"),
    ("gerstenhaber", "didend_dim1", [], "--max-degree", "2",
     "gerstenhaber {} --max-degree 2"),
    ("identities", "didend_dim1", [], "--samples", "3",
     "identities {} --samples 3 --seed 0"),
    ("identities", "didend_dim1", ["--samples", "3"], "--seed", "5",
     "identities {} --samples 3 --seed 5"),
]


@pytest.mark.parametrize(
    "command, fixture, before, option, value, echo", LONG_OPTIONS,
    ids=["%s %s" % (case[0], case[3]) for case in LONG_OPTIONS])
def test_long_options_parse_under_full_names_only(
        fixture_dir, command, fixture, before, option, value, echo):
    path = [fx(fixture_dir, fixture)] if fixture else []
    given = [option] if value is None else ["%s=%s" % (option, value)]
    code, out, _ = run_cli(command, *path, *before, *given)
    assert code == 0
    assert out.startswith("# command: %s\n" % echo.format(*path))
    # the option cut by one character, even after its full name, is
    # refused: no report, exit 2
    cut = [option[:-1]] + ([] if value is None else [value])
    code, out, err = run_cli(command, *path, *before, *given, *cut)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: %s" % " ".join(cut) in err


def _digest(stdout):
    kept = [line for line in stdout.splitlines(keepends=True)
            if not line.startswith("# command:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def test_trias_dim2_representatives_pinned(fixture_dir, tmp_path):
    # sha256 of the report minus its '# command:' line, by field and top
    # degree; the degree-3 digests were recorded before the elimination
    # layer was rewritten, the degree-4 ones before the echelon was made
    # triangular: the H and REP lines must not move
    pinned = {
        ("Q", "3"): "72b818249affc5215c6d00cd6c9179e7"
                    "b4bfa5dc5cf00560496567ec05c3d3c7",
        ("Q", "4"): "e97d1f801b40ad6f93938d3b34563c85"
                    "5b55a34a7e54e3b68ee879049393cbe8",
        ("Fp:101", "3"): "a5064e6ae5d0b54473b345c60d152bca"
                         "980993d714b8e434f1dbbde8a29d41e8",
        ("Fp:101", "4"): "b8610f2df4fcb8b3767174545ec3b42f"
                         "ca22ee1f2b8ecf9bc9a4b69da2d3446d",
    }
    path = fx(fixture_dir, "trias_dim2")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert "field = Q\n" in text
    fp = tmp_path / "trias_dim2_fp101.alg"
    fp.write_text(text.replace("field = Q\n", "field = Fp:101\n"))
    for (field, degree), digest in pinned.items():
        source = path if field == "Q" else str(fp)
        code, out, _ = run_cli("cohomology", source, "--max-degree", degree)
        assert code == 0
        assert _digest(out) == digest, (field, degree)


def test_scaled_trias_dim2_matrix_dump_pinned(fixture_dir, tmp_path):
    # every structure constant times 2/3: the matrices of d hold p/q
    # entries beside integers; sha256 of the report minus '# command:',
    # recorded while every rational scalar was a Fraction
    lines = []
    with open(fx(fixture_dir, "trias_dim2"), encoding="utf-8") as fh:
        source = fh.readlines()
    for raw in source:
        tokens = raw.split()
        if len(tokens) == 4 and all(t.isdigit() for t in tokens[:3]):
            scaled = Fraction(tokens[3]) * Fraction(2, 3)
            raw = "%s %s\n" % (" ".join(tokens[:3]), scaled)
        lines.append(raw)
    path = tmp_path / "trias_dim2_scaled.alg"
    path.write_text("".join(lines))
    code, out, _ = run_cli("cohomology", str(path), "--max-degree", "3",
                           "--dump-matrices")
    assert code == 0
    assert "MATRIX 1 0 0 2/3" in out
    assert _digest(out) == ("32fcbf49b9cbc92fefb6150b88b8b8fb"
                            "0593ccd7bad58cc096ffd039beccf7d9")


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_rank_cross_check_fails_on_a_wrong_echelon(fixture_dir, tmp_path,
                                                   monkeypatch, field):
    # the dimensions come from the row engine on both fields and the
    # cross-check counts the echelon's classes, so an echelon whose kernel
    # drops one vector must show
    real = linalg.column_echelon

    def dropping(columns, field):
        ech = real(columns, field)
        return ech._replace(kernel=ech.kernel[:-1])
    monkeypatch.setattr(linalg, "column_echelon", dropping)
    _assert_cross_check_fails(fixture_dir, tmp_path, field)


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_rank_cross_check_fails_on_a_wrong_row_rank(fixture_dir, tmp_path,
                                                    monkeypatch, field):
    real = linalg.rank_bareiss
    monkeypatch.setattr(linalg, "rank_bareiss",
                        lambda *args: real(*args) + 1)
    _assert_cross_check_fails(fixture_dir, tmp_path, field)


def _assert_cross_check_fails(fixture_dir, tmp_path, field):
    """``cohomology --max-degree 3`` on a copy of trias_dim2 over ``field``
    exits 1 with a failed rank-engines-agree check."""
    with open(fx(fixture_dir, "trias_dim2"), encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "trias_dim2.alg"
    path.write_text(text.replace("field = Q\n", "field = %s\n" % field))
    code, out, _ = run_cli("cohomology", str(path), "--max-degree", "3")
    assert code == 1
    assert "CHECK rank-engines-agree FAIL" in out


def test_matrix_dump(fixture_dir):
    code, out, _ = run_cli("cohomology", fx(fixture_dir, "didend_dim1"),
                           "--max-degree", "2", "--dump-matrices")
    assert code == 0
    assert "MATRIX 1 0 0 1" in out


def test_timing_kept_off_stdout(fixture_dir):
    _, out, err = run_cli("verify-algebra", fx(fixture_dir, "didend_dim1"))
    assert "elapsed" not in out
    assert "elapsed" in err


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "fixtures/broken_trias_axiom7.alg"],
    ["cohomology", "fixtures/trias_dim2.alg", "--max-degree", "3"],
    ["verify-system", "--kind", "subsets", "--max-total", "4"],
    ["identities", "fixtures/trias_dim1.alg", "--samples", "52",
     "--seed", "3"],
    ["gerstenhaber", "fixtures/didend_dim1.alg", "--max-degree", "4"],
], ids=lambda argv: argv[0])
def test_stdout_does_not_depend_on_the_hash_seed(argv):
    # each run is a new process, so set and dict orders that follow the
    # hash seed would show here, where one process shares one seed
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "12345"):
        done = subprocess.run(
            [sys.executable, "-m", "lodayops.cli", *argv], cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120)
        assert done.returncode in (0, 1), done.stderr
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]
