import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from lodayops import linalg
from lodayops.cli import main


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


def test_compare_differentials_wrong_type(fixture_dir):
    code, out, err = run_cli("compare-differentials", fx(fixture_dir, "didend_dim1"))
    assert code == 2
    assert out == ""
    assert "trias" in err


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


def test_exit_codes_for_bad_input(fixture_dir, tmp_path):
    code, _, err = run_cli("cohomology", str(tmp_path / "missing.alg"))
    assert code == 2
    bad = tmp_path / "bad.alg"
    bad.write_text("type = didend\nfield = Fp:6\ndim = 1\n")
    code, _, err = run_cli("verify-algebra", str(bad))
    assert code == 2
    assert "not prime" in err
    code, _, _ = run_cli("no-such-command")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["cohomology", "FIXTURE", "--max-degree", "0"],
    ["gerstenhaber", "FIXTURE", "--max-degree", "1"],
    ["verify-system", "--kind", "linear", "--max-total", "0"],
    ["compare-differentials", "FIXTURE", "--max-degree", "0"],
    ["identities", "FIXTURE", "--samples", "0"],
    ["verify-system", "--kind", "linear", "--workers", "0"],
    ["verify-system", "--kind", "linear", "--workers", "-2"],
    ["cohomology", "FIXTURE", "--max-degree", "three"],
])
def test_out_of_range_numbers_exit_2(fixture_dir, argv):
    argv = [fx(fixture_dir, "trias_dim1") if a == "FIXTURE" else a
            for a in argv]
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error: argument %s: " % argv[-2] in err


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
    # argparse accepts the prefix --work and the --workers=N form too
    runs = [run_cli("verify-system", "--kind", "linear", "--max-total", "4",
                    *flag)
            for flag in (["--workers", "1"], ["--work", "4"],
                         ["--workers=3"])]
    assert runs[0][:2] == runs[1][:2] == runs[2][:2]
    assert "# command: verify-system --kind linear --max-total 4\n" in \
        runs[0][1]


def test_command_echo_is_canonical(fixture_dir):
    path = fx(fixture_dir, "didend_dim1")
    spelled = [run_cli("cohomology", path, *args)
               for args in ([], ["--max-degree", "3"], ["--max-d=3"])]
    assert spelled[0] == spelled[1] == spelled[2]
    assert spelled[0][1].startswith(
        "# command: cohomology %s --max-degree 3\n" % path)


def _digest(stdout):
    kept = [line for line in stdout.splitlines(keepends=True)
            if not line.startswith("# command:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def test_trias_dim2_representatives_pinned(fixture_dir, tmp_path):
    # sha256 of the report minus its '# command:' line, recorded before the
    # elimination layer was rewritten: the H and REP lines must not move
    path = fx(fixture_dir, "trias_dim2")
    code, out, _ = run_cli("cohomology", path, "--max-degree", "3")
    assert code == 0
    assert _digest(out) == ("72b818249affc5215c6d00cd6c9179e7"
                            "b4bfa5dc5cf00560496567ec05c3d3c7")
    text = open(path, encoding="utf-8").read()
    assert "field = Q\n" in text
    fp = tmp_path / "trias_dim2_fp101.alg"
    fp.write_text(text.replace("field = Q\n", "field = Fp:101\n"))
    code, out, _ = run_cli("cohomology", str(fp), "--max-degree", "3")
    assert code == 0
    assert _digest(out) == ("a5064e6ae5d0b54473b345c60d152bca"
                            "980993d714b8e434f1dbbde8a29d41e8")


def test_scaled_trias_dim2_matrix_dump_pinned(fixture_dir, tmp_path):
    # every structure constant times 2/3: the matrices of d hold p/q
    # entries beside integers; sha256 of the report minus '# command:',
    # recorded while every rational scalar was a Fraction
    lines = []
    for raw in open(fx(fixture_dir, "trias_dim2"), encoding="utf-8"):
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
    # the default ranks come from the row engine on both fields and the
    # cross-check reads the echelon, so a wrong echelon rank must show
    text = open(fx(fixture_dir, "trias_dim2"), encoding="utf-8").read()
    path = tmp_path / "trias_dim2.alg"
    path.write_text(text.replace("field = Q\n", "field = %s\n" % field))
    monkeypatch.setattr(linalg.ColumnEchelon, "rank",
                        property(lambda ech: len(ech.basis) + 1))
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
