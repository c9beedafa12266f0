"""The package's records: read-only fields, report verdicts, and an import
path that loads no ``dataclasses``."""

import subprocess
import sys
from pathlib import Path

import pytest

from lodayops.algebra import AxiomViolation
from lodayops.cohomology import GAlgebraReport
from lodayops.fields import QQ
from lodayops.identities import LawCheck
from lodayops.linalg import column_echelon
from lodayops.preoperadic import Counterexample, SystemReport

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses():
    # dataclasses brings in inspect, ast, dis and tokenize: a large share
    # of the start-up of every CLI call; the process and signal modules
    # serve the identity suite's worker processes and are imported there;
    # typing would add a few ms to each cold start for the record syntax
    banned = ("dataclasses", "inspect", "signal", "subprocess",
              "multiprocessing", "concurrent.futures", "typing")
    code = ("import sys; sys.path.insert(0, %r); "
            "from lodayops import algfile, cli, cochains; "
            "print(*(m for m in %r if m in sys.modules))"
            % (str(SRC), banned))
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


JACOBI = LawCheck("graded-jacobi", (1, 1, 1), True)
CLOSURE = Counterexample("closure", (1, 1), (1, 2), "1", "1", "2")

RECORDS = [
    AxiomViolation(1, "(1)", (0, 0, 0), (1,), (0,)),
    CLOSURE,
    SystemReport("linear", 3, 10, (CLOSURE,)),
    JACOBI,
    GAlgebraReport(3, [JACOBI], {1: 1, 2: 0}),
    column_echelon([{0: 1}, {0: 2}], QQ),
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=[type(r).__name__ for r in RECORDS])
def test_record_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_report_verdicts():
    clean = SystemReport("linear", 3, 10, ())
    assert clean.passed
    failed = SystemReport("linear", 3, 10, (CLOSURE,))
    assert not failed.passed and failed.counterexamples[0] is CLOSURE
    assert GAlgebraReport(3, [JACOBI], {1: 1}).passed
    assert not GAlgebraReport(3, [JACOBI, JACOBI._replace(passed=False)],
                              {1: 1}).passed
