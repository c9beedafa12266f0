"""Command-line interface.

Report grammar (stdout): lines starting with '#' are metadata, result lines
are 'CHECK <id> PASS|FAIL', data lines are space-separated key tuples
('H <n> <dim>', 'REP <degree> <index> <entries>').  Reports are
byte-identical across runs for fixed inputs and --seed; timing goes to
stderr.

Exit status, set by ``main`` alone: 0 when every check passes, 1 when a
check fails, 2 on bad input.  Handlers only write the report.  Bad input is
refused before the report is printed, so a refused command prints no report,
only ``error: <message>`` on stderr.  A failed ``pi o pi = 0`` check ends
the command, with its FAIL line as the report's last.
"""

import argparse
import random
import sys
import time

from . import algebra, cohomology, identities
from .algfile import AlgebraFileError, load_algebra
from .cochains import (Cochain, MultContext, canonical_multiplication, circ,
                       delta_trias)
from .fields import _ascii_int, _at_least
from .params import KINDS, TREE_KINDS, enumerate_params, param_text
from .preoperadic import AXIOM_IDS, scan_instances, verify_system

# the largest law scan verify-system runs; a larger one is refused (exit 2)
MAX_SCAN_INSTANCES = 5_000_000
# the most cochain cells (50-70 bytes each) identities draws; more exit 2
MAX_IDENTITY_CELLS = 5_000_000


class Report:
    def __init__(self):
        self.lines = []
        self.failed = False

    def meta(self, text):
        self.lines.append("# %s" % text)

    def data(self, *tokens):
        self.lines.append(" ".join(str(t) for t in tokens))

    def check(self, check_id, ok):
        self.lines.append("CHECK %s %s" % (check_id, "PASS" if ok else "FAIL"))
        if not ok:
            self.failed = True

    def emit(self, stream):
        for line in self.lines:
            print(line, file=stream)


class _Refused(Exception):
    """Bad input: the command prints no report and exits 2."""


class _Stopped(Exception):
    """A failed check, already in the report, ends the command."""


def _context(alg, report):
    """MultContext; if pi o pi != 0, the failed check ends the command."""
    try:
        return MultContext(alg)
    except ValueError:
        report.check("multiplication-square-zero", False)
        raise _Stopped from None


def _command_text(ns):
    """The parsed command in one canonical spelling: the subcommand, then
    each argument in declaration order, options as '--name value' (flags
    only when set).  Options with a suppressed default, such as
    ``--workers``, which affects scheduling only, are left out, so every
    accepted spelling of a command echoes the same line."""
    words = [ns.command]
    for action in ns.parser._actions:
        if action.default == argparse.SUPPRESS:
            continue
        value = getattr(ns, action.dest)
        if not action.option_strings:
            words.append(str(value))
        elif action.nargs == 0:
            if value:
                words.append(action.option_strings[0])
        else:
            words += [action.option_strings[0], str(value)]
    return " ".join(words)


def _describe(report, ns):
    """Write the command line; for a command on an algebra file, load the
    file, write its algebra line and return the algebra."""
    report.meta("command: %s" % _command_text(ns))
    path = getattr(ns, "file", None)
    if path is None:
        return None
    try:
        alg = load_algebra(path)
    except OSError as exc:
        raise _Refused(exc) from None
    except AlgebraFileError as exc:
        raise _Refused("%s: %s" % (path, exc)) from None
    report.meta("algebra: type=%s field=%s dim=%d" %
                (alg.type_tag, alg.field.name, alg.dim))
    return alg


def cmd_verify_system(ns, report):
    size = scan_instances(ns.kind, ns.max_total, MAX_SCAN_INSTANCES)
    if size > MAX_SCAN_INSTANCES:
        raise _Refused("verify-system --kind %s --max-total %d checks at "
                       "least %d law instances, over the limit of %d"
                       % (ns.kind, ns.max_total, size, MAX_SCAN_INSTANCES))
    _describe(report, ns)
    sysrep = verify_system(ns.kind, ns.max_total)
    report.meta("kind=%s max-total=%d checked=%d" %
                (ns.kind, ns.max_total, sysrep.checked))
    failed_axioms = {c.axiom for c in sysrep.counterexamples}
    for axiom in AXIOM_IDS:
        report.check("pre-operadic-%s" % axiom, axiom not in failed_axioms)
    for c in sysrep.counterexamples[:20]:
        report.data("COUNTEREXAMPLE", c.axiom, "outer=%s" % (c.outer,),
                    "inner=%s" % (c.inner,), "element=%s" % c.element,
                    "expected=%s" % c.expected, "actual=%s" % c.actual)


def cmd_verify_algebra(ns, report):
    alg = _describe(report, ns)
    violations = algebra.verify_axioms(alg)
    report.check("algebra-axioms", not violations)
    for v in violations[:20]:
        report.data("VIOLATION", "axiom=%d" % v.index, "triple=%s" % (v.triple,),
                    '"%s"' % v.label)
    pi = canonical_multiplication(alg)
    pipi = circ(pi, pi)
    report.check("multiplication-square-zero", pipi.is_zero())
    if not pipi.is_zero():
        bad = sorted({u for u, _, _, _ in pipi.entries()})
        elems = enumerate_params(alg.kind, 3)
        report.data("NONZERO-AT",
                    " ".join(param_text(alg.kind, elems[u]) for u in bad))


def cmd_cohomology(ns, report):
    alg = _describe(report, ns)
    report.meta("convention: H^1 = ker d^1 (there are no degree-0 cochains)")
    ctx = _context(alg, report)
    dims = cohomology.cohomology_dims(ctx, ns.max_degree)
    # the row engine's dimensions against the echelon's class counts
    reps = {n: cohomology.cocycle_representatives(ctx, n) for n, _ in dims}
    report.check("rank-engines-agree",
                 all(dim == len(reps[n]) for n, dim in dims))
    for n, dim in dims:
        report.data("H", n, dim)
    for n, _ in dims:
        elems = enumerate_params(alg.kind, n)
        for idx, rep in enumerate(reps[n], 1):
            entries = []
            for u_idx, tup, out, c in rep.entries():
                entries.append("(%s;%s->%s)=%s" % (
                    param_text(alg.kind, elems[u_idx]),
                    ",".join(alg.basis[b] for b in tup),
                    alg.basis[out], alg.field.to_text(c)))
            report.data("REP", n, idx, " ".join(entries) if entries else "0")
    if ns.dump_matrices:
        for n in range(1, ns.max_degree + 1):
            m = cohomology.matrix_of_d(ctx, n)
            triples = m.entries
            report.meta("matrix of d^%d: %d x %d, %d entries"
                        % (n, m.nrows, m.ncols, len(triples)))
            for r, c, v in triples:
                report.data("MATRIX", n, r, c, alg.field.to_text(v))


def cmd_compare_differentials(ns, report):
    alg = _describe(report, ns)
    if alg.kind not in TREE_KINDS:
        raise _Refused("compare-differentials requires a dias or trias "
                       "algebra")
    ctx = _context(alg, report)
    for n in range(1, ns.max_degree + 1):
        # the matrix that cohomology eliminates, against delta of each
        # basis cochain: the two routes share no code
        ok = True
        for col, cells in enumerate(cohomology.matrix_of_d(ctx, n).columns):
            rhs = delta_trias(alg, Cochain(alg, n, {col: 1}))
            if (n + 1) % 2 == 1:
                rhs = -rhs
            if cells != rhs.cells:
                ok = False
        report.check("d-matches-delta-degree-%d" % n, ok)


def _law_lines(report, laws, checks, label):
    """Per law: its number of LawChecks, its CHECK line, and a FAILED-AT
    line per failed instance, giving its pattern as ``label=``."""
    for law in laws:
        instances = [c for c in checks if c.law == law]
        report.meta("%s: %d instances" % (law, len(instances)))
        report.check(law, all(c.passed for c in instances))
        for c in instances:
            if not c.passed:
                report.data("FAILED-AT", law, "%s=%s" % (label, c.pattern))


def cmd_gerstenhaber(ns, report):
    alg = _describe(report, ns)
    ctx = _context(alg, report)
    g = cohomology.check_g_algebra(ctx, ns.max_degree)
    for n in sorted(g.reps_per_degree):
        report.data("CLASSES", n, g.reps_per_degree[n])
    _law_lines(report, cohomology.G_LAWS, g.checks, "degrees")


def cmd_identities(ns, report):
    alg = _describe(report, ns)
    cells = identities.drawn_cells(alg, ns.samples)
    if cells > MAX_IDENTITY_CELLS:
        raise _Refused("identities --samples %d draws %d cochain cells, "
                       "over the limit of %d"
                       % (ns.samples, cells, MAX_IDENTITY_CELLS))
    report.meta("samples=%d seed=%d" % (ns.samples, ns.seed))
    ctx = _context(alg, report)
    checks = identities.run_identity_suite(ctx, random.Random(ns.seed),
                                           ns.samples)
    _law_lines(report, sorted({c.law for c in checks}), checks, "pattern")


def _integer(text):
    """argparse type: an integer in ASCII digits (``fields._ascii_int``);
    anything else exits 2."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid integer: %r" % text) from None


def _int_at_least(low):
    """argparse type: an integer >= low, judged by the library's judge
    (``fields._at_least``); anything else exits 2."""
    def parse(text):
        try:
            return _at_least(_integer(text), low, "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lodayops", allow_abbrev=False,
        description="verify and compute the operadic structure on "
                    "cochains of Loday algebras")
    # every option parses under its full name only, never a prefix of it
    sub = parser.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(allow_abbrev=False, **kw)))

    p = sub.add_parser("verify-system",
                       help="exhaustively check the structure-function laws")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--max-total", type=_int_at_least(1), default=5)
    # accepted and validated for compatibility; the scan runs in one thread
    p.add_argument("--workers", type=_int_at_least(1),
                   default=argparse.SUPPRESS)
    p.set_defaults(run=cmd_verify_system, parser=p)

    p = sub.add_parser("verify-algebra",
                       help="check the defining axioms and pi o pi = 0")
    p.add_argument("file")
    p.set_defaults(run=cmd_verify_algebra, parser=p)

    p = sub.add_parser("cohomology", help="dimensions and representatives")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_int_at_least(1), default=3)
    p.add_argument("--dump-matrices", action="store_true",
                   help="dump each differential as coordinate triplets")
    p.set_defaults(run=cmd_cohomology, parser=p)

    p = sub.add_parser("compare-differentials",
                       help="entrywise check d = (-1)^(n+1) delta "
                            "(dias, trias)")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_int_at_least(1), default=3)
    p.set_defaults(run=cmd_compare_differentials, parser=p)

    p = sub.add_parser("gerstenhaber",
                       help="check the induced laws on cohomology")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_int_at_least(2), default=4)
    p.set_defaults(run=cmd_gerstenhaber, parser=p)

    p = sub.add_parser("identities",
                       help="randomised brace / homotopy identity suites")
    p.add_argument("file")
    p.add_argument("--samples", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(run=cmd_identities, parser=p)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    report = Report()
    started = time.monotonic()
    try:
        try:
            ns.run(ns, report)
        except _Stopped:
            pass    # the failed check that ended it is in the report
    except _Refused as exc:
        print("error: %s" % exc, file=sys.stderr)
        status = 2
    else:
        report.emit(sys.stdout)
        status = 1 if report.failed else 0
    print("# elapsed %.2fs" % (time.monotonic() - started), file=sys.stderr)
    return status


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
