"""Line-oriented definition files for algebras.

Grammar (see README for a complete example):

    # comment                      blank lines and '#' lines are ignored
    type = trias                   dias | didend | trias | tridend | tricub
    field = Q                      Q | Fp:<prime below 2^64>
    dim = 2
    basis = e t                    optional; dim distinct names, no quotes
    op left                        one block per operation, entries below
    1 1 1 1                        i j k coeff:  e_i op e_j += coeff * e_k
    1 2 2 1/2                      indices are 1-based, coeff is int or p/q,
                                   all in ASCII digits without '_'

Any run of whitespace separates ``op`` from its name and the tokens of
an entry.  Comments are whole lines: a '#' after a value is not a comment.
Omitted entries are zero; an omitted operation block is the zero map (a
warning is emitted on stderr).  Values may be quoted.

The parser reads only this grammar; the rules of a valid algebra (type,
dim, basis names, operations, indices) are ``AlgebraSpec``'s, checked after
every syntax fault and reported at the line that gave the refused value.
"""

import codecs
import sys

from . import algebra
from .fields import _ascii_int, field_from_name, parse_scalar


class AlgebraFileError(ValueError):
    """An error at line ``line_no``, or in the whole file if it is None."""

    def __init__(self, line_no, message):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


def _unquote(v):
    v = v.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "'\"":
        return v[1:-1]
    return v


def parse_algebra(text):
    """Parse a definition document into an AlgebraSpec.  Each operation
    block the file omits is taken to be zero, with a warning on stderr."""
    header = {}
    blocks = {}
    current_op = None
    # the line of each value, keyed as SpecError.where names it
    lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split(None, 1)[0] == "op":
            name = _unquote(line[2:])
            if not name:
                raise AlgebraFileError(line_no, "operation block without a name")
            if name in blocks:
                raise AlgebraFileError(line_no, "duplicate operation block %r" % name)
            blocks[name] = []
            lines[(name,)] = line_no
            current_op = name
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if key in ("type", "field", "dim", "basis"):
                if key in header:
                    raise AlgebraFileError(line_no, "duplicate key %r" % key)
                header[key] = _unquote(value)
                lines[key] = line_no
                current_op = None
                continue
            raise AlgebraFileError(line_no, "unknown key %r" % key)
        if current_op is None:
            raise AlgebraFileError(line_no, "entry outside an operation block")
        blocks[current_op].append((line_no, line))

    for key in ("type", "field", "dim"):
        if key not in header:
            raise AlgebraFileError(None, "missing key %r" % key)
    try:
        field = field_from_name(header["field"])
    except ValueError as exc:
        raise AlgebraFileError(lines["field"], str(exc)) from None
    try:
        dim = _ascii_int(header["dim"])
    except ValueError as exc:
        raise AlgebraFileError(lines["dim"],
                               "malformed dim: %s" % exc) from None
    basis = header["basis"].split() if "basis" in header else None

    tables = {}
    for op, entries in blocks.items():
        table = tables[op] = {}
        for line_no, line in entries:
            fieldsplit = line.split()
            if len(fieldsplit) != 4:
                raise AlgebraFileError(
                    line_no, "entry needs 4 tokens (i j k coeff), got %d"
                    % len(fieldsplit))
            try:
                i, j, k = (_ascii_int(t) - 1 for t in fieldsplit[:3])
            except ValueError as exc:
                raise AlgebraFileError(line_no, "malformed basis index: %s"
                                       % exc) from None
            try:
                coeff = parse_scalar(field, fieldsplit[3])
            except (ValueError, ZeroDivisionError) as exc:
                raise AlgebraFileError(line_no, str(exc)) from None
            lines.setdefault((op, i, j), line_no)
            lines.setdefault((op, i, j, k), line_no)
            cell = table.setdefault((i, j), {})
            cell[k] = cell.get(k, 0) + coeff
    try:
        alg = algebra.AlgebraSpec(header["type"], field, dim, basis, tables)
    except algebra.SpecError as exc:
        raise AlgebraFileError(lines[exc.where], str(exc)) from None
    for op in alg.ops:
        if op not in blocks:
            print("warning: operation %r not given; taking it to be zero"
                  % op, file=sys.stderr)
    return alg


def serialize_algebra(alg):
    """Canonical text form; parse(serialize(a)) == a."""
    lines = ["type = %s" % alg.type_tag,
             "field = %s" % alg.field.name,
             "dim = %d" % alg.dim,
             "basis = %s" % " ".join(alg.basis)]
    for op in alg.ops:
        lines.append("op %s" % op)
        for (i, j), row in sorted(alg.tables[op].items()):
            for k, c in sorted(row.items()):
                lines.append("%d %d %d %s" % (i + 1, j + 1, k + 1,
                                              alg.field.to_text(c)))
    return "\n".join(lines) + "\n"


def load_algebra(path):
    with open(path, "rb") as fh:
        # a leading byte order mark is not part of the text; dropped before
        # decoding, so a bad byte's offset still counts the file's newlines
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise AlgebraFileError(data.count(b"\n", 0, exc.start) + 1,
                               "not valid UTF-8") from None
    return parse_algebra(text)
