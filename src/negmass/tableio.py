"""CSV emission and parsing with bit-exact float round-tripping.

Tables are rectangular; floats render with repr-faithful 17 significant
digits, absent values as the literal token NA, and rows end with Unix
newlines.  Nothing time- or environment-dependent ever enters a table,
so identical runs produce identical bytes.  ``read_csv`` parses the
same format back.
"""

from __future__ import annotations

from .errors import ValidationError

NA = "NA"


def format_cell(value) -> str:
    if value is None:
        return NA
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if v != v:  # NaN is never a legal table value
        raise ValidationError("NaN cannot be written to a table; use None -> NA")
    return format(v, ".17g")


def render_rows(header, rows) -> str:
    width = len(header)
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(f"row {i} has {len(row)} cells, expected {width}")
        lines.append(",".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    text = render_rows(header, rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def parse_cell(text: str):
    if text == NA:
        return None
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    """Parse a table: (header, rows) with floats/None/strings.

    It reads profile files, and tests read the emitted tables back with it.
    Lines are stripped of surrounding white space (so CRLF reads as LF), and
    blank lines are skipped.  A file that is not UTF-8 raises ValidationError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() != ""]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: byte {exc.start}") from None
    if not lines:
        raise ValidationError("empty table")
    header = lines[0].split(",")
    rows = [[parse_cell(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, rows
