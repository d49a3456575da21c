"""IHC profile tables: markdown pipe-table parsing, rendering, extraction.

Parsing is deliberately lenient: model output is frequently malformed
(wrong arity, NA/13-style cells, percent cells), and the pipeline has to
score such tables, not crash on them. Anything recoverable is kept and the
problem is recorded in the table's ``violations`` list with the raw text
preserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Annotated

from .codec import Text
from .domain import MISSING, CellValue, PositivityCount
from .errors import TableNotFoundError

if TYPE_CHECKING:
    from .domain import AbstractRecord
    from .gateway import LlmGateway

_PIPE_SPLIT_RE = re.compile(r"(?<!\\)\|")
_SEPARATOR_CELL_RE = re.compile(r":?-+:?")
_COUNT_RE = re.compile(r"^(\d+)\s*/\s*(\d+)$")
_NA_RE = re.compile(r"^na$", re.IGNORECASE)
_NA_SLASH_RE = re.compile(r"^na\s*/\s*\d+$", re.IGNORECASE)
_QUALIFIER_RE = re.compile(r"^(.*?)\s*\(([^()]*)\)$")
_TYPE_HEADER_RE = re.compile(r"tum(?:o|ou)r[\s_:-]*type", re.IGNORECASE)
_SITE_HEADER_RE = re.compile(r"tum(?:o|ou)r[\s_:-]*site", re.IGNORECASE)


@dataclass(frozen=True)
class MarkerColumn:
    """A marker column header split into base name and optional qualifier."""

    base_marker: str
    qualifier: str | None = None


@dataclass
class ProfileRow:
    tumour_type: str
    tumour_site: Annotated[str | None, _SITE]  # None encodes NA
    cells: dict[str, Annotated[CellValue, _CELL]] = field(default_factory=dict)


@dataclass
class ProfileTable:
    pmid: str
    header: list[str]
    rows: list[ProfileRow]
    violations: list[str] = field(default_factory=list)

    @property
    def marker_columns(self) -> list[str]:
        return self.header[2:]


def _is_na(text: str) -> bool:
    return text.strip() == "" or _NA_RE.match(text.strip()) is not None


# stored as the text a table shows; cell text keeps parse_cell's lenient reading
_SITE = Text(lambda site: "NA" if site is None else site, lambda text: None if _is_na(text) else text)
_CELL = Text(CellValue.render, lambda text: parse_cell(text)[0])


def parse_cell(text: str) -> tuple[CellValue, str | None]:
    """Parse one cell; returns (value, violation-note-or-None).

    "X/Y" with integers -> count; "NA" (any case) or blank -> missing.
    Out-of-range counts are kept (so they can be scored) but noted;
    everything else becomes missing with the raw text preserved in the note.
    Never raises, whatever the input text.
    """
    raw = text.strip()
    if raw == "" or _NA_RE.match(raw):
        return MISSING, None
    if _NA_SLASH_RE.match(raw):
        return MISSING, f"NA numerator in cell {raw!r}"
    m = _COUNT_RE.match(raw)
    try:
        count = PositivityCount(int(m.group(1)), int(m.group(2))) if m else None
    except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
        count = None
    if count is not None:
        if count.total < 1:
            return CellValue(count), f"zero total in cell {raw!r}"
        if count.positives > count.total:
            return CellValue(count), f"positives > total in cell {raw!r}"
        return CellValue(count), None
    return MISSING, f"unparseable cell {raw!r}"


def split_marker_column(raw_name: str) -> MarkerColumn:
    """Split one trailing parenthetical off a marker header, if present."""
    stripped = raw_name.strip()
    m = _QUALIFIER_RE.match(stripped)
    if m and m.group(1).strip():
        qualifier = m.group(2).strip()
        return MarkerColumn(m.group(1).strip(), qualifier or None)
    return MarkerColumn(stripped, None)


def _split_pipe_row(line: str) -> list[str]:
    s = line.strip()
    if s.startswith("|"):
        s = s[1:]
    if s.endswith("|") and not s.endswith("\\|"):
        s = s[:-1]
    return [part.replace("\\|", "|").strip() for part in _PIPE_SPLIT_RE.split(s)]


def _has_pipe(line: str) -> bool:
    return _PIPE_SPLIT_RE.search(line) is not None


def _is_separator(line: str) -> bool:
    if not _has_pipe(line):
        return False
    cells = _split_pipe_row(line)
    return len(cells) > 0 and all(_SEPARATOR_CELL_RE.fullmatch(c) for c in cells)


def _find_table_start(lines: list[str], offset: int = 0) -> int | None:
    for i in range(offset, len(lines) - 1):
        if _has_pipe(lines[i]) and not _is_separator(lines[i]) and _is_separator(lines[i + 1]):
            return i
    return None


def parse_markdown_table(text: str, pmid: str = "") -> ProfileTable:
    """Parse the first well-formed pipe table from a completion.

    Raises TableNotFoundError when no header+separator pair exists; all
    other structural problems are recorded as violations instead.
    """
    lines = text.splitlines()
    start = _find_table_start(lines)
    if start is None:
        raise TableNotFoundError(f"no markdown table found for pmid {pmid or '<unknown>'}")

    violations: list[str] = []
    header = _split_pipe_row(lines[start])
    sep_cells = _split_pipe_row(lines[start + 1])
    if len(sep_cells) != len(header):
        violations.append(
            f"separator has {len(sep_cells)} cells but header has {len(header)}"
        )

    while len(header) < 2:
        header.append("Tumor site" if len(header) == 1 else "Tumor type")
        violations.append("header is missing the tumour type/site columns; padded")

    seen: dict[str, int] = {}
    for idx, name in enumerate(header):
        n = seen.get(name, 0) + 1
        seen[name] = n
        if n > 1:
            header[idx] = f"{name} #{n}"
            violations.append(f"duplicate header column {name!r} renamed to {header[idx]!r}")

    if not _TYPE_HEADER_RE.search(header[0]):
        violations.append(f"first column {header[0]!r} does not look like a tumour-type header")
    if not _SITE_HEADER_RE.search(header[1]):
        violations.append(f"second column {header[1]!r} does not look like a tumour-site header")

    rows: list[ProfileRow] = []
    j = start + 2
    while j < len(lines) and _has_pipe(lines[j]) and not _is_separator(lines[j]):
        cells = _split_pipe_row(lines[j])
        n = len(rows) + 1
        if len(cells) != len(header):
            violations.append(f"row {n}: expected {len(header)} cells, got {len(cells)}")
            cells = cells[: len(header)] + [""] * (len(header) - len(cells))
        tumour_type = cells[0]
        if not tumour_type:
            violations.append(f"row {n}: empty tumour type")
        site_raw = cells[1]
        row_cells: dict[str, CellValue] = {}
        for name, raw in zip(header[2:], cells[2:]):
            value, note = parse_cell(raw)
            if note:
                violations.append(f"row {n}, column {name!r}: {note}")
            row_cells[name] = value
        rows.append(
            ProfileRow(
                tumour_type=tumour_type,
                tumour_site=_SITE.parse(site_raw),
                cells=row_cells,
            )
        )
        j += 1

    if not rows:
        violations.append("empty table")
    if _find_table_start(lines, offset=j) is not None:
        violations.append("multiple tables in completion; only the first was parsed")

    return ProfileTable(pmid=pmid, header=header, rows=rows, violations=violations)


def _escape_cell(text: str) -> str:
    return text.replace("|", "\\|")


def render_markdown(table: ProfileTable) -> str:
    """Canonical pipe-table rendering; parse(render(t)) == t for valid tables."""
    out = ["| " + " | ".join(_escape_cell(h) for h in table.header) + " |"]
    out.append("| " + " | ".join("---" for _ in table.header) + " |")
    for row in table.rows:
        cells = [
            _escape_cell(row.tumour_type),
            _escape_cell(_SITE.render(row.tumour_site)),
        ]
        cells.extend(row.cells.get(name, MISSING).render() for name in table.header[2:])
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def extract_table(record: "AbstractRecord", gateway: "LlmGateway") -> str:
    """One extraction call; returns the completion verbatim for auditing."""
    from .gateway import EXTRACT_TEMPLATE, render_prompt

    return gateway.chat(render_prompt(EXTRACT_TEMPLATE, record, gateway.model_id))
