"""Line-oriented packet trace files, one grammar for both kinds.

Each time step is a line ``t | group | ...`` with one comma-separated group
of bracketed elements (the field's GF(p) coefficient form, e.g. "[2,0,1,0]")
per entry of ``widths``, or ``t | <gap>``.  A message trace has widths (k,)
and gap LOST; a coded trace (k, n-k) and gap ERASED.  Times are ASCII
decimal, sequential from 0, so a gap is an explicit line, never a skipped
time.  Blank lines and lines starting with ``#`` are skipped.
"""

from __future__ import annotations

import itertools
import re

LOST = "LOST"
ERASED = "ERASED"

_ELEMENT = re.compile(r"\[[^\[\]]*\]")
_GROUP = re.compile(rf"\s*{_ELEMENT.pattern}\s*(?:,\s*{_ELEMENT.pattern}\s*)*")


def _cut(text):
    """Input echoed in an error message: its first 24 characters."""
    return text[:24] + "..." * (len(text) > 24)


class TraceError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")


def read_trace(fh, field, widths, gap):
    """Yields (lineno, symbol tuple) per time step, the groups' symbols in
    order, or (lineno, None) for a gap line."""
    t = 0
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        time, *groups = line.split("|")
        time = time.strip()
        if not (time.isascii() and time.isdigit()):
            raise TraceError(lineno, f"bad time index {_cut(time)!r}")
        if time.lstrip("0") != str(t).lstrip("0"):
            raise TraceError(lineno, f"expected time {t}, got {_cut(time)}")
        t += 1
        if len(groups) == 1 and groups[0].strip() == gap:
            yield lineno, None
            continue
        if len(groups) != len(widths):
            raise TraceError(lineno, f"expected {len(widths)} symbol groups or {gap} after the time")
        symbols = []
        for text, width in zip(groups, widths):
            if not _GROUP.fullmatch(text):
                raise TraceError(lineno, f"expected comma-separated [...] elements, "
                                         f"found {_cut(text.strip())!r}")
            try:
                group = [field.parse_element(e) for e in _ELEMENT.findall(text)]
                field.check(group, width)
            except ValueError as e:
                raise TraceError(lineno, str(e)) from None
            symbols += group
        yield lineno, tuple(symbols)


def write_trace(fh, field, rows, widths, gap):
    """One line per row: its symbols split into groups of ``widths``, or the
    gap word for a None row."""
    bounds = list(itertools.accumulate(widths, initial=0))
    for t, row in enumerate(rows):
        if row is None:
            fh.write(f"{t} | {gap}\n")
            continue
        groups = (",".join(map(field.format_element, row[lo:hi]))
                  for lo, hi in zip(bounds, bounds[1:]))
        fh.write(f"{t} | {' | '.join(groups)}\n")
