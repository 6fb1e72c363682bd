"""Line-oriented packet trace files.

Message trace:   ``t | s0,s1,...``  or  ``t | LOST``  one line per time step
Coded trace:     ``t | s0,... | p0,...``  or  ``t | ERASED``

Symbols use the field's bracketed GF(p) coefficient form, e.g. "[2,0,1,0]".
Times must be sequential from 0; erasures are explicit lines, never gaps.
"""

from __future__ import annotations

import re

_ELEMENT = re.compile(r"\[[^\[\]]*\]")


class TraceError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _format_symbols(field, symbols):
    return ",".join(field.format_element(s) for s in symbols)


def _parse_symbols(field, text, lineno, expected):
    parts = _ELEMENT.findall(text)
    leftover = _ELEMENT.sub("", text).replace(",", "").strip()
    if leftover:
        raise TraceError(lineno, f"unexpected text {leftover!r} in symbol list")
    if len(parts) != expected:
        raise TraceError(lineno, f"expected {expected} symbols, found {len(parts)}")
    try:
        return tuple(field.parse_element(p) for p in parts)
    except ValueError as e:
        raise TraceError(lineno, str(e)) from None


def _parse_time(token, lineno, expected_t):
    try:
        t = int(token.strip())
    except ValueError:
        raise TraceError(lineno, f"bad time index {token.strip()!r}") from None
    if t != expected_t:
        raise TraceError(lineno, f"expected time {expected_t}, got {t}")
    return t


def write_message_trace(fh, field, messages):
    for t, msg in enumerate(messages):
        if msg is None:
            fh.write(f"{t} | LOST\n")
        else:
            fh.write(f"{t} | {_format_symbols(field, msg)}\n")


def _records(fh):
    """(lineno, '|'-separated fields) of every line that is neither blank
    nor a comment."""
    for lineno, raw in enumerate(fh, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split("|")


def iter_message_trace(fh, field, k):
    """Yields (lineno, symbol tuple) per time step, None for LOST slots."""
    for t, (lineno, parts) in enumerate(_records(fh)):
        if len(parts) != 2:
            raise TraceError(lineno, "expected 't | symbols' or 't | LOST'")
        _parse_time(parts[0], lineno, t)
        if parts[1].strip() == "LOST":
            yield lineno, None
        else:
            yield lineno, _parse_symbols(field, parts[1], lineno, k)


def write_coded_trace(fh, field, packets, k):
    for t, pkt in enumerate(packets):
        if pkt is None:
            fh.write(f"{t} | ERASED\n")
        else:
            msg = _format_symbols(field, pkt.symbols[:k])
            par = _format_symbols(field, pkt.symbols[k:])
            fh.write(f"{t} | {msg} | {par}\n")


def read_coded_trace(fh, field, k, n):
    """Returns a list of symbol tuples with None for erased slots."""
    out = []
    for lineno, parts in _records(fh):
        _parse_time(parts[0], lineno, len(out))
        if len(parts) == 2 and parts[1].strip() == "ERASED":
            out.append(None)
            continue
        if len(parts) != 3:
            raise TraceError(lineno, "expected 't | message | parity' or 't | ERASED'")
        msg = _parse_symbols(field, parts[1], lineno, k)
        par = _parse_symbols(field, parts[2], lineno, n - k)
        out.append(msg + par)
    return out
