"""Packet trace file format."""

import io
import random

import pytest

from lrsc.codec import Decoder, Encoder, make_lrsc
from lrsc import trace as trace_io

from conftest import random_stream


def _message(code):
    return (code.k,), trace_io.LOST


def _coded(code):
    return (code.k, code.n - code.k), trace_io.ERASED


def _read(text, field, widths, gap):
    return [syms for _, syms in trace_io.read_trace(io.StringIO(text), field, widths, gap)]


def _round_trip_messages(code, msgs, erased=()):
    enc = Encoder(code)
    coded = [enc.push(m) for m in msgs]
    buf = io.StringIO()
    trace_io.write_trace(
        buf, code.field, [None if t in erased else p for t, p in enumerate(coded)],
        *_coded(code))
    slots = _read(buf.getvalue(), code.field, *_coded(code))
    dec = Decoder(code)
    recovered = {}
    for t, syms in enumerate(slots):
        for ev in dec.push(t, syms):
            if ev.recovered:
                recovered[ev.t] = ev.message
    return recovered


def test_message_trace_round_trip():
    code = make_lrsc(2, 4, 2)
    msgs = random_stream(random.Random(1), 3, 3, 12)
    buf = io.StringIO()
    trace_io.write_trace(buf, code.field, msgs, *_message(code))
    assert _read(buf.getvalue(), code.field, *_message(code)) == msgs


def test_coded_trace_round_trip_with_erasures():
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(2), 3, 2, 20)
    recovered = _round_trip_messages(code, msgs, erased={7, 9})
    for t in range(18):
        assert recovered[t] == msgs[t]


def test_trace_format_example_line():
    code = make_lrsc(2, 5, 2)
    enc = Encoder(code)
    pkt = enc.push((1, 2))
    buf = io.StringIO()
    trace_io.write_trace(buf, code.field, [pkt, None], *_coded(code))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "0 | [1],[2] | [0]"
    assert lines[1] == "1 | ERASED"


def test_malformed_traces_carry_line_numbers():
    code = make_lrsc(2, 5, 2)
    f = code.field
    good = "0 | [1],[2] | [0]\n"
    cases = [
        good + "1 | [1],[2]\n",                  # missing parity section
        good + "2 | [1],[2] | [0]\n",            # time gap
        good + "1 | [1],[9] | [0]\n",            # symbol out of range
        good + "x | [1],[2] | [0]\n",            # bad time token
        good + "1 | [1],[2],[0] | [0]\n",        # wrong symbol count
        good + "1 | [1],[2] junk | [0]\n",       # text after the symbols
        good + "1 | [1][2] | [0]\n",             # elements without a comma
        good + "1 | ,[1],,[2], | [0]\n",         # stray commas
        "# header\n+0 | [1],[2] | [0]\n",        # signed time
        good + "1 | [1],[2] | [0] | [0]\n",      # extra group
        good + "1 | LOST\n",                     # the message trace's gap word
        good + "1 | [1],[" + "9" * 5000 + "] | [0]\n",     # coefficient far out of range
    ]
    for text in cases:
        with pytest.raises(trace_io.TraceError) as exc:
            _read(text, f, *_coded(code))
        assert str(exc.value).startswith("line 2: "), text


def test_malformed_input_is_echoed_cut_short():
    code = make_lrsc(2, 5, 2)
    good = "0 | [1],[2] | [0]\n"
    huge = "9" * 5000
    cases = [
        (good + huge + "x | [1],[2] | [0]\n", "bad time index"),
        (good + huge + " | [1],[2] | [0]\n", "expected time 1"),
        (good + "1 | [1],[2] " + "j" * 5000 + " | [0]\n", "expected comma-separated"),
        (good + "1 | [1],[" + huge + "x] | [0]\n", "malformed element"),
    ]
    for text, what in cases:
        with pytest.raises(trace_io.TraceError, match=what) as exc:
            _read(text, code.field, *_coded(code))
        assert str(exc.value).startswith("line 2: ") and len(str(exc.value)) < 100, what


def test_blank_lines_and_comments_skipped():
    code = make_lrsc(2, 5, 2)
    text = "# header\n\n0 | [1],[2]\n1 |  [ 0 ] , [0]\n"    # whitespace around elements too
    assert _read(text, code.field, *_message(code)) == [(1, 2), (0, 0)]


def test_lost_packets_render_as_lost():
    code = make_lrsc(2, 5, 2)
    buf = io.StringIO()
    trace_io.write_trace(buf, code.field, [(1, 2), None, (0, 1)], *_message(code))
    assert buf.getvalue().splitlines()[1] == "1 | LOST"
    assert _read(buf.getvalue(), code.field, *_message(code)) == [(1, 2), None, (0, 1)]
