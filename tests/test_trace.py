"""Packet trace file format."""

import io
import random

import pytest

from lrsc.codec import CodedPacket, Decoder, Encoder, make_lrsc
from lrsc import trace as trace_io

from conftest import random_stream


def _round_trip_messages(code, msgs, erased=()):
    enc = Encoder(code)
    coded = [enc.push(m) for m in msgs]
    buf = io.StringIO()
    trace_io.write_coded_trace(
        buf, code.field, [None if t in erased else p for t, p in enumerate(coded)], code.k)
    buf.seek(0)
    slots = trace_io.read_coded_trace(buf, code.field, code.k, code.n)
    dec = Decoder(code)
    recovered = {}
    for t, syms in enumerate(slots):
        pkt = CodedPacket(t, syms) if syms is not None else None
        for ev in dec.push(t, pkt):
            if ev.recovered:
                recovered[ev.t] = ev.message
    return recovered


def test_message_trace_round_trip():
    code = make_lrsc(2, 4, 2)
    msgs = random_stream(random.Random(1), 3, 3, 12)
    buf = io.StringIO()
    trace_io.write_message_trace(buf, code.field, msgs)
    buf.seek(0)
    assert [m for _, m in trace_io.iter_message_trace(buf, code.field, 3)] == msgs


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
    trace_io.write_coded_trace(buf, code.field, [pkt, None], code.k)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "0 | [1],[2] | [0]"
    assert lines[1] == "1 | ERASED"


def test_malformed_traces_carry_line_numbers():
    code = make_lrsc(2, 5, 2)
    f = code.field
    cases = [
        "0 | [1],[2] | [0]\n1 | [1],[2]\n",              # missing parity section
        "0 | [1],[2] | [0]\n2 | [1],[2] | [0]\n",        # time gap
        "0 | [1],[2] | [0]\n1 | [1],[9] | [0]\n",        # symbol out of range
        "0 | [1],[2] | [0]\nx | [1],[2] | [0]\n",        # bad time token
        "0 | [1],[2],[0] | [0]\n",                       # wrong symbol count
    ]
    for text in cases:
        with pytest.raises(trace_io.TraceError) as exc:
            trace_io.read_coded_trace(io.StringIO(text), f, 2, 3)
        assert "line" in str(exc.value)
    with pytest.raises(trace_io.TraceError) as exc:
        trace_io.read_coded_trace(io.StringIO("0 | [1],[2] | [0]\n1 | [1],[2] junk | [0]\n"), f, 2, 3)
    assert str(exc.value).startswith("line 2")


def test_blank_lines_and_comments_skipped():
    code = make_lrsc(2, 5, 2)
    text = "# header\n\n0 | [1],[2]\n1 | [0],[0]\n"
    msgs = [m for _, m in trace_io.iter_message_trace(io.StringIO(text), code.field, 2)]
    assert msgs == [(1, 2), (0, 0)]


def test_lost_packets_render_as_lost():
    code = make_lrsc(2, 5, 2)
    buf = io.StringIO()
    trace_io.write_message_trace(buf, code.field, [(1, 2), None, (0, 1)])
    assert buf.getvalue().splitlines()[1] == "1 | LOST"
    buf.seek(0)
    assert [m for _, m in trace_io.iter_message_trace(buf, code.field, 2)] == [(1, 2), None, (0, 1)]
