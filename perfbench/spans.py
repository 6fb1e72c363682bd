"""In-memory span recording and the wrappers that place spans around calls
into the lrsc layers from outside the package.

A span is (name, start, end, parent, id); ids are indices into the
recorder's arrays, and parent -1 marks a root.  Spans stay in flat arrays
until the run ends, when ``write`` dumps them as gzipped JSON lines.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, part: str):
        self.part = part
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def __len__(self):
        return len(self.start)

    def totals(self):
        """Per span name: (count, inclusive seconds, self seconds).  Self time
        is a span's duration minus the durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        name, names = self.name, self.names
        for i in range(n):
            d = end[i] - start[i]
            acc = out[names[name[i]]]
            acc[0] += 1
            acc[1] += d
            acc[2] += d - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, fh) -> None:
        """JSON lines: one header naming the fields, then one span per line
        with times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        fh.write(json.dumps({"part": self.part, "fields": ["name", "start_us", "end_us",
                                                          "parent", "id"]}) + "\n")
        names = self.names
        for i in range(len(self.start)):
            fh.write(f'["{names[self.name[i]]}",{(self.start[i] - t0) * 1e6:.3f},'
                     f'{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]},{i}]\n')


def write_spans(path, tracers) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for tr in tracers:
            tr.write(fh)


@contextmanager
def patched(module, **replacements):
    """Temporarily rebind module-level names, restoring them on exit."""
    saved = {k: getattr(module, k) for k in replacements}
    for k, v in replacements.items():
        setattr(module, k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(module, k, v)


def spanned(tracer: Tracer, name: str, fn):
    """``fn`` wrapped in a span."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        sid = tracer.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(sid)
    return wrapper


class CodecStats:
    """Counts taken by the traced encoder/decoder classes."""

    def __init__(self):
        self.decoders = 0           # one per oracle pattern replay
        self.pushes = 0
        self.pushes_useful = 0      # at or after the decoder's first erasure
        self.rows_max = 0
        self.unknowns_max = 0


def traced_codec(tracer: Tracer, stats: CodecStats, encoder_cls, decoder_cls):
    """Subclasses of the codec's Encoder and Decoder whose pushes record
    spans and counts.  The decoder span name says whether the pushed packet
    was received or erased."""
    enc_id = tracer.name_id("codec.encode")
    rec_id = tracer.name_id("codec.decode.received")
    era_id = tracer.name_id("codec.decode.erased")

    class TracedEncoder(encoder_cls):
        def push(self, message):
            sid = tracer.begin(enc_id)
            try:
                return encoder_cls.push(self, message)
            finally:
                tracer.finish(sid)

    class TracedDecoder(decoder_cls):
        def __init__(self, code):
            decoder_cls.__init__(self, code)
            self._first_erasure = None
            stats.decoders += 1

        def push(self, t, packet):
            sid = tracer.begin(era_id if packet is None else rec_id)
            try:
                return decoder_cls.push(self, t, packet)
            finally:
                tracer.finish(sid)
                stats.pushes += 1
                if packet is None and self._first_erasure is None:
                    self._first_erasure = t
                if self._first_erasure is not None:
                    stats.pushes_useful += 1
                if len(self.rows) > stats.rows_max:
                    stats.rows_max = len(self.rows)
                if len(self.unknowns) > stats.unknowns_max:
                    stats.unknowns_max = len(self.unknowns)

    return TracedEncoder, TracedDecoder


class TracedChannel:
    """Channel wrapper whose ``erased`` records a span per call."""

    def __init__(self, tracer: Tracer, channel):
        self.eps = channel.eps
        self.erased = spanned(tracer, "sim.channel", channel.erased)


class CountingField:
    """Field proxy counting the add/sub/mul/inv calls the codec makes."""

    def __init__(self, field):
        self._field = field
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._field, name)

    def add(self, x, y):
        self.calls += 1
        return self._field.add(x, y)

    def sub(self, x, y):
        self.calls += 1
        return self._field.sub(x, y)

    def mul(self, x, y):
        self.calls += 1
        return self._field.mul(x, y)

    def inv(self, x):
        self.calls += 1
        return self._field.inv(x)
