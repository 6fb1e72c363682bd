"""Timed and traced runs of one workload, with the correctness gates.

Everything runs in this process, one call at a time (a closed loop with a
single caller).  ``run_sim``, ``verify_scalar`` and ``verify_stream`` are
called directly; ``sweep`` and its process pool are never used.

The timed run (trace 0) reports the end-to-end metrics.  The traced run
(trace 1) reports the per-layer metrics: it places spans around calls into
``gf``, ``matrix``, ``codec``, ``sim`` and ``oracle`` by rebinding the
names those modules look up, and counts field operations through a field
proxy.  Correctness checks always run outside the timed intervals.

Other tenants of a shared host slow everything, often more than half of
the time, so throughput scales each timed unit by a short reference loop
run next to it, and set-up time by a longer one run after it (NOTES.md).
"""

from __future__ import annotations

import copy
import random
import resource
import statistics
import traceback
from bisect import bisect_left
from collections import Counter
from time import perf_counter

import lrsc.codec
import lrsc.oracle
import lrsc.sim
from lrsc.codec import Decoder, Encoder
from lrsc.gf import make_tower
from lrsc.oracle import verify_scalar, verify_stream
from lrsc.sim import PecChannel, explain_losses, run_sim, splitmix64

from spans import (CodecStats, CountingField, TracedChannel, Tracer, patched, spanned,
                   traced_codec)

SETUP_REPS = 11
# the fields of the workload codes, by make_tower(q, a) arguments
GF_FIELDS = {"GF3": (3, 2), "GF5": (5, 2), "GF16": (4, 3), "GF625": (5, 4)}
MICRO_CALLS = 4096
MICRO_REPS = 7
MAX_PROBLEMS = 20
# untraced/traced chunk pairs of a traced simulation run; bounds the span count
TRACED_PAIRS = 8
# best time of ref_loop on the host the benchmark was tuned on (Intel Xeon,
# 2 vCPUs, CPython 3.11); normalised metrics read as if the host always ran
# at that speed
REF_ITERS = 3000
REF_NOMINAL_S = 0.00048
# the probe timed next to every timed unit: a short ref_loop and its best
# time on the same host
PROBE_ITERS = 200
PROBE_NOMINAL_S = 0.0000285


class Book:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problem: str | None = None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)


def tail(samples):
    """(percentile, value): the highest whole percentile, by nearest rank,
    with at least ten samples above it.  Falls back to the maximum,
    reported as percentile 100, when there are fewer than eleven samples."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, 49, -1):
        idx = -(-p * n // 100) - 1
        if n - 1 - idx >= 10:
            return p, s[idx]
    return 100, s[-1]


def _code_a(code):
    return code.params.a if code.params is not None else code.a


# -- correctness gates --

def check_sim_point(code, point, packets, result) -> list[str]:
    """Replay one run_sim point through Encoder, PecChannel and Decoder with
    the same seeds.  The replay must reproduce the result's loss count and
    delay histogram, every recovered message must equal the one sent, and
    explain_losses must account for every loss."""
    channel = PecChannel(point.eps, point.chan_seed)
    enc, dec = Encoder(code), Decoder(code)
    rng = random.Random(point.msg_seed)
    order, k, tau = code.field.order, code.k, code.tau
    sent = []
    erased = []
    lost = []
    hist = Counter()
    problems = []
    for t in range(packets + tau + 1):
        msg = tuple(rng.randrange(order) for _ in range(k))
        sent.append(msg)
        pkt = enc.push(msg)
        gone = channel.erased(t)
        if gone:
            erased.append(t)
        for ev in dec.push(t, None if gone else pkt):
            if ev.t >= packets:
                continue
            if not ev.recovered:
                lost.append(ev.t)
            else:
                hist[ev.delay] += 1
                if ev.message != sent[ev.t] and len(problems) < 3:
                    problems.append(f"packet {ev.t} recovered with wrong symbols")
    if len(lost) != result.lost:
        problems.append(f"replay lost {len(lost)} packets, run_sim reported {result.lost}")
    if dict(sorted(hist.items())) != result.delay_hist:
        problems.append("replay delay histogram differs from run_sim's")
    # explain_losses scans every erasure per window; only erasures within
    # tau of some loss can fall in a window that covers a loss
    lost.sort()
    near = []
    for e in erased:
        i = bisect_left(lost, e - tau)
        if i < len(lost) and lost[i] <= e + tau:
            near.append(e)
    unexplained = explain_losses(near, lost, _code_a(code), tau)
    if unexplained:
        problems.append(f"{len(unexplained)} unexplained losses, first at t={unexplained[0]}")
    return problems


def check_report(report, suite, spec) -> list[str]:
    problems = []
    if not report.ok:
        problems.append(f"{len(report.failures)} oracle failures, first: {report.failures[0].detail}")
    want = suite.expected_patterns(spec)
    if report.pattern_count != want:
        problems.append(f"pattern_count {report.pattern_count} != closed form {want}")
    return problems


# -- setup --

def build_codes(w):
    return [spec.build() for spec in w.codes]


def traced_setup(w):
    """Construct the codes SETUP_REPS times with spans around tower
    construction, the superregular search and each whole code."""
    tracers = []
    for rep in range(SETUP_REPS):
        tr = Tracer(f"setup.{rep}")
        with patched(lrsc.codec,
                     make_tower=spanned(tr, "gf.tower_build", lrsc.codec.make_tower),
                     superregular_matrix=spanned(tr, "matrix.superregular",
                                                 lrsc.codec.superregular_matrix),
                     is_superregular=spanned(tr, "matrix.superregular",
                                             lrsc.codec.is_superregular)):
            codes = [spanned(tr, "codec.code_build", spec.build)() for spec in w.codes]
        tracers.append(tr)
    per_rep = [tr.totals() for tr in tracers]

    def ms(name):
        return statistics.median(t.get(name, (0, 0.0, 0.0))[1] for t in per_rep) * 1e3
    return codes, tracers, {
        "gf.tower_build_ms": ms("gf.tower_build"),
        "matrix.superregular_ms": ms("matrix.superregular"),
        "codec.code_build_ms": ms("codec.code_build"),
    }


# -- host speed --

def ref_loop(iters=REF_ITERS):
    """Fixed interpreter-bound work that uses nothing from lrsc."""
    table = {}
    acc = 0
    for i in range(iters):
        k = (i * 7919) % 1013
        table[k] = table.get(k, 0) + i
        acc ^= (i * i) % 97
    return acc + len(table)


def ref_sample(n) -> float:
    """Seconds of the fastest of n reference loops run now."""
    best = float("inf")
    for _ in range(n):
        t0 = perf_counter()
        ref_loop()
        best = min(best, perf_counter() - t0)
    return best


def probe() -> float:
    """Seconds of one short reference loop."""
    t0 = perf_counter()
    ref_loop(PROBE_ITERS)
    return perf_counter() - t0


def scaled(dt, before, after) -> float:
    """Seconds ``dt`` of a unit timed between two probes, scaled to the
    nominal host speed by the mean of the probes.  Contention on a shared
    host comes and goes over milliseconds and slows a probe and the unit
    next to it alike, by up to 1.9x, so the scaled time is close to what the
    unit takes on an idle host.  A program change cannot move the probe."""
    return dt * 2 * PROBE_NOMINAL_S / (before + after)


# -- simulation --

class SimRuns:
    """Repeated passes of one run_sim call per point on identical inputs.
    Every call's result is kept and checked after timing."""

    def __init__(self, w, codes, seed):
        self.points = w.points(seed)
        self.codes = codes
        self.packets = w.packets
        self.results = [[] for _ in self.points]

    @property
    def packets_per_chunk(self):
        return self.packets * len(self.points)

    def chunk(self, tracer: Tracer | None = None):
        """One run_sim call per point, with a probe between calls; returns
        the summed call time, raw and scaled to the nominal host speed."""
        total = nominal = 0.0
        before = probe()
        for i, p in enumerate(self.points):
            channel = PecChannel(p.eps, p.chan_seed)
            sid = None
            if tracer is not None:
                channel = TracedChannel(tracer, channel)
                sid = tracer.begin(tracer.name_id("sim.run"))
            t0 = perf_counter()
            try:
                res = run_sim(self.codes[p.code], channel, self.packets, p.msg_seed)
            except Exception:
                res = traceback.format_exc(limit=4)
            dt = perf_counter() - t0
            if sid is not None:
                tracer.finish(sid)
            after = probe()
            total += dt
            nominal += scaled(dt, before, after)
            before = after
            self.results[i].append(res)
        return total, nominal

    def check(self, book: Book) -> None:
        for i, p in enumerate(self.points):
            code = self.codes[p.code]
            where = f"{code.label} eps={p.eps}"
            runs = self.results[i]
            ref = next((r for r in runs if not isinstance(r, str)), None)
            gate = check_sim_point(code, p, self.packets, ref) if ref is not None else []
            for r in runs:
                if isinstance(r, str):
                    book.add(f"{where}: run_sim raised: {r.strip().splitlines()[-1]}")
                elif gate:
                    book.add(f"{where}: {gate[0]}")
                elif r != ref:
                    book.add(f"{where}: result differs from an earlier call on identical inputs")
                else:
                    book.add()


def window_patterns(channel, tau, packets) -> int:
    """Distinct erasure patterns over the trailing 2(tau+1) slots."""
    mask = (1 << (2 * (tau + 1))) - 1
    cur = 0
    seen = set()
    for t in range(packets):
        cur = ((cur << 1) | channel.erased(t)) & mask
        seen.add(cur)
    return len(seen)


def sim_counts(w, codes, seed):
    """Exact counts over one pass of the sim points: field operations per
    message packet, through a counting proxy installed before the Encoder
    and Decoder are built, and distinct trailing erasure patterns."""
    calls = 0
    distinct = 0
    points = w.points(seed)
    for p in points:
        counted = copy.copy(codes[p.code])
        counted.field = CountingField(counted.field)
        run_sim(counted, PecChannel(p.eps, p.chan_seed), w.packets, p.msg_seed)
        calls += counted.field.calls
        distinct += window_patterns(PecChannel(p.eps, p.chan_seed), counted.tau, w.packets)
    return {"gf.ops_per_pkt": calls / (w.packets * len(points)),
            "sim.window_patterns_distinct": distinct}


# -- oracle --

class PatternClock:
    """Times a probe at every decoder construction.  The oracle builds one
    decoder per pattern replay, so the probes split a suite into units of a
    few hundred microseconds, each with a probe just before and just after
    it."""

    def __init__(self):
        marks = self.marks = []     # (probe start, probe seconds)

        class ClockedDecoder(Decoder):
            def __init__(self, code):
                t = perf_counter()
                marks.append((t, probe()))
                Decoder.__init__(self, code)
        self.decoder = ClockedDecoder

    def seconds(self, before, t0, t1, after):
        """(seconds, nominal seconds) of a suite run from t0 to t1, with
        probes ``before`` and ``after`` outside it.  Both leave out the
        probes inside the suite."""
        starts = [t0] + [t + d for t, d in self.marks]
        ends = [t for t, _ in self.marks] + [t1]
        probes = [before] + [d for _, d in self.marks] + [after]
        self.marks.clear()
        units = [e - s for s, e in zip(starts, ends)]
        return sum(units), sum(map(scaled, units, probes, probes[1:]))


class OracleRuns:
    """Repeated runs of the suite list on identical inputs.  Each report is
    checked as it arrives: against its gates, and against the first report
    of the same suite."""

    def __init__(self, w, codes, seed, clock: PatternClock | None = None):
        self.w = w
        self.codes = codes
        self.seed = seed
        self.clock = clock
        self.first = {}             # suite index -> summary of its first report

    def suite(self, i, book: Book, tracer: Tracer | None = None):
        """Run suite i; returns (seconds, stream patterns replayed, nominal
        seconds by the clock, or None without a clock).  With a clock, the
        seconds leave out the probes."""
        s = self.w.suites[i]
        code, spec = self.codes[s.code], self.w.codes[s.code]
        where = f"{s.kind} {s.tag} {spec.label}"
        sid = tracer.begin(tracer.name_id(f"oracle.{s.kind}")) if tracer is not None else None
        if self.clock is not None:
            self.clock.marks.clear()
            before = probe()
        t0 = perf_counter()
        try:
            if s.kind == "scalar":
                rep = verify_scalar(code.weights)
            else:
                rep = verify_stream(code, s.budget, s.deadline, seed=self.seed)
        except Exception:
            rep = traceback.format_exc(limit=4)
        t1 = perf_counter()
        if sid is not None:
            tracer.finish(sid)
        dt, nominal = t1 - t0, None
        if self.clock is not None:
            dt, nominal = self.clock.seconds(before, t0, t1, probe())
        if isinstance(rep, str):
            book.add(f"{where}: raised: {rep.strip().splitlines()[-1]}")
            return dt, 0, nominal
        gate = check_report(rep, s, spec)
        if not gate and self.first.setdefault(i, rep.summary()) != rep.summary():
            gate = ["report differs from an earlier run on identical inputs"]
        book.add(f"{where}: {gate[0]}" if gate else None)
        return dt, rep.pattern_count if s.kind == "stream" else 0, nominal

    def battery(self, book: Book, tick):
        """One pass over every suite, calling ``tick`` after each; returns
        per-suite seconds, the stream patterns replayed and per-suite
        nominal seconds."""
        times, patterns, nominal = [], 0, []
        for i in range(len(self.w.suites)):
            dt, n, nom = self.suite(i, book)
            times.append(dt)
            patterns += n
            nominal.append(nom)
            tick()
        return times, patterns, nominal


# -- microbenchmarks --

def _per_call_ns(fn, args_list):
    samples = []
    for _ in range(MICRO_REPS):
        t0 = perf_counter()
        for args in args_list:
            fn(*args)
        samples.append((perf_counter() - t0) / len(args_list) * 1e9)
    return statistics.median(samples)


def micro(w, seed):
    """Per-call cost of the field operations on operand pairs drawn from the
    seed, and of one channel decision, loop overhead included."""
    rng = random.Random(seed)
    out = {}
    for label, (q, a) in GF_FIELDS.items():
        f = make_tower(q, a)
        pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(MICRO_CALLS)]
        for op in ("add", "sub", "mul"):
            out[f"gf.{op}_ns.{label}"] = _per_call_ns(getattr(f, op), pairs)
    channel = PecChannel(w.eps[-1], splitmix64(seed))
    out["sim.channel_ns"] = _per_call_ns(channel.erased, [(t,) for t in range(MICRO_CALLS)])
    return out


# -- the two runs --

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupTimer:
    """Times SETUP_REPS constructions of the workload's codes, spread over
    the run, each followed by a reference sample that normalises it to the
    nominal host speed.  A construction takes up to a few hundred
    milliseconds, too long for probes next to it to share its contention,
    so the sample is the fastest of five.  Call ``tick`` between timed
    intervals."""

    def __init__(self, w, seconds):
        self.w = w
        self.seconds = seconds
        self.times = []             # raw seconds
        self.refs = []              # reference sample after each rep
        self.normalised = []        # seconds at REF_NOMINAL_S host speed
        self.start = perf_counter()
        self.codes = None
        self.tick()

    def tick(self):
        while (len(self.times) < SETUP_REPS and perf_counter() >=
               self.start + len(self.times) * self.seconds / SETUP_REPS):
            self._rep()

    def _rep(self):
        t0 = perf_counter()
        codes = build_codes(self.w)
        dt = perf_counter() - t0
        self.times.append(dt)
        self.refs.append(ref_sample(5))
        self.normalised.append(dt * REF_NOMINAL_S / self.refs[-1])
        if self.codes is None:
            self.codes = codes

    def median(self):
        while len(self.times) < SETUP_REPS:
            self._rep()
        return statistics.median(self.normalised)


def timed_run(w, seed, seconds):
    """End-to-end metrics, tracing off."""
    book = Book()
    setup = SetupTimer(w, seconds)
    codes = setup.codes
    details = {}

    deadline = perf_counter() + seconds
    if w.primary == "sim":
        runs = SimRuns(w, codes, seed)
        chunks, nominal = [], []
        while True:
            dt, nom = runs.chunk()
            chunks.append(dt)
            nominal.append(nom)
            setup.tick()
            if perf_counter() >= deadline:
                break
        runs.check(book)
        nominal = statistics.median(nominal)
        items = runs.packets_per_chunk / nominal
        details.update(sim_pkt_per_s=runs.packets_per_chunk / statistics.median(chunks),
                       sim_nominal_s=nominal, packets_per_chunk=runs.packets_per_chunk)
    else:
        clock = PatternClock()
        runs = OracleRuns(w, codes, seed, clock)
        batteries = []
        with patched(lrsc.oracle, Decoder=clock.decoder):
            while True:
                batteries.append(runs.battery(book, tick=setup.tick))
                if perf_counter() >= deadline:
                    break
        stream = [i for i, s in enumerate(w.suites) if s.kind == "stream"]
        patterns = batteries[0][1]
        nominal = statistics.median(sum(nom[i] for i in stream) for _, _, nom in batteries)
        items = patterns / nominal
        chunks = [t for times, *_ in batteries for t in times]
        details.update(verify_patterns_per_s=statistics.median(
                           pat / sum(times[i] for i in stream) for times, pat, _ in batteries),
                       verify_nominal_s=nominal,
                       battery_s=statistics.median(sum(times) for times, *_ in batteries),
                       batteries=len(batteries), suites=len(w.suites))
    pct, tail_s = tail(chunks)
    setup_s = setup.median()
    details.update(chunk_ms_p50=statistics.median(chunks) * 1e3, chunk_ms_tail=tail_s * 1e3,
                   chunk_tail_percentile=pct, chunk_samples=len(chunks),
                   setup_ms_reps=[t * 1e3 for t in setup.times],
                   setup_s_raw=statistics.median(setup.times),
                   ref_best_ms=min(setup.refs) * 1e3,
                   host_slowdown=min(setup.refs) / REF_NOMINAL_S)
    metrics = {
        "items_per_s": items,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, details, book, []


def _mean_us(totals, name):
    count, incl, _ = totals.get(name, (0, 0.0, 0.0))
    return incl / count * 1e6 if count else 0.0


def traced_run(w, seed, seconds):
    """Per-layer metrics from spans and counts.  Each part runs alternately
    untraced and traced on identical inputs, chunk by chunk or suite by
    suite, which gives the tracing overhead; the part the workload is not
    about runs once each way as a probe."""
    book = Book()
    codes, setup_tracers, metrics = traced_setup(w)
    metrics.update(micro(w, seed))
    metrics.update(sim_counts(w, codes, seed))

    sim_tr, sim_stats = Tracer("sim"), CodecStats()
    enc, dec = traced_codec(sim_tr, sim_stats, Encoder, Decoder)
    sim_runs = SimRuns(w, codes, seed)
    sim_plain, sim_traced = [], []
    pairs = TRACED_PAIRS if w.primary == "sim" else 1
    deadline = perf_counter() + seconds
    while True:
        sim_plain.append(sim_runs.chunk()[0])
        with patched(lrsc.sim, Encoder=enc, Decoder=dec):
            sim_traced.append(sim_runs.chunk(sim_tr)[0])
        if len(sim_traced) >= pairs or perf_counter() >= deadline:
            break
    sim_runs.check(book)

    or_tr, or_stats = Tracer("oracle"), CodecStats()
    enc, dec = traced_codec(or_tr, or_stats, Encoder, Decoder)
    or_runs = OracleRuns(w, codes, seed)
    plain_times, traced_times, patterns = [], [], 0
    for i in range(len(w.suites)):
        dt, n, _ = or_runs.suite(i, book)
        plain_times.append(dt)
        patterns += n
        with patched(lrsc.oracle, Encoder=enc, Decoder=dec):
            traced_times.append(or_runs.suite(i, book, or_tr)[0])

    sim_tot = sim_tr.totals()
    run_incl = sim_tot["sim.run"][1]
    shares = {name: incl / run_incl for name, (_, incl, _) in sim_tot.items()
              if name != "sim.run"}
    shares["sim.run(self)"] = sim_tot["sim.run"][2] / run_incl
    metrics["sim.self_share"] = shares["sim.run(self)"]

    stream = [i for i, s in enumerate(w.suites) if s.kind == "stream"]
    metrics["oracle.patterns"] = patterns
    metrics["oracle.us_per_pattern"] = sum(plain_times[i] for i in stream) / patterns * 1e6
    metrics["oracle.scalar_ms"] = sum(t for t, s in zip(plain_times, w.suites)
                                      if s.kind == "scalar") * 1e3
    metrics["oracle.pushes_per_pattern"] = or_stats.pushes / or_stats.decoders
    metrics["oracle.replay_useful_ratio"] = or_stats.pushes_useful / or_stats.pushes
    metrics["oracle.pushes_useful"] = or_stats.pushes_useful
    metrics["oracle.pushes_total"] = or_stats.pushes

    if w.primary == "sim":
        own_tot, own_stats = sim_tot, sim_stats
        overhead = statistics.median(sim_traced) / statistics.median(sim_plain)
    else:
        own_tot, own_stats = or_tr.totals(), or_stats
        overhead = sum(traced_times) / sum(plain_times)
    metrics["codec.encode_us"] = _mean_us(own_tot, "codec.encode")
    metrics["codec.decode_us.received"] = _mean_us(own_tot, "codec.decode.received")
    metrics["codec.decode_us.erased"] = _mean_us(own_tot, "codec.decode.erased")
    metrics["codec.rows_max"] = own_stats.rows_max
    metrics["codec.unknowns_max"] = own_stats.unknowns_max
    metrics["bench.trace_overhead"] = overhead

    details = {
        "sim_run_shares": shares,
        "sim_run_accounted": sum(shares.values()),
        "self_ms": {tr.part: {k: v[2] * 1e3 for k, v in tr.totals().items()}
                    for tr in (sim_tr, or_tr)},
        "oracle_decoders": or_stats.decoders,
        "oracle_patterns_closed_form": sum(w.suites[i].expected_patterns(w.codes[w.suites[i].code])
                                           for i in stream),
        "traced_sim_chunks": len(sim_traced),
        "spans": len(sim_tr) + len(or_tr) + sum(len(t) for t in setup_tracers),
    }
    return metrics, details, book, setup_tracers + [sim_tr, or_tr]
