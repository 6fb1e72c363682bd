"""Sliding-window decoder: deadlines, recovery delays, best-effort behavior."""

import contextlib
import copy
import functools
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import lrsc
from lrsc.codec import DecodeError, Decoder, Encoder, MdsDeCode, make_lrsc

from conftest import (check_decoder_invariants, missing, pinned_coordinates, pushes_through, random_stream,
                      records)


def _coded(code, msgs):
    enc = Encoder(code)
    return [enc.push(m) for m in msgs]


def _drive(code, coded, erased, upto=None):
    dec = Decoder(code)
    events = []
    for t in range(len(coded) if upto is None else upto):
        events.extend(dec.push(t, None if t in erased else coded[t]))
    return dec, events


def test_clean_stream_all_delay_zero():
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(0), 3, 2, 20)
    _, events = _drive(code, _coded(code, msgs), set())
    assert len(events) == 20
    for ev in events:
        assert ev.recovered and ev.delay == 0
        assert ev.message == msgs[ev.t]


def test_single_erasure_meets_locality_deadline():
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(1), 3, 2, 24)
    _, events = _drive(code, _coded(code, msgs), {9})
    ev = next(e for e in events if e.t == 9)
    assert ev.recovered and ev.delay == 2
    assert ev.message == msgs[9]


def test_double_erasure_adjacent():
    # the two-erasure worked example: delays are 5 for the first packet
    # (needs both stripped parities) and 4 for the second
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(2), 3, 2, 24)
    _, events = _drive(code, _coded(code, msgs), {9, 10})
    ev9 = next(e for e in events if e.t == 9)
    ev10 = next(e for e in events if e.t == 10)
    assert (ev9.recovered, ev9.delay, ev9.message) == (True, 5, msgs[9])
    assert (ev10.recovered, ev10.delay, ev10.message) == (True, 4, msgs[10])


@pytest.mark.parametrize("theta", [1, 2, 3, 4, 5])
def test_double_erasure_all_gaps(theta):
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(3), 3, 2, 26)
    _, events = _drive(code, _coded(code, msgs), {9, 9 + theta})
    ev = next(e for e in events if e.t == 9)
    assert ev.recovered and ev.delay <= 5 and ev.message == msgs[9]
    if theta >= 3:
        assert ev.delay <= 2


def test_out_of_order_push_rejected():
    code = make_lrsc(2, 5, 2)
    dec = Decoder(code)
    msgs = random_stream(random.Random(4), 3, 2, 4)
    coded = _coded(code, msgs)
    dec.push(0, coded[0])
    with pytest.raises(ValueError):
        dec.push(2, coded[2])
    with pytest.raises(ValueError):
        dec.push(0, coded[0])


def test_beyond_guarantee_burst():
    # three erasures against a budget of two: packets 9 and 10 are lost at
    # their deadlines, 11 comes back inside the deadline, later packets are
    # untouched, and no packet gets a second outcome
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(5), 3, 2, 30)
    dec, events = _drive(code, _coded(code, msgs), {9, 10, 11})
    by_t = {}
    for ev in events:
        assert ev.t not in by_t, "duplicate outcome"
        by_t[ev.t] = ev
    assert not by_t[9].recovered
    assert not by_t[10].recovered
    assert by_t[11].recovered and by_t[11].delay == 5 and by_t[11].message == msgs[11]
    for t in range(12, 24):
        assert by_t[t].recovered and by_t[t].delay == 0
    check_decoder_invariants(dec)


def test_late_resolution_strips_for_later_packets():
    # while the burst's records stay in the window, the decoder keeps
    # resolving their unknowns from later parities; after every push the
    # records must hold correct values wherever they resolved them
    code = make_lrsc(2, 5, 2)
    msgs = random_stream(random.Random(6), 3, 2, 30)
    coded = _coded(code, msgs)
    dec = Decoder(code)
    burst, resolved = {9, 10, 11}, set()
    for now in range(30):
        dec.push(now, None if now in burst else coded[now])
        for t, record in records(dec).items():
            for j, val in enumerate(record):
                if val is not None:
                    assert val == msgs[t][j], (now, t, j)
                    if t in burst:
                        resolved.add((t, j))
    assert resolved


def test_random_in_guarantee_patterns_all_codes():
    cases = [make_lrsc(2, 5, 2), make_lrsc(2, 4, 2), make_lrsc(3, 7, 2), MdsDeCode(2, 5)]
    for code in cases:
        a, tau = (code.params.a, code.tau) if code.params else (code.a, code.tau)
        rng = random.Random(7)
        msgs = random_stream(rng, code.field.order, code.k, 60)
        coded = _coded(code, msgs)
        for trial in range(8):
            # erasures spaced so every tau+1 window holds at most a of them
            erased = set()
            t = rng.randrange(3, 8)
            while t < 50:
                erased.add(t)
                t += (tau + 1) if len(erased) % a == 0 else rng.randrange(1, tau + 1)
            dec, events = _drive(code, coded, erased)
            got = {e.t: e for e in events}
            for t in sorted(erased):
                window = sum(1 for e in erased if t <= e <= t + tau) + \
                    sum(1 for e in erased if t - tau <= e < t)
                ev = got.get(t)
                if ev is None:
                    continue      # tail packet, deadline past the drive range
                if window <= a and ev.recovered:
                    assert ev.delay <= tau and ev.message == msgs[t]


def test_received_message_is_the_tuple_the_encoder_sent():
    code = make_lrsc(2, 5, 2)
    pkt = Encoder(code).push([1, 2])
    for sent in (pkt, list(pkt)):
        [ev] = Decoder(code).push(0, sent)
        assert ev.message == pkt[:code.k] and type(ev.message) is tuple


def test_decoder_packet_shape_validation():
    # a refused packet leaves the decoder as it was, so the same time can be
    # pushed again; it took its time slot and left no record, and the next
    # parity read raised DecodeError
    code = make_lrsc(2, 5, 2)
    coded = _coded(code, random_stream(random.Random(4), 3, 2, 12))
    dec, _ = _drive(code, coded, {3}, upto=5)
    before = copy.deepcopy(_state(dec))
    for syms in [(1, 2), (7, 1, 0), (1, "x", 0)]:      # 7 is outside GF(3), "x" is no element
        with pytest.raises(ValueError):
            dec.push(5, syms)
        assert _state(dec) == before
    replay = [ev for t in range(5, 12) for ev in dec.push(t, coded[t])]
    assert replay == _drive(code, coded, {3})[1][-len(replay):]


@pytest.mark.parametrize("packet", [5, 1.5, iter((1, 2, 0))], ids=["int", "float", "iterator"])
def test_decoder_refuses_a_packet_with_no_length(packet):
    # each raised a bare TypeError from len(); refused, it leaves the
    # decoder as it was
    code = make_lrsc(2, 5, 2)
    coded = _coded(code, random_stream(random.Random(4), 3, 2, 2))
    dec = Decoder(code)
    dec.push(0, coded[0])
    before = copy.deepcopy(_state(dec))
    with pytest.raises(ValueError, match="expected a sequence of 3 symbols"):
        dec.push(1, packet)
    assert _state(dec) == before
    assert dec.push(1, coded[1])[0].message == coded[1][:2]


def test_push_rejects_a_time_that_is_not_an_int():
    # True == 1 and 0.0 == 0, yet neither is a time: each is refused before
    # it settles a packet or keys a record
    code = make_lrsc(2, 5, 2)
    coded = _coded(code, random_stream(random.Random(3), 3, 2, 2))
    dec = Decoder(code)
    with pytest.raises(ValueError, match="got t=0.0"):
        dec.push(0.0, coded[0])
    assert dec.push(0, coded[0])[0].t.__class__ is int
    for bad in (True, type("Time", (int,), {})(1)):
        with pytest.raises(ValueError, match="as ints"):
            dec.push(bad, coded[1])
    assert dec.next_t == 1 and list(records(dec)) == [0]


@pytest.mark.parametrize("make", [lambda: make_lrsc(2, 5, 2), lambda: MdsDeCode(2, 5)],
                         ids=["lrsc-2-5-2", "mds-de-2-5"])
@pytest.mark.parametrize("at", [0, 30])
def test_corrupted_parity_on_a_clean_stream_raises(make, at):
    # every received packet's parities are read and checked, with no erasure
    # anywhere in the stream
    code = make()
    coded = _coded(code, random_stream(random.Random(5), code.field.order, code.k, at + 1))
    dec = Decoder(code)
    for t in range(at):
        dec.push(t, coded[t])
    f = code.field
    bad = coded[at][:-1] + (f.add(coded[at][-1], 1),)
    with pytest.raises(DecodeError, match="received parity inconsistent"):
        dec.push(at, bad)


@pytest.mark.parametrize("make", [lambda: make_lrsc(2, 5, 2), lambda: make_lrsc(3, 8, 2),
                                  lambda: MdsDeCode(2, 5)], ids=["lrsc-2-5-2", "lrsc-3-8-2", "mds-de-2-5"])
def test_a_decode_error_refuses_the_packet(make):
    # at each received packet while something is unresolved, a fork takes
    # the packet with every parity corrupted; where that raises DecodeError
    # the fork is as it was, and pushing the same time as an erasure, then
    # the rest of the stream, gives what a decoder that saw the erasure
    # from the start gives
    code = make()
    f, k, end = code.field, code.k, 40
    rng = random.Random(29)
    coded = _coded(code, random_stream(rng, f.order, k, end))
    erased = {t for t in range(end) if rng.random() < 0.3}
    dec, raised = Decoder(code), 0
    for t in range(end):
        if missing(dec) and t not in erased:
            fork = dec.fork()
            before = copy.deepcopy(_state(fork))
            try:
                fork.push(t, coded[t][:k] + tuple(f.add(s, 1) for s in coded[t][k:]))
            except DecodeError:
                raised += 1
                assert _state(fork) == before, t
                check_decoder_invariants(fork)
                stream = [None if u in erased or u == t else coded[u] for u in range(end)]
                ref, want = Decoder(code), []
                for u in range(end):
                    out = ref.push(u, stream[u])
                    want += out if u >= t else []
                got = [ev for u in range(t, end) for ev in fork.push(u, stream[u])]
                assert got == want and _state(fork) == _state(ref), t
                check_decoder_invariants(fork)
        dec.push(t, None if t in erased else coded[t])
    assert raised


def test_inconsistent_parity_raises_under_optimize():
    # the check must not be an assert: run it with python -O
    script = textwrap.dedent("""
        import random
        from lrsc.codec import DecodeError, Decoder, Encoder, make_lrsc
        code = make_lrsc(2, 5, 2)
        enc, dec = Encoder(code), Decoder(code)
        rng = random.Random(0)
        coded = [enc.push((rng.randrange(3), rng.randrange(3))) for _ in range(21)]
        for t in range(20):
            dec.push(t, None if t in (9, 10, 11) else coded[t])
        bad = coded[20][:2] + ((coded[20][2] + 1) % 3,)
        try:
            dec.push(20, bad)
        except DecodeError as e:
            print("DecodeError:", e)
    """)
    res = _run_optimized(script)
    assert res.returncode == 0, res.stderr
    assert "DecodeError: received parity inconsistent" in res.stdout


def test_miscounted_enumeration_raises_under_optimize():
    # the oracle's enumeration checks must not be asserts either: the
    # closed-form counts, a walk that settles nothing, a walk that yields
    # one node twice in place of another, and a walk whose nodes overlap
    # though their counts sum to the total, so only the prefix test can
    # catch it
    script = textwrap.dedent("""
        import math, types
        import lrsc.oracle as oracle
        from lrsc.codec import make_lrsc
        # one pattern too many per binomial: at budget 2 and deadline 2 the
        # total sums two of them, anchor 0's three node counts five
        oracle.math = types.SimpleNamespace(comb=lambda n, k: math.comb(n, k) + 1)
        code = make_lrsc(2, 5, 2)
        for check in (lambda: oracle.verify_scalar(code.weights),
                      lambda: oracle.verify_stream(code, 2, 2)):
            try:
                check()
            except RuntimeError as e:
                print("RuntimeError:", e)
        oracle.math = math
        walk = oracle.walk

        def twice(*args):
            nodes = list(walk(*args))
            return iter(nodes[:-1] + nodes[:1])

        def overlap(*args):
            # anchor 0 settles at 2, where its forks at 1 and 2 settle too;
            # settled at 1 it stands for (0,) and (0, 2), so the fork at 2
            # shares a pattern, and the fork at 1 goes to keep the count
            (root, t, got), fork, _ = walk(*args)
            return iter([(root, t - 1, got), fork])

        for fake, budget in ((lambda *args: iter(()), 1), (twice, 2), (overlap, 2)):
            oracle.walk = fake
            try:
                oracle.verify_stream(code, budget, 2)
            except RuntimeError as e:
                print("RuntimeError:", e)
    """)
    res = _run_optimized(script)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "RuntimeError: enumerated 15 patterns, expected 16",
        "RuntimeError: enumerated 7 patterns at anchor 0, expected 5",
        "RuntimeError: enumerated 0 patterns at anchor 0, expected 1",
        "RuntimeError: walk settled (0,) twice at anchor 0",
        "RuntimeError: walk node (0, 2) overlaps (0,), settled at 1, at anchor 0",
    ], res.stdout


def _run_optimized(script):
    src = os.path.dirname(os.path.dirname(lrsc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)


def test_unknown_retention_horizon_prunes():
    # after every push the records, unknowns and rows lie in the last tau+1
    # times: a packet leaves the window at its deadline, lost or not
    code = make_lrsc(2, 5, 2)
    tau = code.tau
    msgs = random_stream(random.Random(8), 3, 2, 140)
    coded = _coded(code, msgs)
    dec = Decoder(code)
    # a hopeless burst wider than the budget, then a long clean run
    erased = set(range(10, 16))
    lost, with_rows = [], 0
    for t in range(140):
        lost += [ev.t for ev in dec.push(t, None if t in erased else coded[t]) if not ev.recovered]
        assert all(u >= t - tau for (u, _) in dec.unknowns | {divmod(p, dec.k) for p in dec.rows}), t
        check_decoder_invariants(dec)
        with_rows += bool(dec.rows)
    assert lost and with_rows and not missing(dec) and not dec.rows


def test_long_regime_decoding():
    code = make_lrsc(2, 7, 2)
    assert code.params.regime == "long"
    msgs = random_stream(random.Random(9), 3, 2, 30)
    coded = _coded(code, msgs)
    _, events = _drive(code, coded, {9, 12})
    ev = next(e for e in events if e.t == 9)
    assert ev.recovered and ev.delay <= 7 and ev.message == msgs[9]


_CODES = {"lrsc-2-5-2": lambda: make_lrsc(2, 5, 2),       # exact
          "lrsc-3-7-2": lambda: make_lrsc(3, 7, 2),       # short
          "lrsc-2-6-2": lambda: make_lrsc(2, 6, 2),       # long
          "mds-de-2-5": lambda: MdsDeCode(2, 5)}


@functools.cache
def _code(name):
    return _CODES[name]()


def _dense_pinned(code, coded, erased, now):
    """Erased symbols (t, j), t <= now, that the parities received up to now
    pin, with their values: one dense system over all of them, no window."""
    cols = [(t, j) for t in sorted(erased) if t <= now for j in range(code.k)]
    index = {sid: c for c, sid in enumerate(cols)}
    f = code.field
    rows, rhs = [], []
    for s in range(now + 1):
        if s in erased:
            continue
        for i, template in enumerate(code.templates):
            row = [0] * len(cols)
            b = coded[s][code.k + i]
            for j, d, c in template:
                if d > s:
                    continue
                sid = (s - d, j)
                if sid in index:
                    row[index[sid]] = f.add(row[index[sid]], c)
                else:
                    b = f.sub(b, f.mul(c, coded[s - d][j]))
            if any(row):
                rows.append(row)
                rhs.append(b)
    if not rows:
        return {}
    return {cols[c]: v for c, v in pinned_coordinates(f, rows, rhs).items()}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_CODES)),
       seed=st.integers(0, 2 ** 32 - 1),
       erased=st.sets(st.integers(0, 47), max_size=10),
       transient=st.booleans())
def test_hypothesis_decoder_matches_dense_reference(name, seed, erased, transient):
    # every move is computed from a state's coefficients alone and every
    # push replays its plan on values, so the dense system over every
    # erased symbol is the reference for both.  With a state cap of 1 only
    # clean is stored, and every other move comes from a transient state
    with mock.patch.object(lrsc.codec, "_STATE_CAP", 1) if transient else contextlib.nullcontext():
        dec = _check_against_dense(_code(name), seed, erased)
    assert not transient or len(dec.table.states) == 1


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_CODES)),
       seed=st.integers(0, 2 ** 32 - 1),
       warm=st.lists(st.booleans(), max_size=40),
       flags=st.lists(st.booleans(), min_size=1, max_size=40),
       start=st.integers(0, 30),
       corrupt=st.one_of(st.none(), st.integers(0, 39)))
def test_hypothesis_replay_matches_elimination(name, seed, warm, flags, start, corrupt):
    # a fork of a decoder whose table another stream has filled pushes a
    # stream as a fresh decoder does, which computes every move it meets
    # from its own empty table: the same outcomes, rows and DecodeError,
    # push for push.  The stream starts after a clean prefix, so plans
    # recorded near time 0, whose early parity terms read 0, replay later;
    # a corrupted parity must raise or decode alike on both
    code = _code(name)
    rng = random.Random(seed)
    order, k = code.field.order, code.k
    warm_coded = _coded(code, random_stream(rng, order, k, len(warm)))
    msgs = random_stream(rng, order, k, start + len(flags))
    coded = _coded(code, msgs)
    if corrupt is not None and corrupt < len(flags):
        pkt = coded[start + corrupt]
        coded[start + corrupt] = pkt[:k] + (code.field.add(pkt[k], 1),) + pkt[k + 1:]
    run = [None if f else pkt for f, pkt in zip(flags, coded[start:])]
    root = Decoder(code)
    pushes_through(root.fork(), [None if f else pkt for f, pkt in zip(warm, warm_coded)])
    forked, fresh = root.fork(), Decoder(code)
    for dec in (forked, fresh):
        pushes_through(dec, coded[:start])
    assert forked.table is root.table and fresh.table is not root.table
    assert pushes_through(forked, run) == pushes_through(fresh, run)
    if warm[:1] == flags[:1]:
        assert root.table.replayed      # from clean, the first push met a recorded move


@pytest.mark.parametrize("args", [(3, 7, 2, 257), (4, 9, 2, 17)], ids=["lrsc-3-7-2-q257", "lrsc-4-9-2-q17"])
def test_pair_backed_decoder_matches_dense_reference(args):
    # above order 2^16 (66049 and 83521 here) the field's row and sum
    # kernels are loops over its pair arithmetic
    code = make_lrsc(*args)
    assert code.field._log is None
    rng = random.Random(26)
    for seed in range(4):
        burst = rng.randrange(40)
        erased = set(rng.sample(range(48), 6)) | set(range(burst, burst + code.params.a))
        _check_against_dense(code, seed, erased)


def _check_against_dense(code, seed, erased):
    # after every push the decoder settles exactly the packets the dense
    # system over every erased symbol settles: recovered once all k symbols
    # are pinned within tau, lost at t+tau+1 otherwise
    msgs = random_stream(random.Random(seed), code.field.order, code.k, 48)
    coded = _coded(code, msgs)
    dec = Decoder(code)
    tau = code.tau
    settled = set()
    for now in range(48):
        got = sorted((ev.t, ev.recovered, ev.delay, ev.message)
                     for ev in dec.push(now, None if now in erased else coded[now]))
        check_decoder_invariants(dec)
        pinned = _dense_pinned(code, coded, erased, now)
        for (t, j), v in pinned.items():
            assert v == msgs[t][j]
        want = []
        if now not in erased:
            want.append((now, True, 0, msgs[now]))
        for t in sorted(erased):
            if t in settled or t > now:
                continue
            if now - t > tau:
                want.append((t, False, None, None))
                settled.add(t)
            elif all((t, j) in pinned for j in range(code.k)):
                want.append((t, True, now - t, msgs[t]))
                settled.add(t)
        assert got == sorted(want), now
        # inside the window, an erased packet's record holds exactly the
        # symbols the dense system pins
        for t in erased:
            if now - tau <= t <= now:
                resolved = {(t, j): v for j, v in enumerate(records(dec)[t]) if v is not None}
                assert resolved == {sid: v for sid, v in pinned.items() if sid[0] == t}, (now, t)
    return dec


def _state(dec):
    return records(dec), missing(dec), dec.rows, dec.next_t


class _TaggedDecoder(Decoder):
    """A subclass with an attribute of its own."""

    def __init__(self, code):
        super().__init__(code)
        self.tag = "kept"


_FORK_CODES = pytest.mark.parametrize(
    "make", [lambda: make_lrsc(2, 5, 2), lambda: make_lrsc(3, 7, 2), lambda: MdsDeCode(2, 5)],
    ids=["lrsc-2-5-2", "lrsc-3-7-2", "mds-de-2-5"])


@_FORK_CODES
def test_fork_is_an_independent_decoder_in_the_same_state(make):
    # a decoder and its fork take diverging continuations of one prefix: each
    # gives the outcomes of a fresh replay of its own stream, and no push into
    # one changes the other's records, rows or time
    _check_fork(make())


@_FORK_CODES
def test_fork_past_the_state_cap_is_an_independent_decoder(monkeypatch, make):
    # with a table that stores only the clean state, a decoder with anything
    # unresolved is in a transient state, which a fork shares with it
    monkeypatch.setattr(lrsc.codec, "_STATE_CAP", 1)
    _check_fork(make())


class _YieldingState(lrsc.codec._State):
    """A state that lets another thread run before it is made, where a table
    that numbers a state apart from storing it would give two states one
    number."""

    def __init__(self, key, number):
        time.sleep(0)
        super().__init__(key, number)


def test_threads_pushing_forks_share_one_table(monkeypatch):
    # six threads push forks of one decoder through streams of their own,
    # released at once, so they add states to the one table at once: each
    # new state must take a number of its own, and each stream decode as it
    # does alone; each round fills a table afresh
    code = make_lrsc(3, 7, 2)
    rng = random.Random(5)
    coded = _coded(code, random_stream(rng, code.field.order, code.k, 200))
    streams = [{t for t in range(len(coded)) if rng.random() < 0.3} for _ in range(6)]
    want = [_drive(code, coded, erased)[1] for erased in streams]
    monkeypatch.setattr(lrsc.codec, "_State", _YieldingState)

    def run(root, start, got, w):
        dec, events = root.fork(), []
        start.wait()
        try:
            for t, pkt in enumerate(coded):
                events.extend(dec.push(t, None if t in streams[w] else pkt))
        except Exception as e:          # reported below, with the stream it broke
            events.append(e)
        got[w] = events

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            root, start, got = Decoder(code), threading.Barrier(6, timeout=60), [None] * 6
            threads = [threading.Thread(target=run, args=(root, start, got, w)) for w in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
            table = root.table
            assert [st.number for st in table.states] == list(range(len(table.states)))
            assert all(table.index[st.ids, st.rows] is st for st in table.states)
            for w in range(6):
                assert got[w] == want[w], w
    finally:
        sys.setswitchinterval(interval)


def _check_fork(code):
    tau = code.tau
    rng = random.Random(41)
    length = 6 * (tau + 1)
    coded = _coded(code, random_stream(rng, code.field.order, code.k, length))
    forked_with_rows = 0
    a = code.params.a if code.params else code.a
    for rep in range(12):
        cut = rng.randrange(tau + 1, length - tau - 1)
        prefix = {t for t in range(cut) if rng.random() < 0.25}
        tails = [{t for t in range(cut, length) if rng.random() < p} for p in (0.15, 0.4)]
        if rep % 2:     # cut inside an unresolved burst: a erasures, one received packet
            prefix = (prefix | set(range(cut - a - 1, cut - 1))) - {cut - 1}
        dec = _TaggedDecoder(code)
        for t in range(cut):
            dec.push(t, None if t in prefix else coded[t])
        forked_with_rows += bool(dec.rows)
        pair = (dec, dec.fork())
        assert type(pair[1]) is _TaggedDecoder and pair[1].tag == "kept"
        outcomes = ([], [])
        for t in range(cut, length):
            for i in (0, 1):
                other = copy.deepcopy(_state(pair[1 - i]))
                outcomes[i].extend(pair[i].push(t, None if t in tails[i] else coded[t]))
                assert _state(pair[1 - i]) == other, (cut, t, i)
                check_decoder_invariants(pair[i])
        for i in (0, 1):
            fresh = Decoder(code)
            for t in range(cut):
                fresh.push(t, None if t in prefix else coded[t])
            replay = [ev for t in range(cut, length)
                      for ev in fresh.push(t, None if t in tails[i] else coded[t])]
            assert outcomes[i] == replay, (cut, i)
    assert forked_with_rows >= 3


# -- the window: symbol j of packet t in slot (t mod (tau+1))*k + j --

_WINDOW_CODES = pytest.mark.parametrize(
    "make", [lambda: make_lrsc(2, 3, 1), lambda: make_lrsc(3, 7, 2), lambda: MdsDeCode(2, 5)],
    ids=["lrsc-2-3-1", "lrsc-3-7-2", "mds-de-2-5"])


def _budget(code):
    return code.params.a if code.params else code.a


@_WINDOW_CODES
def test_delayed_writes_into_wrapped_slots_match_the_dense_reference(make):
    # bursts of a erasures after the window has wrapped twice and three
    # times: each burst resolves by delayed writes into slots that earlier
    # packets held, and the records hold what the dense system pins, over a
    # run longer than 3(tau+1) packets
    code = make()
    a, span = _budget(code), code.tau + 1
    erased = set(range(2 * span + 1, 2 * span + 1 + a)) | set(range(3 * span + 2, 3 * span + 2 + a))
    assert max(erased) < 48 and 3 * span < 48
    _check_against_dense(code, 11, erased)
    _, events = _drive(code, _coded(code, random_stream(random.Random(11), code.field.order, code.k, 48)),
                       erased)
    late = {ev.t for ev in events if ev.recovered and ev.delay}
    assert late == erased


@_WINDOW_CODES
@pytest.mark.parametrize("where", ["first", "spread"])
def test_erasures_in_the_first_tau_packets_read_zero_before_time_0(make, where):
    # a parity at t < tau reads terms before time 0 from slots no packet has
    # written yet, which hold 0
    code = make()
    a = _budget(code)
    erased = set(range(a)) if where == "first" else {0, code.tau - 1}
    assert max(erased) < code.tau
    dec = _check_against_dense(code, 12, erased)
    _, events = _drive(code, _coded(code, random_stream(random.Random(12), code.field.order, code.k, 48)),
                       erased)
    assert {ev.t for ev in events if ev.recovered and ev.delay} == erased
    assert not missing(dec)


@_WINDOW_CODES
def test_a_forks_pushes_and_writes_never_reach_its_parent(make):
    # a fork resolves a burst in wrapped slots by delayed writes; its parent,
    # still holding the burst unresolved, keeps its window, rows and time,
    # and then decodes its own continuation as a fresh decoder does
    code = make()
    a, span = _budget(code), code.tau + 1
    length = 5 * span
    msgs = random_stream(random.Random(13), code.field.order, code.k, length)
    coded = _coded(code, msgs)
    burst = set(range(2 * span + 1, 2 * span + 1 + a))
    cut = max(burst) + 1
    dec, _ = _drive(code, coded, burst, upto=cut)
    assert missing(dec) == burst
    window, before = dec.window[:], copy.deepcopy(_state(dec))
    fork = dec.fork()
    got = [ev for t in range(cut, length) for ev in fork.push(t, coded[t])]
    assert {ev.t: ev.message for ev in got if ev.delay} == {t: msgs[t] for t in burst}
    assert dec.window == window and _state(dec) == before
    tail = {cut + 1, cut + 3}
    ref, _ = _drive(code, coded, burst, upto=cut)
    got, want = ([ev for t in range(cut, length) for ev in d.push(t, None if t in tail else coded[t])]
                 for d in (dec, ref))
    assert got == want and {ev.t for ev in got} >= burst


@_WINDOW_CODES
def test_a_decode_error_leaves_records_rows_and_time(make):
    # at every received packet past the first wrap, a fork takes it with
    # every parity corrupted; where that raises DecodeError, the fork's
    # records, rows and time are as they were, and the true packet then
    # gives the outcomes it gives the decoder
    code = make()
    f, k, span = code.field, code.k, code.tau + 1
    length = 4 * span
    rng = random.Random(14)
    coded = _coded(code, random_stream(rng, f.order, k, length))
    erased = {span + 2, 2 * span + 1, 3 * span}
    dec, raised = Decoder(code), set()
    for t in range(length):
        pkt = None if t in erased else coded[t]
        if pkt is not None and t > span:
            fork = dec.fork()
            before = copy.deepcopy(_state(fork))
            try:
                fork.push(t, pkt[:k] + tuple(f.add(s, 1) for s in pkt[k:]))
            except DecodeError:
                raised.add(bool(missing(fork)))
                assert _state(fork) == before, t
                check_decoder_invariants(fork)
                assert fork.push(t, pkt) == dec.push(t, pkt), t
                assert _state(fork) == _state(dec), t
                continue
        dec.push(t, pkt)
    assert False in raised and (True in raised or code.k == 1)
