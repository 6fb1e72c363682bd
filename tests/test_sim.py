"""Channel simulation: determinism, conservation, and loss accounting."""

import copy
import random
import sys
import threading
from collections import Counter
from dataclasses import replace
from decimal import Decimal

import pytest

import lrsc.codec
import lrsc.sim
from conftest import ReplayChannel, explain_losses_reference, records, value_path_outcomes
from lrsc.codec import Decoder, MdsDeCode, Transitions, make_lrsc
from lrsc.oracle import verify_stream
from lrsc.sim import (CSV_HEADER, PecChannel, csv_rows,
                      explain_losses, hist_rows, run_sim, splitmix64, sweep)


def test_eps_zero_no_loss_all_delay_zero():
    code = make_lrsc(2, 5, 2)
    res = run_sim(code, PecChannel(0.0, 1), 500, seed=2)
    assert res.lost == 0 and res.recovered == 500
    assert res.delay_hist == {0: 500}
    assert res.mean_delay == 0.0
    assert res.mean_delay_erased is None


def test_eps_one_loses_everything():
    code = make_lrsc(2, 5, 2)
    res = run_sim(code, PecChannel(1.0, 1), 200, seed=2)
    assert res.loss_prob == 1.0
    assert res.recovered == 0 and res.mean_delay is None


def test_reproducibility_bit_identical():
    code = make_lrsc(2, 5, 2)
    r1 = run_sim(code, PecChannel(0.15, 9), 2000, seed=5)
    r2 = run_sim(code, PecChannel(0.15, 9), 2000, seed=5)
    assert r1 == r2


def test_conservation():
    code = make_lrsc(2, 4, 2)
    res = run_sim(code, PecChannel(0.3, 4), 1500, seed=1)
    assert res.recovered + res.lost == 1500
    assert sum(res.delay_hist.values()) == res.recovered


def test_loss_monotone_in_eps():
    code = make_lrsc(2, 3, 1)
    lo = run_sim(code, PecChannel(0.05, 3), 4000, seed=3)
    hi = run_sim(code, PecChannel(0.30, 3), 4000, seed=3)
    assert hi.loss_prob >= lo.loss_prob


def test_recovered_delays_within_deadline():
    code = make_lrsc(2, 5, 2)
    res = run_sim(code, PecChannel(0.2, 8), 3000, seed=8)
    assert all(d <= code.tau for d in res.delay_hist)


def test_replay_channel_reproduces_oracle_failure():
    # the 1-erasure diagonal baseline loses both packets of an adjacent
    # erased pair: the later parity that could resolve each orphaned symbol
    # couples it to the other lost packet
    code = MdsDeCode(1, 2)
    rep = verify_stream(code, 2, 5)
    pat = next(f.pattern for f in rep.failures
               if f.pattern[1] - f.pattern[0] == 1 and f.pattern[0] > 0)
    res = run_sim(code, ReplayChannel(frozenset(pat)), pat[1] + 10, seed=6)
    assert res.lost == 2


def test_replay_channel_in_guarantee_is_lossless():
    code = make_lrsc(2, 5, 2)
    res = run_sim(code, ReplayChannel(frozenset({10, 12})), 40, seed=6)
    assert res.lost == 0
    assert res.eps == -1.0
    assert max(res.delay_hist) <= 5


def test_splitmix_channel_is_counter_based():
    ch = PecChannel(0.37, 123)
    seq1 = [ch.erased(t) for t in range(50)]
    seq2 = [ch.erased(t) for t in reversed(range(50))]
    assert seq1 == list(reversed(seq2))
    assert splitmix64(0) == splitmix64(0)


def _erased_by_rule(eps, seed, t):
    # the channel's decision rule, written out: mix the seed, mix in t, and
    # compare against eps scaled to 64 bits
    return splitmix64(splitmix64(seed) ^ t) < int(eps * 2.0 ** 64)


def _check_walk(ch, ts):
    for t in ts:
        assert ch.erased(t) == _erased_by_rule(ch.eps, ch.seed, t), (ch, t)


def test_channel_decisions_match_the_written_out_rule():
    rng = random.Random(11)
    for _ in range(2000):
        eps = rng.choice([0.0, 1.0, rng.random()])
        seed = rng.choice([rng.randrange(-2 ** 70, 2 ** 70), rng.randrange(2 ** 64)])
        t = rng.randrange(10 ** 7)
        assert PecChannel(eps, seed).erased(t) == _erased_by_rule(eps, seed, t), (eps, seed, t)
    # one long-lived channel, whose cached block must never answer for
    # another t: walks across blocks both ways and in jumps, a block's first
    # and last lanes, t outside [0, 2**64), and t near 2**64 where t mod
    # 2**64 wraps to the first block
    for eps, seed in [(0.5, 7), (0.37, -2 ** 66 - 5), (rng.random(), rng.randrange(2 ** 64))]:
        ch = PecChannel(eps, seed)
        _check_walk(ch, range(-20, 16 * 5 + 3))
        _check_walk(ch, reversed(range(-20, 16 * 5 + 3)))
        _check_walk(ch, [rng.randrange(-2 ** 66, 2 ** 66) for _ in range(300)])
        _check_walk(ch, [rng.randrange(-100, 100) for _ in range(300)])
        blocks = [0, 1, 7, -1, -2, 2 ** 60 - 1, 2 ** 60, 2 ** 60 + 1, -2 ** 60, 2 ** 70]
        _check_walk(ch, [16 * b + lane for b in blocks for lane in (0, 15, 15, 0)])
        _check_walk(ch, [2 ** 64 + d for d in range(-40, 40)] + [-2 ** 64 + d for d in range(-40, 40)])
        _check_walk(ch, [2 ** 65 - 1, 2 ** 65, -1, 0, 2 ** 64 - 1, 2 ** 64, 15, 16])


def test_a_shared_channel_serves_interleaved_walkers_and_copies():
    ch = PecChannel(0.5, 23)
    # two walkers on one channel, each block by block in turn, one of them
    # descending across 2**64
    ups, downs = iter(range(0, 16 * 8)), iter(reversed(range(2 ** 64 - 64, 2 ** 64 + 64)))
    for _ in range(8):
        _check_walk(ch, [next(ups) for _ in range(16)])
        _check_walk(ch, [next(downs) for _ in range(16)])
    # copies taken mid-block, each t asked of all of them in turn; a replace
    # with another eps or seed decides by its own rule from its first call
    _check_walk(ch, range(30, 37))
    twins = [ch, copy.copy(ch), replace(ch), replace(ch, eps=0.25), replace(ch, seed=24)]
    assert twins[1] == twins[2] == ch
    for t in [*range(37, 70), *range(5, 0, -1), 1000, 38, 2 ** 64 + 37]:
        for twin in twins:
            _check_walk(twin, [t])


def test_threads_sharing_a_channel_see_no_torn_block():
    # four threads cycle through the same three blocks out of phase, so
    # nearly every call draws a block that another thread may be reading;
    # a block number read apart from its decisions would answer some t
    # from another block
    ch = PecChannel(0.5, 41)
    walks = [[16 * ((j + w) % 3) + (7 * j + w) % 16 for j in range(3000)] for w in range(4)]
    want = [[_erased_by_rule(0.5, 41, t) for t in walk] for walk in walks]
    got = [None] * 4

    def run(w):
        got[w] = [ch.erased(t) for t in walks[w]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == want


class _RecordingChannel:
    """Passes each erased(t) call to a channel and records its t."""

    def __init__(self, channel):
        self.eps, self.calls, self._channel = channel.eps, [], channel

    def erased(self, t):
        self.calls.append(t)
        return self._channel.erased(t)


@pytest.mark.parametrize("make,args", [(make_lrsc, (2, 5, 2)), (MdsDeCode, (2, 5))],
                         ids=lambda x: getattr(x, "__name__", str(x)))
@pytest.mark.parametrize("eps", [0.0, 1.0, 0.2])
def test_run_sim_asks_the_channel_once_per_t_in_ascending_order(make, args, eps):
    # the walk's contract with a channel: erased(t) exactly once for each t
    # in [0, packets + tau + 1), in ascending order, which a channel with
    # state across calls relies on
    code, packets = make(*args), 700
    ch = _RecordingChannel(PecChannel(eps, 31))
    res = run_sim(code, ch, packets, seed=4)
    assert ch.calls == list(range(packets + code.tau + 1))
    assert res == run_sim(code, PecChannel(eps, 31), packets, seed=4)


@pytest.mark.parametrize("eps", [float("nan"), 1.5, -0.2, "0.1", None, 0.1j, Decimal("0.1")])
def test_channel_rejects_eps_outside_unit_interval(eps):
    # a str, None and a complex raised a bare TypeError from the comparison,
    # a Decimal from its product with a float
    with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
        PecChannel(eps, 3)


@pytest.mark.parametrize("eps,seed,match", [(True, 3, "eps"), (0.1, 1.5, "seed"), (0.1, True, "seed")])
def test_channel_rejects_a_bool_eps_and_a_non_int_seed(eps, seed, match):
    # True ran as eps 1 and was reported as "True" in the CSV; 1.5 failed inside the mix
    with pytest.raises(ValueError, match=match):
        PecChannel(eps, seed)


@pytest.mark.parametrize("packets", [0, -4, 10.5, 2.0, True, type("Count", (int,), {})(100)])
def test_run_sim_rejects_non_positive_packet_count(packets):
    # a float ran and reported a fractional count, True ran one packet, and
    # an int subclass ran where every other entry point refuses it
    with pytest.raises(ValueError, match="packets"):
        run_sim(make_lrsc(2, 5, 2), PecChannel(0.1, 1), packets)


@pytest.mark.parametrize("seed", [2.5, True])
def test_run_sim_rejects_a_non_int_seed(seed):
    # both ran and landed in the reported seed, the CSV seed column
    with pytest.raises(ValueError, match="seed"):
        run_sim(make_lrsc(2, 5, 2), PecChannel(0.1, 3), 100, seed=seed)


@pytest.mark.parametrize("seed", [1.5, True])
def test_sweep_rejects_a_non_int_seed(seed):
    # 1.5 failed with a bare TypeError inside splitmix64, True ran as 1
    with pytest.raises(ValueError, match="seed"):
        sweep(make_lrsc(2, 5, 2), [0.1], 100, seed=seed)


def test_sweep_derives_paired_seeds():
    lrsc = make_lrsc(2, 5, 2)
    de = MdsDeCode(2, 5)
    a = sweep(lrsc, [0.1, 0.2], 800, seed=7)
    b = sweep(de, [0.1, 0.2], 800, seed=7)
    assert [r.seed for r in a] == [r.seed for r in b]
    assert a[0].eps == b[0].eps == 0.1


def test_sweep_empty():
    assert sweep(make_lrsc(2, 5, 2), [], 100, seed=0) == []


def test_csv_schema():
    code = make_lrsc(2, 5, 2)
    res = run_sim(code, PecChannel(0.1, 2), 1200, seed=2)
    rows = list(csv_rows([res]))
    assert rows[0] == CSV_HEADER
    fields = rows[1].split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[1] == "lrsc-2-5-2"
    float(fields[4]), float(fields[5])


def test_hist_rows_long_format():
    code = make_lrsc(2, 5, 2)
    res = run_sim(code, PecChannel(0.1, 2), 800, seed=2)
    rows = list(hist_rows([res]))
    assert rows[0] == "delay,count"
    data = [r for r in rows[1:] if not r.startswith("#")]
    assert sum(int(r.split(",")[1]) for r in data) == res.recovered


def test_low_confidence_flag():
    code = make_lrsc(2, 5, 2)
    res = run_sim(code, PecChannel(0.01, 5), 300, seed=5)
    assert res.low_confidence


def test_isolated_erasures_recover_within_locality_deadline():
    code = make_lrsc(2, 5, 2)
    ch = PecChannel(0.04, 23)
    packets = 4000
    erased = {t for t in range(packets + code.tau + 1) if ch.erased(t)}
    r = code.params.r
    for ev in value_path_outcomes(code, ch, packets, 23):
        if ev.recovered and ev.delay and ev.t in erased:
            isolated = not any(e != ev.t and ev.t - code.tau <= e <= ev.t + r
                               for e in erased)
            if isolated:
                assert ev.delay <= r, (ev.t, ev.delay)


def test_every_loss_is_explained_by_a_window_overload():
    code = make_lrsc(2, 5, 2)
    ch = PecChannel(0.3, 17)
    packets = 2500
    res = run_sim(code, ch, packets, seed=17)
    erased = [t for t in range(packets + code.tau + 1) if ch.erased(t)]
    # recompute which packets were lost by rerunning the decoded stream
    lost = [ev.t for ev in value_path_outcomes(code, ch, packets, 17)
            if ev.t < packets and not ev.recovered]
    assert len(lost) == res.lost
    assert explain_losses(erased, lost, 2, code.tau) == []


def test_explain_losses_matches_brute_force():
    rng = random.Random(5)
    for _ in range(600):
        a, tau = rng.randint(1, 4), rng.randint(1, 9)
        span = rng.randint(1, 80)
        erased = [t for t in range(span) if rng.random() < rng.random()]
        lost = [rng.randrange(span) for _ in range(rng.randint(0, span))]
        assert explain_losses(erased, lost, a, tau) == \
            explain_losses_reference(erased, lost, a, tau), (a, tau, erased, lost)


# codes of every kind: exact, long and short LRSCs, and two diagonal MDS baselines
_SIM_CODES = [(make_lrsc, (2, 5, 2)), (make_lrsc, (3, 8, 2)), (make_lrsc, (2, 6, 2)),
              (make_lrsc, (3, 7, 2)), (MdsDeCode, (2, 5)), (MdsDeCode, (3, 7))]


def _bursts(a):
    """Replay patterns around one time: bursts of a and a+1 erasures, back
    to back, spread over a window, and two bursts at once."""
    return [frozenset(range(9, 9 + a)), frozenset(range(9, 10 + a)),
            frozenset(range(0, a)), frozenset(range(0, 2 * a + 1, 2)),
            frozenset(range(9, 9 + a)) | frozenset(range(14 + a, 15 + 2 * a))]


def _gaps(a, tau):
    """Replay patterns with clean gaps around the decoder's tau+1 window,
    each from t=0 and between two bursts of a, and erasures at the last
    counted packet and at the last step; returned as (pattern, packets)."""
    window = tau + 1
    out = []
    for gap in (window - 1, window, window + 1, 3 * window + 1):
        packets = 2 * gap + 2 * a + 2
        out.append((frozenset(range(gap, gap + a)) | frozenset(range(2 * gap + a, 2 * gap + 2 * a))
                    | {packets - 1, packets + tau}, packets))
    return out


def _channels(code, eps_list):
    """PecChannels at each eps on seeds 1 and 2, then the replay patterns,
    as (channel, packets, seed)."""
    a = code.params.a if code.params else code.a
    channels = [(PecChannel(eps, seed), 400, seed) for eps in eps_list for seed in (1, 2)]
    channels += [(ReplayChannel(pat), 40, 3) for pat in _bursts(a)]
    channels += [(ReplayChannel(pat), packets, 3) for pat, packets in _gaps(a, code.tau)]
    return channels


def _settled_in_order(outcomes, tau):
    """(t, recovered, delay) by the time each packet settled, then by t."""
    return sorted(outcomes, key=lambda e: (e[0] + (e[2] if e[1] else tau + 1), e[0]))


def _walk_outcomes(code, channel, packets):
    """The outcome stream of run_sim's table walk, each clean stretch as one
    delay-0 outcome per packet, and the lengths of those stretches."""
    outcomes, runs = [], []
    for t, run, outs in lrsc.sim._walk(code, channel.erased, packets + code.tau + 1):
        outcomes += [(u, True, 0) for u in range(t - run, t)]
        outcomes += [(t + off, delay is not None, delay) for off, delay in outs]
        runs.append(run)
    return outcomes, runs


@pytest.mark.parametrize("make,args", _SIM_CODES, ids=lambda x: getattr(x, "__name__", str(x)))
def test_run_sim_matches_value_path(make, args):
    # the all-zero stream settles every packet as random messages do: the
    # outcome streams agree packet for packet, clean stretches included, and
    # so do the loss count and delay histogram that every SimResult
    # statistic derives from.  Within one push the table keeps the order of
    # the push that filled it, so both streams are compared in settling order.
    code = make(*args)
    for ch, packets, seed in _channels(code, (0.02, 0.15, 0.35)):
        walked, runs = _walk_outcomes(code, ch, packets)
        values = [(e.t, e.recovered, e.delay) for e in value_path_outcomes(code, ch, packets, seed)]
        assert _settled_in_order(walked, code.tau) == _settled_in_order(values, code.tau), ch
        res = run_sim(code, ch, packets, seed)
        counted = [e for e in values if e[0] < packets]
        hist = Counter(e[2] for e in counted if e[1])
        assert (res.recovered, res.lost, res.delay_hist) == \
            (sum(hist.values()), len(counted) - sum(hist.values()), dict(sorted(hist.items()))), ch
        if getattr(ch, "eps", None) == 0.02:
            assert any(runs), ch


def _plain_run(code, channel, packets):
    """(lost, delay histogram) of the all-zero stream pushed packet by packet
    into one decoder: run_sim without its table."""
    dec, zeros = Decoder(code), (0,) * code.n
    hist, lost = Counter(), 0
    for t in range(packets + code.tau + 1):
        for ev in dec.push(t, None if channel.erased(t) else zeros):
            if ev.t < packets:
                if ev.recovered:
                    hist[ev.delay] += 1
                else:
                    lost += 1
    return lost, dict(sorted(hist.items()))


@pytest.mark.parametrize("make,args", _SIM_CODES, ids=lambda x: getattr(x, "__name__", str(x)))
def test_run_sim_equals_a_plain_decoder_loop(monkeypatch, make, args):
    # with the real state cap, and with caps of 1 and 8, past which a run
    # steps through transient states and rejoins the table where it can
    code = make(*args)
    caps = (lrsc.codec._STATE_CAP, 1, 8)
    for ch, packets, seed in _channels(code, (0.02, 0.15, 0.35, 0.5)):
        want = _plain_run(code, ch, packets)
        for cap in caps:
            monkeypatch.setattr(lrsc.codec, "_STATE_CAP", cap)
            res = run_sim(code, ch, packets, seed)
            assert (res.lost, res.delay_hist) == want, (ch, cap)


def _decoder_key(dec):
    """A decoder's unresolved symbols, read from its records, and its rows
    by pivot, every id shifted by -next_t*k."""
    k, base = dec.k, dec.next_t * dec.k
    ids = tuple(t * k + j - base for t, s in sorted(records(dec).items()) for j, v in enumerate(s) if v is None)
    rows = tuple(tuple((i - base, cf[i]) for i in sorted(cf)) for cf, _ in (dec.rows[p] for p in sorted(dec.rows)))
    return ids, rows


@pytest.mark.parametrize("code,states", [(make_lrsc(2, 3, 1), 12), (make_lrsc(2, 5, 2), 169),
                                         (MdsDeCode(2, 5), 160)], ids=lambda x: getattr(x, "label", x))
def test_state_keys_are_canonical(code, states):
    # every state reachable from clean under any flags, counted twice: by
    # pushing one decoder per move and keying it from its records and rows,
    # and by walking a table's moves from clean with no decoder built.
    # A key that told apart two equal states would count more
    zeros = (0,) * code.n
    root = Decoder(code)
    reached, todo = {_decoder_key(root): root}, [_decoder_key(root)]
    while todo and len(reached) <= states:
        dec = reached[todo.pop()]
        for packet in (None, zeros):
            nxt = dec.fork()
            nxt.push(nxt.next_t, packet)
            key = _decoder_key(nxt)
            if key not in reached:
                reached[key] = nxt
                todo.append(key)
    assert len(reached) == states
    table = Transitions(code)
    seen, todo = {table.clean}, [table.clean]
    while todo and len(seen) <= states:
        state = todo.pop()
        for erased in (True, False):
            nxt = table.move(state, erased, False)[0]
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    assert len(seen) == len(table.states) == states


def test_run_sim_encodes_nothing_and_ignores_its_seed(monkeypatch):
    # run_sim walks a bare table: it builds neither an encoder nor a decoder
    def refuse(code):
        raise AssertionError("run_sim built an encoder or a decoder")

    monkeypatch.setattr(lrsc.sim, "Encoder", refuse)
    monkeypatch.setattr(lrsc.sim, "Decoder", refuse)
    code = make_lrsc(2, 5, 2)
    r1 = run_sim(code, PecChannel(0.2, 3), 600, seed=4)
    r2 = run_sim(code, PecChannel(0.2, 3), 600, seed=5)
    assert r1.lost > 0 and r1.recovered + r1.lost == 600
    assert replace(r1, seed=5) == r2
