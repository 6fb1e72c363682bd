"""Channel simulation: determinism, conservation, and loss accounting."""

import random

import pytest

from lrsc.codec import MdsDeCode, make_lrsc
from lrsc.oracle import verify_stream
from lrsc.sim import (CSV_HEADER, PecChannel, ReplayChannel, csv_rows,
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


def test_channel_decisions_match_the_written_out_rule():
    rng = random.Random(11)
    for _ in range(2000):
        eps = rng.choice([0.0, 1.0, rng.random()])
        seed = rng.choice([rng.randrange(-2 ** 70, 2 ** 70), rng.randrange(2 ** 64)])
        t = rng.randrange(10 ** 7)
        assert PecChannel(eps, seed).erased(t) == _erased_by_rule(eps, seed, t), (eps, seed, t)


@pytest.mark.parametrize("eps", [float("nan"), 1.5, -0.2])
def test_channel_rejects_eps_outside_unit_interval(eps):
    with pytest.raises(ValueError, match="eps"):
        PecChannel(eps, 3)


@pytest.mark.parametrize("packets", [0, -4])
def test_run_sim_rejects_non_positive_packet_count(packets):
    with pytest.raises(ValueError, match="packets"):
        run_sim(make_lrsc(2, 5, 2), PecChannel(0.1, 1), packets)


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
    from lrsc.codec import Decoder, Encoder
    rng = random.Random(23)
    enc, dec = Encoder(code), Decoder(code)
    erased = {t for t in range(packets + code.tau + 1) if ch.erased(t)}
    r = code.params.r
    for t in range(packets + code.tau + 1):
        msg = tuple(rng.randrange(3) for _ in range(2))
        pkt = enc.push(msg)
        for ev in dec.push(t, None if t in erased else pkt):
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
    from lrsc.codec import Decoder, Encoder
    rng = random.Random(17)
    enc, dec = Encoder(code), Decoder(code)
    lost = []
    for t in range(packets + code.tau + 1):
        msg = tuple(rng.randrange(3) for _ in range(2))
        pkt = enc.push(msg)
        for ev in dec.push(t, None if ch.erased(t) else pkt):
            if ev.t < packets and not ev.recovered:
                lost.append(ev.t)
    assert len(lost) == res.lost
    assert explain_losses(erased, lost, 2, code.tau) == []
