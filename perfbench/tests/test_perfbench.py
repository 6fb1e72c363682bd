"""Tests of the benchmark itself, on workloads shrunk to about a second.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import lrsc.codec
import measure
import run
from compare import compare
from workloads import WORKLOADS, tiny

BENCH = run.load_bench()
NAMES = sorted(WORKLOADS)


def tiny_run(name, trace, tmp_path, seed=3):
    return run.run_and_record(tiny(name), seed, 0.2, trace, BENCH, tmp_path / "runs.jsonl")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_emits_every_metric_with_its_unit(name, trace, tmp_path):
    rec = tiny_run(name, trace, tmp_path)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(rec["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = rec["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0, m["name"]
    assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] > 0
    lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert json.loads(lines[-1])["env"]["nproc"] >= 1
    assert (tmp_path / f"spans-{name}-s3.jsonl.gz").exists() == bool(trace)


def test_wrong_message_fails(monkeypatch, tmp_path):
    push = lrsc.codec.Decoder.push

    def corrupting_push(self, t, packet):
        out = push(self, t, packet)
        return [replace(ev, message=(ev.message[0] ^ 1,) + ev.message[1:])
                if ev.recovered and ev.delay else ev for ev in out]

    monkeypatch.setattr(lrsc.codec.Decoder, "push", corrupting_push)
    rec = tiny_run("sim-paper", 0, tmp_path)
    assert rec["error_rate"] > 0
    assert any("wrong symbols" in p for p in rec["problems"])


def test_wrong_histogram_fails(monkeypatch, tmp_path):
    run_sim = measure.run_sim

    def skewed(*args, **kwargs):
        res = run_sim(*args, **kwargs)
        hist = dict(res.delay_hist)
        hist[0] -= 1
        hist[1] = hist.get(1, 0) + 1
        return replace(res, delay_hist=hist)

    monkeypatch.setattr(measure, "run_sim", skewed)
    rec = tiny_run("sim-stress", 0, tmp_path)
    assert rec["error_rate"] > 0
    assert any("histogram" in p for p in rec["problems"])


def test_wrong_pattern_count_fails(monkeypatch, tmp_path):
    verify_stream = measure.verify_stream

    def miscounted(*args, **kwargs):
        rep = verify_stream(*args, **kwargs)
        rep.pattern_count += 1
        return rep

    monkeypatch.setattr(measure, "verify_stream", miscounted)
    rec = tiny_run("verify-battery", 0, tmp_path)
    assert rec["error_rate"] > 0
    assert any("closed form" in p for p in rec["problems"])


EXACT_COUNTS = ["gf.ops_per_pkt", "oracle.patterns", "oracle.pushes_per_pattern",
                "sim.window_patterns_distinct", "oracle.pushes_total", "codec.rows_max"]


@pytest.mark.parametrize("name", NAMES)
def test_exact_counts_repeat_for_one_seed(name, tmp_path):
    a = tiny_run(name, 1, tmp_path, seed=11)
    b = tiny_run(name, 1, tmp_path, seed=11)
    for m in EXACT_COUNTS:
        assert a["metrics"][m] == b["metrics"][m], m
    assert a["metrics"]["oracle.patterns"]["value"] == a["details"]["oracle_patterns_closed_form"]
    assert a["details"]["oracle_decoders"] == a["metrics"]["oracle.patterns"]["value"]


def test_self_times_account_for_run_sim(tmp_path):
    rec = tiny_run("sim-paper", 1, tmp_path)
    assert rec["details"]["sim_run_accounted"] == pytest.approx(1.0)
    assert 0 < rec["metrics"]["sim.self_share"]["value"] < 1


def test_stream_pattern_closed_form_matches_oracle():
    w = WORKLOADS["verify-battery"]
    codes = measure.build_codes(w)
    for s in w.suites[:6]:
        rep = (measure.verify_scalar(codes[s.code].weights) if s.kind == "scalar"
               else measure.verify_stream(codes[s.code], s.budget, s.deadline))
        assert rep.pattern_count == s.expected_patterns(w.codes[s.code])


def test_pattern_clock_scales_units_by_their_probes():
    clock = measure.PatternClock()
    clock.marks.extend([(1.0, 0.1), (2.0, 0.3)])    # (probe start, probe seconds)
    raw, nominal = clock.seconds(0.2, 0.5, 3.0, 0.1)
    # units 0.5-1.0, 1.1-2.0 and 2.3-3.0; the probes inside are left out
    assert raw == pytest.approx(0.5 + 0.9 + 0.7)
    p = measure.PROBE_NOMINAL_S
    assert nominal == pytest.approx(0.5 * p / 0.15 + 0.9 * p / 0.2 + 0.7 * p / 0.2)
    assert clock.marks == []


def test_tail_percentile():
    assert measure.tail(list(range(46))) == (78, 35)
    assert measure.tail(list(range(100))) == (90, 89)
    assert measure.tail([3, 1, 2]) == (100, 3)


def _write_runs(path, values, workload="sim-paper", metric="items_per_s"):
    with open(path, "w") as fh:
        for v in values:
            fh.write(json.dumps({"workload": workload, "trace": 0,
                                 "metrics": {metric: {"value": v, "unit": "1/s"}}}) + "\n")


@pytest.mark.parametrize("base,new,want", [
    ([100, 101, 99, 100, 100], [100, 100, 101, 99, 100], "unchanged"),
    ([100, 101, 99, 100, 100], [70, 71, 69, 70, 70], "regressed"),
    ([100, 101, 99, 100, 100], [130, 131, 129, 130, 130], "improved"),
    ([60, 140, 100, 70, 130], [100, 100, 101, 99, 100], "unresolved"),
])
def test_compare_verdicts(base, new, want, tmp_path):
    _write_runs(tmp_path / "a.jsonl", base)
    _write_runs(tmp_path / "b.jsonl", new)
    lines = compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl", BENCH)
    assert len(lines) == 2 and f" {want} " in lines[1]


def _cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_result_as_last_line(tmp_path):
    out = tmp_path / "runs.jsonl"
    proc = _cli(run.ROOT, "--workload", "sim-paper", "--seed", "5", "--seconds", "1",
                "--trace", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_cli_without_sources_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _cli(tmp_path, "--workload", "sim-paper", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
