"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from lrsc.cli import main


def _run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_params_exact():
    res = _run("params", "2", "5", "2")
    assert res.exit_code == 0
    assert "regime: exact" in res.output
    assert "k=2 n=3" in res.output
    assert "q=3 Q=3" in res.output
    assert "rate: 2/3" in res.output


def test_params_short():
    res = _run("params", "2", "4", "2")
    assert res.exit_code == 0
    assert "regime: short" in res.output
    assert "u=1 v=1 ell=1" in res.output
    assert "rate: 3/5" in res.output


def test_params_invalid_is_usage_error():
    res = _run("params", "1", "5", "2")
    assert res.exit_code == 2
    assert "a must exceed 1" in res.output


@pytest.mark.parametrize("args", [("params", "14", "200", "1"), ("table", "6", "11", "1"),
                                  ("table", "2", "5", "2", "--q", "343"),
                                  ("verify", "2", "5", "2", "--q", "343"),
                                  ("simulate", "2", "5", "2", "--q", "343", "--eps", "0.1")])
def test_field_above_desk_scale_is_usage_error(args):
    # the first printed a 4933-digit order (int-to-str traceback, exit 1);
    # the second hung building GF(7^16); the rest ended in a traceback from
    # building GF(7^3), above the 256 cap on a base field of prime powers
    res = _run(*args)
    assert res.exit_code == 2
    assert "exceeds the supported desk scale" in res.output


def test_huge_base_order_fails_before_any_prime_power_search():
    # each ran trial division on a 21- to 25-digit number for minutes
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    huge_q, huge_tau = "1000000000000000000000007", "100000000000000000000"
    for args in [("params", "2", "5", "2", "--q", huge_q),
                 ("params", "2", huge_tau + "000", huge_tau),
                 ("simulate", "2", "5", "2", "--codes", "mds", "--q", huge_q, "--eps", "0.1", "-T", "10"),
                 ("simulate", "2", huge_tau, "1", "--codes", "mds", "--eps", "0.1", "-T", "10"),
                 ("verify", "2", huge_tau, "--code", "mds")]:
        res = subprocess.run([sys.executable, "-m", "lrsc.cli", *args], env=env,
                             capture_output=True, text=True, timeout=20)
        assert res.returncode == 2, (args, res.stderr)
        assert "exceeds the supported desk scale 2^16" in res.stderr, args


def test_table_252_golden_lines():
    res = _run("table", "2", "5", "2", "--columns", "6")
    assert res.exit_code == 0
    lines = dict(line.split(" | ", 1) for line in res.output.splitlines())
    assert lines["t=0"] == "-"
    assert lines["t=1"] == "m_1(0)"
    assert lines["t=4"] == "2m_1(0)+m_0(2)+m_1(3)"
    assert lines["t=5"] == "m_0(0)+2m_1(1)+m_0(3)+m_1(4)"


def test_table_242_golden_lines():
    res = _run("table", "2", "4", "2", "--columns", "4")
    assert res.exit_code == 0
    rows = {}
    for line in res.output.splitlines():
        head, rest = line.split(" | ", 1)
        rows[head] = rest.split(" | ")
    assert rows["t=3"][1] == "2m_1(0)+m_2(2)"
    assert rows["t=4"][0] == "m_2(0)+m_0(2)+m_1(3)"
    assert rows["t=4"][1] == "m_0(0)+2m_1(1)+m_2(3)"


def test_verify_passes_and_exits_zero():
    res = _run("verify", "2", "5", "2")
    assert res.exit_code == 0
    assert "failures=0" in res.output
    assert "scalar" in res.output


def test_verify_failure_exits_one():
    res = _run("verify", "1", "2", "--code", "mds", "--budget", "2", "--deadline", "5")
    assert res.exit_code == 1
    assert "failures=14" in res.output
    assert "FAIL" in res.output


def test_verify_requires_r_for_lrsc():
    res = _run("verify", "2", "5")
    assert res.exit_code == 2


def test_simulate_csv_output(tmp_path):
    out = tmp_path / "sweep.csv"
    hist = tmp_path / "hist.csv"
    res = _run("simulate", "2", "5", "2", "--eps", "0.1,0.3", "-T", "400",
               "--seed", "5", "--out", str(out), "--hist-out", str(hist))
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("epsilon,code,")
    assert len(lines) == 1 + 2 * 2          # two eps, two codes
    assert any("lrsc-2-5-2" in l for l in lines)
    assert any("mds-de-2-5" in l for l in lines)
    hist_lines = hist.read_text().splitlines()
    assert hist_lines[0] == "delay,count"


def test_simulate_text_format():
    res = _run("simulate", "2", "5", "2", "--eps", "0.2", "-T", "300",
               "--codes", "lrsc", "--format", "text")
    assert res.exit_code == 0
    header, row = [l for l in res.output.splitlines() if not l.startswith("warning:")][:2]
    assert "loss_prob" in header
    assert header.split()[-1] == "mean(erased)"
    assert float(row.split()[-1]) >= 1.0       # an erased packet waits at least one step


def test_simulate_bad_output_path_fails_before_running(tmp_path, monkeypatch):
    monkeypatch.setattr("lrsc.cli.sweep",
                        lambda *a, **kw: pytest.fail("simulated before opening the outputs"))
    missing = str(tmp_path / "no-such-dir" / "out.csv")
    for opt in ("--out", "--hist-out"):
        res = _run("simulate", "2", "5", "2", "--eps", "0.1", opt, missing)
        assert res.exit_code == 2
        assert f"Invalid value for '{opt}'" in res.output


def test_simulate_q_applies_to_baseline():
    # the baseline gets the same --q as the lrsc code, as in `lrsc verify`
    res = _run("simulate", "2", "5", "--codes", "mds", "--q", "2", "--eps", "0.1", "-T", "100")
    assert res.exit_code == 2
    assert "too small for the diagonal MDS code" in res.output
    res = _run("simulate", "2", "5", "2", "--codes", "both", "--q", "4", "--eps", "0.1",
               "-T", "100")
    assert res.exit_code == 2
    assert "too small for the diagonal MDS code" in res.output
    res = _run("simulate", "2", "5", "--codes", "mds", "--q", "7", "--eps", "0.1", "-T", "100")
    assert res.exit_code == 0
    rows = [l for l in res.output.splitlines() if not l.startswith("warning:")]
    assert rows[1].startswith("0.1,mds-de-2-5,100,")


SIMULATE_OUT_OF_RANGE = [
    ["-T", "0"],
    ["-T", "-3"],
    ["--eps", "1.5"],
    ["--eps", "-0.2"],
    ["--eps", ","],
    ["--eps", "0.1,nan"],
]

VERIFY_OUT_OF_RANGE = [
    ["--trials", "0"],
    ["--budget", "0", "--deadline", "3"],
    ["--budget", "1", "--deadline", "-1"],
]


@pytest.mark.parametrize("cmd,args", [("simulate", a) for a in SIMULATE_OUT_OF_RANGE]
                         + [("verify", a) for a in VERIFY_OUT_OF_RANGE]
                         + [("table", ["--columns", "-1"])])
def test_out_of_range_number_is_usage_error(cmd, args, monkeypatch):
    # exit 2 with a message, not a traceback (exit 1) or a vacuous pass (exit 0)
    monkeypatch.setattr("lrsc.cli.sweep", lambda *a, **kw: pytest.fail("simulated"))
    base = ["2", "5", "2", "--eps", "0.1"] if cmd == "simulate" else ["2", "5", "2"]
    res = _run(cmd, *base, *args)
    assert res.exit_code == 2, res.output
    assert "Error" in res.output


def test_simulate_usage_error_keeps_existing_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr("lrsc.cli.sweep",
                        lambda *a, **kw: pytest.fail("simulated despite a usage error"))
    out = tmp_path / "sweep.csv"
    hist = tmp_path / "hist.csv"
    out.write_text("old sweep\n")
    hist.write_text("old hist\n")
    outputs = ["--out", str(out), "--hist-out", str(hist)]
    # a later option wins, so the last case swaps in a --hist-out that cannot open
    bad_hist = ["--hist-out", str(tmp_path / "no-such-dir" / "hist.csv")]
    for args in (["1", "5", "2", "--eps", "0.1"],
                 ["2", "5", "--codes", "mds", "--q", "2", "--eps", "0.1"],
                 ["2", "5", "2", "--eps", "0.1,x"],
                 *(["2", "5", "2", "--eps", "0.1", *a] for a in SIMULATE_OUT_OF_RANGE),
                 ["2", "5", "2", "--eps", "0.1", "-T", "10", *bad_hist]):
        res = _run("simulate", *outputs, *args)
        assert res.exit_code == 2, args
        assert out.read_text() == "old sweep\n"
        assert hist.read_text() == "old hist\n"


def test_simulate_rewrites_existing_outputs(tmp_path):
    out = tmp_path / "sweep.csv"
    hist = tmp_path / "hist.csv"
    out.write_text("a much longer old sweep than the new one will replace\n" * 50)
    hist.write_text("old hist\n" * 100)
    res = _run("simulate", "2", "5", "2", "--eps", "0.1", "-T", "50", "--codes", "lrsc",
               "--out", str(out), "--hist-out", str(hist))
    assert res.exit_code == 0
    assert out.read_text().startswith("epsilon,code,") and "old" not in out.read_text()
    assert hist.read_text().startswith("delay,count\n") and "old" not in hist.read_text()


def test_encode_decode_round_trip(tmp_path):
    msg = tmp_path / "msg.trace"
    coded = tmp_path / "coded.trace"
    back = tmp_path / "back.trace"
    msg.write_text("".join(f"{t} | [{t % 3}],[{(t + 1) % 3}]\n" for t in range(12)))
    res = _run("encode", "2", "5", "2", "--in", str(msg), "--out", str(coded))
    assert res.exit_code == 0
    res = _run("decode", "2", "5", "2", "--in", str(coded), "--out", str(back))
    assert res.exit_code == 0
    assert back.read_text() == msg.read_text()
    assert "lost=0" in res.output


def test_decode_with_erasure_window(tmp_path):
    msg = tmp_path / "msg.trace"
    coded = tmp_path / "coded.trace"
    back = tmp_path / "back.trace"
    msg.write_text("".join(f"{t} | [{t % 3}],[{(t + 2) % 3}]\n" for t in range(20)))
    _run("encode", "2", "5", "2", "--in", str(msg), "--out", str(coded))
    lines = coded.read_text().splitlines()
    lines[8] = "8 | ERASED"
    lines[10] = "10 | ERASED"
    coded.write_text("\n".join(lines) + "\n")
    res = _run("decode", "2", "5", "2", "--in", str(coded), "--out", str(back))
    assert res.exit_code == 0
    assert back.read_text() == msg.read_text()
    assert "max_delay=5" in res.output


def test_decode_lost_packet_exits_one(tmp_path):
    msg = tmp_path / "msg.trace"
    coded = tmp_path / "coded.trace"
    back = tmp_path / "back.trace"
    msg.write_text("".join(f"{t} | [1],[2]\n" for t in range(20)))
    _run("encode", "2", "5", "2", "--in", str(msg), "--out", str(coded))
    lines = coded.read_text().splitlines()
    for t in (8, 9, 10):
        lines[t] = f"{t} | ERASED"
    coded.write_text("\n".join(lines) + "\n")
    res = _run("decode", "2", "5", "2", "--in", str(coded), "--out", str(back))
    assert res.exit_code == 1
    assert "LOST" in back.read_text()


def test_encode_rejects_lost_line(tmp_path):
    msg = tmp_path / "msg.trace"
    msg.write_text("# header\n0 | [1],[2]\n1 | LOST\n")
    res = _run("encode", "2", "5", "2", "--in", str(msg))
    assert res.exit_code == 1
    assert "line 3" in res.output and "LOST" in res.output


def test_decode_inconsistent_parity_exits_one(tmp_path):
    msg = tmp_path / "msg.trace"
    coded = tmp_path / "coded.trace"
    msg.write_text("".join(f"{t} | [{t % 3}],[{(t + 1) % 3}]\n" for t in range(21)))
    _run("encode", "2", "5", "2", "--in", str(msg), "--out", str(coded))
    lines = coded.read_text().splitlines()
    for t in (9, 10, 11):
        lines[t] = f"{t} | ERASED"
    head, parity = lines[20].rsplit("| ", 1)
    lines[20] = head + ("| [1]" if parity == "[0]" else "| [0]")
    coded.write_text("\n".join(lines) + "\n")
    res = _run("decode", "2", "5", "2", "--in", str(coded))
    assert res.exit_code == 1
    assert "time 20: received parity inconsistent" in res.output


def test_decode_malformed_trace_reports_line(tmp_path):
    coded = tmp_path / "coded.trace"
    coded.write_text("0 | [1],[2] | [0]\nnonsense\n")
    res = _run("decode", "2", "5", "2", "--in", str(coded))
    assert res.exit_code == 1
    assert "line 2" in res.output


def test_help_lists_commands():
    res = _run("--help")
    assert res.exit_code == 0
    for cmd in ("params", "table", "verify", "simulate", "encode", "decode"):
        assert cmd in res.output
