"""Command-line interface."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import lrsc.cli
from lrsc.cli import main
from lrsc.codec import make_lrsc

from conftest import closed_form_parity


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
                                  ("simulate", "2", "5", "2", "--q", "343", "--eps", "0.1"),
                                  ("params", "2", "5", "2", "--q", "343"),
                                  ("params", "2", "5", "2", "--q", "625"),
                                  ("params", "2", "5", "2", "--q", "289")])
def test_field_above_desk_scale_is_usage_error(args):
    # the first printed a 4933-digit order (int-to-str traceback, exit 1);
    # the second hung building GF(7^16); the next three ended in a traceback
    # from building GF(7^3), above the 256 cap on a base field of prime
    # powers, and the last three printed Q for 7^3, 5^4 and 17^2
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


def test_default_search_skips_base_orders_that_cannot_be_built():
    # 289 = 17^2 is a prime power above the 256 cap; 293 is prime
    res = _run("params", "2", "300", "287")
    assert res.exit_code == 0
    assert "q=293 Q=293" in res.output
    res = _run("simulate", "2", "288", "--codes", "mds", "--eps", "0.1", "-T", "10")
    assert res.exit_code == 0, res.output
    assert "mds-de-2-288" in res.output


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


def test_table_over_a_tower_field_evaluates_to_the_closed_form():
    # over GF(16) a coefficient prints in its bracketed GF(2) form; each
    # cell, read back and evaluated on a random stream, is that parity
    code = make_lrsc(3, 8, 2)
    f = code.field
    assert f.order == 16
    res = _run("table", "3", "8", "2")
    assert res.exit_code == 0
    rng = random.Random(5)
    history = {t: tuple(rng.randrange(f.order) for _ in range(code.k)) for t in range(2 * code.tau + 1)}
    bracketed = 0
    for t, line in enumerate(res.output.splitlines()):
        head, *cells = line.split(" | ")
        assert head == f"t={t}" and len(cells) == len(code.templates)
        for i, cell in enumerate(cells):
            acc = 0
            if cell != "-":
                for term in cell.split("+"):
                    coeff, j, tt = re.fullmatch(r"(\[[0-9,]*\])?m_(\d+)\((\d+)\)", term).groups()
                    c = f.parse_element(coeff) if coeff else 1
                    bracketed += coeff is not None
                    acc = f.add(acc, f.mul(c, history[int(tt)][int(j)]))
            assert acc == closed_form_parity(code, i, history, t), (t, i, cell)
    assert bracketed


def test_verify_passes_and_exits_zero():
    res = _run("verify", "2", "5", "2")
    assert res.exit_code == 0
    assert "failures=0" in res.output
    assert "scalar" in res.output


def test_verify_prints_each_stream_suites_decoder_table():
    # under each stream suite, never under the scalar one: the moves its
    # trial decoder's table recorded, and the pushes that replayed one
    res = _run("verify", "2", "5", "2")
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "scalar a=2 r=2: patterns=15 failures=0",
        "stream lrsc-2-5-2 budget=2 deadline=5: patterns=42 failures=0 max_delay[1]=2 max_delay[2]=5",
        "  decoder table: transitions=13 replays=82",
        "stream lrsc-2-5-2 budget=1 deadline=2: patterns=7 failures=0 max_delay[1]=2",
        "  decoder table: transitions=4 replays=28",
    ]


def test_verify_failure_exits_one():
    res = _run("verify", "1", "2", "--code", "mds", "--budget", "2", "--deadline", "5")
    assert res.exit_code == 1
    assert "failures=14" in res.output
    assert "FAIL" in res.output


@pytest.mark.parametrize("args", [("2", "5", "2", "--q", "10", "--budget", "2"),
                                  ("2", "5", "2", "--q", "65521", "--deadline", "3"),
                                  ("2", "5", "--code", "mds", "--budget", "1")])
def test_verify_budget_without_deadline_fails_before_building(args, monkeypatch):
    # the pairing is checked first: --q 10 used to report "not a prime
    # power", and --q 65521 built GF(65521)'s tables before the error
    def no_build(*_):
        raise AssertionError("code built before the option check")
    monkeypatch.setattr(lrsc.cli, "make_lrsc", no_build)
    monkeypatch.setattr(lrsc.cli, "MdsDeCode", no_build)
    res = _run("verify", *args)
    assert res.exit_code == 2
    assert "--budget and --deadline go together" in res.output


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


@pytest.mark.parametrize("args,message", [
    (("verify", "0", "5", "--code", "mds"), "a must be at least 1, got a=0"),
    (("simulate", "6", "5", "--codes", "mds", "--eps", "0.1"), "a must not exceed tau, got a=6, tau=5")])
def test_mds_a_outside_1_to_tau_is_usage_error(args, message):
    res = _run(*args)
    assert res.exit_code == 2
    assert message in res.output


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


def test_decode_corrupted_parity_on_a_clean_stream_exits_one(tmp_path):
    # no erasure anywhere: the corrupted parity is still read and named
    msg = tmp_path / "msg.trace"
    coded = tmp_path / "coded.trace"
    msg.write_text("".join(f"{t} | [{t % 3}],[{(t + 1) % 3}]\n" for t in range(21)))
    _run("encode", "2", "5", "2", "--in", str(msg), "--out", str(coded))
    lines = coded.read_text().splitlines()
    head, parity = lines[14].rsplit("| ", 1)
    lines[14] = head + ("| [1]" if parity == "[0]" else "| [0]")
    coded.write_text("\n".join(lines) + "\n")
    res = _run("decode", "2", "5", "2", "--in", str(coded))
    assert res.exit_code == 1
    assert "time 14: received parity inconsistent" in res.output


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


@pytest.mark.parametrize("cmd", ["lrsc", "params", "table", "verify", "simulate", "encode", "decode"])
def test_help_is_golden(cmd):
    # every command's usage line, arguments, options and help texts, at a
    # fixed width, pinned by files recorded before A TAU R and --q were
    # declared once for all commands
    args = ["--help"] if cmd == "lrsc" else [cmd, "--help"]
    res = CliRunner().invoke(main, args, prog_name="lrsc", env={"COLUMNS": "80"})
    assert res.exit_code == 0
    golden = Path(__file__).resolve().parent / "golden" / f"help_{cmd}.out"
    assert res.output == golden.read_text()


@pytest.mark.parametrize("cmd,minimum", [
    ("params", "At least r+a-1."), ("table", "At least r+a-1."),
    ("verify", "At least r+a-1 for lrsc, tau for mds."),
    ("simulate", "At least r+a-1 for lrsc, tau for mds."),
    ("encode", "At least r+a-1."), ("decode", "At least r+a-1."),
])
def test_q_help_states_the_minimum(cmd, minimum):
    res = _run(cmd, "--help")
    assert res.exit_code == 0
    assert minimum in " ".join(res.output.split())


@pytest.mark.parametrize("args,q_min", [(("2", "5", "2"), 3), (("2", "5", "--code", "mds"), 5)])
def test_q_minimum_in_help_is_the_boundary(args, q_min):
    assert _run("verify", *args, "--q", str(q_min - 1)).exit_code == 2
    assert _run("verify", *args, "--q", str(q_min)).exit_code == 0
