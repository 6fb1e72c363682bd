"""Command-line frontend: parameter inspection, symbolic parity tables,
exhaustive verification, channel simulation, and trace encode/decode.

Exit codes: 0 success, 1 verification or decode failure, 2 usage error.
"""

from __future__ import annotations

import contextlib
import os
import sys

import click

from .codec import DecodeError, Decoder, Encoder, MdsDeCode, make_lrsc
from .oracle import verify_scalar, verify_stream
from .params import derive_params, rate_bound
from .sim import csv_rows, hist_rows, sweep
from . import trace as trace_io


_POSITIVE = click.IntRange(min=1)
_Q_HELP = ("Base field order override: a prime up to 65521 or a prime power up to 256, "
           "whose tower levels below the top stay within 2^16 elements.")


def _code_arguments(mds):
    """Declare A TAU R and --q.  With mds the command can also build the MDS
    baseline, which needs no R and a field of order at least n-1 = tau."""
    q_help = _Q_HELP + (" At least r+a-1 for lrsc, tau for mds." if mds else " At least r+a-1.")

    def decorate(f):
        # applied last to first, as stacked decorators are
        f = click.option("--q", type=int, default=None, help=q_help)(f)
        f = click.argument("r", type=int, required=not mds)(f)
        f = click.argument("tau", type=int)(f)
        return click.argument("a", type=int)(f)
    return decorate


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError from deriving or building a code as a usage error."""
    try:
        yield
    except ValueError as e:
        raise click.UsageError(str(e))


@click.group()
def main():
    """Locally recoverable streaming codes: construction, verification,
    simulation, and packet-trace encode/decode."""


@main.command("params")
@_code_arguments(mds=False)
def cmd_params(a, tau, r, q):
    """Derived parameters and the rate bound for an (A, TAU, R) code."""
    with _usage_errors():
        p = derive_params(a, tau, r, q)
    click.echo(f"a={p.a} tau={p.tau} r={p.r}")
    click.echo(f"regime: {p.regime}")
    click.echo(f"k={p.k} n={p.n}")
    if p.regime == "short":
        click.echo(f"u={p.u} v={p.v} ell={p.ell}")
    click.echo(f"q={p.q} Q={p.field_order}")
    click.echo(f"rate: {p.rate} (optimal bound {rate_bound(a, tau, r)})")


def _render_coeff(field, c):
    if c == 1:
        return ""
    if field.levels == 1 and field.m == 1:
        return str(c)
    return field.format_element(c)


def render_parity_expr(field, terms):
    """Terms (coeff, symbol, time) -> 'm_0(0)+2m_1(1)', '-' when empty."""
    if not terms:
        return "-"
    return "+".join(f"{_render_coeff(field, c)}m_{j}({tt})" for c, j, tt in terms)


def parity_table(code, t_max):
    """Per time step, per parity row, the normalized term list
    (coeff, symbol, time) with times ascending."""
    return [[[(c, j, t - d) for j, d, c in template if d <= t] for template in code.templates]
            for t in range(t_max + 1)]


@main.command("table")
@_code_arguments(mds=False)
@click.option("--columns", type=click.IntRange(min=0), default=None, help="Last time column to print (default 2*tau).")
def cmd_table(a, tau, r, q, columns):
    """Symbolic parity table, one line per time step: 't=T | p0 | p1 ...'."""
    code = _build_code(a, tau, r, q, "lrsc")
    t_max = columns if columns is not None else 2 * tau
    for t, row in enumerate(parity_table(code, t_max)):
        cells = " | ".join(render_parity_expr(code.field, terms) for terms in row)
        click.echo(f"t={t} | {cells}")


def _build_code(a, tau, r, q, kind):
    if kind == "lrsc" and r is None:
        raise click.UsageError("R is required for the lrsc code")
    with _usage_errors():
        return MdsDeCode(a, tau, q) if kind == "mds" else make_lrsc(a, tau, r, q)


@main.command("verify")
@_code_arguments(mds=True)
@click.option("--code", "kind", type=click.Choice(["lrsc", "mds"]), default="lrsc")
@click.option("--budget", type=_POSITIVE, default=None, help="Erasure budget h (runs a single stream suite).")
@click.option("--deadline", type=click.IntRange(min=0), default=None, help="Recovery deadline d for --budget.")
@click.option("--trials", type=_POSITIVE, default=1, help="Random message streams per pattern set.")
@click.option("--seed", type=int, default=0, help="Message stream seed.")
def cmd_verify(a, tau, r, q, kind, budget, deadline, trials, seed):
    """Exhaustive recoverability check; exits 1 on any failure.

    Default battery for lrsc: the block-code span criterion (exact regime),
    the full-budget deadline, and the single-erasure deadline.  Give
    --budget/--deadline to run one specific stream suite instead.
    """
    if (budget is None) != (deadline is None):
        raise click.UsageError("--budget and --deadline go together")
    code = _build_code(a, tau, r, q, kind)
    if budget is not None:
        suites = [(budget, deadline)]
    else:
        suites = [(a, tau), (1, code.params.r)] if kind == "lrsc" else [(a, tau)]
    exact = budget is None and kind == "lrsc" and code.params.regime == "exact"
    reports = [verify_scalar(code.weights)] if exact else []
    reports += [verify_stream(code, h, d, trials=trials, seed=seed) for h, d in suites]
    for rep in reports:
        click.echo(f"{rep.description}: {rep.summary()}")
        if rep.transitions:
            click.echo(f"  decoder table: transitions={rep.transitions} replays={rep.replays}")
        for fail in rep.failures[:20]:
            click.echo(f"  FAIL pattern={fail.pattern} {fail.detail}")
    sys.exit(1 if any(rep.failures for rep in reports) else 0)


def _open_output(path, option):
    """Open an output path to append, so a failed open of another output
    leaves it whole (a no-op context for None); a path that cannot be
    opened is a usage error against that option."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return click.open_file(path, "a")
    except OSError as e:
        raise click.BadParameter(f"'{path}': {e.strerror}", param_hint=f"'{option}'")


@main.command("simulate")
@_code_arguments(mds=True)
@click.option("--eps", required=True, help="Comma-separated erasure probabilities.")
@click.option("--T", "-T", "packets", type=_POSITIVE, default=100000, help="Message packets per run.")
@click.option("--seed", type=int, default=0, help="Master seed: derives each point's channel seed and its CSV seed column.")
@click.option("--codes", type=click.Choice(["both", "lrsc", "mds"]), default="both")
@click.option("--out", default=None, help="CSV output path (default stdout).")
@click.option("--hist-out", default=None, help="Delay histogram CSV path.")
@click.option("--format", "fmt", type=click.Choice(["csv", "text"]), default="csv")
def cmd_simulate(a, tau, r, q, eps, packets, seed, codes, out, hist_out, fmt):
    """Monte Carlo erasure-channel sweep; emits one CSV row per (eps, code)."""
    try:
        eps_list = [float(x) for x in eps.split(",") if x.strip()]
    except ValueError:
        eps_list = []
    if not eps_list or not all(0 <= e <= 1 for e in eps_list):
        raise click.UsageError(f"bad --eps list {eps!r}: give probabilities in [0, 1]")
    kinds = ["lrsc", "mds"] if codes == "both" else [codes]
    targets = [_build_code(a, tau, r, q, kind) for kind in kinds]
    with _open_output(out, "--out") as out_fh, _open_output(hist_out, "--hist-out") as hist_fh:
        for path, fh in ((out, out_fh), (hist_out, hist_fh)):
            if fh is not None and path != "-" and os.path.isfile(path):
                fh.truncate(0)
        results = [res for code in targets for res in sweep(code, eps_list, packets, seed=seed)]
        for res in results:
            if res.low_confidence:
                click.echo(f"warning: loss count {res.lost} < 20 at eps={res.eps} "
                           f"for {res.code_label}; estimate unstable", err=True)
        if fmt == "text":
            lines = [f"{'eps':>8} {'code':>16} {'loss_prob':>12} {'ci':>10} {'mean_delay':>11} "
                     f"{'mean(erased)':>13}"]
            for res in results:
                mean = f"{res.mean_delay:.4f}" if res.mean_delay is not None else "-"
                mer = f"{res.mean_delay_erased:.3f}" if res.mean_delay_erased is not None else "-"
                lines.append(f"{res.eps:>8} {res.code_label:>16} {res.loss_prob:>12.6f} "
                             f"{res.loss_ci:>10.6f} {mean:>11} {mer:>13}")
        else:
            lines = list(csv_rows(results))
        click.echo("\n".join(lines), file=out_fh)
        if hist_fh:
            click.echo("\n".join(hist_rows(results)), file=hist_fh)


@main.command("encode")
@_code_arguments(mds=False)
@click.option("--in", "infile", type=click.File("r"), default="-", help="Message trace (default stdin).")
@click.option("--out", "outfile", type=click.File("w"), default="-", help="Coded trace (default stdout).")
def cmd_encode(a, tau, r, q, infile, outfile):
    """Encode a message trace into a coded packet trace."""
    code = _build_code(a, tau, r, q, "lrsc")
    try:
        records = list(trace_io.read_trace(infile, code.field, (code.k,), trace_io.LOST))
        for lineno, msg in records:
            if msg is None:
                raise trace_io.TraceError(lineno, "a LOST packet cannot be encoded")
    except trace_io.TraceError as e:
        raise click.ClickException(str(e))
    enc = Encoder(code)
    rows = [enc.push(m) for _, m in records]
    trace_io.write_trace(outfile, code.field, rows, (code.k, code.n - code.k), trace_io.ERASED)


@main.command("decode")
@_code_arguments(mds=False)
@click.option("--in", "infile", type=click.File("r"), default="-", help="Coded trace (default stdin).")
@click.option("--out", "outfile", type=click.File("w"), default="-", help="Recovered message trace.")
def cmd_decode(a, tau, r, q, infile, outfile):
    """Decode a coded trace (with ERASED lines) back into a message trace;
    exits 1 if any packet misses its deadline."""
    code = _build_code(a, tau, r, q, "lrsc")
    try:
        slots = [syms for _, syms in trace_io.read_trace(
            infile, code.field, (code.k, code.n - code.k), trace_io.ERASED)]
    except trace_io.TraceError as e:
        raise click.ClickException(str(e))
    dec = Decoder(code)
    recovered = {}      # t -> its recovered outcome
    try:
        for t, syms in enumerate(slots):
            recovered.update((ev.t, ev) for ev in dec.push(t, syms) if ev.recovered)
    except DecodeError as e:
        raise click.ClickException(f"time {t}: {e}")
    messages = [recovered[t].message if t in recovered else None for t in range(len(slots))]
    trace_io.write_trace(outfile, code.field, messages, (code.k,), trace_io.LOST)
    lost = len(slots) - len(recovered)
    max_delay = max((ev.delay for ev in recovered.values()), default=0)
    click.echo(f"packets={len(slots)} recovered={len(slots) - lost} lost={lost} "
               f"max_delay={max_delay}", err=True)
    if lost:
        sys.exit(1)


if __name__ == "__main__":
    main()
