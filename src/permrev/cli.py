"""Command-line surface.

Exit codes: 0 success or pass, 1 usage or I/O error, 2 verification
failure, 3 capacity exceeded.
"""

from __future__ import annotations

import sys

import click

from .dfa import Dfa, apply_word
from .errors import CapacityError
from .minimize import asc as _asc
from .minimize import minimize as _minimize
from .records import replace
from .reversal import DEFAULT_MAX_STATES, mask_states, reverse_dfa
from .spectrum import (
    DEFAULT_SEED,
    MagicProbeReport,
    magic_one_probe,
    spectrum_table,
)
from .textio import (
    emit_dfa,
    emit_dot,
    parse_dfa,
    report_to_json,
    word_from_str,
)
from .witness import (
    DEFAULT_STATE_CAP,
    WitnessParams,
    WitnessReport,
    _reverse_stars,
    _witness_report,
    build_witness,
    star_label,
    subset_label,
    verify_witness,
)


# State bound of the probe behind `spectrum --probe-samples`; also the
# default of `probe-magic-one --n-max`.
PROBE_N_MAX = 6


class _VerificationFailed(Exception):
    """A check came out false; the CLI exits 2."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


@click.group()
def cli() -> None:
    """Permutation-automaton reversal toolkit."""


def _state_cap(help: str = "Exit 3 if the witness has more states than this."):
    return click.option(
        "--state-cap", default=DEFAULT_STATE_CAP, show_default=True, type=int, help=help
    )


@cli.command()
@click.argument("m", type=int)
@click.argument("alpha", type=int)
@click.option("--out", default=None, help="Write the DFA document here ('-' = stdout).")
@click.option("--dot", default=None, help="Also write a Graphviz rendering here.")
@_state_cap()
def witness(
    m: int, alpha: int, out: str | None, dot: str | None, state_cap: int
) -> None:
    """Build the witness automaton for (M, ALPHA) and emit it."""
    dfa = build_witness(m, alpha, state_cap=state_cap)
    _write_text(out, emit_dfa(dfa))
    if dot is not None:
        _write_text(dot, emit_dot(dfa))


@cli.command()
@click.argument("infile")
@click.option("--out", default=None, help="Output path ('-' = stdout).")
@click.option("--max-states", default=DEFAULT_MAX_STATES, show_default=True, type=int)
def reverse(infile: str, out: str | None, max_states: int) -> None:
    """Reverse subset construction of the DFA in INFILE, reachable part."""
    dfa = parse_dfa(_read_text(infile))
    _write_text(out, emit_dfa(reverse_dfa(dfa, max_states=max_states)))


@cli.command()
@click.argument("infile")
@click.option("--out", default=None, help="Output path ('-' = stdout).")
def minimize(infile: str, out: str | None) -> None:
    """Canonical minimal DFA of the DFA in INFILE."""
    dfa = parse_dfa(_read_text(infile))
    _write_text(out, emit_dfa(_minimize(dfa)))


@cli.command()
@click.argument("infile")
def asc(infile: str) -> None:
    """Accepting-state complexity of the language of the DFA in INFILE."""
    dfa = parse_dfa(_read_text(infile))
    click.echo(str(_asc(dfa)))


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def _star_and_asc_lines(report: WitnessReport) -> list[str]:
    """The accepting stars and the asc line, as verify and example print them."""
    lines = [f"accepting stars ({len(report.accepting_stars)}):"]
    for star in report.accepting_stars:
        members = ",".join(subset_label(member) for member in star.members)
        lines.append(f"  {star_label(star.center)} = {{{members}}}")
    lines.append(f"asc: forward={report.asc_forward} reverse={report.asc_reverse}")
    return lines


def _format_witness_report(report: WitnessReport) -> str:
    params = report.params
    lines = [
        f"witness m={params.m} alpha={params.alpha} (n={params.n})",
        f"forward: states={report.forward_states} finals={report.forward_finals}"
        f" minimal={_yes(report.forward_minimal)}",
        f"reverse: states={report.reverse_states} finals={report.reverse_finals}"
        f" minimal={_yes(report.reverse_minimal)} stars={_yes(report.stars_match)}",
        *_star_and_asc_lines(report),
    ]
    lines.append(
        "result: PASS" if report.passed else f"result: FAIL ({report.first_failure})"
    )
    return "\n".join(lines)


@cli.command()
@click.argument("m", type=int)
@click.argument("alpha", type=int)
@click.option("--json", "json_path", default=None, help="Also write the report as JSON.")
@_state_cap()
def verify(m: int, alpha: int, json_path: str | None, state_cap: int) -> None:
    """Machine-check the witness for (M, ALPHA); exit 2 when a check fails."""
    report = verify_witness(m, alpha, state_cap=state_cap)
    click.echo(_format_witness_report(report))
    if json_path is not None:
        _write_text(json_path, report_to_json(report))
    if not report.passed:
        raise _VerificationFailed(report.first_failure)


def _format_probe_report(report: MagicProbeReport) -> str:
    histogram = " ".join(
        f"({forward},{reverse})={count}"
        for (forward, reverse), count in report.histogram
    )
    lines = [
        f"drawn={report.drawn} checked(asc>=2)={report.checked} "
        f"counterexamples={len(report.counterexamples)}",
        f"histogram: {histogram or '(none)'}",
    ]
    for dfa, forward, reverse_asc in report.counterexamples:
        lines.append(f"counterexample: asc={forward} reverse asc={reverse_asc}")
        lines.append(emit_dfa(dfa).rstrip("\n"))
    return "\n".join(lines)


@cli.command()
@click.option("--m-max", default=5, show_default=True, type=int)
@click.option("--alpha-max", default=5, show_default=True, type=int)
@click.option(
    "--probe-samples",
    default=0,
    show_default=True,
    type=int,
    help=f"Also run the magic-value probe (n_max {PROBE_N_MAX}, seed {DEFAULT_SEED})"
    " until this many automata with asc >= 2 are checked.",
)
@click.option("--json", "json_path", default=None, help="Also write the report as JSON.")
@_state_cap("Skip the grid cells whose witness has more states than this.")
def spectrum(
    m_max: int,
    alpha_max: int,
    probe_samples: int,
    json_path: str | None,
    state_cap: int,
) -> None:
    """Verify the asc pairs across the witness grid plus the trivial rows."""
    probe = None
    if probe_samples:
        probe = magic_one_probe(
            PROBE_N_MAX, probe_samples, DEFAULT_SEED, count_checked_only=True
        )
    report = replace(
        spectrum_table(m_max, alpha_max, state_cap=state_cap), magic_probe=probe
    )
    for row in report.rows:
        pair = (
            "skipped"
            if row.asc_forward is None
            else f"({row.asc_forward},{row.asc_reverse})"
        )
        click.echo(f"m={row.m} alpha={row.alpha} asc={pair} {row.verdict}")
    if probe is not None:
        click.echo(_format_probe_report(probe))
    click.echo(f"result: {'PASS' if report.passed else 'FAIL'}")
    if json_path is not None:
        _write_text(json_path, report_to_json(report))
    if not report.passed:
        raise _VerificationFailed("spectrum grid")


@cli.command("probe-magic-one")
@click.option("--n-max", default=PROBE_N_MAX, show_default=True, type=int)
@click.option("--samples", default=1000, show_default=True, type=int)
@click.option("--seed", default=DEFAULT_SEED, show_default=True, type=int)
@click.option(
    "--require-asc2",
    is_flag=True,
    help="Count only samples whose asc is at least 2.",
)
def probe_magic_one(n_max: int, samples: int, seed: int, require_asc2: bool) -> None:
    """Search random permutation automata for a reversal with asc 1."""
    report = magic_one_probe(n_max, samples, seed, count_checked_only=require_asc2)
    click.echo(_format_probe_report(report))
    if not report.passed:
        raise _VerificationFailed("magic-one probe found a counterexample")


@cli.command()
def example() -> None:
    """Reproduce the worked m=3, alpha=4 reversal computation."""
    params = WitnessParams(3, 4)
    walk = _reverse_stars(params, DEFAULT_STATE_CAP)
    keys, columns, rev_finals = walk[2:5]
    names = [
        star_label(tuple(mask_states(key))) if isinstance(key, int) else str(i)
        for i, key in enumerate(keys)
    ]
    # the reverse start is state 0, the subset of the forward finals
    rev = Dfa(len(keys), 2, columns, 0, rev_finals, names)
    chain = [apply_word(rev, 0, (0,) * i) for i in range(6)]
    end, word = chain[-1], apply_word(rev, 0, word_from_str("aabaaaa"))

    click.echo(f"worked example: witness m=3 alpha=4 (n={params.n})")
    click.echo(f"reverse start: {rev.label(0)}")
    click.echo("a-chain: " + " -a-> ".join(map(rev.label, chain)))
    click.echo(f"b-step: {rev.label(end)} -b-> {rev.label(apply_word(rev, end, (1,)))}")
    click.echo(f"word a2ba4: {rev.label(0)} -a2ba4-> {rev.label(word)}")
    click.echo("\n".join(_star_and_asc_lines(_witness_report(params, walk))))


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except _VerificationFailed as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 2
    except CapacityError as exc:
        stage = f"{exc.stage}: " if exc.stage else ""
        click.echo(f"capacity exceeded: {stage}{exc}", err=True)
        return 3
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
