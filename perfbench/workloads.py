"""The four benchmark workloads: set-up, one job, and the check of its output.

Each workload is a closed loop of one client: a job starts when the
previous one has been checked. Only the probe takes its input from the
seed; the other three run the paper's fixed witnesses. Why each workload
was chosen is written down in README.md beside this file.

The textio job calls the emitters through the ``textio`` module object, so
that a traced run can wrap them from outside.
"""

from __future__ import annotations

import json
import math

from permrev import (
    build_witness,
    magic_one_probe,
    reverse_dfa,
    spectrum_table,
    textio,
    verify_witness,
)

PROBE_N_MAX = 8


class CheckFailed(Exception):
    """A job finished but its output is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_witness_report(report, m: int, alpha: int) -> None:
    n = m + alpha - 1
    expect(report.passed, f"verify({m}, {alpha}) failed at {report.first_failure}")
    expect(
        (report.asc_forward, report.asc_reverse) == (m, alpha),
        f"asc pair {(report.asc_forward, report.asc_reverse)} != {(m, alpha)}",
    )
    expect(report.forward_states == math.comb(n, alpha), "wrong forward state count")
    expect(report.reverse_states == math.comb(n, alpha - 1), "wrong reverse state count")


def check_spectrum_report(report, m_max: int, alpha_max: int) -> None:
    expected = [(0, 0), (1, 1)] + [
        (m, alpha) for m in range(2, m_max + 1) for alpha in range(2, alpha_max + 1)
    ]
    expect([(r.m, r.alpha) for r in report.rows] == expected, "grid rows differ")
    for row in report.rows:
        expect(
            row.verdict == "pass"
            and (row.asc_forward, row.asc_reverse) == (row.m, row.alpha),
            f"row ({row.m}, {row.alpha}) reads "
            f"({row.asc_forward}, {row.asc_reverse}) {row.verdict}",
        )
    expect(report.passed, "grid report did not pass")


class Verify:
    """One ``verify_witness(m, alpha)`` per job."""

    def __init__(self, m: int, alpha: int, warm: tuple[int, int]) -> None:
        self.m, self.alpha, self.warm = m, alpha, warm

    def setup(self) -> None:
        check_witness_report(verify_witness(*self.warm), *self.warm)

    def job(self):
        return verify_witness(self.m, self.alpha)

    def check(self, report) -> None:
        check_witness_report(report, self.m, self.alpha)

    def sizes(self) -> dict:
        n = self.m + self.alpha - 1
        return {
            "forward_states": math.comb(n, self.alpha),
            "reverse_states": math.comb(n, self.alpha - 1),
        }


class Grid:
    """One ``spectrum_table(m_max, alpha_max)`` per job."""

    def __init__(self, m_max: int, alpha_max: int, warm: int) -> None:
        self.m_max, self.alpha_max, self.warm = m_max, alpha_max, warm

    def setup(self) -> None:
        check_spectrum_report(spectrum_table(self.warm, self.warm), self.warm, self.warm)

    def job(self):
        return spectrum_table(self.m_max, self.alpha_max)

    def check(self, report) -> None:
        check_spectrum_report(report, self.m_max, self.alpha_max)

    def sizes(self) -> dict:
        cells = [
            math.comb(m + alpha - 1, alpha)
            for m in range(2, self.m_max + 1)
            for alpha in range(2, self.alpha_max + 1)
        ]
        return {"cells": len(cells), "forward_states": sum(cells),
                "largest_cell_states": max(cells)}


class Probe:
    """One ``magic_one_probe`` per job, counting checked automata only."""

    def __init__(self, seed: int, samples: int, warm_samples: int) -> None:
        self.seed, self.samples, self.warm_samples = seed, samples, warm_samples
        self.drawn: int | None = None

    def _check(self, report, samples: int) -> None:
        expect(report.seed == self.seed, "probe ran with another seed")
        expect(report.checked == samples, f"checked {report.checked} of {samples}")
        expect(report.drawn >= report.checked, "drew fewer than it checked")
        expect(not report.counterexamples,
               f"{len(report.counterexamples)} counterexamples")

    def setup(self) -> None:
        report = magic_one_probe(PROBE_N_MAX, self.warm_samples, self.seed,
                                 count_checked_only=True)
        self._check(report, self.warm_samples)

    def job(self):
        return magic_one_probe(PROBE_N_MAX, self.samples, self.seed,
                               count_checked_only=True)

    def check(self, report) -> None:
        self._check(report, self.samples)
        if self.drawn is None:
            self.drawn = report.drawn
        expect(report.drawn == self.drawn,
               f"drew {report.drawn}, an earlier job drew {self.drawn}")

    def sizes(self) -> dict:
        return {"max_states": PROBE_N_MAX,
                "max_reverse_states": math.comb(PROBE_N_MAX, PROBE_N_MAX // 2),
                "checked": self.samples, "drawn": self.drawn}


class Textio:
    """Round-trip the forward and reverse DFAs of a witness grid as text.

    Set-up builds the DFAs and the grid report; a job emits and re-parses
    every DFA document, writes every DFA as DOT and the report as JSON.
    """

    def __init__(self, m_max: int, alpha_max: int) -> None:
        self.m_max, self.alpha_max = m_max, alpha_max

    def setup(self) -> None:
        self.report = spectrum_table(self.m_max, self.alpha_max)
        self.dfas = []
        for m in range(2, self.m_max + 1):
            for alpha in range(2, self.alpha_max + 1):
                fwd = build_witness(m, alpha)
                self.dfas += [fwd, reverse_dfa(fwd)]

    def job(self):
        documents = []
        for dfa in self.dfas:
            parsed = textio.parse_dfa(textio.emit_dfa(dfa))
            documents.append((parsed, textio.emit_dot(dfa)))
        return documents, textio.report_to_json(self.report)

    def check(self, result) -> None:
        documents, report_json = result
        expect(len(documents) == len(self.dfas), "documents missing")
        for dfa, (parsed, dot) in zip(self.dfas, documents):
            expect(parsed == dfa, "DFA document did not round-trip")
            edges = dot.count(" -> q")
            expect(edges == dfa.num_states * dfa.alphabet_size + 1,
                   f"DOT has {edges} edges")
        rows = [
            (r["m"], r["alpha"], r["asc_forward"], r["asc_reverse"], r["verdict"])
            for r in json.loads(report_json)["rows"]
        ]
        expect(rows == [(r.m, r.alpha, r.asc_forward, r.asc_reverse, r.verdict)
                        for r in self.report.rows], "JSON report did not load back")

    def sizes(self) -> dict:
        return {"dfas": len(self.dfas),
                "states": sum(dfa.num_states for dfa in self.dfas)}


def make(name: str, seed: int, smoke: bool):
    """The named workload at full size, or on tiny inputs for the smoke mode."""
    if name == "verify":
        return Verify(3, 4, warm=(2, 2)) if smoke else Verify(8, 7, warm=(6, 6))
    if name == "grid":
        return Grid(3, 3, warm=2) if smoke else Grid(7, 7, warm=6)
    if name == "probe":
        return Probe(seed, 50, 10) if smoke else Probe(seed, 2000, 500)
    if name == "textio":
        return Textio(3, 3) if smoke else Textio(7, 7)
    raise ValueError(f"unknown workload {name!r}")
