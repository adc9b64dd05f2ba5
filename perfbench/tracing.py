"""Outside-in tracing of permrev's layers for the traced benchmark run.

The library is not instrumented. While a traced job runs, each name that
one permrev module imports from another (and each textio entry point the
benchmark calls) is replaced by a wrapper that records a span and a few
counts, and the original is put back when the job ends. The real
``verify_witness``, ``spectrum_table`` and ``magic_one_probe`` therefore run
unmodified, and the spans show the calls they actually make.

Calls inside one module (``minimize.asc`` calling ``minimize.minimize``,
``perms.ksubsets`` recursing) stay unwrapped: their time is the self time
of the wrapped call around them.
"""

from __future__ import annotations

import time
import types
from collections import Counter, defaultdict

from permrev import dfa, spectrum, textio, witness

PERMS_IN_WITNESS = ("act_on_subset", "colex_rank", "colex_unrank", "cycle_perm",
                    "ksubsets", "perm_inverse", "transposition_perm")

# (owner, attribute, layer) for every wrapped name; the span is named
# "<owner>.<attribute>".
WRAPPED = (
    [
        (witness, "build_witness", "witness.build"),
        (spectrum, "build_witness", "witness.build"),
        (witness, "classify_reverse_states", "witness.classify"),
        (witness, "reverse_dfa", "reversal"),
        (witness, "reverse_subsets", "reversal"),
        (witness, "reverse_step", "reversal"),
        (witness, "mask_states", "reversal"),
        (spectrum, "reverse_dfa", "reversal"),
        (witness, "minimize", "minimize"),
        (witness, "asc", "minimize"),
        (spectrum, "asc", "minimize"),
        (spectrum, "random_pfa", "spectrum.sample"),
        (dfa.Dfa, "__post_init__", "dfa.validate"),
        (textio, "emit_dfa", "textio.emit"),
        (textio, "emit_dot", "textio.emit"),
        (textio, "report_to_json", "textio.emit"),
        (textio, "parse_dfa", "textio.parse"),
    ]
    + [(witness, name, "perms") for name in PERMS_IN_WITNESS]
)

ROOT = "job"


def _owner_name(owner) -> str:
    return owner.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans and counts of the traced jobs of one run, kept in memory.

    A span is ``(name, start, end, parent, job)``; ``parent`` is the index
    of the enclosing span, or -1 for a job's root span.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.layer_of = {ROOT: "entry"}
        for owner, attr, layer in WRAPPED:
            self.layer_of[f"{_owner_name(owner)}.{attr}"] = layer
        self.counts: Counter = Counter()
        self.jobs = 0
        self._stack: list[int] = []
        self._job = -1
        self._explored: dict[int, object] = {}
        self._minimized: dict[int, object] = {}

    def _wrap(self, owner, attr: str, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        explored, minimized = self._explored, self._minimized
        layer = self.layer_of[name]

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, types.GeneratorType):
                    result = iter(list(result))
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._job)
            if layer == "reversal" and attr in ("reverse_dfa", "reverse_subsets"):
                counts["explorations"] += 1
                explored[id(args[0])] = args[0]
                counts["subsets_interned"] += (
                    result.num_states if attr == "reverse_dfa" else len(result))
                if owner is spectrum:
                    counts["spectrum.reversals"] += 1
            elif layer == "minimize":
                minimized[id(args[0])] = args[0]
                counts["states_in"] += args[0].num_states
            elif layer == "spectrum.sample":
                counts["draws"] += 1
            elif layer == "textio.emit":
                counts["bytes"] += len(result.encode())
            return result

        return traced

    def run(self, job):
        """Run ``job()`` traced under a root span; return (result, seconds)."""
        originals = []
        for owner, attr, _ in WRAPPED:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            name = f"{_owner_name(owner)}.{attr}"
            setattr(owner, attr, self._wrap(owner, attr, name, fn))
        self._job = self.jobs
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = job()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (ROOT, start, end, -1, self._job)
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self.jobs += 1
            self.counts["automata_explored"] += len(self._explored)
            self.counts["automata_minimized"] += len(self._minimized)
            self._explored.clear()
            self._minimized.clear()
        return result, end - start

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and span count per layer, summed over all jobs.

        Spans nest strictly on one thread, so the part of a span its
        children cover is the sum of their durations.
        """
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            layer = self.layer_of[name]
            self_s[layer] += end - start - covered[sid]
            calls[layer] += 1
        return self_s, calls

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, as means per traced job (ratios over all jobs)."""
        self_s, calls = self.layer_totals()
        c, jobs = self.counts, self.jobs

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "reversal.self_s": self_s["reversal"] / jobs,
            "reversal.calls": calls["reversal"] / jobs,
            "reversal.subsets_interned": c["subsets_interned"] / jobs,
            "reversal.explorations_per_automaton":
                ratio(c["explorations"], c["automata_explored"]),
            "witness.classify_self_s": self_s["witness.classify"] / jobs,
            "witness.build_self_s": self_s["witness.build"] / jobs,
            "minimize.self_s": self_s["minimize"] / jobs,
            "minimize.calls": calls["minimize"] / jobs,
            "minimize.states_in": c["states_in"] / jobs,
            "minimize.calls_per_automaton":
                ratio(calls["minimize"], c["automata_minimized"]),
            "spectrum.sample_self_s": self_s["spectrum.sample"] / jobs,
            "spectrum.draws": c["draws"] / jobs,
            "spectrum.checked_ratio": ratio(c["spectrum.reversals"], c["draws"]),
            "dfa.constructed": calls["dfa.validate"] / jobs,
            "dfa.validate_self_s": self_s["dfa.validate"] / jobs,
            "perms.calls": calls["perms"] / jobs,
            "perms.self_s": self_s["perms"] / jobs,
            "textio.emit_self_s": self_s["textio.emit"] / jobs,
            "textio.parse_self_s": self_s["textio.parse"] / jobs,
            "textio.bytes": c["bytes"] / jobs,
            "trace.entry_self_s": self_s["entry"] / jobs,
        }

    def dump(self) -> dict:
        """Spans in a compact form: names are indices into ``names``."""
        names = sorted(self.layer_of)
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "layers": [self.layer_of[name] for name in names],
            "spans": [[index[name], start, end, parent, job]
                      for name, start, end, parent, job in self.spans],
        }
