import os
import subprocess
import sys
from pathlib import Path

import pytest

import permrev
from permrev.dfa import Dfa
from permrev.records import Record, replace
from permrev.reversal import ReversalCertificate, reversal_certificate
from permrev.spectrum import (
    MagicProbeReport,
    SpectrumReport,
    SpectrumRow,
    magic_one_probe,
    spectrum_table,
    trivial_rows,
)
from permrev.witness import (
    Star,
    StarClassification,
    WitnessParams,
    WitnessReport,
    build_witness,
    verify_witness,
)

TWO_STATE_DFA = Dfa(2, 1, ((1, 0),), 0, frozenset({1}))

# (type, a record of it, its fields in declaration order, its defaults).
# The field order is the key order of vars(record), which the JSON reports
# and their pinned digests depend on.
RECORDS = [
    (
        Dfa,
        lambda: TWO_STATE_DFA,
        ("num_states", "alphabet_size", "columns", "start", "finals", "labels"),
        {"labels": None},
    ),
    (WitnessParams, lambda: WitnessParams(2, 3), ("m", "alpha"), {}),
    (Star, lambda: Star((0,), ((0, 1), (0, 2))), ("center", "members"), {}),
    (
        StarClassification,
        lambda: StarClassification(((0,), None), ((0,),), False, True),
        ("centers", "accepting_centers", "covers_all_centers", "letter_law_holds"),
        {},
    ),
    (
        WitnessReport,
        lambda: verify_witness(2, 2),
        (
            "params", "forward_states", "forward_finals", "forward_minimal",
            "reverse_states", "reverse_finals", "reverse_minimal", "stars_match",
            "accepting_centers_match", "asc_forward", "asc_reverse",
            "accepting_stars", "first_failure",
        ),
        {},
    ),
    (
        ReversalCertificate,
        lambda: reversal_certificate(build_witness(2, 3)),
        ("asc_forward", "asc_reverse", "forward_minimal", "reverse_minimal"),
        {},
    ),
    (
        SpectrumRow,
        lambda: trivial_rows()[1],
        ("m", "alpha", "asc_forward", "asc_reverse", "verdict"),
        {},
    ),
    (
        MagicProbeReport,
        lambda: magic_one_probe(3, 5, 1),
        ("n_max", "samples", "seed", "drawn", "checked", "counterexamples", "histogram"),
        {},
    ),
    (
        SpectrumReport,
        lambda: spectrum_table(2, 2),
        ("m_max", "alpha_max", "rows", "magic_probe", "notes"),
        {"magic_probe": None, "notes": SpectrumReport.notes},
    ),
]


@pytest.mark.parametrize(
    "kind, make, fields, defaults", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_semantics(kind, make, fields, defaults):
    record = make()
    assert type(record) is kind
    assert tuple(vars(record)) == fields
    values = [getattr(record, name) for name in fields]
    # frozen: no field can be assigned or deleted, and no attribute added
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == values
    # positional and keyword construction give equal records, equal hashes
    by_position = kind(*values)
    by_keyword = kind(**dict(zip(fields, values)))
    assert by_position == by_keyword == record
    assert hash(by_position) == hash(by_keyword) == hash(record)
    # == compares the class as well as the values
    twin_kind = type(kind.__name__, (Record,), {"__annotations__": dict.fromkeys(fields)})
    twin = twin_kind(*values)
    assert twin != record and record != twin
    assert record != tuple(values)
    # the repr names the class and every field
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{kind.__name__}({shown})"
    # a field left out takes its default
    required = [value for name, value in zip(fields, values) if name not in defaults]
    bare = kind(*required)
    assert {name: getattr(bare, name) for name in defaults} == defaults
    for args, kwargs in [
        ((), {}),
        ((*values, None), {}),
        (values, {"extra": None}),
        (values, {fields[0]: values[0]}),
    ]:
        with pytest.raises(TypeError):
            kind(*args, **kwargs)


def test_replace_builds_through_the_constructor():
    labeled = replace(TWO_STATE_DFA, labels=("p", "q"))
    assert labeled.labels == ("p", "q")
    assert replace(labeled, labels=None) == TWO_STATE_DFA
    assert replace(WitnessParams(2, 2), alpha=3) == WitnessParams(2, 3)
    with pytest.raises(ValueError, match="labels must name every state"):
        replace(TWO_STATE_DFA, labels=("x",))
    with pytest.raises(ValueError, match="m must be"):
        replace(WitnessParams(2, 2), m=1)
    with pytest.raises(TypeError):
        replace(WitnessParams(2, 2), n=3)


def test_import_loads_no_dataclasses_or_inspect():
    # Measured against the modules this interpreter has already loaded before
    # the import, so that a site hook loading any of them passes. The CLI
    # and click load only with ``permrev.cli``: importing them after the
    # library about doubles the cost of ``import permrev``.
    src = Path(permrev.__file__).resolve().parent.parent
    unwanted = {"dataclasses", "inspect", "click", "permrev.cli"}
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import permrev\n"
        "print(permrev.__file__)\n"
        f"print(sorted({unwanted!r} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    where, added = result.stdout.splitlines()
    assert Path(where).resolve().parent.parent == src
    assert added == "[]"
