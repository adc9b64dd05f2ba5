import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
import hypothesis.strategies as st

from permrev.cli import main
from permrev.dfa import Dfa
from permrev.minimize import minimize
from permrev.reversal import reverse_dfa
from permrev.textio import emit_dfa, parse_dfa
from permrev.witness import WitnessReport, WitnessParams, build_witness

from conftest import dfas
from oracles import dot_edges

EMPTY_LANG_DOC = emit_dfa(Dfa(1, 2, ((0,), (0,)), 0, frozenset()))


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_emits_parseable_document(capsys):
    code, out, _ = run(capsys, "witness", "3", "4")
    assert code == 0
    dfa = parse_dfa(out)
    assert dfa.num_states == 15
    assert dfa.label(dfa.start) == "1234"


def test_witness_writes_files(tmp_path, capsys):
    out = tmp_path / "w.dfa"
    dot = tmp_path / "w.dot"
    code, _, _ = run(capsys, "witness", "2", "2", "--out", str(out), "--dot", str(dot))
    assert code == 0
    assert parse_dfa(out.read_text()).num_states == 3
    assert dot.read_text().startswith("digraph")


def test_witness_rejects_small_m(capsys):
    code, _, err = run(capsys, "witness", "1", "4")
    assert code == 1
    assert ">= 2" in err


def test_reverse_roundtrip(tmp_path, capsys):
    source = tmp_path / "w.dfa"
    run(capsys, "witness", "3", "4", "--out", str(source))
    code, out, _ = run(capsys, "reverse", str(source))
    assert code == 0
    assert parse_dfa(out).num_states == 20


def test_reverse_capacity_exit_code(tmp_path, capsys):
    source = tmp_path / "w.dfa"
    run(capsys, "witness", "3", "4", "--out", str(source))
    code, _, err = run(capsys, "reverse", str(source), "--max-states", "2")
    assert code == 3
    assert "capacity exceeded: reverse_construction: " in err


def test_verify_capacity_exit_code(capsys):
    # C(19999, 10000) has more digits than str(int) accepts by default
    code, _, err = run(capsys, "verify", "10000", "10000")
    assert code == 3
    assert "capacity exceeded: build_witness: " in err
    # math.comb raises OverflowError on C(19999999999999999999, 10**19)
    code, _, err = run(capsys, "verify", str(10**19), str(10**19))
    assert code == 3
    assert "capacity exceeded: build_witness: " in err


def test_minimize_collapses(tmp_path, capsys):
    doc = emit_dfa(Dfa(2, 2, ((1, 1), (1, 1)), 0, frozenset({0, 1})))
    path = tmp_path / "d.dfa"
    path.write_text(doc)
    code, out, _ = run(capsys, "minimize", str(path))
    assert code == 0
    assert parse_dfa(out).num_states == 1


def test_asc_of_empty_language(tmp_path, capsys):
    path = tmp_path / "empty.dfa"
    path.write_text(EMPTY_LANG_DOC)
    code, out, _ = run(capsys, "asc", str(path))
    assert code == 0
    assert out.strip() == "0"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.dfa"
    path.write_text("start 0\n")
    code, _, err = run(capsys, "asc", str(path))
    assert code == 1
    assert "line 1" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "asc", "no-such-file.dfa")
    assert code == 1


def test_unknown_command_exit_code(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_verify_passes_and_writes_json(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "3", "4", "--json", str(json_path))
    assert code == 0
    assert "result: PASS" in out
    assert "forward: states=15 finals=3 minimal=yes" in out
    payload = json.loads(json_path.read_text())
    assert payload["passed"] is True
    assert payload["format_version"] == "1"


def test_verify_failure_maps_to_exit_2(capsys, monkeypatch):
    failing = WitnessReport(
        params=WitnessParams(2, 2),
        forward_states=3,
        forward_finals=2,
        forward_minimal=False,
        reverse_states=3,
        reverse_finals=2,
        reverse_minimal=True,
        stars_match=True,
        accepting_centers_match=True,
        asc_forward=2,
        asc_reverse=2,
        accepting_stars=(),
        first_failure="forward_minimal",
    )
    monkeypatch.setattr(
        "permrev.cli.verify_witness", lambda m, alpha, state_cap: failing
    )
    code, out, err = run(capsys, "verify", "2", "2")
    assert code == 2
    assert "result: FAIL (forward_minimal)" in out
    assert "verification failed" in err


def test_verify_state_cap(capsys):
    # C(9, 5) = 126 states
    code, _, err = run(capsys, "verify", "5", "5", "--state-cap", "125")
    assert code == 3
    assert err == (
        "capacity exceeded: build_witness: witness for (m=5, alpha=5) needs"
        " C(9, 5) states, more than the cap of 125\n"
    )
    code, out, _ = run(capsys, "verify", "5", "5", "--state-cap", "126")
    assert code == 0
    assert "forward: states=126 " in out
    code, _, err = run(capsys, "verify", "5", "5", "--state-cap", "0")
    assert code == 1
    assert err == "error: state_cap must be an int >= 1 (got 0)\n"


def test_witness_state_cap(capsys):
    # C(9, 5) = 126 states
    code, out, err = run(capsys, "witness", "5", "5", "--state-cap", "100")
    assert (code, out) == (3, "")
    assert err == (
        "capacity exceeded: build_witness: witness for (m=5, alpha=5) needs"
        " C(9, 5) states, more than the cap of 100\n"
    )
    code, out, _ = run(capsys, "witness", "5", "5", "--state-cap", "126")
    assert code == 0
    assert sum(line.startswith("state ") for line in out.splitlines()) == 126
    assert parse_dfa(out) == parse_dfa(run(capsys, "witness", "5", "5")[1])


def test_spectrum_state_cap_skips_cells(capsys):
    # the (3, 3) witness has C(5, 3) = 10 states, the (2, 3) witness 4
    args = ["spectrum", "--m-max", "3", "--alpha-max", "3"]
    code, default, _ = run(capsys, *args)
    assert (code, "skipped" in default) == (0, False)
    code, same, _ = run(capsys, *args, "--state-cap", "10000")
    assert (code, same) == (0, default)
    code, capped, _ = run(capsys, *args, "--state-cap", "9")
    assert code == 0
    assert [line for line in capped.splitlines() if "skipped" in line] == [
        "m=3 alpha=3 asc=skipped skipped"
    ]


def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "--m-max", "3", "--alpha-max", "3")
    assert code == 0
    assert "m=0 alpha=0 asc=(0,0) pass" in out
    assert "result: PASS" in out


def test_spectrum_command_on_an_empty_grid(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--m-max", "100000000000", "--alpha-max", "1"
    )
    assert code == 0
    assert out.splitlines() == [
        "m=0 alpha=0 asc=(0,0) pass", "m=1 alpha=1 asc=(1,1) pass", "result: PASS",
    ]


def test_spectrum_command_with_probe(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--m-max", "3", "--alpha-max", "3",
        "--probe-samples", "50", "--json", "-",
    )
    assert code == 0
    assert "checked(asc>=2)=50 counterexamples=0" in out
    payload = json.loads(out[out.index("\n{") + 1:])
    probe = payload["magic_probe"]
    assert probe is not None
    assert (probe["n_max"], probe["seed"], probe["checked"]) == (6, 1009, 50)
    assert sum(entry["count"] for entry in probe["histogram"]) == 50


def test_probe_command(capsys):
    code, out, _ = run(capsys, "probe-magic-one", "--n-max", "3", "--samples", "50")
    assert code == 0
    assert out.splitlines() == [
        "drawn=50 checked(asc>=2)=8 counterexamples=0",
        "histogram: (2,2)=8",
    ]


def test_probe_command_rejects_asc2_on_two_states(capsys):
    code, _, err = run(capsys, "probe-magic-one", "--n-max", "2", "--require-asc2")
    assert code == 1
    assert "asc >= 2" in err


def test_stdin_dash_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(EMPTY_LANG_DOC))
    code, out, _ = run(capsys, "reverse", "-")
    assert code == 0
    assert parse_dfa(out).num_states == 1


def test_example_reproduces_star_chain(capsys):
    code, out, _ = run(capsys, "example")
    assert code == 0
    assert out.splitlines() == [
        "worked example: witness m=3 alpha=4 (n=6)",
        "reverse start: S(123)",
        "a-chain: S(123) -a-> S(126) -a-> S(156) -a-> S(456) -a-> S(345) -a-> S(234)",
        "b-step: S(234) -b-> S(134)",
        "word a2ba4: S(123) -a2ba4-> S(124)",
        "accepting stars (4):",
        "  S(123) = {1234,1235,1236}",
        "  S(124) = {1234,1245,1246}",
        "  S(134) = {1234,1345,1346}",
        "  S(234) = {1234,2345,2346}",
        "asc: forward=3 reverse=4",
    ]


# ---------------------------------------------------------------------
# every command, any arguments: an exit code, never a traceback
# ---------------------------------------------------------------------

NON_INTS = st.sampled_from(["x", "2.0", "", "-", "1e3", "0x10", "--", "٣"]) | st.text(
    max_size=3
)


@st.composite
def token(draw, ints):
    """An int drawn from ``ints``, as a token, or one time in eight a
    token that is no int."""
    return str(draw(ints)) if draw(st.integers(0, 7)) else draw(NON_INTS)


SIZE = token(st.integers(0, 6))
SAMPLES = token(st.integers(-2, 50))
# caps as small as the witnesses, so that some runs exit 3
CAP = token(st.integers(1, 30) | st.integers(1, 10**6))
# "-" is stdout or stdin, "file" the temp file, "dir" the temp directory
# itself, which open() refuses, and "missing" a path in no directory; the
# first two are drawn twice as often
PATH = st.sampled_from(["-", "-", "file", "file", "dir", "missing"])

# command: (positional arguments, {option: value strategy, or None for a flag})
COMMANDS = {
    "witness": ([SIZE, SIZE], {"--out": PATH, "--dot": PATH, "--state-cap": CAP}),
    "reverse": ([PATH], {"--out": PATH, "--max-states": CAP}),
    "minimize": ([PATH], {"--out": PATH}),
    "asc": ([PATH], {}),
    "verify": ([SIZE, SIZE], {"--json": PATH, "--state-cap": CAP}),
    "spectrum": ([], {
        "--m-max": SIZE, "--alpha-max": SIZE, "--probe-samples": SAMPLES,
        "--json": PATH, "--state-cap": CAP,
    }),
    "probe-magic-one": ([], {
        "--n-max": token(st.integers(-1, 8)), "--samples": SAMPLES,
        "--seed": token(st.integers()), "--require-asc2": None,
    }),
    "example": ([], {}),
}

# the (3, 3) witness; its reverse, whose labels hold commas; and the
# reverse of (2, 9), 45 states at n = 10, whose labels hold dots too
BASE_DOCS = [
    emit_dfa(build_witness(3, 3)),
    emit_dfa(reverse_dfa(build_witness(3, 3))),
    emit_dfa(reverse_dfa(build_witness(2, 9))),
]


@st.composite
def mutated_witness_docs(draw):
    """A witness or reverse document of ``BASE_DOCS`` with up to three
    lines dropped, doubled or swapped, or tokens replaced."""
    doc = draw(st.sampled_from(BASE_DOCS))
    lines = [line.split(" ") for line in doc.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "double", "swap", "token"]))
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "double":
            lines.insert(i, list(lines[i]))
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            k = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][k] = draw(
                st.sampled_from(["0", "9", "10", "-1", "007", ":", "[l]", "state"])
                | NON_INTS
            )
    return "\n".join(map(" ".join, lines)) + "\n"


@st.composite
def invocations(draw):
    """A command line of one of the eight commands, as tokens."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, options = COMMANDS[command]
    argv = [command, *(draw(arg) for arg in positional)]
    order = draw(st.permutations(sorted(options)))
    for option in order[:draw(st.integers(0, len(order)))]:
        argv.append(option)
        if options[option] is not None:
            argv.append(draw(options[option]))
    return argv


@settings(max_examples=150, deadline=None)
@given(invocations(), mutated_witness_docs())
def test_every_command_exits_with_a_code_and_no_traceback(tmp_path_factory, argv, doc):
    where = tmp_path_factory.mktemp("cli")
    (where / "file").write_text(doc)
    paths = {"file": str(where / "file"), "dir": str(where), "missing": "no/such"}
    argv = [paths.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(doc)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------
# every document a command writes, read back
# ---------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), dfas())
def test_every_written_document_reads_back(tmp_path_factory, m, alpha, drawn):
    where = tmp_path_factory.mktemp("docs")
    (where / "drawn.dfa").write_text(emit_dfa(drawn))
    read = {}

    def run_and_read(*argv):
        """Run the command with each file name in ``where``, and read every
        file that it wrote."""
        files = [str(where / a) if "." in a else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(files) == 0, argv
        for option, name in zip(argv, argv[1:]):
            if option in ("--out", "--dot", "--json"):
                read[name] = (where / name).read_text()

    run_and_read("witness", str(m), str(alpha), "--out", "w.dfa", "--dot", "w.dot")
    fwd = parse_dfa(read["w.dfa"])
    assert fwd == build_witness(m, alpha)
    # one DOT edge per (state, letter), each the table's own
    edges = dot_edges(read["w.dot"])
    assert len(edges) == fwd.num_states * fwd.alphabet_size
    assert sorted(edges) == sorted(
        (q, t, "ab"[c]) for c, column in enumerate(fwd.columns)
        for q, t in enumerate(column)
    )
    for source, dfa in (("w.dfa", fwd), ("drawn.dfa", drawn)):
        run_and_read("reverse", source, "--out", "r.dfa")
        assert parse_dfa(read["r.dfa"]) == reverse_dfa(dfa)
        run_and_read("minimize", source, "--out", "n.dfa")
        assert parse_dfa(read["n.dfa"]) == minimize(dfa)
    run_and_read("verify", str(m), str(alpha), "--json", "v.json")
    report = json.loads(read["v.json"])
    assert (report["kind"], report["m"], report["alpha"], report["passed"]) == (
        "witness_report", m, alpha, True
    )
    run_and_read("spectrum", "--m-max", str(m), "--alpha-max", str(alpha),
                 "--json", "s.json")
    report = json.loads(read["s.json"])
    assert (report["kind"], report["m_max"], report["passed"]) == (
        "spectrum_report", m, True
    )
