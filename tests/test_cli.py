import contextlib
import gc
import io
import os
import shlex
from pathlib import Path

import pytest

from tmtensor import Check, initial_configuration, type1
from tmtensor.cli import build_parser, main

from conftest import input_words, machine_path, machine_text

M1 = str(machine_path("m1_unary_append"))

M1_TRACE = [
    "t=1 state=q1 head=1 tape=1 1 _ _",
    "t=2 state=q1 head=2 tape=1 1 _ _",
    "t=3 state=q1 head=3 tape=1 1 _ _",
    "t=4 state=q2 head=4 tape=1 1 1 _",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_simulate_missing_file(capsys):
    code, _, err = run(capsys, "simulate", "no/such/file.tm")
    assert code == 2
    assert err.startswith("error:")


def test_simulate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text(machine_text("m1_unary_append").replace("start: q1", ""))
    code, _, err = run(capsys, "simulate", str(bad))
    assert code == 2
    assert "start" in err


@pytest.mark.parametrize(
    "old,new,field",
    [("halt: q2", "halt: q2 q2", "halt"), ("input: 1", "input: 1 1", "input")],
    ids=["halt", "input"],
)
def test_simulate_refuses_a_repeated_name(tmp_path, capsys, old, new, field):
    bad = tmp_path / "repeated.tm"
    bad.write_text(machine_text("m1_unary_append").replace(old, new))
    code, out, err = run(capsys, "simulate", str(bad), "--tape", "1", "--cells", "4")
    assert code == 2
    assert out == []
    assert err.startswith("error:") and f"'{field}:'" in err


def test_simulate_reads_tape_line_from_file(tmp_path, capsys):
    doc = tmp_path / "with_tape.tm"
    doc.write_text(machine_text("m1_unary_append") + "tape: 1 1\n")
    code, out, _ = run(capsys, "simulate", str(doc), "--cells", "4")
    assert code == 0
    assert out == M1_TRACE + ["status=halted"]
    # an explicit --tape wins over the file's tape line
    code, out, _ = run(capsys, "simulate", str(doc), "--tape", "1", "--cells", "4")
    assert out[0] == "t=1 state=q1 head=1 tape=1 _ _ _"


def test_compose_reads_tape_line_from_file(tmp_path, capsys):
    doc = tmp_path / "with_tape.tm"
    doc.write_text(machine_text("m1_unary_append") + "tape: 1 1\n")
    code, out, _ = run(capsys, "compose", str(doc), "--cells", "4", "--power", "2", "--steps", "2")
    assert code == 0
    assert out[1:] == [
        "CHECK compose-action step=2 -> PASS",
        "CHECK compose-action step=4 -> PASS",
    ]


def test_evolve_matches_simulate_byte_for_byte(capsys, corpus):
    # Every input word up to the window, so runs halt, overflow and hit the
    # step limit at every window from 2 to 5.
    pairs = 0
    for name, machine, _ in corpus:
        path = str(machine_path(name))
        for cells in range(2, 6):
            for tape in input_words(machine, cells):
                args = ["--tape", tape, "--cells", str(cells), "--steps", str(2 * cells + 2)]
                code_sim, out_sim, _ = run(capsys, "simulate", path, *args)
                code_evo, out_evo, _ = run(capsys, "evolve", path, *args)
                assert code_sim == 0 and code_evo == 0
                config_lines = [line for line in out_evo if " state=" in line]
                assert config_lines == [line for line in out_sim if " state=" in line], args
                assert out_sim[-1] == out_evo[-1], args  # same terminal status
                pairs += 1
    assert pairs == 152


def test_evolve_dump_dir_file_count(tmp_path, capsys):
    steps = 6
    code, _, _ = run(
        capsys,
        "evolve", M1,
        "--tape", "1 1", "--cells", "4", "--steps", str(steps),
        "--dump-dir", str(tmp_path / "dumps"),
    )
    assert code == 0
    files = sorted(p.name for p in (tmp_path / "dumps").iterdir())
    assert len(files) == steps + 2
    assert "B.tsv" in files and "A_1.tsv" in files and f"A_{steps + 1}.tsv" in files


def test_evolve_dumps_round_trip(tmp_path, capsys):
    from tmtensor import SparseTensor

    run(
        capsys,
        "evolve", M1,
        "--tape", "1 1", "--cells", "4", "--steps", "2",
        "--dump-dir", str(tmp_path),
    )
    for name in ("B.tsv", "A_1.tsv", "A_3.tsv"):
        text = (tmp_path / name).read_text()
        assert SparseTensor.from_text(text).to_text() == text


def test_evolve_stops_multiplying_at_its_fixed_point(capsys, monkeypatch, tmp_path):
    # m1 halts at t=4: the halt line needs A_4, three products, not 60.  A dump
    # reads on to A_61, but A_6 equals A_5, so it adds only two more products.
    calls = []

    def counted(a, b):
        calls.append(1)
        return type1(a, b)

    monkeypatch.setattr("tmtensor.products.type1", counted)
    args = ["--tape", "1 1", "--cells", "32", "--steps", "60"]
    code, out, _ = run(capsys, "evolve", M1, *args)
    assert code == 0
    assert out[-1] == "status=halted"
    assert len(calls) == 3
    calls.clear()
    code, dumped, _ = run(capsys, "evolve", M1, *args, "--dump-dir", str(tmp_path))
    assert (code, dumped) == (0, out)
    assert len(calls) == 5
    assert len(list(tmp_path.iterdir())) == 62


@pytest.mark.parametrize(
    "tape, status",
    [("1 1", "halted"), ("1 1 1 1", "overflow")],
    ids=["halted", "overflow"],
)
def test_evolve_dumps_every_tensor_past_its_last_line(capsys, tmp_path, tape, status):
    # The printed lines stop at the halt or overflow; the dump still holds
    # A_1..A_{T+1}, as list(evolve(...)) gives them.
    from tmtensor import encode_config, encode_machine, evolve, parse_machine

    steps = 9
    code, out, _ = run(
        capsys, "evolve", M1, "--tape", tape, "--cells", "4", "--steps", str(steps),
        "--dump-dir", str(tmp_path),
    )
    assert code == 0 and out[-1] == f"status={status}"
    machine = parse_machine(machine_text("m1_unary_append"))
    b = encode_machine(machine, 4).tensor
    a1 = encode_config(initial_configuration(machine, tape.split(), 4), b.dims)
    expected = {f"A_{t}.tsv": a_t.to_text() for t, a_t in enumerate(list(evolve(a1, b, steps)), start=1)}
    expected["B.tsv"] = b.to_text()
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == expected


@pytest.mark.parametrize("steps", ["2500000", "1000000000"])
@pytest.mark.parametrize(
    "command", [["simulate"], ["verify"], ["compose", "--tape", "1"]], ids=["simulate", "verify", "compose"]
)
def test_a_trace_over_the_cap_is_refused_before_simulating(capsys, monkeypatch, command, steps):
    # At 4 cells, 2,500,000 steps is the first budget whose trace is over the cap.
    def step(*args):
        raise AssertionError("a step was simulated")

    monkeypatch.setattr("tmtensor.machine.oracle_step", step)
    bouncer = str(machine_path("bouncer"))
    code, out, err = run(capsys, command[0], bouncer, *command[1:], "--cells", "4", "--steps", steps)
    assert code == 3
    assert err.splitlines()[-1].startswith("error: trace would hold ")
    assert out == (["power=2 upper=2 nnz=720"] if command[0] == "compose" else [])


def test_verify_parse_failure_exit(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("states: q1\n")
    code, _, _ = run(capsys, "verify", str(bad))
    assert code == 2


# At window 3 the bouncer loses four edge entries: qb's left moves at cell 1
# and qa's right moves at cell 3.  GOLDEN_MATRIX holds these three commands'
# stdout.
BOUNCER_DROPPED = (
    "dropped: i=1 j=0 k=2\n"
    "dropped: i=1 j=1 k=2\n"
    "dropped: i=3 j=0 k=1\n"
    "dropped: i=3 j=1 k=1\n"
)


@pytest.mark.parametrize("command", ["evolve", "verify", "compose"])
def test_every_machine_command_reports_dropped_entries(capsys, command):
    bouncer = str(machine_path("bouncer"))
    code, _, err = run(capsys, command, bouncer, "--tape", "1", "--cells", "3", "--steps", "3")
    assert code == 0
    assert err == BOUNCER_DROPPED


def test_a_repeated_halt_documentation_row_is_refused(tmp_path, capsys):
    bad = tmp_path / "repeated_row.tm"
    bad.write_text(machine_text("m1_unary_append") + "delta: q2 _ -> q2 _ S\n" * 2)
    code, out, err = run(capsys, "simulate", str(bad), "--tape", "1", "--cells", "4")
    assert code == 2
    assert out == []
    assert err.startswith("error:") and "duplicate rule for (q2, _)" in err


def test_a_power_over_the_upper_group_cap_is_refused(capsys):
    # At one cell every move of the bouncer leaves the window, so each power
    # is empty while its upper count, 2^(e-1), doubles: e = 25 is the first
    # over DEFAULT_CAP.
    bouncer = str(machine_path("bouncer"))
    code, out, _ = run(capsys, "compose", bouncer, "--cells", "1", "--power", "24")
    assert (code, out) == (0, ["power=24 upper=8388608 nnz=0"])
    code, out, err = run(capsys, "compose", bouncer, "--cells", "1", "--power", "25")
    assert (code, out) == (3, [])
    assert err.splitlines()[-1] == "error: composition would have 16777216 upper groups, cap is 10000000"


def test_assoc_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["assoc", "--trials", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_assoc_fails_on_entrywise_mismatch(capsys, monkeypatch):
    def mismatch(dims, p, q, r, density, seed, cap):
        return [
            Check("type2-assoc-action", f"seed={seed}", True),
            Check("type2-assoc-entrywise", f"seed={seed}", False),
        ]

    monkeypatch.setattr("tmtensor.cli.type2_assoc_trial", mismatch)
    code, out, _ = run(capsys, "assoc", "--trials", "1", "--r", "1", "--density", "0.05")
    assert code == 1
    assert out[1:] == [
        "CHECK type2-assoc-action seed=0 -> PASS",
        "CHECK type2-assoc-entrywise seed=0 -> FAIL",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        # B over 2000 cells would hold 2000^2 * 2 * 2 = 1.6e7 entries
        ["evolve", M1, "--cells", "2000"],
        # the second tensor of a trial would take 144^4 = 4.3e8 draws
        ["assoc", "--cells", "6", "--p", "3", "--trials", "1"],
        # 16^1000001 draws, refused without working that number out
        ["assoc", "--p", "1000000", "--trials", "1"],
        ["verify", M1, "--cells", "2000"],
        ["compose", M1, "--cells", "2000"],
    ],
)
def test_oversize_materialisation_exits_3_before_building(capsys, monkeypatch, argv):
    # The cap check comes before the tape window is laid out, too.
    def refuse(*args):
        raise AssertionError("the tape was laid out before the cap check")

    monkeypatch.setattr("tmtensor.cli.initial_configuration", refuse)
    monkeypatch.setattr("tmtensor.harness.initial_configuration", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == []
    assert "cap is 10000000" in err


def test_assoc_resource_limit(capsys):
    code, _, err = run(
        capsys, "assoc", "--cells", "3", "--states", "2", "--q", "2",
        "--trials", "1", "--density", "0.1",
    )
    assert code == 3
    assert "error" in err


# Per case: the argv, the terms its composition predicts, the stderr lines
# before the refusal, and the stdout once the cap admits exactly those terms.
CAP_BOUNDARIES = {
    # m1's square at window 2, which drops the two right-edge moves
    "m1-square": (
        ["compose", M1, "--cells", "2", "--power", "2", "--tape", "1"],
        78,
        "dropped: i=2 j=0 k=1\ndropped: i=2 j=1 k=1\n",
        ["power=2 upper=2 nnz=78", "CHECK compose-action step=2 -> PASS"],
    ),
    # with q = 2 the cap counts the terms of both of c's slots
    "assoc-two-slots": (
        ["assoc", "--p", "1", "--q", "2", "--trials", "1", "--density", "0.1", "--seed", "1"],
        363657,
        "",
        ["CHECK mixed-assoc seed=1 -> PASS"],
    ),
}


@pytest.mark.parametrize("case", CAP_BOUNDARIES)
def test_the_cap_bounds_the_terms_of_a_square_and_of_both_slots(capsys, case):
    argv, terms, dropped, passed = CAP_BOUNDARIES[case]
    code, out, err = run(capsys, *argv, "--cap", str(terms - 1))
    assert (code, out) == (3, [])
    assert err == f"{dropped}error: composition would accumulate {terms} terms, cap is {terms - 1}\n"
    code, out, _ = run(capsys, *argv, "--cap", str(terms))
    assert (code, out) == (0, passed)


def test_usage_error_exit_code(capsys, tmp_path, monkeypatch):
    # Nonsense counts are usage errors, never a PASS over nothing.  An empty
    # --dump-dir would name the working directory; it must write nothing.
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["evolve", M1, "--tape", "1", "--dump-dir", ""],
        ["simulate"],  # missing the machine file
        ["simulate", M1, "--steps", "-3"],
        ["evolve", M1, "--steps", "-1"],
        ["verify", M1, "--steps", "-3"],
        ["compose", M1, "--tape", "1", "--steps", "0"],
        ["assoc", "--trials", "-1"],
        ["assoc", "--trials", "two"],
        ["simulate", M1, "--cells", "0"],
        ["assoc", "--cells", "0"],
        ["compose", M1, "--power", "0"],
        ["assoc", "--cap", "-1", "--trials", "1"],
        ["compose", M1, "--cells", "3", "--tape", "1", "--power", "1", "--cap", "-5"],
        ["assoc", "--r", "0", "--trials", "1"],
        ["assoc", "--p", "0", "--trials", "1"],
        ["assoc", "--q", "-1", "--trials", "1"],
        ["assoc", "--symbols", "0", "--trials", "1"],
        ["assoc", "--states", "0", "--trials", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv
    assert list(tmp_path.iterdir()) == []


# The stdout contract: a fixed matrix of invocations whose stdout and exit code
# must match tests/golden/cli.txt byte for byte.  These tests check it
# in-process; CI replays every block, read with read_golden, through the
# installed script and the module entry point.  Regenerate the file with
# `PYTHONPATH=src python tests/test_cli.py` from the repository root, and only
# when an output change is intended.  New rows go at the end, so every block
# keeps its place.  An argv in the matrix has its stdout asserted nowhere else.
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"

# Per corpus machine: its corpus tape (m1 and binary_increment halt) and a
# full window of 1s (they overflow; the bouncer does neither).
GOLDEN_TAPES = {
    "m1_unary_append": ("1 1", "1 1 1 1"),
    "binary_increment": ("0 1 1", "1 1 1 1"),
    "bouncer": ("", "1 1 1 1"),
}
GOLDEN_MATRIX = [
    (command, f"tests/machines/{name}.tm", "--tape", tape, "--cells", "4", *budget)
    for name, tapes in GOLDEN_TAPES.items()
    for tape in tapes
    for command, *budget in (
        ("simulate", "--steps", "10"),
        ("evolve", "--steps", "10"),
        ("verify", "--steps", "10"),
        ("compose", "--power", "2", "--steps", "2"),
    )
] + [
    ("evolve", "tests/machines/m1_unary_append.tm", "--tape", "1 1 1 1", "--cells", "4", "--strict"),
    ("verify", "tests/machines/binary_increment.tm", "--tape", "1", "--cells", "3", "--steps", "0"),
    ("compose", "tests/machines/m1_unary_append.tm", "--cells", "4", "--power", "1"),
    ("compose", "tests/machines/bouncer.tm", "--tape", "1", "--cells", "2", "--power", "3", "--steps", "3"),
    ("assoc", "--trials", "4", "--seed", "0"),
    ("assoc", "--trials", "3", "--seed", "5", "--p", "2", "--q", "1", "--density", "0.1"),
    ("assoc", "--trials", "1", "--seed", "3", "--p", "1", "--q", "2", "--density", "0.1"),
    ("assoc", "--cells", "3", "--states", "2", "--trials", "2", "--seed", "1", "--density", "0.1"),
    ("assoc", "--trials", "3", "--seed", "1", "--r", "1", "--density", "0.05"),
    # exit 3 at the sixth trial's composition, after the first five trials' lines
    ("assoc", "--trials", "8", "--r", "1", "--density", "0.05", "--cap", "40000"),
    ("compose", "tests/machines/m1_unary_append.tm", "--cells", "4", "--power", "4", "--cap", "1000"),
    ("simulate", "tests/machines/no_such_machine.tm"),
    ("simulate", "tests/machines/m1_unary_append.tm", "--tape", "1 1", "--cells", "4", "--steps", "0"),
] + [
    # the bouncer at window 3, which drops four edge entries on stderr
    (command, "tests/machines/bouncer.tm", "--tape", "1", "--cells", "3", "--steps", "3")
    for command in ("evolve", "verify", "compose")
]


def golden_block(argv):
    """`$ <argv>`, `exit=<code>`, then stdout verbatim; run from the repository root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return f"$ {shlex.join(argv)}\nexit={code}\n{out.getvalue()}"


def read_golden():
    blocks = {}
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            header = line
            blocks[header] = ""
        blocks[header] += line
    return blocks


@pytest.mark.parametrize("argv", GOLDEN_MATRIX, ids=shlex.join)
def test_stdout_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    block = golden_block(argv)
    assert block == read_golden()[block.splitlines(keepends=True)[0]]


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_calls_in_one_process_share_nothing_but_the_parser(tmp_path, monkeypatch):
    # Before each golden argv, a call that exits early or sets options the
    # golden argv leaves at their defaults: any value carried from one call
    # to the next would change a golden block.
    monkeypatch.chdir(ROOT)
    m1 = "tests/machines/m1_unary_append.tm"
    between = [
        (["--help"], ("exited", 0)),
        (["assoc", "--trials", "0"], ("exited", 2)),
        (["compose", m1, "--cells", "2", "--power", "2", "--tape", "1", "--cap", "77"], ("returned", 3)),
        (
            ["evolve", m1, "--tape", "1 1 1 1", "--cells", "4", "--steps", "6", "--strict",
             "--dump-dir", str(tmp_path)],
            ("returned", 1),
        ),
    ]

    def outcome(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return "returned", main(argv)
            except SystemExit as exc:
                return "exited", exc.code

    golden = read_golden()
    for n, argv in enumerate(reversed(GOLDEN_MATRIX)):
        before, expected = between[n % len(between)]
        assert outcome(before) == expected, before
        block = golden_block(argv)
        assert block == golden[block.splitlines(keepends=True)[0]], argv
    assert (tmp_path / "B.tsv").exists()


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _fail(*args, **kwargs):
    raise RuntimeError("type2_power failed")


# Every way out of main: its four exit codes, argparse's SystemExit, and an
# exception that no handler in main catches.
EXITS = {
    "return-0": (["simulate", M1, "--tape", "1 1", "--cells", "4"], ("returned", 0)),
    "return-1": (["evolve", M1, "--tape", "1 1 1 1", "--cells", "4", "--strict"], ("returned", 1)),
    "return-2": (["simulate", "no/such/file.tm"], ("returned", 2)),
    "return-3": (
        ["compose", M1, "--cells", "2", "--power", "2", "--tape", "1", "--cap", "77"],
        ("returned", 3),
    ),
    "help": (["--help"], ("exited", 0)),
    "usage-error": (["assoc", "--trials", "0"], ("exited", 2)),
    "exception": (["compose", M1, "--cells", "2", "--power", "2"], ("raised", "type2_power failed")),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", EXITS)
def test_main_hands_back_the_collector_state_it_found(monkeypatch, case, enabled):
    argv, expected = EXITS[case]
    if case == "exception":
        monkeypatch.setattr("tmtensor.cli.type2_power", _fail)
    with collector(enabled), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            outcome = "returned", main(argv)
        except SystemExit as exc:
            outcome = "exited", exc.code
        except RuntimeError as exc:
            outcome = "raised", str(exc)
        assert outcome == expected
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("argv", GOLDEN_MATRIX, ids=shlex.join)
def test_no_command_leaves_cycles(argv, monkeypatch):
    # perfbench calls main in-process, one command after another, so a command
    # must leave nothing that only the cyclic collector would free: reference
    # counting alone frees what it leaves, and a full collection finds nothing.
    monkeypatch.chdir(ROOT)
    build_parser()
    with collector(False):
        gc.collect()
        golden_block(argv)
        assert gc.collect() == 0


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(golden_block(argv) for argv in GOLDEN_MATRIX))
