import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ripple_zkp import cli
from ripple_zkp.audit import AuditReport, usable_cpus
from ripple_zkp.puzzle import parse_puzzle, parse_solution, validate

UNSAT = "1 2\na a\n1 1\n"
RAGGED = "2 2\na a\na\n. .\n. .\n"
TINY = "1 2\na a\n. .\n"


@pytest.fixture
def sample7x7_path(tmp_path, sample7x7_text):
    p = tmp_path / "sample7x7.txt"
    p.write_text(sample7x7_text)
    return str(p)


@pytest.fixture
def sample7x7_solution_path(tmp_path, sample7x7_solution_text):
    p = tmp_path / "sample7x7_solution.txt"
    p.write_text(sample7x7_solution_text)
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestSolve:
    def test_finds_printed_solution(self, sample7x7_path, sample7x7_solution_text, capsys):
        assert cli.main(["solve", "--puzzle", sample7x7_path]) == 0
        assert capsys.readouterr().out == sample7x7_solution_text

    def test_unsatisfiable(self, tmp_path, capsys):
        path = write(tmp_path, "unsat.txt", UNSAT)
        assert cli.main(["solve", "--puzzle", path]) == 3
        assert "unsatisfiable" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", RAGGED)
        assert cli.main(["solve", "--puzzle", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["solve", "--puzzle", str(tmp_path / "nope.txt")]) == 2

    def test_out_file(self, tmp_path, sample7x7_path, sample7x7_solution_text):
        out = tmp_path / "sol.txt"
        assert cli.main(["solve", "--puzzle", sample7x7_path, "--out", str(out)]) == 0
        assert out.read_text() == sample7x7_solution_text


class TestValidate:
    def test_valid(self, sample7x7_path, sample7x7_solution_path, capsys):
        code = cli.main(
            ["validate", "--puzzle", sample7x7_path, "--solution", sample7x7_solution_path]
        )
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_violations_reported(self, tmp_path, sample7x7_path, sample7x7_solution_text, capsys):
        mutated = sample7x7_solution_text.replace("2 1 3 1 4 2 3", "1 1 3 1 4 2 3", 1)
        path = write(tmp_path, "bad_solution.txt", mutated)
        code = cli.main(["validate", "--puzzle", sample7x7_path, "--solution", path])
        assert code == 1
        out = capsys.readouterr().out
        assert "Distance" in out and "(1,1)" in out

    def test_shape_mismatch(self, tmp_path, sample7x7_path):
        path = write(tmp_path, "short.txt", "1 2 3\n")
        assert cli.main(["validate", "--puzzle", sample7x7_path, "--solution", path]) == 2


class TestProve:
    def test_accept_and_deterministic_transcript(
        self, tmp_path, sample7x7_path, sample7x7_solution_path, capsys
    ):
        out1, out2 = tmp_path / "t1.log", tmp_path / "t2.log"
        for out in (out1, out2):
            code = cli.main(
                [
                    "prove",
                    "--puzzle", sample7x7_path,
                    "--solution", sample7x7_solution_path,
                    "--seed", "42",
                    "--out", str(out),
                ]
            )
            assert code == 0
            assert "accept" in capsys.readouterr().err
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("mark name=distance_phase kind=enter\n")

    def test_seed_changes_transcript(self, tmp_path, sample7x7_path, sample7x7_solution_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"t{seed}.log"
            cli.main(
                [
                    "prove",
                    "--puzzle", sample7x7_path,
                    "--solution", sample7x7_solution_path,
                    "--seed", seed,
                    "--out", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_mutated_solution_rejected(
        self, tmp_path, sample7x7_path, sample7x7_solution_text, capsys
    ):
        mutated = sample7x7_solution_text.replace("2 1 3 1 4 2 3", "1 1 3 1 4 2 3", 1)
        path = write(tmp_path, "bad.txt", mutated)
        code = cli.main(
            ["prove", "--puzzle", sample7x7_path, "--solution", path, "--seed", "0"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "DistanceHeartFound" in err or "RoomMultisetMismatch" in err

    def test_wrong_dimensions(self, tmp_path, sample7x7_path, capsys):
        path = write(tmp_path, "short.txt", "1 2 3\n")
        assert (
            cli.main(["prove", "--puzzle", sample7x7_path, "--solution", path]) == 2
        )

    def test_solve_first(self, tmp_path, capsys):
        path = write(tmp_path, "tiny.txt", TINY)
        assert cli.main(["prove", "--puzzle", path, "--solve-first"]) == 0
        capsys.readouterr()

    def test_solve_first_unsat(self, tmp_path, capsys):
        path = write(tmp_path, "unsat.txt", UNSAT)
        assert cli.main(["prove", "--puzzle", path, "--solve-first"]) == 3

    def test_requires_solution_source(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        with pytest.raises(SystemExit) as exc:
            cli.main(["prove", "--puzzle", missing])
        assert exc.value.code == 2
        assert "one of the arguments --solution --solve-first is required" in (
            capsys.readouterr().err
        )

    def test_solution_and_solve_first_exclusive(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "tiny.txt", TINY)

        def must_not_run(*args, **kwargs):
            raise AssertionError("prove ran work on a usage error")

        monkeypatch.setattr(cli, "solve", must_not_run)
        monkeypatch.setattr(cli, "run_protocol", must_not_run)
        missing = str(tmp_path / "missing.txt")
        with pytest.raises(SystemExit) as exc:
            cli.main(["prove", "--puzzle", path, "--solution", missing, "--solve-first"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_dedupe_directions(self, tmp_path, capsys):
        path = write(tmp_path, "tiny.txt", TINY)
        code = cli.main(
            ["prove", "--puzzle", path, "--solve-first", "--dedupe-directions"]
        )
        assert code == 0
        capsys.readouterr()


class TestAudit:
    def test_underpowered_pass(self, tmp_path, capsys):
        path = write(tmp_path, "tiny.txt", TINY)
        code = cli.main(["audit", "--puzzle", path, "--trials", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("audit_report trials=25 passed=yes")
        assert "under-powered" in out

    def test_unsatisfiable(self, tmp_path, capsys):
        path = write(tmp_path, "unsat.txt", UNSAT)
        assert cli.main(["audit", "--puzzle", path, "--trials", "5"]) == 3

    def test_failing_report_exit_code(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, "tiny.txt", TINY)
        monkeypatch.setattr(
            cli,
            "full_audit",
            lambda *a, **k: AuditReport(trials=5, families=(), passed=False),
        )
        assert cli.main(["audit", "--puzzle", path, "--trials", "5"]) == 1

    def test_rejects_nonpositive_trials(self, tmp_path, capsys):
        path = write(tmp_path, "tiny.txt", TINY)
        with pytest.raises(SystemExit) as exc:
            cli.main(["audit", "--puzzle", path, "--trials", "0"])
        assert exc.value.code == 2

    def test_rejects_negative_seed(self, tmp_path, capsys):
        path = write(tmp_path, "tiny.txt", TINY)
        with pytest.raises(SystemExit) as exc:
            cli.main(["prove", "--puzzle", path, "--solve-first", "--seed", "-3"])
        assert exc.value.code == 2

    def test_report_to_file_deterministic(self, tmp_path):
        path = write(tmp_path, "tiny.txt", TINY)
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            code = cli.main(
                [
                    "audit",
                    "--puzzle", path,
                    "--trials", "30",
                    "--seed", "7",
                    "--workers", "2",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCount:
    def test_seven_by_seven(self, sample7x7_path, capsys):
        assert cli.main(["count", "--puzzle", sample7x7_path]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "k=6 m=7 n=7 grid_cards=294 peak_aux_cards=94 total=388"

    def test_single_cell(self, tmp_path, capsys):
        path = write(tmp_path, "one.txt", "1 1\na\n.\n")
        assert cli.main(["count", "--puzzle", path]) == 0
        assert capsys.readouterr().out.strip().endswith("total=5")

    def test_two_by_three_single_room(self, tmp_path, capsys):
        path = write(tmp_path, "bar.txt", "2 3\na a a\na a a\n. . .\n. . .\n")
        assert cli.main(["count", "--puzzle", path]) == 0
        assert "total=130" in capsys.readouterr().out

    def test_parse_error(self, tmp_path):
        path = write(tmp_path, "bad.txt", RAGGED)
        assert cli.main(["count", "--puzzle", path]) == 2


def test_byte_order_mark_accepted(tmp_path, sample7x7_text, sample7x7_solution_text, capsys):
    # Files saved with a UTF-8 byte-order mark (Windows Notepad's default) read as without one.
    puzzle = write(tmp_path, "bom7x7.txt", "\ufeff" + sample7x7_text)
    solution = write(tmp_path, "bom7x7_solution.txt", "\ufeff" + sample7x7_solution_text)
    assert cli.main(["count", "--puzzle", puzzle]) == 0
    assert capsys.readouterr().out.startswith("k=6 m=7 n=7 grid_cards=294 ")
    assert cli.main(["validate", "--puzzle", puzzle, "--solution", solution]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_console_script_installed(sample7x7_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ripple_zkp.cli", "count", "--puzzle", sample7x7_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total=388" in proc.stdout


def imported_modules(argv) -> set[str]:
    """Top-level packages a fresh interpreter imports while running ``argv``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("import time:")]
    return {ln.rsplit("|", 1)[1].strip().split(".")[0] for ln in lines[1:]}


def test_runtime_is_stdlib_only(sample7x7_path):
    for argv in (
        ["-c", "import ripple_zkp"],
        ["-m", "ripple_zkp.cli", "count", "--puzzle", sample7x7_path],
    ):
        modules = imported_modules(argv)
        assert "ripple_zkp" in modules
        assert not modules & {"scipy", "numpy", "dataclasses", "inspect"}, argv


def test_solve_long_grid(tmp_path):
    # Rooms of sizes 1 and 3 alternate along one row of 1,100 cells: far
    # deeper than the interpreter's recursion limit, and solvable.
    labels = " ".join(f"r{i // 4}" if i % 4 == 0 else f"t{i // 4}" for i in range(1100))
    path = write(tmp_path, "long.txt", f"1 1100\n{labels}\n{'. ' * 1100}\n")
    out = tmp_path / "long_solution.txt"
    assert cli.main(["solve", "--puzzle", path, "--out", str(out)]) == 0
    puzzle = parse_puzzle(Path(path).read_text())
    assert validate(puzzle, parse_solution(out.read_text(), puzzle)) == []



# Each command with "{bad}" where a bad input path goes, and a good text
# for that slot; only the commands that write a file take --out.
COMMANDS = {
    "solve": (["solve", "--puzzle", "{bad}"], TINY),
    "validate": (["validate", "--puzzle", "{tiny}", "--solution", "{bad}"], "1 2\n"),
    "prove": (["prove", "--puzzle", "{tiny}", "--solution", "{bad}"], "1 2\n"),
    "audit": (["audit", "--puzzle", "{bad}", "--trials", "2"], TINY),
    "count": (["count", "--puzzle", "{bad}"], TINY),
}
BAD_INPUTS = [
    (command, bad)
    for command in COMMANDS
    for bad in ("non_utf8", "directory", "missing", "unwritable_out")
    if bad != "unwritable_out" or command in ("solve", "prove", "audit")
]


@pytest.mark.parametrize(("command", "bad"), BAD_INPUTS)
def test_bad_input_exits_2_without_traceback(tmp_path, command, bad):
    template, good = COMMANDS[command]
    paths = {
        "non_utf8": tmp_path / "bytes.txt",
        "directory": tmp_path,
        "missing": tmp_path / "missing.txt",
        "unwritable_out": write(tmp_path, "good.txt", good),
    }
    paths["non_utf8"].write_bytes(b"\xff\xfe1 1")
    tiny = write(tmp_path, "tiny.txt", TINY)
    argv = [arg.format(bad=paths[bad], tiny=tiny) for arg in template]
    if bad == "unwritable_out":
        argv += ["--out", str(tmp_path / "no_such_dir" / "out.txt")]
    proc = subprocess.run(
        [sys.executable, "-m", "ripple_zkp.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


# Each slot that holds a number: a puzzle and a solution text with "{token}"
# in that slot, and the line the token sits on.
NUMBER_SLOTS = {
    "header": ("# dimensions\n{token} 2\na a\n. .\n", "1 2\n", 2),
    "clue": ("1 2\n\na a\n{token} .\n", "1 2\n", 4),
    "solution": (TINY, "# values\n\n{token} 2\n", 3),
}
NUMBER_TOKENS = {"plus": "+1", "underscore": "1_0", "arabic_indic": "\u0661", "5000_digits": "9" * 5000}


@pytest.mark.parametrize("token", NUMBER_TOKENS)
@pytest.mark.parametrize("slot", NUMBER_SLOTS)
def test_bad_number_token_names_its_line(tmp_path, capsys, slot, token):
    # Numbers are ASCII digits only; a token past the interpreter's int digit
    # limit is an input error as well, not a traceback.
    puzzle, solution, line = NUMBER_SLOTS[slot]
    paths = []
    for name, text in (("p.txt", puzzle), ("s.txt", solution)):
        (tmp_path / name).write_text(text.format(token=NUMBER_TOKENS[token]), encoding="utf-8")
        paths.append(str(tmp_path / name))
    assert cli.main(["validate", "--puzzle", paths[0], "--solution", paths[1]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1, err[:200]


def test_clue_beyond_room_size_names_line_and_cell(tmp_path, capsys):
    path = write(tmp_path, "clue.txt", "1 2\na a\n3 .\n")
    assert cli.main(["count", "--puzzle", path]) == 2
    assert capsys.readouterr().err == "error: line 3: cell (1,1): clue must be from 1 to 2, got 3\n"


@pytest.mark.parametrize("command", ["prove", "audit", "validate", "count"])
def test_closed_stdout_exits_2_without_traceback(tmp_path, command):
    tiny = write(tmp_path, "tiny.txt", TINY)
    solution = write(tmp_path, "solution.txt", "1 2\n")
    argv = {
        "prove": ["prove", "--puzzle", tiny, "--solution", solution],
        "audit": ["audit", "--puzzle", tiny, "--trials", "2"],
        "validate": ["validate", "--puzzle", tiny, "--solution", solution],
        "count": ["count", "--puzzle", tiny],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ripple_zkp.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write stdout\n"


# Each command that writes --out, with the cli name of the work it must not
# start when --out cannot be written.
OUT_BEFORE_WORK = {
    "audit": (["audit", "--trials", "10000"], "full_audit"),
    "prove_solve_first": (["prove", "--solve-first"], "solve"),
    "prove_solution": (["prove", "--solution", "{solution}"], "run_protocol"),
    "solve": (["solve"], "solve"),
}


@pytest.mark.parametrize("case", sorted(OUT_BEFORE_WORK))
def test_unwritable_out_checked_before_work(
    monkeypatch, capsys, tmp_path, sample7x7_path, sample7x7_solution_path, case
):
    template, work = OUT_BEFORE_WORK[case]

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, must_not_run)
    argv = [arg.format(solution=sample7x7_solution_path) for arg in template]
    out = tmp_path / "no_such_dir" / "x.txt"
    assert cli.main([*argv, "--puzzle", sample7x7_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(OUT_BEFORE_WORK))
def test_empty_out_is_not_stdout(
    monkeypatch, capsys, sample7x7_path, sample7x7_solution_path, case
):
    # "--out ''" names the path "", which is ".", a directory: not a file to
    # write, and not the same as giving no --out.
    template, work = OUT_BEFORE_WORK[case]
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: pytest.fail(f"{work} ran"))
    argv = [arg.format(solution=sample7x7_solution_path) for arg in template]
    assert cli.main([*argv, "--puzzle", sample7x7_path, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write : not a writable file path\n"


def test_out_check_creates_nothing(tmp_path, capsys):
    out = tmp_path / "solution.txt"
    path = write(tmp_path, "unsat.txt", UNSAT)
    assert cli.main(["solve", "--puzzle", path, "--out", str(out)]) == 3
    assert not out.exists()


# Run in a fresh interpreter. Modules loaded before the package (site hooks
# such as _distutils_hack among them) are left out by the snapshot. The
# simulator's tables and the layouts are built on first use, so neither
# import nor count builds them.
STDLIB_ONLY_SCRIPT = """
import sys
before = set(sys.modules)
import ripple_zkp, ripple_zkp.cli
code = ripple_zkp.cli.main(["count", "--puzzle", sys.argv[1]])
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(code, sorted(added - sys.stdlib_module_names - {"ripple_zkp"}))
print("multiprocessing" in sys.modules)
from ripple_zkp import cards, view
print(view._sim_chunks.cache_info().currsize, view._layout.cache_info().currsize)
print(cards.marks.cache_info().currsize, len(cards._SERIALIZE_LINES), len(cards._SKELETON_LINES))
"""


def test_count_loads_only_stdlib_modules(sample7x7_path):
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY_SCRIPT, sample7x7_path], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-4:] == ["0 []", "False", "0 0", "0 0 0"]


def close_stderr():
    os.close(2)


# Each command on its accept, reject (or unsatisfiable) and input-error
# paths: argv and the exit code that path earns.
CLOSED_STDERR = {
    "solve_accept": (["solve", "--puzzle", "{tiny}"], 0),
    "solve_unsat": (["solve", "--puzzle", "{unsat}"], 3),
    "solve_input": (["solve", "--puzzle", "{missing}"], 2),
    "validate_accept": (["validate", "--puzzle", "{tiny}", "--solution", "{solution}"], 0),
    "validate_reject": (["validate", "--puzzle", "{tiny}", "--solution", "{wrong}"], 1),
    "validate_input": (["validate", "--puzzle", "{tiny}", "--solution", "{missing}"], 2),
    "prove_accept": (["prove", "--puzzle", "{tiny}", "--solution", "{solution}"], 0),
    "prove_reject": (["prove", "--puzzle", "{tiny}", "--solution", "{wrong}"], 1),
    "prove_input": (["prove", "--puzzle", "{missing}", "--solution", "{solution}"], 2),
    "audit_accept": (["audit", "--puzzle", "{tiny}", "--trials", "2"], 0),
    "audit_unsat": (["audit", "--puzzle", "{unsat}", "--trials", "2"], 3),
    "audit_input": (["audit", "--puzzle", "{missing}", "--trials", "2"], 2),
    "count_accept": (["count", "--puzzle", "{tiny}"], 0),
    "count_input": (["count", "--puzzle", "{missing}"], 2),
}


@pytest.mark.parametrize("case", sorted(CLOSED_STDERR))
def test_closed_stderr_keeps_exit_code(tmp_path, case):
    template, code = CLOSED_STDERR[case]
    paths = {
        "tiny": write(tmp_path, "tiny.txt", TINY),
        "unsat": write(tmp_path, "unsat.txt", UNSAT),
        "solution": write(tmp_path, "solution.txt", "1 2\n"),
        "wrong": write(tmp_path, "wrong.txt", "1 1\n"),
        "missing": str(tmp_path / "missing.txt"),
    }
    argv = [arg.format(**paths) for arg in template]
    proc = subprocess.run(
        [sys.executable, "-m", "ripple_zkp.cli", *argv],
        stdout=subprocess.PIPE,
        preexec_fn=close_stderr,
        text=True,
    )
    assert proc.returncode == code
    if case == "prove_accept":
        assert proc.stdout.endswith("verdict outcome=accept reason=none loc=none\n")


def child_pids(pid: int) -> set[int] | None:
    """The running children of ``pid``, or None where the kernel does not list them."""
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return None
    return {int(p) for p in text.split()}


def session_pids(sid: int) -> set[int]:
    """The running processes of session ``sid``, zombies aside."""
    pids = set()
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            state, _, _, session = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:4]
        except OSError:
            continue  # the process exited while the table was read
        if int(session) == sid and state != "Z":
            pids.add(int(entry.name))
    return pids


def interrupt_audit(sample7x7_path: str, poll: float | None):
    """(exit code, stdout, stderr, processes of its session left 10 s after
    it exits) of a two-worker audit started in its own session and sent
    SIGINT as soon as /proc lists a worker, polling every ``poll`` seconds;
    after 2 s instead where ``poll`` is None."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ripple_zkp.cli", "audit", "--puzzle", sample7x7_path,
         "--trials", "100000", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 20
        while poll is not None and not child_pids(proc.pid) and time.monotonic() < deadline:
            time.sleep(poll)
        if poll is None:
            time.sleep(2)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        deadline = time.monotonic() + 10
        while (left := session_pids(proc.pid)) and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the whole session, on any failure
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out, err, left


# Fork workers start where there are two CPUs and the kernel lists children.
FORKS = usable_cpus() > 1 and child_pids(os.getpid()) is not None


def test_interrupted_audit_exits_130(sample7x7_path):
    code, out, err, left = interrupt_audit(sample7x7_path, 0.05 if FORKS else None)
    assert (code, out, err) == (130, "", "interrupted\n")
    assert left == set(), "a process of the audit's session is still running"


@pytest.mark.skipif(not FORKS, reason="needs fork workers and /proc child lists")
def test_early_interrupt_leaves_no_process(sample7x7_path):
    # SIGINT as soon as the first worker is listed, while the others may
    # still be starting.
    for _ in range(3):
        code, _, err, left = interrupt_audit(sample7x7_path, 0.005)
        assert (code, err, left) == (130, "interrupted\n", set())


def test_interrupt_while_parsing_exits_130(monkeypatch, capsys):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_parser", interrupted)
    assert cli.main(["count", "--puzzle", "p.txt"]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")

