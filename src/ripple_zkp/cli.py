"""Command-line front end: solve, validate, prove, audit, count.

Exit codes are a stable contract: 0 accept/pass, 1 protocol reject or audit
failure, 2 input error (or a stdout that cannot be written), 3 unsatisfiable
puzzle, 130 interrupted (Ctrl-C). A stderr that cannot be written changes
none of them.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .audit import full_audit
from .cards import RandomSource
from .protocol import ProverInput, card_stats, run_protocol
from .puzzle import (
    PuzzleFormatError,
    max_room_size,
    parse_puzzle,
    parse_solution,
    solve,
    validate,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_UNSAT = 3
EXIT_INTERRUPTED = 130


class Unsatisfiable(Exception):
    """The puzzle has no solution."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ripple-zkp",
        description="Simulate and audit the card-based zero-knowledge proof "
        "for Ripple Effect puzzles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--puzzle", required=True, help="puzzle file")
        p.set_defaults(run=run)
        return p

    p = add("solve", "find a solution by backtracking", cmd_solve)
    p.add_argument("--out", help="write the solution here instead of stdout")

    p = add("validate", "check a solution against the rules", cmd_validate)
    p.add_argument("--solution", required=True, help="solution file")

    p = add("prove", "run the card protocol and emit its transcript", cmd_prove)
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--solution", help="solution file")
    one.add_argument("--solve-first", action="store_true", help="solve, then prove that solution")
    p.add_argument("--seed", type=_seed, default=0, help="shuffle seed (default 0)")
    p.add_argument("--dedupe-directions", action="store_true",
                   help="check only right/down (covers each pair once)")
    p.add_argument("--out", help="write the transcript here instead of stdout")

    p = add("audit", "statistical zero-knowledge audit over many runs", cmd_audit)
    p.add_argument("--trials", type=_positive_int, default=1000,
                   help="runs per side (default 1000)")
    p.add_argument("--seed", type=_seed, default=0, help="base seed (default 0)")
    p.add_argument("--workers", type=_positive_int, default=1, help="parallel worker processes")
    p.add_argument("--dedupe-directions", action="store_true")
    p.add_argument("--out", help="write the report here instead of stdout")

    add("count", "report the protocol's card usage", cmd_count)
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise PuzzleFormatError(f"cannot read {path}: {exc}") from exc


def _check_out(out: str | None) -> None:
    """Fail before any work when ``out`` cannot be written; creates and truncates nothing."""
    if out is None:
        return
    path = Path(out)  # Path("") is ".", a directory
    writable = os.access(path if path.exists() else path.parent, os.W_OK)
    if path.is_dir() or not path.parent.is_dir() or not writable:
        raise PuzzleFormatError(f"cannot write {out}: not a writable file path")


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise PuzzleFormatError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _note(text: str) -> None:
    """One line on stderr, dropped when stderr is closed (None if it was at start-up)."""
    if sys.stderr is None:
        return
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        pass


def _first_solution(puzzle):
    solutions = solve(puzzle, limit=1)
    if not solutions:
        raise Unsatisfiable
    return solutions[0]


def cmd_solve(args, puzzle) -> int:
    _check_out(args.out)
    _emit(_first_solution(puzzle).to_text(), args.out)
    return EXIT_OK


def cmd_validate(args, puzzle) -> int:
    assignment = parse_solution(_read(args.solution), puzzle)
    violations = validate(puzzle, assignment)
    for v in violations:
        cells = " ".join(f"({r},{c})" for r, c in v.cells)
        print(f"{v.kind} {cells}: {v.detail}")
    if violations:
        return EXIT_REJECT
    print("valid")
    return EXIT_OK


def cmd_prove(args, puzzle) -> int:
    assignment = None if args.solve_first else parse_solution(_read(args.solution), puzzle)
    _check_out(args.out)
    if assignment is None:
        assignment = _first_solution(puzzle)
    verdict, transcript, stats = run_protocol(
        puzzle,
        ProverInput(assignment, honest=False),
        RandomSource(args.seed),
        dedupe_directions=args.dedupe_directions,
    )
    _emit(transcript.serialize(), args.out)
    if verdict.accepted:
        _note(f"accept cards={stats.total}")
        return EXIT_OK
    _note(f"reject reason={verdict.reason} loc={verdict.loc_text()}")
    return EXIT_REJECT


def cmd_audit(args, puzzle) -> int:
    _check_out(args.out)
    report = full_audit(
        puzzle,
        _first_solution(puzzle),
        trials=args.trials,
        base_seed=args.seed,
        dedupe_directions=args.dedupe_directions,
        workers=args.workers,
    )
    _emit(report.serialize(), args.out)
    return EXIT_OK if report.passed else EXIT_REJECT


def cmd_count(args, puzzle) -> int:
    stats = card_stats(puzzle)
    k = max_room_size(puzzle)
    print(
        f"k={k} m={puzzle.rows} n={puzzle.cols}"
        f" grid_cards={stats.grid_cards}"
        f" peak_aux_cards={stats.peak_aux_cards}"
        f" total={stats.total}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command and return its exit code, 130 on Ctrl-C; an audit's
    fork workers keep SIGINT blocked and are killed and reaped before that.
    Every input is read, the puzzle first, before ``--out`` is checked and work starts."""
    try:
        args = build_parser().parse_args(argv)
        code = args.run(args, parse_puzzle(_read(args.puzzle)))
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Whatever is still buffered goes to the null device, so the
        # interpreter's final flush of stdout has nothing to report.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _note("error: cannot write stdout")
        return EXIT_INPUT
    except PuzzleFormatError as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT
    except Unsatisfiable:
        _note("unsatisfiable")
        return EXIT_UNSAT
    except KeyboardInterrupt:
        _note("interrupted")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
