"""Command-line front end: run scenarios, check properties, list built-ins.

Exit codes: 0 on success, 1 when the command line or a document fails to
parse or validate (including an incompatible checker), 2 when
integration itself fails or a requested check does not pass.  numpy's
warnings are off for the whole command: stderr holds at most one line.

`run` integrates the scenarios that share a transport law and
integrator (equal ``report.batch_key``) as one batch: they may differ in
initial state, horizon, particle mass and, in a uniform field, in E, B
and charge, which each row brings to the law as its own constants.
The groups run one after another, in the order of their first scenario
on the command line, and each file is written as soon as its text is
built: a run that fails leaves the files of the groups before the
failing one.  ``--jobs`` is still accepted (at least 1) so that existing
command lines parse, and starts no threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import math
import os
import stat
import sys

import numpy as np

from .errors import IncompatibleChecker, ParseError, TransportError, ValidationError
from .report import CHECKERS, batch_key, check, emit, run_batch
from .scenarios import (
    Scenario,
    builtin_names,
    builtin_text,
    load_builtin,
    load_scenario_file,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAILED = 2


class _UsageError(Exception):
    """A malformed command line (argparse's complaint)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 with a usage block; report one error line, exit 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    def finite(text: str) -> float:
        # argparse names this type in its complaint: "invalid finite value: 'inf'"
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(text)
        return value

    parser = _Parser(
        prog="phasetransport",
        description="Integrate particle worldlines from scenario config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="integrate scenarios and emit trajectories")
    runp.add_argument("scenario", nargs="+", help="config file path or built-in name")
    runp.add_argument("--out", help="output file (or directory for several scenarios)")
    runp.add_argument("--format", choices=("csv", "json"), default="csv")
    runp.add_argument("--step", type=finite, help="override the integrator step")
    runp.add_argument("--tau-max", type=finite, help="override the proper-time horizon")
    runp.add_argument("--jobs", type=int, default=1,
                      help="accepted so that existing command lines parse; groups run "
                           "one after another")

    checkp = sub.add_parser("check", help="evaluate a structural property")
    checkp.add_argument("scenario", help="config file path or built-in name")
    checkp.add_argument("--checker", required=True, choices=CHECKERS)
    checkp.add_argument("--out", help="write the full JSON check report here")
    checkp.add_argument("--step", type=finite, help="override the integrator step")
    checkp.add_argument("--tau-max", type=finite, help="override the proper-time horizon")

    sub.add_parser("list-scenarios", help="list bundled scenario names")
    return parser


def _load(token: str, step=None, tau_max=None) -> Scenario:
    if os.path.exists(token):
        scenario = load_scenario_file(token)
    elif token in builtin_names():
        scenario = load_builtin(token)
    else:
        raise ValidationError(
            f"{token!r} is neither a file nor a built-in scenario "
            f"(built-ins: {', '.join(builtin_names())})"
        )
    overrides = {}
    if step is not None:
        overrides["step"] = step
    if tau_max is not None:
        overrides["tau_max"] = tau_max
    if overrides:
        config = dataclasses.replace(scenario.config, **overrides)
        parameters = {**scenario.parameters, "integrator": dataclasses.asdict(config)}
        scenario = dataclasses.replace(scenario, config=config, parameters=parameters)
    return scenario


def _refuse_unwritable(path) -> None:
    # open() would refuse these too, with the same error, but only once the
    # integration is done
    if not path:
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        parent = os.stat(os.path.dirname(path) or os.curdir)
    except OSError as err:  # a missing directory, say
        raise OSError(err.errno, err.strerror, path) from None
    if not stat.S_ISDIR(parent.st_mode):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    many = len(args.scenario) > 1
    if many and not args.out:
        raise ValidationError("several scenarios need --out pointing at a directory")

    scenarios = [_load(t, args.step, args.tau_max) for t in args.scenario]
    if many:
        paths = [os.path.join(args.out, f"{s.name}.{args.format}") for s in scenarios]
        twice = next((p for i, p in enumerate(paths) if p in paths[:i]), None)
        if twice is not None:
            raise ValidationError(f"two scenarios would write {twice}")
        os.makedirs(args.out, exist_ok=True)
    else:
        _refuse_unwritable(args.out)
        paths = [args.out or sys.stdout]
    groups: dict[str, list[int]] = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault(batch_key(scenario), []).append(i)
    # each text is written as soon as it is built, so a run holds one at a time
    for members in groups.values():
        reports = run_batch([scenarios[i] for i in members])
        for k, i in enumerate(members):
            emit(reports[k], args.format, paths[i])
            reports[k] = None  # its trajectory goes before the next text is built
    if many:
        print("\n".join(paths))
    return EXIT_OK


def _cmd_check(args) -> int:
    scenario = _load(args.scenario, args.step, args.tau_max)
    _refuse_unwritable(args.out)
    report = check(scenario, args.checker)
    if args.out:  # before the verdict: an unwritable --out prints nothing to stdout
        emit(dataclasses.replace(report, samples=None), "json", args.out)
    verdict = "PASS" if report.summary["passed"] else "FAIL"
    print(f"{args.checker} on {scenario.name}: {verdict}")
    for key, value in report.summary.items():
        if key in ("checker", "passed"):
            continue
        print(f"  {key} = {value}")
    return EXIT_OK if report.summary["passed"] else EXIT_FAILED


def _cmd_list() -> int:
    for name in builtin_names():
        first = builtin_text(name).splitlines()[0].lstrip("# ").strip()
        print(f"{name:26s} {first}")
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_list()
    except (_UsageError, ParseError, ValidationError, IncompatibleChecker, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except TransportError as err:
        print(f"integration error: {err}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
