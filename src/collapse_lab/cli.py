"""Command-line harness around the experiment registry.

Subcommands: ``run`` executes configs and writes reports, ``validate``
checks configs without running, ``list`` prints the registry.  Exit codes:
0 all acceptance checks passed, 1 a check failed, 2 usage or config error,
3 solver failure.  Configs run one after another; each writes to its own
directory, named after the config file.  Two configs of one run that would
write to one directory, or a directory that cannot be made, exit 2 before
any config runs.
"""

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .experiments import REGISTRY, run_experiment, write_error, write_report

# StiffnessError is a RuntimeError; PositivityError is a ValueError
_SOLVER_ERRORS = (RuntimeError, ValueError, ArithmeticError)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="collapse-lab",
        description="numerical laboratory for collapsing metric flows")
    sub = parser.add_subparsers(dest="command", metavar="command")

    run_p = sub.add_parser("run", help="run experiments from config files")
    run_p.add_argument("--config", action="append", required=True,
                       metavar="PATH", help="config file (repeatable)")
    run_p.add_argument("--out", metavar="DIR",
                       help="base output directory (default: out)")

    val_p = sub.add_parser("validate", help="validate configs without running")
    val_p.add_argument("--config", action="append", required=True,
                       metavar="PATH")

    list_p = sub.add_parser("list", help="list available experiments")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable listing")
    return parser


def _run_one(stem, cfg, out_dir):
    try:
        report = run_experiment(cfg)
    except _SOLVER_ERRORS as exc:
        write_error(out_dir, cfg.experiment, exc)
        return 3, f"{stem}: ERROR {type(exc).__name__}: {exc}"
    write_report(report, out_dir)
    if report.passed:
        return 0, f"{stem}: PASS ({len(report.checks)} checks) -> {out_dir}"
    failed = ", ".join(c.name for c in report.checks if not c.passed)
    return 1, f"{stem}: FAIL [{failed}] -> {out_dir}"


def _cmd_run(args):
    try:
        jobs, writers = [], {}
        for raw in args.config:
            cfg = load_config(raw)
            stem = Path(raw).stem
            out_dir = Path(args.out or cfg.out or "out") / stem
            key = out_dir.resolve()
            if key in writers:
                raise ConfigError(f"{writers[key]} and {raw} both write to "
                                  f"{out_dir}")
            writers[key] = raw
            jobs.append((stem, cfg, out_dir))
        for *_, out_dir in jobs:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory "
                                  f"{out_dir}: {exc.strerror}") from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    worst = 0
    for job in jobs:
        code, line = _run_one(*job)
        print(line, file=sys.stderr if code else sys.stdout)
        worst = max(worst, code)
    return worst


def _cmd_validate(args):
    code = 0
    for raw in args.config:
        try:
            cfg = load_config(raw)
        except ConfigError as exc:
            print(f"{raw}: error: {exc}", file=sys.stderr)
            code = 2
        else:
            print(f"{raw}: ok ({cfg.experiment})")
    return code


def _cmd_list(args):
    if args.json:
        payload = [{"name": name, "description": d.description}
                   for name, d in REGISTRY.items()]
        print(json.dumps(payload, indent=2))
    else:
        for name, d in REGISTRY.items():
            print(f"{name:22s} {d.description}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    handler = {"run": _cmd_run, "validate": _cmd_validate,
               "list": _cmd_list}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
