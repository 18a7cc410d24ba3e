"""Command-line entry point.

Subcommands mirror the library surface: ``run`` simulates one seeded run
and writes its trace directory, ``monte-carlo`` aggregates an ensemble,
``check-feasibility`` prints the full design report, and ``bounds`` emits
the offline worst-case error-bound envelopes.
"""

import argparse
import dataclasses
import logging
import os
import sys

from . import controller, harness
from .core import ConfigError, InconsistentSetsError, load_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonsec",
        description="Resilient estimation, attack detection, and formation "
                    "control for a vehicle string with compromised sensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one run and write its trace directory")
    p.add_argument("--config", required=True, metavar="FILE",
                   help="scenario JSON document")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for scenario.json, feasibility.json, "
                        "trace.csv, detection.csv, summary.json")

    p = sub.add_parser("monte-carlo", help="aggregate many independent runs")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--runs", required=True, type=int,
                   help="number of independent runs")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed; run k uses base + k")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for the aggregate summary and metrics")

    p = sub.add_parser("check-feasibility",
                       help="print the design report (threshold interval, gain "
                            "margins, spectra, bounds) as JSON")
    p.add_argument("--config", required=True, metavar="FILE")

    p = sub.add_parser("bounds",
                       help="emit offline error-bound envelopes (detection "
                            "sets held empty) as CSV")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="CSV destination (default: stdout)")
    return parser


def _seeded_scenario(args):
    """The scenario with ``--seed`` as its seed, so the directory's
    ``scenario.json`` reproduces the command's runs.  The directory is made
    after the runs, so an ``--out`` that a file blocks is refused first."""
    config = load_scenario(args.config)
    blocker = os.path.abspath(args.out)
    while not os.path.lexists(blocker):
        blocker = os.path.dirname(blocker)
    if not os.path.isdir(blocker):
        raise ConfigError(f"--out {args.out}: {blocker} exists and is not a directory")
    return config if args.seed is None else dataclasses.replace(config, seed=args.seed)


def _cmd_run(args) -> int:
    config = _seeded_scenario(args)
    run = harness.run_simulation(config)
    # the pure-Python indent encoder takes tens of ms at a few hundred
    # vehicles, so the digest's text is made once, for the file and stdout
    summary = harness.json_text(harness.summarize_run(config, run))
    harness.write_run_dir(args.out, config, run, summary)
    print(summary)
    return 0


def _cmd_monte_carlo(args) -> int:
    config = _seeded_scenario(args)
    summary = harness.monte_carlo(config, args.runs)
    harness.write_monte_carlo_dir(args.out, config, summary)
    digest = {"runs": summary.runs, "horizon": summary.horizon,
              "phi_start": float(summary.phi[0]) if len(summary.phi) else None,
              "phi_final": float(summary.phi[-1]) if len(summary.phi) else None}
    print(harness.json_text(digest))
    return 0


def _cmd_check_feasibility(args) -> int:
    config = load_scenario(args.config)
    report = harness.feasibility_report(config)
    print(harness.json_text(report))
    return 0


def _cmd_bounds(args) -> int:
    config = load_scenario(args.config)
    rows = harness.bound_envelopes(config)
    if args.out:
        with open(args.out, "wb") as fh:
            harness.write_bounds_csv(fh, rows)
    else:
        sys.stdout.flush()  # the rows go to the byte stream under the text layer
        harness.write_bounds_csv(sys.stdout.buffer, rows)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "monte-carlo": _cmd_monte_carlo,
    "check-feasibility": _cmd_check_feasibility,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InconsistentSetsError, harness.SimulationError,
            controller.CertificateError) as exc:
        logging.getLogger("platoonsec").error("%s", exc)
        return 2
    except BrokenPipeError:  # the reader stopped early, as ``bounds | head`` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a quiet last flush
        return 0
    except OSError as exc:
        logging.getLogger("platoonsec").error("i/o failure: %s", exc)
        return 2
    except MemoryError as exc:  # numpy names the array it could not allocate
        logging.getLogger("platoonsec").error("out of memory: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
