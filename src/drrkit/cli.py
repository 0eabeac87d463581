"""Command-line front end: project studies, measure, evaluate, run stats.

This module is the parser and the dispatch: each command's code is in
``_cmd_<command>``, imported only when that command runs, and what the
commands share is in ``_cmd_common``. Every command is deterministic given its
inputs and config (and evaluate's seed). Study outputs are built in a temp
directory and moved into place atomically, so a failure never leaves a
half-written study behind. Each output carries a provenance record: the
effective config after precedence (flags > config file > defaults) plus the
SHA-256 of each data file read.

Exit codes: 0 success, 1 validation error, 2 I/O failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .io import _SETTINGS, ValidationError, _interval


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract reserves 2
    # for I/O, so route usage problems through the validation path instead.
    def error(self, message):
        raise ValidationError(message)


# build_parser looks these up on each call, so a wrapper bound over one here runs.
def cmd_project(args) -> int:
    from ._cmd_project import run
    return run(args)


def cmd_measure(args) -> int:
    from ._cmd_measure import run
    return run(args)


def cmd_evaluate(args) -> int:
    from ._cmd_evaluate import run
    return run(args)


def cmd_stats(args) -> int:
    from ._cmd_stats import run
    return run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drrkit",
                     description="Project CT volumes to PA/LL radiographs, "
                                 "measure chest geometry, evaluate masks.")
    parser.add_argument("--version", action="version", version=f"drrkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("project", help="project volumes and labels into 2D studies")
    p.add_argument("--manifest", required=True, help="study manifest JSON")
    p.add_argument("--out", required=True, help="output root directory")
    p.add_argument("--target-spacing", type=float, dest="target_pixel_spacing",
                   help="isotropic output pixel spacing in mm")
    p.add_argument("--output-size", type=int, nargs=2, metavar=("W", "H"),
                   help="final resize, width height")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads for independent studies (default %(default)s)")
    p.set_defaults(func=cmd_project)

    m = subs.add_parser("measure", help="derive graded measurements from a projected study")
    m.add_argument("--study", required=True, help="projected study directory")
    m.add_argument("--mapping", required=True,
                   help="JSON mapping of roles (heart/thorax/vertebrae) to label ids")
    m.add_argument("--conditions", nargs="*", type=str.lower,
                   choices=("cardiomegaly", "scoliosis", "kyphosis"),
                   help="subset of: %(choices)s (default all)")
    m.add_argument("--out", required=True, help="output directory for report JSONs")
    m.add_argument("--min-component-px", type=int, help="mask cleaning threshold in pixels")
    m.set_defaults(func=cmd_measure)

    e = subs.add_parser("evaluate", help="score predicted masks against references")
    e.add_argument("--manifest", required=True,
                   help="JSON list of {class_id, pred_path, ref_path}")
    e.add_argument("--out", required=True, help="output report JSON path")
    e.add_argument("--nsd-tolerance", type=float, dest="nsd_tolerance_px",
                   help="NSD tolerance in pixels")
    e.add_argument("--match-iou", type=float, help="component match threshold")
    e.add_argument("--resamples", type=int, dest="n_resamples", help="bootstrap resample count")
    e.add_argument("--seed", type=int, default=0, help="bootstrap seed (default %(default)s)")
    e.set_defaults(func=cmd_evaluate)

    s = subs.add_parser("stats", help="pairwise model comparison or ordinal agreement")
    s.add_argument("--mode", required=True, choices=["pairwise", "ordinal"])
    s.add_argument("--scores", required=True,
                   help="pairwise: CSV/JSON of per-class scores per model; "
                        "ordinal: JSON with truth/pred grades or a confusion matrix")
    s.add_argument("--out", required=True, help="output path")
    s.add_argument("--alpha", type=float, help="significance level after correction")
    s.add_argument("--format", choices=["json", "csv"], default="json",
                   help="output format (default %(default)s)")
    s.set_defaults(func=cmd_stats)
    for sub in subs.choices.values():
        sub.add_argument("--config", help="JSON config file; flags override its values")
        for action in sub._actions:     # a setting's range and default, from its one entry
            if action.dest in _SETTINGS:
                _, default, _, bounds = _SETTINGS[action.dest]
                action.help += f"{_interval(**bounds)} (default {default})"
        # The flag of each setting, which a refusal of its value names.
        sub.set_defaults(flags={a.dest: a.option_strings[0] for a in sub._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
