"""Command-line front end.

Subcommands:

* ``analyze <file>``: read an instance JSON file and print its duality report.
* ``verify``: run a randomized inequality sweep, stream ``instances.csv`` and
  then write ``summary.json`` under the output directory, print the summary.
* ``figures``: emit the Delta-surface (fig3) or visibility-bound-curve (fig4)
  CSV data.

Exit codes: 0 success, 1 inequality violation, 2 input, I/O or numerical error,
3 degenerate branch.  Standard error carries diagnostics only; every number
printed is formatted to 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from numpy.linalg import LinAlgError

from .errors import DegenerateBranchError, IdentityError, ValidationError
from .interferometer import instance_from_dict
from .measures import hierarchy_report
from .sqds import write_figure3_csv, write_figure4_csv
from .sweep import (
    BLOCK_CLASSES,
    S_CLASSES,
    WWM_CLASSES,
    SweepConfig,
    SweepSummary,
    iter_sweep,
    write_instances_csv,
)


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_round12(obj), indent=2) + "\n"


def cmd_analyze(args) -> int:
    try:
        data = json.loads(Path(args.path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read instance file: {exc}", file=sys.stderr)
        return 2
    inst = instance_from_dict(data)
    report = hierarchy_report(inst)
    sys.stdout.write(_json_text(report.to_dict()))
    return 0


def _parse_classes(tokens: str):
    """Split a comma list of class selectors into the three class families.

    Tokens come from three vocabularies (marker state: pure/mixed, quanton
    inversion: s_pure/s_mixed, blocks: unitary_pair/general_unitary); any
    family with no token selected defaults to all of its members.
    """
    wwm, s_cls, blocks = [], [], []
    for token in filter(None, (t.strip() for t in tokens.split(","))):
        if token in WWM_CLASSES:
            wwm.append(token)
        elif token in S_CLASSES:
            s_cls.append(token)
        elif token in BLOCK_CLASSES:
            blocks.append(token)
        else:
            raise ValidationError(f"unknown class selector {token!r}")
    wwm = wwm or list(WWM_CLASSES)
    s_cls = s_cls or list(S_CLASSES)
    blocks = blocks or list(BLOCK_CLASSES)
    return tuple((w, s) for w in wwm for s in s_cls), tuple(blocks)


def cmd_verify(args) -> int:
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise ValidationError(f"--dims must be a comma list of integers, got {args.dims!r}") from None
    state_classes, block_classes = _parse_classes(args.classes)
    cfg = SweepConfig(seed=args.seed, count=args.count, dims=dims,
                      state_classes=state_classes, block_classes=block_classes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Rows go to the file as each chunk of the sweep finishes; the summary is
    # complete once the last row is written.
    summary = SweepSummary(config=cfg)
    write_instances_csv(out / "instances.csv", iter_sweep(cfg, summary))
    text = _json_text(summary.to_dict())
    (out / "summary.json").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 1 if summary.violation_count else 0


def cmd_figures(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.which == "fig3":
        rows = write_figure3_csv(out / "fig3.csv")
        best = rows[rows[:, 2].argmax()]
        print(f"fig3 written to {out / 'fig3.csv'}")
        print(f"max delta = {best[2]:.12g} at s_d_norm = {best[0]:.12g}, p_q = {best[1]:.12g}")
    else:
        write_figure4_csv(out / "fig4.csv")
        print(f"fig4 written to {out / 'fig4.csv'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every later call."""
    parser = argparse.ArgumentParser(
        prog="duality",
        description="Duality measures and inequality verification for two-way "
                    "interferometers with a quantum which-way marker.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="report all measures for an instance JSON file")
    p_analyze.add_argument("path", help="path to an instance JSON file")

    p_verify = sub.add_parser("verify", help="run a randomized inequality sweep")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="64-bit sweep seed (default 0)")
    p_verify.add_argument("--count", type=int, default=100,
                          help="instances per (state class, block class, dimension) lane (default 100)")
    p_verify.add_argument("--dims", default="2,3,4",
                          help="comma list of marker dimensions, subset of 2..8 (default 2,3,4)")
    p_verify.add_argument("--classes", default="",
                          help="comma list of class selectors among pure, mixed, s_pure, "
                               "s_mixed, unitary_pair, general_unitary; families with no "
                               "selector default to all members (default: everything)")
    p_verify.add_argument("--out", default="out",
                          help="output directory for summary.json and instances.csv (default out)")

    p_figures = sub.add_parser("figures", help="emit figure data as CSV")
    p_figures.add_argument("--which", choices=("fig3", "fig4"), required=True,
                           help="which data set to emit")
    p_figures.add_argument("--out", default="out",
                           help="output directory (default out)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Resolved per call rather than stored in the cached parser, so a command
    # wrapped on this module after the first call (as the benchmark's tracer does) still runs.
    command = {"analyze": cmd_analyze, "verify": cmd_verify, "figures": cmd_figures}[args.command]
    try:
        return command(args)
    except DegenerateBranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, IdentityError, LinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
