"""Command-line front end.

Subcommands:

* ``analyze <file>``: read an instance JSON file and print its duality report.
* ``verify``: run a randomized inequality sweep, stream ``instances.csv`` and
  then write ``summary.json`` under the output directory, print the summary.
* ``figures``: emit the Delta-surface (fig3) or visibility-bound-curve (fig4)
  CSV data.

Exit codes: 0 success, 1 a failed check of ``measures.CHECKS`` in verify (an inequality, an
exact relation or an internal identity), 2 input, I/O or numerical error, 3 degenerate branch.  Standard error carries diagnostics only; every number
printed is formatted to 12 significant digits.  The JSON that analyze prints
and verify writes and prints is ``json.dumps(indent=2)`` of the values with
every float rounded to 12 significant digits, rendered in one pass.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
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


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LITERALS = {None: "null", True: "true", False: "false"}


def _fix_float(token: str) -> str:
    """``float.__repr__`` of the float a ``%.12g`` token reads, in JSON's spelling."""
    if "e" in token:  # %g writes exponents from 1e12, repr only from 1e16
        return float.__repr__(float(token))
    if "." in token:
        return token
    return _SPECIAL_FLOATS.get(token) or token + ".0"


def _float_tokens(values) -> list:
    """The JSON tokens of floats rounded to 12 significant digits, formatted in one go."""
    tokens = (",".join(["%.12g"] * len(values)) % tuple(values)).split(",")
    return [t if "." in t and "e" not in t else _fix_float(t) for t in tokens]


@functools.lru_cache(maxsize=256)
def _float_template(length: int, width: int | None, level: int) -> str:
    """The indented text of ``length`` floats, or of ``length`` lists of
    ``width`` floats, at nesting ``level``, with a ``%s`` for each float."""
    def block(count, at, item):
        inner = "\n" + "  " * (at + 1)
        return "[" + inner + ("," + inner).join([item] * count) + "\n" + "  " * at + "]"
    return block(length, level, "%s" if width is None else block(width, level + 1, "%s"))


def _render(obj, level: int) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _LITERALS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _fix_float("%.12g" % obj)
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        width = len(obj[0]) if isinstance(obj[0], (list, tuple)) else None
        rows = obj if width else (obj,)
        if set(map(type, rows)) <= {list, tuple} and len(set(map(len, rows))) == 1:
            values = [x for r in rows for x in r]
            if set(map(type, values)) == {float}:
                return _float_template(len(obj), width, level) % tuple(_float_tokens(values))
        items = [_render(v, level + 1) for v in obj]
        return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_key(k)}: {_render(v, level + 1)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + "\n" + "  " * level + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(json.dumps(key))  # unrounded, as json.dumps keeps keys
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(obj) -> str:
    """``json.dumps(indent=2)`` of ``obj`` with every float first rounded to
    12 significant digits, plus a newline, rendered in one pass."""
    return _render(obj, 0) + "\n"


def cmd_analyze(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as f:
            data = json.load(f)
    # ValueError covers bytes that are not UTF-8 and malformed JSON;
    # RecursionError, nesting deeper than the decoder can follow.
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read instance file: {exc}", file=sys.stderr)
        return 2
    inst = instance_from_dict(data)
    sys.stdout.write(_json_text(hierarchy_report(inst)))
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
    return 1 if summary.violations else 0


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
