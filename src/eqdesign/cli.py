"""Command-line surface: generate, verify, economy, pairs, screen, oracle.

Exit codes: 0 success (or verified equitable), 1 checked-negative
(non-equitable), 2 usage error, 3 I/O or parse error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import effects, families, poly, screening

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def write_atomic(path: str, text: str) -> None:
    """Write through a temporary file renamed over path, so that a failed write
    leaves an earlier file whole; exit EXIT_IO if path cannot be written."""
    write_all([(path, text)])


def write_all(outputs: list) -> None:
    """write_atomic of every (path, text), all or nothing: no temporary file is
    renamed over its path until every text is written."""
    temps = []
    try:
        for path, text in outputs:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", text=True)
            temps.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _emit(path, text: str) -> None:
    """Write text to path, or to stdout when no path is given."""
    if path:
        write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _load_design(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return poly.loads_design(text)
    # ValueError covers bad JSON and bad UTF-8; deep nesting raises RecursionError
    except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
        print(f"error: cannot read design from {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def cmd_generate(args) -> int:
    design = families.generate(args.family, args.d, args.m)
    predicted = families.predicted_size(args.family, args.d, args.m)
    gamma = design.economy(args.m)
    if args.format == "json":
        text = poly.dumps_design(design, family=args.family, m=args.m)
    else:
        text = poly.to_dot(design, name=f"{args.family}_{args.d}_{args.m}")
    _emit(args.out, text)
    print(f"size={len(design)} predicted_size={predicted} economy={gamma}")
    return EXIT_OK


def cmd_verify(args) -> int:
    design, _meta = _load_design(args.input)
    if not len(design):
        print("profile=() equitable, m=0")
        return EXIT_OK
    profile = design.edge_profile()
    print(f"profile={profile}")
    m = poly.common_multiplicity(profile)
    if m is None:
        print("not equitable")
        return EXIT_NEGATIVE
    print(f"equitable, m={m}")
    return EXIT_OK


def cmd_economy(args) -> int:
    d = args.d
    families.check_domain("G", d, 1)  # G(d, 1) exists for every valid d
    if args.m_max is not None and args.m_max < 1:
        raise ValueError(f"--m-max must be >= 1, got {args.m_max}")
    m_max = min(args.m_max or 1 << (d - 1), 1 << (d - 1))
    rows, total = [], 0
    for m in range(1, m_max + 1):
        for family in ("G", "H", "M"):
            try:
                predicted = families.predicted_size(family, d, m)
            except ValueError:
                continue  # outside the family's domain: no row
            total += predicted
            if total > families.MAX_DESIGN_VERTICES:
                print(f"error: the table up to m={m} would build more than "
                      f"{families.MAX_DESIGN_VERTICES} vertices; pass a smaller --m-max",
                      file=sys.stderr)
                return EXIT_USAGE
            rows.append((family, m, predicted))
    lines = ["family,d,m,size,predicted_size,economy"]
    for family, m, predicted in rows:
        design = families.generate(family, d, m)
        lines.append(f"{family},{d},{m},{len(design)},{predicted},{design.economy(m)}")
    text = "\n".join(lines) + "\n"
    _emit(args.out, text)
    return EXIT_OK


def cmd_pairs(args) -> int:
    design, _meta = _load_design(args.input)
    if not len(design):
        print("error: empty design has no pairs", file=sys.stderr)
        return EXIT_USAGE
    text = effects.pairs_csv(effects.order_vertices(design))
    _emit(args.out, text)
    return EXIT_OK


def cmd_screen(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # as in _load_design
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    report = screening.run_screen(screening.config_from_dict(obj))
    renders = ((args.out, report.to_csv), (args.metadata, report.metadata_json),
               (args.scatter, report.scatter_csv))
    write_all([(path, render()) for path, render in renders if path])
    summary = {c: report.classes.count(c) for c in ("C0", "C1", "C2")}
    print(f"n_evals={report.n_evals}")
    print("classes: " + " ".join(f"{k}={v}" for k, v in summary.items()))
    return EXIT_OK


def cmd_oracle(args) -> int:
    size, witness = families.min_size_oracle(args.d, args.m)
    print(f"min_size={size}")
    print("witness: " + " ".join(poly.format_words(witness.ordered_terms, args.d)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqdesign",
        description="Edge-equitable hypercube designs for elementary-effects screening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="construct a design and write it to a file")
    p.add_argument("--family", required=True, choices=families.FAMILIES)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check edge equitability of a design file")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("economy", help="emit the family-by-m economy table as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_economy)

    p = sub.add_parser("pairs", help="list the per-direction effect pairs as CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("screen", help="run a screening experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metadata", default=None)
    p.add_argument("--scatter", default=None)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("oracle", help="exhaustive minimal-size search (small d only)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one command.  A ValueError that reaches here is bad input: exit
    EXIT_USAGE.  Errors reading or writing files exit EXIT_IO where they
    happen, before any ValueError (json.JSONDecodeError is one) gets here."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
