"""Command-line surface: generate, verify, economy, pairs, screen, oracle.

Exit codes: 0 success (or verified equitable), 1 checked-negative
(non-equitable), 2 usage error, 3 I/O or parse error.  main is the one place
that maps a failure to an exit code.  Inputs are read up to MAX_INPUT_CHARS
characters.  An output symlink is written through, a FIFO or device in
place, and a new file gets the mode open() gives it; two outputs that name
one file, or an output that is a directory, are refused before any is written.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
import tempfile

from . import effects, families, poly, screening

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3


class FileFault(Exception):
    """A file that cannot be read, parsed or written: main exits EXIT_IO."""


# The longest JSON generate writes: one term line of MAX_DIM + 8 characters
# ('    "' + word + '",' and a newline) per vertex at the cap, and the header.
MAX_INPUT_CHARS = (poly.MAX_DIM + 8) * families.MAX_DESIGN_VERTICES + 1024


# _read reads at most this many characters at a time, and none past the first
# one over MAX_INPUT_CHARS, so it refuses an endless input holding the bound
# and about two chunks more (the one being decoded and the bytes of the one
# before, which the text layer keeps for tell()).  A design of up to about
# 60,000 vertices at d = 62 is one chunk, read into one string, never joined.
READ_CHUNK_CHARS = 1 << 22

# write_all writes a text this many characters at a time, so that no more
# than a chunk of it is ever encoded at once
WRITE_CHUNK_CHARS = 1 << 20


def _read(path: str, what: str, parse):
    """parse(text) of the file at path, at most MAX_INPUT_CHARS characters;
    FileFault if it cannot be read or parsed."""
    try:
        chunks, total = [], 0
        with open(path, encoding="utf-8") as fh:
            while total <= MAX_INPUT_CHARS:  # /dev/zero has no end
                chunk = fh.read(min(READ_CHUNK_CHARS, MAX_INPUT_CHARS + 1 - total))
                if not chunk:
                    break
                chunks.append(chunk)
                total += len(chunk)
        if total > MAX_INPUT_CHARS:
            raise ValueError(f"longer than {MAX_INPUT_CHARS} characters")
        text = "".join(chunks)
        chunks.clear()  # parse one copy of the input, not the chunks as well
        return parse(text)
    # ValueError covers bad JSON and bad UTF-8; deep nesting raises RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFault(f"cannot read {what} {path}: {exc}") from exc


def write_atomic(path, text) -> None:
    """write_all of one text (a str or a list of str)."""
    write_all([(path, text)])


def _write_chunks(fh, text) -> None:
    """Write a str, or each str of a list in order, WRITE_CHUNK_CHARS at a time."""
    for piece in [text] if isinstance(text, str) else text:
        for k in range(0, len(piece), WRITE_CHUNK_CHARS):
            fh.write(piece[k:k + WRITE_CHUNK_CHARS])


def write_all(outputs: list) -> None:
    """Write every (path, text), all or nothing; a text is a str or a list of
    str written in order.  A text for a regular file or a new path goes to a
    temporary file beside the file path resolves to, and none is renamed over
    its file until every text is written.  A new file gets the mode open()
    gives it, an existing one keeps its mode.  Then stdout (path None) and
    FIFOs or devices are written in place.  ValueError, before anything is
    written, if a path is empty or two texts would be renamed onto the same
    file; FileFault if a path is a directory (also before anything is
    written) or if any write fails."""
    mask = os.umask(0)
    os.umask(mask)
    planned, in_place, renames = {}, [], []  # planned: real path -> (path, stat, text)
    try:
        for path, text in outputs:
            if path == "":
                raise ValueError("empty output path")
            st = os.stat(path) if path is not None and os.path.exists(path) else None
            if st and stat.S_ISDIR(st.st_mode):  # before any temporary file
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if path is None or st and not stat.S_ISREG(st.st_mode):
                in_place.append((path, text))
                continue
            real = os.path.realpath(path)
            if real in planned:
                raise ValueError(f"{planned[real][0]} and {path} name the same file {real}")
            planned[real] = (path, st, text)
        for real, (path, st, text) in planned.items():
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".tmp-", text=True)
            renames.append((path, real, tmp))
            with os.fdopen(fd, "w") as fh:
                os.chmod(tmp, stat.S_IMODE(st.st_mode) if st else 0o666 & ~mask)
                _write_chunks(fh, text)
        for path, real, tmp in renames:
            os.replace(tmp, real)
        for path, text in in_place:
            if path is None:
                _write_chunks(sys.stdout, text)
            else:
                with open(path, "w") as fh:
                    _write_chunks(fh, text)
    except OSError as exc:
        raise FileFault(f"cannot write {path or 'stdout'}: {exc}") from exc
    finally:
        for _, _, tmp in renames:
            if os.path.exists(tmp):
                os.unlink(tmp)


def cmd_generate(args) -> int:
    design = families.generate(args.family, args.d, args.m)
    predicted = families.predicted_size(args.family, args.d, args.m)
    gamma = design.economy(args.m)
    if args.format == "json":
        text = poly.dumps_design(design, family=args.family, m=args.m)
    else:
        text = poly.to_dot(design, name=f"{args.family}_{args.d}_{args.m}")
    write_atomic(args.out, text)
    print(f"size={len(design)} predicted_size={predicted} economy={gamma}")
    return EXIT_OK


def cmd_verify(args) -> int:
    design = _read(args.input, "design from", poly.loads_design)
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
                raise ValueError(f"the table up to m={m} would build more than "
                                 f"{families.MAX_DESIGN_VERTICES} vertices; pass a smaller --m-max")
            rows.append((family, m, predicted))
    lines = ["family,d,m,size,predicted_size,economy"]
    for family, m, predicted in rows:
        design = families.generate(family, d, m)
        lines.append(f"{family},{d},{m},{len(design)},{predicted},{design.economy(m)}")
    text = "\n".join(lines) + "\n"
    write_atomic(args.out, text)
    return EXIT_OK


def cmd_pairs(args) -> int:
    design = _read(args.input, "design from", poly.loads_design)
    if not len(design):
        raise ValueError("empty design has no pairs")
    # one write_atomic of the CSV's pieces, never joined into a second copy
    write_atomic(args.out, effects.pairs_csv(design))
    return EXIT_OK


def cmd_screen(args) -> int:
    config = screening.config_from_dict(_read(args.config, "config", json.loads))
    report = screening.run_screen(config)
    renders = ((args.out, report.to_csv), (args.metadata, report.metadata_json),
               (args.scatter, report.scatter_csv))
    write_all([(path, render()) for path, render in renders if path is not None])
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
    """Run one command.  This is the one place a failure becomes an exit code:
    a FileFault exits EXIT_IO, a ValueError is bad input and exits EXIT_USAGE
    (argparse exits EXIT_USAGE on a bad command line itself)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFault, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, FileFault) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
