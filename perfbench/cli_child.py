"""Run one eqdesign CLI command in this fresh interpreter with span tracing on.

Usage: python3 perfbench/cli_child.py SPANS_OUT.json -- <eqdesign argv...>

Writes the spans and the families cache counts to SPANS_OUT.json and exits
with the command's exit code.
"""
import json
import sys

from eqdesign import cli
from spans import Tracer, cache_counts


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_OUT.json -- <eqdesign argv...>")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump({"spans": tracer.spans, "cache": cache_counts()}, fh)


if __name__ == "__main__":
    sys.exit(main())
