#!/usr/bin/env python3
"""Time two source trees of eqdesign against each other on the benchmark's
screen workloads, in one process, one screen of each tree in turn.

    python3 scripts/ab_screen.py PARENT_SRC CHANGE_SRC [--screens N]

PARENT_SRC and CHANGE_SRC are directories that hold an `eqdesign` package,
such as the `src/` of two checkouts.  Both are imported into this process.
Screen i of perfbench's screen_paper and screen_mid cycles, at the
benchmark's default seed, runs on both trees with the same config, seed and
function, and the tree that goes first alternates from screen to screen.
Each run is timed as perfbench times an op: run_screen, then the report's
CSV and metadata.  A drift in the
machine's speed therefore hits both trees alike, where two benchmark runs
one after the other can differ by tens of percent.

The script stops with an error unless both trees write the same CSV and
metadata for every screen.  For each workload it prints the ratio of the
change's time to the parent's: of the summed times, and the median of the
per-screen ratios.
"""
import argparse
import importlib
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(src: str):
    """eqdesign.screening imported afresh from src.  Each tree's modules keep
    the references they bound when imported, so two trees run side by side
    once the first one's entries are out of sys.modules."""
    if not (Path(src) / "eqdesign" / "__init__.py").is_file():
        sys.exit(f"error: no eqdesign package under {src}")
    for name in [n for n in sys.modules if n == "eqdesign" or n.startswith("eqdesign.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("eqdesign.screening")
    finally:
        sys.path.remove(src)


def run(screening, cfg, func) -> tuple:
    """(seconds, output) of one screen, timed as a perfbench op: the config
    is made, in the tree's own ScreenConfig, before the clock starts."""
    cfg = screening.ScreenConfig(**vars(cfg))
    t0 = perf_counter()
    report = screening.run_screen(cfg, func)
    output = report.to_csv() + report.metadata_json()
    return perf_counter() - t0, output


def compare(name: str, trees: tuple, screens: int, workloads) -> None:
    workload = workloads.make_workload(name, workloads.DEFAULT_SEED, False, None)

    def config(i):  # screen i of the run, as perfbench's run_op makes it
        return replace(workload.configs[i % workload.cycle_len], seed=workload.base + i)

    for screening in trees:  # untimed: builds and caches every design of the cycle
        for i in range(workload.cycle_len):
            run(screening, config(i), workload.func)
    times = ([], [])
    for i in range(screens):
        cfg, outputs = config(i), [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            seconds, outputs[side] = run(trees[side], cfg, workload.func)
            times[side].append(seconds)
        if outputs[0] != outputs[1]:
            sys.exit(f"error: {name} screen {i} ({cfg.family}({cfg.d}, {cfg.m}), "
                     f"seed {cfg.seed}) writes different outputs in the two trees")
    parent, change = times
    print(f"{name}: {screens} screens, identical outputs; change/parent time "
          f"ratio: sum {sum(change) / sum(parent):.3f}, median per screen "
          f"{statistics.median(c / p for p, c in zip(parent, change)):.3f} "
          f"(mean {1e3 * statistics.fmean(parent):.3f} -> "
          f"{1e3 * statistics.fmean(change):.3f} ms)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--screens", type=int, default=1200,
                    help="screens per workload on each tree (default 1200)")
    args = ap.parse_args()
    if args.screens < 1:
        ap.error("--screens must be at least 1")
    trees = (load(args.parent_src), load(args.change_src))
    # perfbench's workload definitions, bound to the tree imported last; run
    # rebuilds each config in the tree that runs it
    sys.path.insert(0, str(PERFBENCH))
    workloads = importlib.import_module("run")
    for name in ("screen_paper", "screen_mid"):
        compare(name, trees, args.screens, workloads)


if __name__ == "__main__":
    main()
