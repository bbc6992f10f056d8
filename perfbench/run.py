#!/usr/bin/env python3
"""eqdesign benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload screen_paper --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports eqdesign from ./src.
Each workload is one process and a closed loop with one caller: the next op
starts when the previous one has finished.  Ops run in whole cycles of the
workload's fixed schedule, so every run measures the same mix of sizes.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the schedule untraced and then traced, and reports per-layer metrics from the
spans, the tracing overhead, and a check that both halves wrote identical
outputs.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the readable
report, and results/ holds the full record of the run.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "eqdesign" / "__init__.py").is_file():
    sys.exit(f"error: no eqdesign sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from eqdesign import families, screening  # noqa: E402
import spans  # noqa: E402

RESULTS = HERE / "results"
GOLDENS = HERE / "goldens.json"
DEFAULT_SEED = 0
SETUP_REPS = 5
# Memory guard: refuse at setup any design whose predicted size exceeds this.
# The families have no size cap of their own, and gen_H(62, 2**20) alone
# needs more than 6 GB.
MAX_VERTICES = 50_000
CMD_TIMEOUT_S = 60
# screen i of a run uses seed SEED_STRIDE * workload_seed + i
SEED_STRIDE = 1_000_000
# screen.class_match_frac covers a fixed number of screens, so that it is
# exact for a seed whatever the run length
CLASS_MATCH_SCREENS = 200

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
IMPORT_PROBE = ("from time import perf_counter as c; t = c(); import eqdesign; "
                "print(c() - t)")


class SetupError(Exception):
    """The workload cannot be set up; the run stops without a result."""


@dataclass
class Op:
    index: int
    kind: str
    latency_s: float
    vertices: int = 0
    digest: str = ""
    errors: list = field(default_factory=list)
    matches: int = 0    # factors classed as REFERENCE_CLASSES (screen_paper)


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def guard_size(family: str, d: int, m: int) -> int:
    size = families.predicted_size(family, d, m)
    if size > MAX_VERTICES:
        raise SetupError(f"{family}({d},{m}) has {size} vertices, above the cap {MAX_VERTICES}")
    return size


def span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


# -- screen workloads ---------------------------------------------------------

class MidFunction:
    """Cheap vectorised 30-factor test function with seed-drawn coefficients.

    Six factors act nonlinearly (squares and pairwise products), six
    linearly, the rest carry only small noise-level slopes.
    """

    def __init__(self, seed: int, d: int = 30):
        rng = np.random.default_rng(seed)
        order = rng.permutation(d)
        self.nonlinear, linear = order[:6], order[6:12]
        self.slope = rng.normal(0.0, 0.05, d)
        self.slope[linear] = rng.uniform(5.0, 10.0, 6)
        self.slope[self.nonlinear] = rng.uniform(2.0, 4.0, 6)
        self.square = rng.uniform(4.0, 8.0, 6)
        self.product = rng.uniform(4.0, 8.0, 3)

    def __call__(self, x):
        w = 2.0 * np.asarray(x, dtype=float) - 1.0
        nl = w[:, self.nonlinear]
        return (w @ self.slope + (nl * nl) @ self.square
                + (nl[:, 0::2] * nl[:, 1::2]) @ self.product)


class ScreenWorkload:
    """run_screen in-process over a fixed cycle of (family, m, r) screens."""

    def __init__(self, name: str, d: int, cycle, seed: int, func=None):
        self.name = name
        self.configs = [screening.ScreenConfig(d=d, m=m, r=r, family=f, seed=0)
                        for f, m, r in cycle]
        self.sizes = [guard_size(c.family, c.d, c.m) for c in self.configs]
        self.base = SEED_STRIDE * seed
        self.func = func
        self.cycle_len = len(self.configs)

    def warm_up(self):
        """Cold construction of every design of the cycle, then one screen."""
        for obj in vars(families).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        for c in self.configs:
            families.generate(c.family, c.d, c.m)
        op = self.run_op(0)
        if op.errors:
            raise SetupError(f"warm-up screen failed: {op.errors}")

    def run_op(self, i: int, tracer=None) -> Op:
        k = i % self.cycle_len
        cfg = replace(self.configs[k], seed=self.base + i)
        func = self.func
        if tracer and func is not None:
            func = tracer.traced_function(func)
        t0 = perf_counter()
        try:
            with span(tracer, "screening.run_screen"):
                report = screening.run_screen(cfg, func)
            with span(tracer, "screening.render"):
                csv, meta = report.to_csv(), report.metadata_json()
        except Exception as exc:  # a failed op is counted, not fatal
            return Op(i, "screen", perf_counter() - t0, errors=[repr(exc)])
        op = Op(i, "screen", perf_counter() - t0, vertices=report.n_evals,
                digest=sha256(csv + meta))
        op.errors = self.check(cfg, self.sizes[k], report, csv)
        if self.func is None:
            op.matches = sum(c == ref for c, ref in
                             zip(report.classes, screening.REFERENCE_CLASSES))
        return op

    @staticmethod
    def check(cfg, size: int, report, csv: str) -> list:
        errors = []
        if report.design_size != size:
            errors.append(f"|S|={report.design_size}, predicted_size={size}")
        if report.n_evals != cfg.r * size:
            errors.append(f"n_evals={report.n_evals}, expected r*|S|={cfg.r * size}")
        per_dir = [sum(len(rep) for rep in d) for d in report.stats.effects]
        if len(per_dir) != cfg.d or any(n != cfg.m * cfg.r for n in per_dir):
            errors.append(f"effects per direction {per_dir}, expected m*r={cfg.m * cfg.r}")
        if csv.count("\n") != cfg.d + 1 or len(report.classes) != cfg.d:
            errors.append("report does not have one row per factor")
        return errors


# -- CLI design session -----------------------------------------------------

COMMANDS = ("economy", "generate", "verify", "pairs")


class CliWorkload:
    """A researcher's CLI session, each command in a fresh interpreter.

    A session is economy at mid scale, then generate -> verify -> pairs of
    one stress design.  A cycle is two sessions, one H and one M design at
    d=62; the seed draws each m from a 33-wide range around a fixed centre
    in [256, 1024], which keeps |S| within about 2% of the centre's size,
    so every seed runs the same mix.
    """

    STRESS = (("H", 928), ("M", 672))   # |S| about 36,000 and 12,000

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng(seed)
        if tiny:
            self.d, centres, jitter = 10, (("H", 12), ("M", 6)), 1
            self.econ_d, self.econ_m_max = 10, 8
        else:
            self.d, centres, jitter = 62, self.STRESS, 16
            self.econ_d, self.econ_m_max = 30, 200
        self.designs = [(f, self.d, int(c + rng.integers(-jitter, jitter + 1)))
                        for f, c in centres]
        self.sizes = [guard_size(*design) for design in self.designs]
        self.economy_rows = {}
        for m in range(1, self.econ_m_max + 1):
            for f in ("G", "H", "M"):
                try:
                    self.economy_rows[(f, m)] = guard_size(f, self.econ_d, m)
                except ValueError:
                    pass    # (family, m) outside the family's range: no row
        self.workdir = workdir
        self.cycle_len = len(self.designs) * len(COMMANDS)
        self.cache = {"hits": 0, "misses": 0}

    def argv(self, kind: str, k: int) -> list:
        family, d, m = self.designs[k]
        design = f"design-{k}.json"
        if kind == "economy":
            return ["economy", "--d", str(self.econ_d), "--m-max", str(self.econ_m_max),
                    "--out", "economy.csv"]
        if kind == "generate":
            return ["generate", "--family", family, "--d", str(d), "--m", str(m),
                    "--out", design]
        if kind == "verify":
            return ["verify", "--in", design]
        return ["pairs", "--in", design, "--out", f"pairs-{k}.csv"]

    def warm_up(self):
        """One untimed session on a small design (fresh interpreters throughout)."""
        for argv in (["economy", "--d", "8", "--m-max", "4", "--out", "warm.csv"],
                     ["generate", "--family", "H", "--d", "8", "--m", "4", "--out", "warm.json"],
                     ["verify", "--in", "warm.json"],
                     ["pairs", "--in", "warm.json", "--out", "warm-pairs.csv"]):
            proc, _ = self.command(argv)
            if proc.returncode != 0:
                raise SetupError(f"warm-up command {argv[0]} failed: {proc.stderr.strip()}")

    def command(self, argv, trace_out=None):
        if trace_out:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "eqdesign.cli", *argv]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=CMD_TIMEOUT_S)
        return proc, perf_counter() - t0

    def run_op(self, i: int, tracer=None) -> Op:
        kind = COMMANDS[i % len(COMMANDS)]
        k = (i // len(COMMANDS)) % len(self.designs)
        trace_out = self.workdir / "spans.json" if tracer else None
        if trace_out:
            trace_out.unlink(missing_ok=True)
        try:
            proc, latency = self.command(self.argv(kind, k), trace_out)
        except subprocess.TimeoutExpired:
            return Op(i, kind, CMD_TIMEOUT_S, errors=[f"{kind} timed out"])
        op = Op(i, kind, latency)
        if proc.returncode != 0:
            op.errors.append(f"{kind} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return op
        try:
            if trace_out:
                child = json.loads(trace_out.read_text())
                tracer.extend(child["spans"], i)
                for key in self.cache:
                    self.cache[key] += child["cache"][key]
            getattr(self, "check_" + kind)(op, k, proc.stdout)
        except (OSError, ValueError, IndexError) as exc:
            op.errors.append(f"{kind} output unreadable: {exc!r}")
        return op

    def check_economy(self, op, k, stdout):
        text = (self.workdir / "economy.csv").read_text()
        rows = {}
        for line in text.splitlines()[1:]:
            family, d, m, size, predicted, _gamma = line.split(",")
            rows[(family, int(m))] = (int(size), int(predicted))
        expected = {key: (size, size) for key, size in self.economy_rows.items()}
        if rows != expected:
            op.errors.append("economy table differs from predicted_size for some (family, m)")
        op.vertices = sum(size for size, _ in rows.values())
        op.digest = sha256(text)

    def check_generate(self, op, k, stdout):
        size = self.sizes[k]
        last = stdout.strip().splitlines()[-1]
        fields = dict(item.split("=", 1) for item in last.split())
        if fields.get("size") != str(size) or fields.get("predicted_size") != str(size):
            op.errors.append(f"generate printed {last!r}, predicted_size={size}")
        op.vertices = size
        op.digest = sha256((self.workdir / f"design-{k}.json").read_bytes())

    def check_verify(self, op, k, stdout):
        m = self.designs[k][2]
        if f"equitable, m={m}" not in stdout.splitlines():
            op.errors.append(f"verify did not print 'equitable, m={m}'")
        op.vertices = self.sizes[k]
        op.digest = sha256(stdout)

    def check_pairs(self, op, k, stdout):
        family, d, m = self.designs[k]
        data = (self.workdir / f"pairs-{k}.csv").read_bytes()
        rows = data.count(b"\n") - 1
        if rows != d * m:
            op.errors.append(f"pairs CSV has {rows} data rows, expected d*m={d * m}")
        op.vertices = self.sizes[k]
        op.digest = sha256(data)


def make_workload(name: str, seed: int, tiny: bool, workdir: Path):
    if name == "screen_paper":
        cycle = (("M", 4, 3), ("H", 4, 3), ("G", 4, 3), ("path", 1, 12))
        return ScreenWorkload(name, 20, cycle, seed)
    if name == "screen_mid":
        ms = (4, 8) if tiny else (32, 64, 128, 200)
        cycle = [(f, m, 4) for m in ms for f in ("M", "H", "G")]
        return ScreenWorkload(name, 30, cycle, seed, MidFunction(seed))
    return CliWorkload(seed, workdir, tiny)


WORKLOADS = ("screen_paper", "screen_mid", "design_cli")


# -- measurement ----------------------------------------------------------------

def set_up(workload) -> tuple:
    """Median over SETUP_REPS of fresh-interpreter import + warm-up; median import alone."""
    totals, imports = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=CHILD_ENV,
                               capture_output=True, text=True, timeout=CMD_TIMEOUT_S)
        if probe.returncode != 0:
            raise SetupError(f"cannot import eqdesign: {probe.stderr.strip()}")
        imports.append(float(probe.stdout))
        workload.warm_up()
        totals.append(perf_counter() - t0)
    return statistics.median(totals), statistics.median(imports)


def measure(workload, seconds: float, tracer=None) -> list:
    """Whole cycles of ops, starting another only while it should end within `seconds`."""
    ops, i = [], 0
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        for _ in range(workload.cycle_len):
            if tracer:
                tracer.op = i
            ops.append(workload.run_op(i, tracer))
            i += 1
        now = perf_counter()
        if (now - start) + (now - cycle_start) > seconds:
            return ops


def load_goldens(name: str) -> list:
    golden = json.loads(GOLDENS.read_text()).get(name, []) if GOLDENS.exists() else []
    if not golden:
        raise SetupError(f"no golden digests for {name} in {GOLDENS}")
    return golden


def check_goldens(golden: list, ops: list) -> None:
    for op, digest in zip(ops, golden):
        if op.digest != digest:
            op.errors.append(f"op {op.index} output differs from the golden digest")


def end_to_end(ops: list, setup_s: float, rss_mb: float) -> dict:
    """Whole-run means over whole cycles, so every run weighs the same mix of ops.

    The speed of a shared machine drifts with other tenants' load; a mean
    follows the share of time spent slow smoothly, where a median or a
    percentile jumps between the fast and the slow mode.
    """
    busy = sum(op.latency_s for op in ops)
    n = len(ops)
    return {
        "latency_mean_ms": (busy / n * 1e3, "ms", n),
        "vertices_per_s": (sum(op.vertices for op in ops) / busy, "1/s", n),
        "setup_s": (setup_s, "s", SETUP_REPS),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def workload_detail(name: str, ops: list) -> dict:
    """The workload's own figures: shown in the report, not part of the contract metrics."""
    failed = sum(1 for op in ops if op.errors)
    lat = [op.latency_s for op in ops]
    pct = statistics.quantiles(lat, n=10, method="inclusive")
    out = {"latency_p50_ms": (statistics.median(lat) * 1e3, "ms", len(ops)),
           "latency_p90_ms": (pct[8] * 1e3, "ms", len(ops)),
           "throughput_per_s": (len(ops) / sum(lat), "1/s", len(ops)),
           "ops.failed_frac": (failed / len(ops), "ratio", len(ops))}
    if name == "screen_paper":
        first = ops[:CLASS_MATCH_SCREENS]
        out["screen.class_match_frac"] = (sum(op.matches for op in first) / (20 * len(first)),
                                          "ratio", 20 * len(first))
    if name == "design_cli":
        for kind in COMMANDS:
            times = [op.latency_s for op in ops if op.kind == kind]
            out[f"cli.{kind}_s"] = (statistics.median(times), "s", len(times))
        sessions = [sum(op.latency_s for op in ops[j:j + len(COMMANDS)])
                    for j in range(0, len(ops), len(COMMANDS))]
        out["cli.session_s"] = (statistics.median(sessions), "s", len(sessions))
    return out


def per_layer(summary: dict, n_ops: int, cache: dict, import_s: float,
              overhead: float) -> dict:
    """The traced half's per-layer figures; times and cache hits are per op.

    Each value comes with its sample count: the traced ops, or the set-up
    repetitions for import_s.
    """
    def self_ms(name):
        return (summary[name]["self_s"] * 1e3 / n_ops, "ms", n_ops)

    lookups = cache["hits"] + cache["misses"]
    return {
        "families.self_ms_per_op": self_ms("families"),
        "poly.self_ms_per_op": self_ms("poly"),
        "effects.self_ms_per_op": self_ms("effects"),
        "poly.mirror.self_ms_per_op": self_ms("poly.mirror"),
        "effects.order_vertices.self_ms_per_op": self_ms("effects.order_vertices"),
        "effects.build_incidence.self_ms_per_op": self_ms("effects.build_incidence"),
        "effects.build_incidence.ns_per_vertex_dir":
            (summary["effects.build_incidence"]["ns_per_vertex_dir"], "ns", n_ops),
        "families.cache_hits_per_op": (cache["hits"] / n_ops, "count", n_ops),
        "families.cache_hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio",
                                     n_ops),
        "import_s": (import_s, "s", SETUP_REPS),
        "trace.overhead_frac": (overhead, "ratio", n_ops),
    }


def provenance(args) -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "eqdesign").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "design_cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def traced_run(workload, seconds: float) -> tuple:
    """Untraced then traced halves over the same op indices.

    Returns (untraced ops, traced ops, tracer, cache counts, overhead).  An op whose
    traced output differs from its untraced output is marked failed.
    """
    plain = measure(workload, seconds / 2)
    tracer = spans.Tracer()
    before = spans.cache_counts()
    tracer.install()
    try:
        traced = measure(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    if isinstance(workload, CliWorkload):
        cache = workload.cache
    else:
        after = spans.cache_counts()
        cache = {key: after[key] - before[key] for key in after}
    common = min(len(plain), len(traced))
    for a, b in zip(plain, traced):
        if a.digest != b.digest and not (a.errors or b.errors):
            b.errors.append(f"op {b.index}: traced output differs from untraced output")
    overhead = (sum(op.latency_s for op in traced[:common])
                / sum(op.latency_s for op in plain[:common]) - 1.0)
    return plain, traced, tracer, cache, overhead


def print_table(title: str, rows: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, n) in rows.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6}  n={n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes for the harness smoke test (no golden check)")
    ap.add_argument("--write-goldens", action="store_true",
                    help="record the default seed's first-cycle digests in goldens.json")
    args = ap.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as workdir:
        try:
            workload = make_workload(args.workload, args.seed, args.tiny, Path(workdir))
            if args.write_goldens:
                return write_goldens(args, workload)
            golden = (load_goldens(args.workload)
                      if args.seed == DEFAULT_SEED and not args.tiny else [])
            setup_s, import_s = set_up(workload)
        except (SetupError, subprocess.TimeoutExpired) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        prov = provenance(args)
        record = {"provenance": prov}
        if args.trace:
            plain, traced, tracer, cache, overhead = traced_run(workload, args.seconds)
            ops = plain + traced
            summary = spans.summarize(tracer.spans)
            metrics = per_layer(summary, len(traced), cache, import_s, overhead)
            record["spans"] = summary
        else:
            ops = measure(workload, args.seconds)
            metrics = end_to_end(ops, setup_s, peak_rss_mb(args.workload))
    check_goldens(golden, ops)
    detail = workload_detail(args.workload, ops)
    failed = sum(1 for op in ops if op.errors)

    print(f"# eqdesign benchmark: {json.dumps(prov)}")
    print_table("metrics (traced run, per layer)" if args.trace else "metrics (end to end)",
                metrics)
    print_table(f"{args.workload} detail", detail)
    if args.trace:
        print("# spans: calls, busy_s, self_s and counts")
        for name, row in summary.items():
            print(f"  {name:<32} " + " ".join(f"{k}={v:.6g}" for k, v in row.items()))
    for op in [op for op in ops if op.errors][:10]:
        print(f"# FAILED op {op.index} ({op.kind}): {'; '.join(op.errors)}")
    record.update(metrics={k: list(v) for k, v in metrics.items()},
                  detail={k: list(v) for k, v in detail.items()},
                  attempted=len(ops), failed=failed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }))
    return 0


def write_goldens(args, workload) -> int:
    if args.seed != DEFAULT_SEED or args.tiny:
        print("error: goldens are recorded for the default seed at full size", file=sys.stderr)
        return 2
    ops = [workload.run_op(i) for i in range(workload.cycle_len)]
    bad = [op for op in ops if op.errors]
    if bad:
        print(f"error: refusing to record goldens, op {bad[0].index} failed: {bad[0].errors}",
              file=sys.stderr)
        return 1
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    goldens[args.workload] = [op.digest for op in ops]
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(ops)} digests for {args.workload} in {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
