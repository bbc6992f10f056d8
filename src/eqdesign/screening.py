"""End-to-end screening experiment: replicated randomized designs over a
20-factor benchmark function, factor statistics, and C0/C1/C2 classification.

Randomness is driven by numpy's default PCG64 generator so that a seed fully
determines both the benchmark coefficients and the replication draws.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

import numpy as np

from .effects import (EPS, FactorStats, build_incidence, check_delta, check_estimator,
                      check_levels, elementary_effects, embed, is_real, order_vertices,
                      pooled_stats, randomize, sample_base)
from .families import check_domain, generate, predicted_size
from .poly import check_int, mono_str

# a screen's memory budget in float64 cells, 256 MB: both one replicate's
# points, |S| * d coordinates, and the (d, r, m) effects array must fit in
# it; a ScreenConfig above it is refused when built, before anything runs.
# The points' rows are padded to 8 * ceil(d/8) floats a vertex, so they take
# up to 32/25 of the budget (at d=25; below d=21 no design reaches it)
MAX_SCREEN_CELLS = 1 << 25

# coordinates given the saturating rational transform instead of the linear one
RATIONAL_COORDS = (3, 5, 7)

# the benchmark's factor classes: 1..7 nonlinear/interaction, 8..10 linear,
# 11..20 negligible (only standard-normal coefficients)
REFERENCE_CLASSES = tuple(
    "C2" if i <= 7 else ("C1" if i <= 10 else "C0") for i in range(1, 21)
)


BETA3 = -10.0  # the coefficient of every triple i < j < l <= 5
BETA4 = 5.0    # the coefficient of the single quadruple i < j < l < s <= 4
# the BETA3 triples, as three index columns I, J, L
_TRIPLES = tuple(np.array(c) for c in zip(*itertools.combinations(range(5), 3)))

# the beta2 pairs i < j in lexicographic order, and those outside the fixed
# block of pairs within factors 1..6, which get standard-normal coefficients
_PAIR_ROWS, _PAIR_COLS = np.triu_indices(20, 1)
_FREE_PAIRS = _PAIR_COLS >= 6


def w_transform(x: np.ndarray) -> np.ndarray:
    """Input warping of points x[..., 20]: w = 2x-1, except a rational saturating
    branch on coords 3, 5, 7."""
    w = 2.0 * x - 1.0
    for i in RATIONAL_COORDS:
        xi = x[..., i - 1]
        w[..., i - 1] = 2.2 * xi / (xi + 0.1) - 1.0
    return w


@dataclass(frozen=True)
class BenchmarkFunction:
    """Deterministic 20-factor benchmark; callable on points or arrays of points."""

    beta0: float
    beta1: np.ndarray       # (20,)
    beta2: np.ndarray       # (20, 20), upper triangular i<j

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.ndim > 2 or pts.shape[-1] != 20:
            raise ValueError(f"expected a point or points of 20 coordinates, got shape {x.shape}")
        # min and max propagate NaN; no points means none outside
        if pts.size and not (-EPS <= pts.min() and pts.max() <= 1 + EPS):
            raise ValueError("input outside [0,1]^20")
        w = w_transform(pts)
        val = self.beta0 + w @ self.beta1
        val += np.einsum("ni,ij,nj->n", w, self.beta2, w)
        i, j, l = _TRIPLES
        terms = BETA3 * w[:, i] * w[:, j] * w[:, l]
        # added to val one term at a time, left to right, as a loop adds them
        val = (np.add.accumulate(np.column_stack((val, terms)), axis=1)[:, -1]
               + BETA4 * w[:, 0] * w[:, 1] * w[:, 2] * w[:, 3])
        return val[0] if squeeze else val


def build_test_function(seed: int) -> BenchmarkFunction:
    """Benchmark coefficients: fixed blocks plus standard-normal fill-ins.

    Random draws use numpy default_rng(seed) in a fixed order: beta0, then
    first-order coefficients for factors 11..20 ascending, then second-order
    coefficients for pairs (i,j) in lexicographic order wherever the pair is
    not covered by the fixed -15 block.
    """
    rng = np.random.default_rng(seed)
    beta0 = float(rng.standard_normal())
    beta1 = np.zeros(20)
    beta1[:10] = 20.0
    beta1[10:] = rng.standard_normal(10)
    beta2 = np.zeros((20, 20))
    beta2[_PAIR_ROWS, _PAIR_COLS] = -15.0
    beta2[_PAIR_ROWS[_FREE_PAIRS], _PAIR_COLS[_FREE_PAIRS]] = rng.standard_normal(
        np.count_nonzero(_FREE_PAIRS))
    return BenchmarkFunction(beta0=beta0, beta1=beta1, beta2=beta2)


def _check_real(name: str, value: float, high: float, span: str) -> None:  # NaN fails the range
    if not is_real(value) or not 0 <= value <= high:
        raise ValueError(f"{name} must be {span}, got {value!r}")


# each ScreenConfig field's one rule, called with the fields it judges, in report order
_RULES = (
    (("family", "d", "m"), check_domain),
    (("r",), lambda v: check_int("r", v, 2)),
    (("delta",), check_delta),
    (("levels",), check_levels),
    (("sigma_estimator",), check_estimator),
    (("seed",), lambda v: check_int("seed", v, 0)),
    (("function_seed",), lambda v: v is None or check_int("function_seed", v, 0)),
    (("tau0",), lambda v: _check_real("tau0", v, 1, "in [0,1]")),
    (("rho",), lambda v: _check_real("rho", v, sys.float_info.max, "finite and >= 0")),
)


@dataclass(frozen=True)
class ScreenConfig:
    d: int = 20
    m: int = 4
    r: int = 3
    family: str = "M"
    delta: float = 2.0 / 3.0
    levels: int = 4
    seed: int = 0
    tau0: float = 0.1
    rho: float = 0.5
    sigma_estimator: str = "pooled"
    function_seed: Optional[int] = None  # defaults to seed

    def __post_init__(self) -> None:
        """Refuse a config that cannot run, naming every bad field; nothing is built."""
        problems, failed = [], set()
        for fields, rule in _RULES:
            try:
                rule(*[getattr(self, name) for name in fields])
            except ValueError as exc:
                problems.append(str(exc))
                failed.update(fields)
        if failed.isdisjoint(("family", "d", "m")):  # the budgets, once their fields passed
            cells = predicted_size(self.family, self.d, self.m) * self.d
            if cells > MAX_SCREEN_CELLS:
                problems.append(f"{self.family}({self.d}, {self.m}) has {cells} point "
                                f"coordinates, above the budget of {MAX_SCREEN_CELLS}")
            if "r" not in failed and self.d * self.r * self.m > MAX_SCREEN_CELLS:
                problems.append(f"r={self.r} gives d*r*m = {self.d * self.r * self.m} "
                                f"effects, above the budget of {MAX_SCREEN_CELLS}")
        if problems:
            raise ValueError("invalid screen config: " + "; ".join(problems))


def classify(stats: FactorStats, tau0: float, rho: float) -> tuple:
    """Label each factor C0 (negligible), C1 (linear) or C2 (nonlinear/interaction).

    C0 needs both mu* and sigma below tau0 times the respective maxima; of the
    rest, sigma >= rho * mu* marks C2.  An all-zero run is entirely C0.
    """
    max_mu_star = max(stats.mu_star)
    max_sigma = max(stats.sigma)
    labels = []
    for mu_star, sigma in zip(stats.mu_star, stats.sigma):
        if mu_star <= tau0 * max_mu_star and sigma <= tau0 * max_sigma:
            labels.append("C0")
        elif sigma >= rho * mu_star:
            labels.append("C2")
        else:
            labels.append("C1")
    return tuple(labels)


@dataclass(frozen=True)
class ReplicateMeta:
    reflection: str       # binary word
    permutation: tuple
    base_point: tuple
    delta: float


# json's text for a value of each of these exact types.  Every float of a
# report is finite (the config's rules and sample_base's grid), so none needs
# json's NaN or Infinity
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
                 bool: lambda value: "true" if value else "false",
                 type(None): lambda value: "null"}


def _json_text(value, indent: str) -> str:
    """json.dumps(value, indent=2) for a value at nesting `indent` (two spaces
    a level): a dict with str keys, a list or tuple, or a scalar.  json's
    indented output runs its pure-Python encoder; this one writes an item of
    a dict or list through _JSON_SCALARS by its exact type, and any other
    item, a container or a subclass such as numpy's float64, by recursion,
    where a scalar takes the rule of the first type in its MRO that has one."""
    inner, writer = indent + "  ", _JSON_SCALARS.get
    if isinstance(value, dict):
        if not value:
            return "{}"
        brackets = "{}"
        items = [encode_basestring_ascii(key) + ": "
                 + (write(item) if (write := writer(type(item))) else _json_text(item, inner))
                 for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        brackets = "[]"
        items = [write(item) if (write := writer(type(item))) else _json_text(item, inner)
                 for item in value]
    else:
        for kind in type(value).__mro__:
            if write := writer(kind):
                return write(value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + indent + brackets[1])


@dataclass(frozen=True)
class ScreenReport:
    config: ScreenConfig
    stats: FactorStats
    classes: tuple
    n_evals: int
    design_size: int
    replicates: tuple  # of ReplicateMeta

    def _csv(self, names: tuple) -> str:
        """factor,<names>, then one line a factor: its number and its value in each
        named column, a FactorStats field or "class" (str of a float is its repr)."""
        columns = [getattr(self.stats, n) if n != "class" else self.classes for n in names]
        lines = [",".join(map(str, row)) for row in zip(range(1, len(self.classes) + 1), *columns)]
        return "\n".join([",".join(("factor",) + names)] + lines) + "\n"

    def to_csv(self) -> str:
        return self._csv(("mu", "mu_star", "sigma", "class"))

    def scatter_csv(self) -> str:
        return self._csv(("mu_star", "sigma"))

    def metadata_json(self) -> str:
        """json.dumps(obj, indent=2) plus a newline, byte for byte, for the
        object below, written by _json_text rather than by json's encoder."""
        obj = {
            "config": vars(self.config),
            "n_evals": self.n_evals,
            "design_size": self.design_size,
            "replicates": [vars(r) for r in self.replicates],
            "classes": list(self.classes),
        }
        return _json_text(obj, "") + "\n"


def _check_values(values, design, where: str) -> np.ndarray:
    """func's values as a float array; fail unless it gave one finite real
    value per vertex of the replicate."""
    values = np.asarray(values)
    if np.iscomplexobj(values):  # a float conversion would drop the imaginary part
        raise ValueError(f"{where}: func returned complex values, dtype {values.dtype}")
    f_values = values.astype(float, copy=False)
    if f_values.shape != (len(design),):
        raise ValueError(f"{where}: func returned shape {f_values.shape} "
                         f"for {len(design)} points, expected ({len(design)},)")
    # min and max propagate NaN, so both are finite exactly when every value is
    if not (math.isfinite(f_values.min()) and math.isfinite(f_values.max())):
        k = int(np.argmin(np.isfinite(f_values)))
        raise ValueError(f"{where}: func returned {float(f_values[k])} at vertex "
                         f"{mono_str(int(design.ordered_terms[k]), design.dim)}")
    return f_values


def run_screen(config: ScreenConfig,
               func: Optional[Callable] = None) -> ScreenReport:
    """Generate the design, run r randomized replicates, pool statistics, classify.

    func maps an (|S|, d) float array of points to |S| finite real values;
    a wrong shape or a NaN or infinite value raises ValueError naming the
    replicate and the vertex, complex values one naming the replicate, and
    effects whose statistics overflow one naming the factor.  When func is
    omitted, the 20-factor benchmark built from the config's function seed
    is used (requires d=20).
    """
    if func is None:
        fseed = config.seed if config.function_seed is None else config.function_seed
        if config.d != 20:
            raise ValueError(f"the built-in benchmark function has 20 factors, got d={config.d}")
        func = build_test_function(fseed)

    design = generate(config.family, config.d, config.m)
    d = config.d
    # a replicate's d*m effects, by direction then row, fill its (d, m) block
    # of effects only if every direction has m pairs
    profile = design.edge_profile()
    if profile != (config.m,) * d:
        raise ValueError(f"{config.family}({d}, {config.m}) has edge profile {profile}, "
                         f"expected {config.m} in each of its {d} directions")
    rng = np.random.default_rng(config.seed)
    effects = np.empty((d, config.r, config.m))
    replicates = []
    n_evals = 0
    for j in range(1, config.r + 1):
        transformed, s, perm = randomize(design, rng)
        order_vertices(transformed)
        base = sample_base(d, config.delta, config.levels, rng)
        rep = embed(transformed, base, config.delta)
        f_values = _check_values(func(rep.points), transformed,
                                 f"replicate {j} of {config.r}")
        n_evals += len(rep.points)
        # one gather for all d directions; an effect that overflows is
        # refused by pooled_stats
        with np.errstate(over="ignore", invalid="ignore"):
            effects[:, j - 1] = elementary_effects(build_incidence(transformed, 1, d),
                                                   f_values, config.delta).reshape(d, config.m)
        replicates.append(ReplicateMeta(
            reflection=mono_str(s, d), permutation=perm,
            base_point=base, delta=config.delta,
        ))
    stats = pooled_stats(effects, estimator=config.sigma_estimator)
    classes = classify(stats, tau0=config.tau0, rho=config.rho)
    return ScreenReport(config=config, stats=stats, classes=classes,
                        n_evals=n_evals, design_size=len(design),
                        replicates=tuple(replicates))


def config_from_dict(obj: dict) -> ScreenConfig:
    if not isinstance(obj, dict):
        raise ValueError("screen config must be a JSON object")
    if "seed" not in obj:
        raise ValueError("screen config is missing required field 'seed'")
    unknown = obj.keys() - ScreenConfig.__dataclass_fields__.keys()
    if unknown:
        raise ValueError(f"unknown screen config fields: {sorted(unknown)}")
    return ScreenConfig(**obj)
