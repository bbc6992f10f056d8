"""From a design to elementary effects: vertex ordering, pair incidence of a
range of directions, randomized replication, geometric embedding, and the
mu/mu*/sigma statistics pooled over replicates.

Every step works on arrays.  Ordering and incidence use the design's int64
vertices, and a randomized replicate reads its incidence off the edges it
inherits from its base design.  Embedding gathers each point from tables of
coordinate levels, one table row per byte of its vertex (poly.bit_levels).
A replicate's effects are one gather from the function values; the
statistics are passes over all directions at once, summed left to right so
reports are reproducible.
"""
from __future__ import annotations

import bisect
import itertools
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .poly import DesignPoly, bit_levels, check_dim, check_int, format_words

ESTIMATORS = ("pooled", "between")  # the sigma estimators of pooled_stats

EPS = 1e-9  # tolerance of the bounds of base coordinates, [0, 1 - delta], and points


def is_real(value) -> bool:
    """Whether value is an int or a float (numpy's float64 is one), not a bool:
    the reals a screen takes, each of which its metadata writes as JSON."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_delta(delta: float) -> None:  # a float skips the call; NaN fails the range
    if not (type(delta) is float or is_real(delta)) or not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta!r}")


def check_levels(levels: int) -> None:  # bisect cannot search a longer range
    check_int("levels", levels, 2, sys.maxsize)


def check_estimator(estimator: str) -> None:
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown sigma estimator {estimator!r}")


def order_vertices(design: DesignPoly) -> DesignPoly:
    """The design, once its graded-lex order `ordered_terms` is computed; row
    k+1 of every incidence is ordered_terms[k].  A step of its own only so
    that the benchmark (perfbench/spans.py) can patch and time it by name."""
    if not len(design):
        raise ValueError("cannot order an empty design")
    design.ordered_terms
    return design


class EffectIncidence:
    """The vertex pairs of a range of directions, by direction, then row:
    pair k joins rows[k] < cols[k], 0-based positions in graded-lex order of
    its lower and upper endpoint (read-only int64 views into the design's
    grlex_pairs) in a design of `size` vertices.

    A plain record with three slots, built once per replicate for all d
    directions: no dataclass, whose frozen fields each cost a call to set.
    `pairs` lists the pairs as 1-based (row, col, sign) tuples, built on
    each request.  Sign is always +1: the row is the lower endpoint (see
    grlex_pairs).
    """

    __slots__ = ("rows", "cols", "size")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, size: int):
        self.rows, self.cols, self.size = rows, cols, size

    @property
    def pairs(self) -> tuple:
        return tuple(zip((self.rows + 1).tolist(), (self.cols + 1).tolist(),
                         itertools.repeat(1)))


def build_incidence(design: DesignPoly, direction: int,
                    last: Optional[int] = None) -> EffectIncidence:
    """The pairs of directions `direction`..`last` (only `direction` when last
    is None), one slice of the design's grlex_pairs: by direction, then row."""
    check_int("direction", direction, 1, design.dim)
    last = direction if last is None else last
    check_int("last", last, direction, design.dim)
    rows, cols, starts = design.grlex_pairs
    lo, hi = starts[direction - 1], starts[last]
    return EffectIncidence(rows[lo:hi], cols[lo:hi], len(design))


def elementary_effects(inc: EffectIncidence, f_values: Sequence[float],
                       delta: float) -> np.ndarray:
    """One finite difference per pair, (f(upper endpoint) - f(lower endpoint)) / delta,
    as a float array gathered from f_values (one value per vertex, in vertex order)."""
    check_delta(delta)
    f = np.asarray(f_values, dtype=float)
    if f.shape != (inc.size,):
        raise ValueError(f"need {inc.size} function values, one a vertex, got shape {f.shape}")
    return (f[inc.cols] - f[inc.rows]) / delta


def randomize(design: DesignPoly, rng: np.random.Generator):
    """Random reflection then random direction relabelling; preserves equitability.

    Returns (transformed design, reflection monomial, permutation as a 1-based tuple).
    """
    d = design.dim
    s = int(rng.integers(0, 1 << d))
    perm = tuple((rng.permutation(d) + 1).tolist())
    return design.image(s, perm), s, perm


@dataclass(frozen=True, eq=False)
class ReplicatedDesign:
    """One embedded replicate: points[k] corresponds to ordered_terms[k].

    points is a float (|S|, d) array, rows in [0,1]^d.  It is a view whose
    rows are 8 * ceil(d/8) floats apart, as poly.bit_levels gathers them."""

    points: np.ndarray


def embed(design: DesignPoly, base: Sequence[float], delta: float) -> ReplicatedDesign:
    """Map vertices to points base + delta * bits, in graded-lex order."""
    d = design.dim
    check_delta(delta)
    if len(base) != d:
        raise ValueError(f"base point has {len(base)} coordinates, expected {d}")
    # coordinate i of a point is one of two levels, min(1, base[i] + delta * bit);
    # base[i] + 0.0 turns a -0.0 coordinate into 0.0
    levels = []
    for i, x in enumerate(base, 1):
        if not -EPS <= x <= 1 - delta + EPS:  # also true for NaN
            raise ValueError(f"base coordinate {x} outside [0, 1-delta]")
        high = min(1.0, x + delta)
        if high == x:
            raise ValueError(f"delta={delta} does not move base coordinate {i} from {x}")
        levels += (min(1.0, x + 0.0), high)
    return ReplicatedDesign(points=bit_levels(design.ordered_terms,
                                              np.array(levels).reshape(d, 2)))


def sample_base(d: int, delta: float, levels: int, rng: np.random.Generator) -> tuple:
    """Draw each coordinate uniformly from the p-level grid values not exceeding 1-delta."""
    check_dim(d)
    check_delta(delta)
    check_levels(levels)
    # grid value k is k / (levels - 1); the feasible ones are a prefix of the grid
    n_feasible = bisect.bisect_right(range(levels), 1 - delta + EPS,
                                     key=lambda k: k / (levels - 1))
    picks = rng.integers(0, n_feasible, size=d)
    return tuple(k / (levels - 1) for k in picks.tolist())


@dataclass(frozen=True)
class FactorStats:
    """Per-direction summary of all pooled elementary effects."""

    mu: tuple
    mu_star: tuple
    sigma: tuple
    # read-only float (d, r, m) array: effects[i, j] are the direction-(i+1)
    # effects of replicate j+1
    effects: np.ndarray = field(compare=False)


def _total(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added left to right from 0.0 as a plain loop
    adds them: no pairwise (numpy's sum) or compensated (Python 3.12's sum)
    summation, so reports do not depend on either version.  Adding 0.0 at
    the end turns a sum of -0.0s into the 0.0 that a loop from 0.0 gives."""
    return np.add.accumulate(x, axis=-1)[..., -1] + 0.0


def _square(x: np.ndarray) -> np.ndarray:
    """x ** 2 in place, as Python computes it for a float, with pow(x, 2.0):
    x * x (numpy's x ** 2, np.square and np.power's fast path) can differ
    from it in the last bit."""
    return np.float_power(x, 2.0, out=x)


def pooled_stats(samples: Sequence[Sequence[Sequence[float]]],
                 estimator: str = "pooled") -> FactorStats:
    """Aggregate effects[direction][replicate] into mu, mu*, sigma per direction.

    `samples` is anything numpy reads as a (d, r, m) float array: the same
    number m of effects in every direction and replicate, as an equitable
    design gives.  Every statistic is one pass over all directions.

    estimator="pooled": sample standard deviation over all m*r effects.
    estimator="between": one-way decomposition, standard deviation of the
    per-replicate means (requires >= 2 replicates).  Neither reproduces the
    clustered-survey correction cited without formula in the source material.
    A statistic that is not finite (from a NaN or infinite effect, or a sum
    or square that overflows) raises ValueError naming the first factor
    that has one.
    """
    check_estimator(estimator)
    try:
        # no copy of a float array; the view, not the caller's array, turns read-only
        effects = np.asarray(samples, dtype=float).view()
        d, r, m = effects.shape
    except ValueError:  # ragged, or not three levels deep
        raise ValueError("need the same number of effects in every direction "
                         "and replicate") from None
    if not d:
        raise ValueError("need effects for at least one direction")
    n = r * m
    if n < 2:
        raise ValueError("need at least 2 effect samples per direction")
    if estimator == "between" and r < 2:
        raise ValueError("between-replicate estimator needs >= 2 replicates")
    flat = effects.reshape(d, n)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        mean = _total(flat) / n
        mu_star = _total(np.abs(flat)) / n
        if estimator == "pooled":
            var = _total(_square(flat - mean[:, None])) / (n - 1)
        else:
            means = _total(effects) / m
            var = _total(_square(means - (_total(means) / r)[:, None])) / (r - 1)
        sigma = np.sqrt(var)
    finite = np.isfinite((mean, mu_star, sigma)).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"the statistics of factor {i + 1} are not finite: "
                         f"mu={float(mean[i])}, mu_star={float(mu_star[i])}, "
                         f"sigma={float(sigma[i])}")
    effects.flags.writeable = False
    return FactorStats(mu=tuple(mean.tolist()), mu_star=tuple(mu_star.tolist()),
                       sigma=tuple(sigma.tolist()), effects=effects)


def pairs_csv(design: DesignPoly) -> list:
    """Pair listing for all directions, direction,row,col,sign,lower_vertex,upper_vertex,
    as a list of pieces to write in order: the header, then one str per direction.

    Each direction's rows are joined on their own, so that only one
    direction's line strings are alive next to the pieces, and the pieces are
    never joined into a second copy of the whole listing.
    """
    words = format_words(design.ordered_terms, design.dim)
    chunks = ["direction,row,col,sign,lower_vertex,upper_vertex\n"]
    for i in range(1, design.dim + 1):
        inc = build_incidence(design, i)
        # every sign is +1: the row vertex is the lower endpoint (see grlex_pairs)
        chunks.append("".join([f"{i},{r + 1},{c + 1},+1,{words[r]},{words[c]}\n"
                               for r, c in zip(inc.rows.tolist(), inc.cols.tolist())]))
    return chunks
