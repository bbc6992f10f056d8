"""From a design to elementary effects: vertex ordering, per-direction pair
incidence, randomized replication, geometric embedding, and the mu/mu*/sigma
statistics pooled over replicates.

Ordering, incidence and embedding work on the design's int64 vertex arrays;
the effects and their statistics stay in Python floats, summed in a fixed
order so that reports are reproducible to the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence

import numpy as np

from .poly import DesignPoly, edge_index, format_words


@dataclass(frozen=True, eq=False)
class OrderedDesign:
    """A design with its canonical graded-lex vertex order (1-based indexing downstream).

    `vertices` is the design's read-only int64 array in graded-lex order: row
    k+1 of every incidence is vertices[k].
    """

    design: DesignPoly
    vertices: np.ndarray

    @property
    def dim(self) -> int:
        return self.design.dim

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def all_pairs(self) -> tuple:
        """(pairs, starts): every direction's (row, col, sign) pairs, by direction
        then row, and the offset in pairs at which each direction starts, plus
        the end (d+1 offsets).

        An edge's upper endpoint has one more degree than its lower one, so it
        comes later in graded-lex order: row is always the lower endpoint and
        every sign is +1.
        """
        design = self.design
        direction, lower, upper = edge_index(design.sorted_terms, design.dim, self.vertices)
        # edges come by row; a stable sort by direction keeps rows in order
        order = np.argsort(direction.astype(np.uint8), kind="stable")
        rows = (lower[order] + 1).tolist()
        cols = (design.grlex_position[upper[order]] + 1).tolist()
        starts = np.searchsorted(direction[order], np.arange(design.dim + 1))
        return [(row, col, 1) for row, col in zip(rows, cols)], starts.tolist()


def order_vertices(design: DesignPoly) -> OrderedDesign:
    if not len(design):
        raise ValueError("cannot order an empty design")
    return OrderedDesign(design=design, vertices=design.ordered_terms)


@dataclass(frozen=True)
class EffectIncidence:
    """Direction-i vertex pairs; pairs are (row, col, sign), 1-based, row < col.

    Sign is +1 when the row vertex sits at coordinate 0 of direction i, so a
    signed difference sign*(f[col] - f[row]) is always upper-minus-lower.
    """

    direction: int
    pairs: tuple  # of (row, col, sign)


def build_incidence(od: OrderedDesign, direction: int) -> EffectIncidence:
    """Direction `direction`'s pairs, sliced from the OrderedDesign's all-direction pass."""
    if not 1 <= direction <= od.dim:
        raise ValueError(f"direction must be in 1..{od.dim}, got {direction}")
    pairs, starts = od.all_pairs
    return EffectIncidence(direction=direction,
                           pairs=tuple(pairs[starts[direction - 1]:starts[direction]]))


def elementary_effects(inc: EffectIncidence, f_values: Sequence[float],
                       delta: float) -> List[float]:
    """One finite difference per pair: (f(upper endpoint) - f(lower endpoint)) / delta."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = len(f_values)
    for row, col, _ in inc.pairs:
        if col > n:
            raise ValueError(f"pair index {col} exceeds {n} function values")
    return [float(sign * (f_values[col - 1] - f_values[row - 1]) / delta)
            for row, col, sign in inc.pairs]


def randomize(design: DesignPoly, rng: np.random.Generator):
    """Random reflection then random direction relabelling; preserves equitability.

    Returns (transformed design, reflection monomial, permutation as a 1-based tuple).
    """
    d = design.dim
    s = int(rng.integers(0, 1 << d))
    perm = tuple(int(p) + 1 for p in rng.permutation(d))
    return design.mirror(s).permute(perm), s, perm


@dataclass(frozen=True, eq=False)
class ReplicatedDesign:
    """One embedded replicate: points[k] corresponds to vertices[k]."""

    base_point: tuple
    delta: float
    points: np.ndarray  # float (|S|, d), rows in [0,1]^d


_EPS = 1e-9


def embed(od: OrderedDesign, base: Sequence[float], delta: float) -> ReplicatedDesign:
    """Map vertices to points base + delta * bits, keeping the vertex order."""
    d = od.dim
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if len(base) != d:
        raise ValueError(f"base point has {len(base)} coordinates, expected {d}")
    for x in base:
        if x < -_EPS or x > 1 - delta + _EPS:
            raise ValueError(f"base coordinate {x} outside [0, 1-delta]")
    # coordinate i of a point is one of two values, min(1, base[i] + delta * bit)
    levels = np.array([[min(1.0, b + delta * bit) for b in base] for bit in (0, 1)])
    columns = np.arange(d)
    points = levels[(od.vertices[:, None] >> columns) & 1, columns]
    return ReplicatedDesign(base_point=tuple(base), delta=delta, points=points)


def sample_base(d: int, delta: float, levels: int, rng: np.random.Generator) -> tuple:
    """Draw each coordinate uniformly from the p-level grid values not exceeding 1-delta."""
    if levels < 2:
        raise ValueError(f"need at least 2 grid levels, got {levels}")
    grid = [k / (levels - 1) for k in range(levels)]
    feasible = [g for g in grid if g <= 1 - delta + _EPS]
    if not feasible:
        raise ValueError(f"no grid value in [0, 1-delta] for delta={delta}, levels={levels}")
    picks = rng.integers(0, len(feasible), size=d)
    return tuple(feasible[k] for k in picks)


@dataclass(frozen=True)
class FactorStats:
    """Per-direction summary of all pooled elementary effects."""

    mu: tuple
    mu_star: tuple
    sigma: tuple
    effects: tuple  # effects[i][j] = list of direction-(i+1) effects in replicate j


def pooled_stats(samples: Sequence[Sequence[Sequence[float]]],
                 estimator: str = "pooled") -> FactorStats:
    """Aggregate effects[direction][replicate] into mu, mu*, sigma per direction.

    estimator="pooled": sample standard deviation over all m*r effects.
    estimator="between": one-way decomposition, standard deviation of the
    per-replicate means (requires >= 2 replicates).  Neither reproduces the
    clustered-survey correction cited without formula in the source material.
    """
    if estimator not in ("pooled", "between"):
        raise ValueError(f"unknown sigma estimator {estimator!r}")
    mu, mu_star, sigma = [], [], []
    for per_direction in samples:
        flat = [e for rep in per_direction for e in rep]
        if len(flat) < 2:
            raise ValueError("need at least 2 effect samples per direction")
        mean = sum(flat) / len(flat)
        mu.append(mean)
        mu_star.append(sum(map(abs, flat)) / len(flat))
        if estimator == "pooled":
            var = sum((e - mean) ** 2 for e in flat) / (len(flat) - 1)
        else:
            means = [sum(rep) / len(rep) for rep in per_direction if rep]
            if len(means) < 2:
                raise ValueError("between-replicate estimator needs >= 2 replicates")
            grand = sum(means) / len(means)
            var = sum((mj - grand) ** 2 for mj in means) / (len(means) - 1)
        sigma.append(math.sqrt(var))
    return FactorStats(
        mu=tuple(mu), mu_star=tuple(mu_star), sigma=tuple(sigma),
        effects=tuple(tuple(list(rep) for rep in per_direction) for per_direction in samples),
    )


def pairs_csv(od: OrderedDesign) -> str:
    """Pair listing for all directions: direction,row,col,sign,lower_vertex,upper_vertex."""
    lines = ["direction,row,col,sign,lower_vertex,upper_vertex"]
    d = od.dim
    words = format_words(od.vertices, d)
    for i in range(1, d + 1):
        inc = build_incidence(od, i)
        # every sign is +1: the row vertex is the lower endpoint (see all_pairs)
        for row, col, sign in inc.pairs:
            lines.append(f"{i},{row},{col},{sign:+d},{words[row - 1]},{words[col - 1]}")
    return "\n".join(lines) + "\n"
