"""Constructors for the G, H and M families of (d,m)-edge equitable designs.

All three are recursive compositions over the hypercube dimension:

* G starts from the star 1 + sum(X_i) at m=1 and splits m into its halves;
* H replaces the m=1 start with hand-built m=2 and m=3 designs, which
  propagates smaller sizes up the same recursion;
* M tiles (c-1) copies of the smallest possible H block plus one wider
  H block over disjoint coordinate ranges, all sharing the origin vertex.

Closed-form size predictions are provided separately from the constructions
so tests can confront the two.  The family table at the end maps each name to
its builder and size formula, and check_domain states every family's (d, m)
domain once.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .poly import DesignPoly, check_dim, check_int, mono_from_vars


@dataclass(frozen=True)
class LeafDecomposition:
    """Counts of the size-2 and size-3 base blocks in the recursive splitting of m."""

    p2: int
    p3: int
    kappa: int
    i_offset: int


# gen_path, gen_G, gen_H and gen_M keep this many designs each; more than
# the 947 gen_H entries of an economy table at d=30 up to m=200
CACHE_SIZE = 1024


@lru_cache(maxsize=CACHE_SIZE)
def gen_path(d: int) -> DesignPoly:
    """Staircase OAT path: 1, X1, X1X2, ..., X1...Xd.  (d,1)-equitable, size d+1."""
    check_domain("path", d, 1)
    return DesignPoly.of(d, ((1 << k) - 1 for k in range(d + 1)))


def _split(lo: DesignPoly, hi: DesignPoly, d: int) -> DesignPoly:
    """lo + X1 Xd * hi, from two designs in dimension d-1.

    G and H both recurse through it on the two halves m // 2 and (m + 1) // 2
    of m; for even m they are equal, and the result is (1 + X1 Xd) * lo.
    Every term of X1 Xd * hi holds X_d and no term of lo does, so in value
    order the sum is lo followed by hi mirrored in X1, with X_d set.
    """
    upper = np.sort(hi.sorted_terms ^ 1) | 1 << (d - 1)
    return DesignPoly(d, np.concatenate((lo.sorted_terms, upper)))


@lru_cache(maxsize=CACHE_SIZE)
def gen_G(d: int, m: int) -> DesignPoly:
    """The basic recursive family: (d,m)-edge equitable for every 1 <= m <= 2^(d-1)."""
    check_domain("G", d, m)
    if m == 1:
        return DesignPoly.of(d, [0] + [1 << i for i in range(d)])
    return _split(gen_G(d - 1, m // 2), gen_G(d - 1, (m + 1) // 2), d)


def predicted_size_G(d: int, m: int) -> int:
    """|G| = m(d - kappa) + 2^(kappa+1) - m with kappa = floor(log2 m)."""
    check_domain("G", d, m)
    kappa = m.bit_length() - 1
    return m * (d - kappa) + (1 << (kappa + 1)) - m


def _gen_H2(d: int) -> DesignPoly:
    """The m=2 base design: 1, then X_{k-1}, X_k and X_{k-1} X_k for each
    even k <= d, and for odd d also X1 Xd and X_{d-1} Xd."""
    terms = [0]
    for k in range(2, d + 1, 2):
        terms += [mono_from_vars(k - 1), mono_from_vars(k), mono_from_vars(k - 1, k)]
    if d % 2:
        terms += [mono_from_vars(1, d), mono_from_vars(d - 1, d)]
    return DesignPoly.of(d, terms)


def _gen_H3(d: int) -> DesignPoly:
    terms = [0, mono_from_vars(1, d)]
    terms += [mono_from_vars(k) for k in range(1, d + 1)]
    terms += [mono_from_vars(j, j + 1) for j in range(1, d)]
    return DesignPoly.of(d, terms)


@lru_cache(maxsize=CACHE_SIZE)
def gen_H(d: int, m: int) -> DesignPoly:
    """The improved-initialisation family, defined for 2 <= m <= 2^(d-1)."""
    check_domain("H", d, m)
    if m == 2:
        return _gen_H2(d)
    if m == 3:
        return _gen_H3(d)
    return _split(gen_H(d - 1, m // 2), gen_H(d - 1, (m + 1) // 2), d)


def leaf_counts(m: int) -> LeafDecomposition:
    """How many size-2 and size-3 base blocks the recursion for H (m >= 2) bottoms out in."""
    check_int("m", m, 2)
    kappa = m.bit_length() - 1
    i = m - (1 << kappa) - (1 << (kappa - 1))
    p2 = 2 * i if i >= 0 else -i
    p3 = (1 << (kappa - 1)) - abs(i)
    return LeafDecomposition(p2=p2, p3=p3, kappa=kappa, i_offset=i)


def alpha_h(m: int) -> Fraction:
    """Slope of the linear-in-d size of H designs."""
    lc = leaf_counts(m)
    if lc.i_offset >= 0:
        return Fraction(m - (1 << (lc.kappa - 1)))
    return Fraction(m + (1 << (lc.kappa - 1)), 2)


def predicted_size_H(d: int, m: int) -> int:
    """Closed form |H| = c(m) + alpha(m) d; c depends on the parity of d - kappa.

    Computed as 8|H| in integers: every denominator of c and alpha divides 8,
    and the eps that the parity of d - kappa picks makes 8|H| a multiple of 8."""
    check_domain("H", d, m)
    lc = leaf_counts(m)
    kappa, i = lc.kappa, lc.i_offset
    eps = 1 if (d - kappa) % 2 == 0 else -1
    if i >= 0:
        # c = -m (eps + 1) / 2 - m kappa + (3 eps + 2 kappa + 9) 2^kappa / 4,
        # alpha = m - 2^(kappa-1)
        eight = (-4 * m * (eps + 1) - 8 * m * kappa
                 + 2 * (3 * eps + 2 * kappa + 9) * (1 << kappa)
                 + 8 * (m - (1 << (kappa - 1))) * d)
    else:
        # c = -m ((eps - 1) / 2 + kappa) / 2 - (-3 eps + 2 kappa - 9) 2^kappa / 8,
        # alpha = (m + 2^(kappa-1)) / 2
        eight = (-2 * m * (eps - 1 + 2 * kappa)
                 - (-3 * eps + 2 * kappa - 9) * (1 << kappa)
                 + 4 * (m + (1 << (kappa - 1))) * d)
    return eight // 8


def q_min(m: int) -> int:
    """Smallest q such that Q_q admits m edges per direction: ceil(log2 m) + 1."""
    check_int("m", m, 1)
    return (m - 1).bit_length() + 1


def _m_decomposition(d: int, m: int) -> Tuple[Family, int, int, int]:
    """d = (c-1) q + t with q = q_min(m) and t in [q, 2q-1]; returns the
    family of M's blocks (path for m=1, H otherwise), q, c-1 and t.

    Needs d >= 2q, which check_domain("M", d, m) guarantees.
    """
    q = q_min(m)
    blocks, rem = divmod(d, q)
    return _REGISTRY["path" if m == 1 else "H"], q, blocks - 1, q + rem


@lru_cache(maxsize=CACHE_SIZE)
def gen_M(d: int, m: int) -> DesignPoly:
    """Factored family: shifted H blocks over disjoint coordinate ranges sharing the origin.

    Block j uses only X_{jq+1}..X_{jq+q}, so in value order it lies above the
    blocks before it, and the design is the origin followed by each block
    without its origin, shifted into place."""
    check_domain("M", d, m)
    family, q, copies, t = _m_decomposition(d, m)
    block, tail = (family.build(k, m).sorted_terms[1:] for k in (q, t))
    return DesignPoly(d, np.concatenate([np.zeros(1, dtype=np.int64)]
                                        + [block << j * q for j in range(copies)]
                                        + [tail << copies * q]))


def predicted_size_M(d: int, m: int) -> int:
    """Shared-origin size accounting: 1 + (c-1)(|block|-1) + (|tail|-1)."""
    check_domain("M", d, m)
    family, q, copies, t = _m_decomposition(d, m)
    return 1 + copies * (family.size(q, m) - 1) + (family.size(t, m) - 1)


def economy_limits(m: int):
    """Large-d economy limits: (G limit, (H limit, H bounds), M bounds)."""
    check_int("m", m, 1)
    limit_g = Fraction(1)
    if m < 2:
        return limit_g, None, None
    limit_h = Fraction(m) / alpha_h(m)
    h_bounds = (Fraction(4, 3), Fraction(3, 2))
    m_bounds = (Fraction(m * m, 2 * m - 1), Fraction(m * m, m - 1))
    return limit_g, (limit_h, h_bounds), m_bounds


ORACLE_MAX_DIM = 4


def min_size_oracle(d: int, m: int) -> Tuple[int, DesignPoly]:
    """Exhaustive search for the smallest (d,m)-edge equitable subgraph of Q_d.

    Enumerates vertex subsets in increasing size, so the first hit is minimal.
    Only feasible for tiny d; hard-capped at d <= 4 (at most 2^16 subsets).
    """
    check_domain("G", d, m)  # G exists wherever Q_d has room for m edges a direction
    if d > ORACLE_MAX_DIM:
        raise ValueError(f"exhaustive oracle is capped at d <= {ORACLE_MAX_DIM}, got {d}")
    vertices = range(1 << d)
    for size in range(1, (1 << d) + 1):
        for subset in itertools.combinations(vertices, size):
            chosen = set(subset)
            if all(sum(1 for v in subset if not v & bit and v | bit in chosen) == m
                   for bit in (1 << i for i in range(d))):
                return size, DesignPoly.of(d, subset)
    raise AssertionError("unreachable: the full hypercube is always equitable")


@dataclass(frozen=True)
class Family:
    """How to build a family's (d, m) design and predict its size without building it."""

    build: Callable[[int, int], DesignPoly]
    size: Callable[[int, int], int]


_REGISTRY = {
    "G": Family(gen_G, predicted_size_G),
    "H": Family(gen_H, predicted_size_H),
    "M": Family(gen_M, predicted_size_M),
    "path": Family(lambda d, m: gen_path(d), lambda d, m: d + 1),
}
FAMILIES = tuple(_REGISTRY)


def check_domain(family: str, d: int, m: int) -> None:
    """Raise ValueError unless the named family defines a (d, m)-edge equitable design.

    This is the one statement of every family's domain; the builders, the
    size predictions, screen config validation and the CLI all defer to it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    check_dim(d)
    check_int("m", m, 1, 1 << (d - 1))
    if family == "H" and m < 2:
        raise ValueError(f"family 'H' starts at m=2, got m={m}")
    if family == "path" and m != 1:
        raise ValueError(f"family 'path' is only defined for m=1, got m={m}")
    if family == "M" and d < 2 * q_min(m):
        raise ValueError(f"family 'M' requires d >= 2*q_min(m) = {2 * q_min(m)}, got d={d}")


# generate() refuses designs above this many vertices.  The design itself is
# an int64 array, 8 bytes a vertex (32 MB at the cap); the README gives the
# measured peak memory of the CLI's design-file commands per vertex, and a
# screen embeds a design as a float array of 8*d bytes per vertex.
MAX_DESIGN_VERTICES = 1 << 22


def generate(family: str, d: int, m: int) -> DesignPoly:
    """The (d, m) design of the named family, if it has at most MAX_DESIGN_VERTICES vertices."""
    size = predicted_size(family, d, m)
    if size > MAX_DESIGN_VERTICES:
        raise ValueError(f"{family}({d}, {m}) would have {size} vertices, "
                         f"above the cap of {MAX_DESIGN_VERTICES}")
    return _REGISTRY[family].build(d, m)


def predicted_size(family: str, d: int, m: int) -> int:
    """Closed-form vertex count of generate(family, d, m), without building it."""
    check_domain(family, d, m)
    return _REGISTRY[family].size(d, m)
