"""0/1 polynomials modulo X_i^2 = 1, representing subgraphs of the hypercube Q_d.

A vertex of Q_d is a monomial, stored as an integer bitmask (bit i set means
variable X_{i+1} is present).  A subgraph is the formal sum of its vertex
monomials with coefficients in {0,1}, stored as a set of bitmasks.  Products
of monomials are XORs of bitmasks, and the scalar product making the monomial
basis orthonormal turns several graph quantities (size, per-direction edge
counts) into one-line computations.

Since d <= 62, every monomial fits in an int64.  A design caches its terms as
one int64 array (value-sorted, plus the graded-lex permutation of it), and
the per-vertex bulk operations -- edge counts, relabelling, ordering -- run
on that array.  Construction (mirror, union, shift) stays on the set.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_DIM = 62

# complement() materialises all 2^d vertices; refuse dimensions where that
# would allocate hundreds of millions of ints
MAX_ENUM_DIM = 26

# vertex-direction cells per block in the array passes over all d directions;
# bounds their temporaries to a few hundred kB whatever the design's size
BLOCK_CELLS = 1 << 16


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


def check_dim(dim: int) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in [1, {MAX_DIM}], got {dim!r}")


def check_monomial(mono: int, dim: int) -> None:
    if mono < 0 or mono >> dim:
        raise ValueError(f"monomial {mono:#x} uses variables beyond dimension {dim}")


def mono_mul(a: int, b: int, dim: Optional[int] = None) -> int:
    """Product of two monomials: symmetric difference of their exponent sets."""
    if dim is not None:
        check_monomial(a, dim)
        check_monomial(b, dim)
    return a ^ b


def mono_from_vars(*indices: int) -> int:
    """Monomial with the given 1-based variable indices, e.g. mono_from_vars(1, 3) = X1*X3."""
    mono = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"variable indices are 1-based, got {i}")
        mono |= 1 << (i - 1)
    return mono


def mono_str(mono: int, dim: int) -> str:
    """Binary-word form, leftmost character = exponent of X_1."""
    check_monomial(mono, dim)
    return format(mono, f"0{dim}b")[::-1]


def mono_parse(word: str) -> int:
    if not word or word.strip("01"):
        raise ValueError(f"not a binary word: {word!r}")
    return int(word[::-1], 2)


def mono_name(mono: int) -> str:
    """Human-readable form, e.g. 'X1X3'; the constant monomial is '1'."""
    if mono == 0:
        return "1"
    return "".join(f"X{i + 1}" for i in range(mono.bit_length()) if (mono >> i) & 1)


def common_multiplicity(profile: Sequence[int]) -> Optional[int]:
    """The edge count all directions of a profile share, or None if two differ."""
    first = profile[0]
    return first if all(c == first for c in profile) else None


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def edge_index(values: np.ndarray, dim: int, scan: Optional[np.ndarray] = None) -> tuple:
    """All edges among the value-sorted int64 vertices `values` of Q_dim.

    The lower endpoints (bit unset) are looked up in `scan`, a reordering of
    `values` that defaults to `values` itself.  Returns (direction, lower,
    upper) arrays: each edge's 0-based direction, the position of its lower
    endpoint in `scan` and that of its upper endpoint in `values`; edges come
    by lower endpoint, then direction.  Only the (vertex, direction) cells
    with the bit unset are searched, BLOCK_CELLS cells at a time.
    """
    scan = values if scan is None else scan
    n = len(values)
    directions = np.arange(dim, dtype=np.int64)
    bits = np.left_shift(1, directions)
    step = max(1, BLOCK_CELLS // dim)
    parts = []
    for start in range(0, n, step):
        block = scan[start:start + step, None]
        open_cells = (block & bits) == 0
        upper = (block | bits)[open_cells]
        # the last term <= upper; upper exceeds a term, so pos >= 0
        pos = np.searchsorted(values, upper, side="right") - 1
        hit = values[pos] == upper
        shape = open_cells.shape
        direction = np.broadcast_to(directions, shape)[open_cells]
        vertex = np.broadcast_to(np.arange(start, start + shape[0])[:, None], shape)[open_cells]
        parts.append((direction[hit], vertex[hit], pos[hit]))
    if not parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


@dataclass(frozen=True)
class DesignPoly:
    """A set of distinct monomials in ambient dimension `dim` (a subgraph of Q_dim)."""

    dim: int
    terms: frozenset

    def __post_init__(self):
        check_dim(self.dim)
        object.__setattr__(self, "terms", frozenset(self.terms))
        if self.terms and (min(self.terms) < 0 or max(self.terms) >> self.dim):
            for t in self.terms:
                check_monomial(t, self.dim)

    @classmethod
    def of(cls, dim: int, terms: Iterable[int]) -> "DesignPoly":
        return cls(dim, frozenset(terms))

    @classmethod
    def zero(cls, dim: int) -> "DesignPoly":
        return cls(dim, frozenset())

    @classmethod
    def full(cls, dim: int) -> "DesignPoly":
        if dim > MAX_ENUM_DIM:
            raise ValueError(f"refusing to enumerate 2^{dim} vertices")
        return cls(dim, frozenset(range(1 << dim)))

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, mono: int) -> bool:
        return mono in self.terms

    @cached_property
    def sorted_terms(self) -> np.ndarray:
        """Terms as a read-only int64 array in increasing integer value.

        Python's sort, not numpy's: at paper scale it is as fast, and numpy's
        SIMD sort would page in about 0.3 MB of code in every process.
        """
        return _frozen(np.array(sorted(self.terms), dtype=np.int64))

    @cached_property
    def grlex_index(self) -> np.ndarray:
        """Positions in sorted_terms in graded-lex order: a stable sort by degree."""
        return _frozen(np.argsort(np.bitwise_count(self.sorted_terms), kind="stable"))

    @cached_property
    def ordered_terms(self) -> np.ndarray:
        """Terms in canonical graded-lex order (degree, then integer value), as int64."""
        return _frozen(self.sorted_terms[self.grlex_index])

    def _require_same_dim(self, other: "DesignPoly") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions differ: {self.dim} vs {other.dim}")

    # -- algebra ----------------------------------------------------------

    def mirror(self, s: int) -> "DesignPoly":
        """Multiply by monomial s: reflect along every direction present in s."""
        check_monomial(s, self.dim)
        return DesignPoly(self.dim, frozenset(t ^ s for t in self.terms))

    def scalar(self, other: "DesignPoly") -> int:
        """Scalar product = size of the intersection of the two vertex sets."""
        self._require_same_dim(other)
        return len(self.terms & other.terms)

    def union_disjoint(self, other: "DesignPoly") -> "DesignPoly":
        """Sum in 0/1 semantics; overlapping terms would leave K_d, so they are an error."""
        self._require_same_dim(other)
        overlap = self.terms & other.terms
        if overlap:
            raise ValueError(
                f"designs overlap on {len(overlap)} term(s), e.g. "
                f"{mono_name(next(iter(overlap)))}"
            )
        return DesignPoly(self.dim, self.terms | other.terms)

    # -- graph quantities --------------------------------------------------

    def edge_profile(self) -> tuple:
        """Per-direction edge counts m_i, where <P, X_i P> = 2 m_i.

        Each edge is counted once, from its lower endpoint.
        """
        direction, _, _ = edge_index(self.sorted_terms, self.dim)
        return tuple(np.bincount(direction, minlength=self.dim).tolist())

    def is_equitable(self) -> Optional[int]:
        """The common edge multiplicity m if all directions agree, else None."""
        return common_multiplicity(self.edge_profile())

    def complement(self) -> "DesignPoly":
        """All monomials of Q_dim not in this design."""
        if self.dim > MAX_ENUM_DIM:
            raise ValueError(f"refusing to enumerate 2^{self.dim} vertices")
        return DesignPoly(self.dim, frozenset(range(1 << self.dim)) - self.terms)

    def permute(self, perm: Sequence[int]) -> "DesignPoly":
        """Relabel directions: bit i moves to position perm[i]-1 (perm is 1-based)."""
        if sorted(perm) != list(range(1, self.dim + 1)):
            raise ValueError(f"not a permutation of 1..{self.dim}: {list(perm)!r}")
        values = np.fromiter(self.terms, dtype=np.int64, count=len(self.terms))
        shifts = np.arange(self.dim, dtype=np.int64)
        targets = np.asarray(perm, dtype=np.int64) - 1
        step = max(1, BLOCK_CELLS // self.dim)
        for start in range(0, len(values), step):
            block = values[start:start + step, None]
            # distinct powers of two, so the sum is their bitwise or
            values[start:start + step] = (((block >> shifts) & 1) << targets).sum(axis=1)
        return DesignPoly(self.dim, frozenset(values.tolist()))

    def shift(self, k: int, new_dim: int) -> "DesignPoly":
        """Rename every variable index i to i+k, in ambient dimension new_dim."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        check_dim(new_dim)
        top = max((t.bit_length() for t in self.terms), default=0)
        if top + k > new_dim:
            raise ValueError(
                f"shift by {k} pushes variable X{top} beyond dimension {new_dim}"
            )
        return DesignPoly(new_dim, frozenset(t << k for t in self.terms))

    def edges(self):
        """All (lower, upper, direction) edges, direction 1-based; lower has bit unset.

        Edges come by the lower endpoint's graded-lex position, then direction.
        """
        direction, lower, upper = edge_index(self.sorted_terms, self.dim, self.ordered_terms)
        return list(zip(self.ordered_terms[lower].tolist(), self.sorted_terms[upper].tolist(),
                        (direction + 1).tolist()))

    def economy(self, m: Optional[int] = None) -> Fraction:
        """Elementary effects per function evaluation, Gamma = m*d/|S|."""
        if m is None:
            m = self.is_equitable()
            if m is None:
                raise ValueError(f"design is not equitable: profile {self.edge_profile()}")
        if not self.terms:
            raise ValueError("economy is undefined for the empty design")
        return Fraction(m * self.dim, len(self.terms))


# -- serialization ----------------------------------------------------------

def design_to_dict(design: DesignPoly, family: Optional[str] = None,
                   m: object = "auto") -> dict:
    """Canonical JSON object for a design; terms in graded-lex order."""
    if m == "auto":
        m = design.is_equitable()
    return {
        "d": design.dim,
        "m": m,
        "family": family,
        "terms": [mono_str(t, design.dim) for t in design.ordered_terms.tolist()],
    }


def design_from_dict(obj: dict) -> DesignPoly:
    try:
        d = obj["d"]
        words = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed design object: missing {exc}") from exc
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ValueError("malformed design object: 'terms' must be a list of binary words")
    terms = []
    for w in words:
        if len(w) != d:
            raise ValueError(f"term {w!r} has length {len(w)}, expected {d}")
        terms.append(mono_parse(w))
    if len(set(terms)) != len(terms):
        raise ValueError("malformed design object: duplicate terms")
    return DesignPoly.of(d, terms)


def dumps_design(design: DesignPoly, family: Optional[str] = None,
                 m: object = "auto") -> str:
    return json.dumps(design_to_dict(design, family=family, m=m), indent=2) + "\n"


def loads_design(text: str) -> tuple:
    """Returns (design, metadata dict as stored)."""
    obj = json.loads(text)
    return design_from_dict(obj), obj


def to_dot(design: DesignPoly, name: str = "design") -> str:
    """Graphviz form: nodes labelled by binary word, edges tagged with their direction."""
    lines = [f"graph {name} {{"]
    for t in design.ordered_terms.tolist():
        lines.append(f'  "{mono_str(t, design.dim)}";')
    for lo, hi, direction in design.edges():
        lines.append(
            f'  "{mono_str(lo, design.dim)}" -- "{mono_str(hi, design.dim)}" '
            f'[dir={direction}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
