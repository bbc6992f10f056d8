"""0/1 polynomials modulo X_i^2 = 1, representing subgraphs of the hypercube Q_d.

A vertex of Q_d is a monomial, stored as an integer bitmask (bit i set means
variable X_{i+1} is present).  A subgraph is the formal sum of its vertex
monomials with coefficients in {0,1}.  Products of monomials are XORs of
bitmasks, and the scalar product making the monomial basis orthonormal turns
several graph quantities (size, per-direction edge counts) into one-line
computations.

Since d <= 62, every monomial fits in an int64, and a design is one strictly
increasing int64 array of its monomials.  Every operation is an array pass:
mirror is an XOR and a sort, union a merge, shift a left shift, relabelling
one lookup per byte in a table of byte images, and the edge counts,
graded-lex order and binary-word serialization work on the whole array at
once (parsing, on a block of words at a time).  A randomized replicate, a
reflection then a relabelling, is an automorphism of Q_d, so `image`
carries the base design's edges to it without a new search; since
relabelling is linear over GF(2), it relabels the base terms and XORs them
with the relabelled reflection.
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


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


def check_dim(dim: int) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in [1, {MAX_DIM}], got {dim!r}")


def check_monomial(mono: int, dim: int) -> None:
    if mono < 0 or mono >> dim:
        raise ValueError(f"monomial {mono:#x} uses variables beyond dimension {dim}")


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


# _BYTE_BITS[j, b] is bit j of the byte b
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[None, :], axis=0,
                           bitorder="little").astype(np.int64)


def to_bits(values: np.ndarray, dim: int) -> np.ndarray:
    """The (n, dim) uint8 bit matrix of n int64 vertices of Q_dim: column i holds bit i."""
    octets = values.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=dim, bitorder="little")


def from_bits(bits: np.ndarray) -> np.ndarray:
    """The int64 vertices of an (n, k <= 64) uint8 bit matrix; inverse of to_bits."""
    octets = np.zeros((len(bits), 8), dtype=np.uint8)
    octets[:, :(bits.shape[1] + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return octets.view("<i8").ravel()


def edge_index(values: np.ndarray, dim: int) -> tuple:
    """All edges among the value-sorted int64 vertices `values` of Q_dim.

    Returns (direction, lower, upper) arrays: each edge's 0-based direction
    and the positions in `values` of its endpoints, the lower one having the
    bit unset; edges come by direction, then lower endpoint.

    One pass per direction i: the vertices with bit i set, that bit cleared,
    stay in sorted order, and one searchsorted into `values` finds each
    one's lower endpoint where it exists.
    """
    lowers, uppers = [], []
    for i in range(dim):
        upper = np.flatnonzero(values & (1 << i))
        partner = values[upper] ^ (1 << i)
        # a partner above every vertex gets len(values): clamped, it misses
        lower = np.minimum(np.searchsorted(values, partner), len(values) - 1)
        hit = values[lower] == partner
        lowers.append(lower[hit])
        uppers.append(upper[hit])
    direction = np.repeat(np.arange(dim, dtype=np.int64), [len(run) for run in lowers])
    return direction, np.concatenate(lowers), np.concatenate(uppers)


def _merge(a: np.ndarray, b: np.ndarray) -> tuple:
    """(merged, repeats) of two strictly increasing int64 arrays: all their
    terms in increasing order, and a mask, one shorter, that is True where a
    term equals its predecessor, i.e. lies in both arrays.

    A stable sort of the concatenation is a merge of its two runs.
    """
    merged = np.sort(np.concatenate((a, b)), kind="stable")
    return merged, merged[1:] == merged[:-1]


@dataclass(frozen=True, eq=False)
class DesignPoly:
    """A set of distinct monomials in ambient dimension `dim` (a subgraph of Q_dim).

    `sorted_terms` is the whole state: the monomials as a strictly increasing,
    read-only int64 array.  DesignPoly.of builds a design from any ints.
    """

    dim: int
    sorted_terms: np.ndarray

    def __post_init__(self):
        check_dim(self.dim)
        values = self.sorted_terms
        if not (isinstance(values, np.ndarray) and values.dtype == np.int64
                and values.ndim == 1 and bool(np.all(values[1:] > values[:-1]))):
            raise ValueError("terms must be a strictly increasing int64 array; "
                             "use DesignPoly.of for other input")
        if len(values) and (values[0] < 0 or int(values[-1]) >> self.dim):
            for t in values.tolist():
                check_monomial(t, self.dim)
        _frozen(values)

    @classmethod
    def of(cls, dim: int, terms: Iterable[int]) -> "DesignPoly":
        """The design on the distinct monomials among `terms`, in any order."""
        check_dim(dim)
        terms = list(terms)
        for t in terms:
            check_monomial(t, dim)
        values = np.sort(np.array(terms, dtype=np.int64), kind="stable")
        return cls(dim, np.concatenate((values[:1], values[1:][values[1:] != values[:-1]])))

    @classmethod
    def zero(cls, dim: int) -> "DesignPoly":
        return cls(dim, np.zeros(0, dtype=np.int64))

    @classmethod
    def full(cls, dim: int) -> "DesignPoly":
        if dim > MAX_ENUM_DIM:
            raise ValueError(f"refusing to enumerate 2^{dim} vertices")
        return cls(dim, np.arange(1 << dim, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.sorted_terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DesignPoly):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.sorted_terms, other.sorted_terms)

    @cached_property
    def grlex_index(self) -> np.ndarray:
        """Positions in sorted_terms in graded-lex order: a stable sort by degree."""
        return _frozen(np.argsort(np.bitwise_count(self.sorted_terms), kind="stable"))

    @cached_property
    def ordered_terms(self) -> np.ndarray:
        """Terms in canonical graded-lex order (degree, then integer value), as int64."""
        return _frozen(self.sorted_terms[self.grlex_index])

    @cached_property
    def grlex_pairs(self) -> tuple:
        """(rows, cols, starts): every edge as two read-only int64 arrays of
        positions in ordered_terms, by direction then row, and the list of
        d+1 offsets at which each direction starts, plus the end.  An upper
        endpoint has one more degree than its lower one, so it comes later in
        graded-lex order: row is always the lower endpoint and col the upper.

        Found by edge_index on first request, or carried from the base
        design into the result of its `image`.
        """
        direction, lower, upper = edge_index(self.sorted_terms, self.dim)
        position = np.empty(len(self), dtype=np.int64)  # of each term in graded-lex order
        position[self.grlex_index] = np.arange(len(self))
        return self._by_direction(direction, position[lower], position[upper])

    def _by_direction(self, direction: np.ndarray, rows: np.ndarray,
                      cols: np.ndarray) -> tuple:
        """grlex_pairs from this design's edges in any order, given as each
        edge's 0-based direction and graded-lex endpoint positions."""
        # by direction, then row: one sort of a combined key (rows < len(self)),
        # distinct since a vertex has at most one upper neighbour per direction
        order = np.argsort(direction * len(self) + rows)
        starts = np.zeros(self.dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(direction, minlength=self.dim), out=starts[1:])
        return _frozen(rows[order]), _frozen(cols[order]), starts.tolist()

    def _require_same_dim(self, other: "DesignPoly") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions differ: {self.dim} vs {other.dim}")

    # -- algebra ----------------------------------------------------------

    def mirror(self, s: int) -> "DesignPoly":
        """Multiply by monomial s: reflect along every direction present in s."""
        check_monomial(s, self.dim)
        return DesignPoly(self.dim, np.sort(self.sorted_terms ^ s, kind="stable"))

    def scalar(self, other: "DesignPoly") -> int:
        """Scalar product = size of the intersection of the two vertex sets."""
        self._require_same_dim(other)
        _, repeats = _merge(self.sorted_terms, other.sorted_terms)
        return int(np.count_nonzero(repeats))

    def union_disjoint(self, other: "DesignPoly") -> "DesignPoly":
        """Sum in 0/1 semantics; overlapping terms would leave K_d, so they are an error."""
        self._require_same_dim(other)
        merged, repeats = _merge(self.sorted_terms, other.sorted_terms)
        if repeats.any():
            overlap = merged[1:][repeats]
            raise ValueError(
                f"designs overlap on {len(overlap)} term(s), e.g. "
                f"{mono_name(int(overlap[0]))}"
            )
        return DesignPoly(self.dim, merged)

    # -- graph quantities --------------------------------------------------

    def edge_profile(self) -> tuple:
        """Per-direction edge counts m_i, where <P, X_i P> = 2 m_i.

        Each edge is counted once, from its lower endpoint.
        """
        return tuple(np.diff(self.grlex_pairs[2]).tolist())

    def is_equitable(self) -> Optional[int]:
        """The common edge multiplicity m if all directions agree, else None."""
        return common_multiplicity(self.edge_profile())

    def complement(self) -> "DesignPoly":
        """All monomials of Q_dim not in this design."""
        if self.dim > MAX_ENUM_DIM:
            raise ValueError(f"refusing to enumerate 2^{self.dim} vertices")
        absent = np.ones(1 << self.dim, dtype=bool)
        absent[self.sorted_terms] = False
        return DesignPoly(self.dim, np.flatnonzero(absent).astype(np.int64, copy=False))

    def _relabel(self, values: np.ndarray, perm: Sequence[int]) -> np.ndarray:
        """`values` with bit i moved to position perm[i]-1 (perm is 1-based).

        A bit permutation maps each byte of a value on its own, so one table
        per byte holds the images of all 256 bytes, and a value's image is
        the OR of one table entry per byte."""
        if sorted(perm) != list(range(1, self.dim + 1)):
            raise ValueError(f"not a permutation of 1..{self.dim}: {list(perm)!r}")
        n_bytes = (self.dim + 7) // 8
        weights = np.zeros(8 * n_bytes, dtype=np.int64)  # the image of each bit
        weights[:self.dim] = np.left_shift(1, np.asarray(perm, dtype=np.int64) - 1)
        table = weights.reshape(n_bytes, 8) @ _BYTE_BITS  # (n_bytes, 256)
        octets = values.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
        out = table[0].take(octets[:, 0])
        for k in range(1, n_bytes):
            out |= table[k].take(octets[:, k])
        return out

    def permute(self, perm: Sequence[int]) -> "DesignPoly":
        """Relabel directions: bit i moves to position perm[i]-1 (perm is 1-based)."""
        values = self._relabel(self.sorted_terms, perm)
        return DesignPoly(self.dim, np.sort(values, kind="stable"))

    def image(self, s: int, perm: Sequence[int]) -> "DesignPoly":
        """self.mirror(s).permute(perm) in one pass, carrying this design's edges:
        both maps are automorphisms of Q_dim, so an edge stays an edge,
        direction i becomes perm[i]-1, and every position follows the image's
        graded-lex order, in which the lower endpoint comes first."""
        check_monomial(s, self.dim)
        values = self._relabel(self.ordered_terms, perm)
        # relabelling is linear over GF(2), so it maps t ^ s to its image of t
        # XOR the image of s
        values ^= sum(1 << (p - 1) for i, p in enumerate(perm) if s >> i & 1)
        order = np.argsort(values)  # distinct keys: every sort kind agrees
        image = DesignPoly(self.dim, values[order])
        position = np.empty_like(order)  # of each of our ordered_terms in the image's
        position[order[image.grlex_index]] = np.arange(len(order))
        rows, cols, starts = self.grlex_pairs
        rows, cols = position[rows], position[cols]
        image.__dict__["grlex_pairs"] = image._by_direction(
            np.repeat(np.asarray(perm) - 1, np.diff(starts)),
            np.minimum(rows, cols), np.maximum(rows, cols))
        return image

    def shift(self, k: int, new_dim: int) -> "DesignPoly":
        """Rename every variable index i to i+k, in ambient dimension new_dim."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        check_dim(new_dim)
        top = int(self.sorted_terms[-1]).bit_length() if len(self) else 0
        if top + k > new_dim:
            raise ValueError(
                f"shift by {k} pushes variable X{top} beyond dimension {new_dim}"
            )
        return DesignPoly(new_dim, self.sorted_terms << k)

    def economy(self, m: Optional[int] = None) -> Fraction:
        """Elementary effects per function evaluation, Gamma = m*d/|S|."""
        if m is None:
            m = self.is_equitable()
            if m is None:
                raise ValueError(f"design is not equitable: profile {self.edge_profile()}")
        if not len(self):
            raise ValueError("economy is undefined for the empty design")
        return Fraction(m * self.dim, len(self))


# -- serialization ----------------------------------------------------------

def format_words(values: np.ndarray, dim: int) -> list:
    """mono_str of every int64 term in `values` (all in Q_dim), in one array pass."""
    text = (to_bits(values, dim) + ord("0")).tobytes().decode("ascii")
    return [text[k:k + dim] for k in range(0, len(text), dim)]


# design_from_dict parses this many words at a time, so its temporaries do not
# grow with the design
_WORDS_PER_BLOCK = 1 << 15


def design_from_dict(obj: dict) -> DesignPoly:
    if not isinstance(obj, dict):
        raise ValueError("malformed design object: expected a JSON object, "
                         f"got {type(obj).__name__}")
    try:
        d = obj["d"]
        words = obj["terms"]
    except KeyError as exc:
        raise ValueError(f"malformed design object: missing {exc}") from exc
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ValueError("malformed design object: 'terms' must be a list of "
                         "binary words")
    check_dim(d)
    values = np.empty(len(words), dtype=np.int64)
    for start in range(0, len(words), _WORDS_PER_BLOCK):
        block = words[start:start + _WORDS_PER_BLOCK]
        # one byte a character: every character but '0' and '1' wraps to above 1
        bits = np.frombuffer("".join(block).encode("ascii", "replace"), np.uint8) - ord("0")
        if set(map(len, block)) != {d} or bits.max() > 1:
            # a word is bad: walk the block, which raises on its first fault
            # (the word's length, then its characters)
            for w in block:
                if len(w) != d:
                    raise ValueError(f"term {w!r} has length {len(w)}, expected {d}")
                mono_parse(w)
        values[start:start + len(block)] = from_bits(bits.reshape(-1, d))
    values.sort(kind="stable")
    if np.any(values[1:] == values[:-1]):
        raise ValueError("malformed design object: duplicate terms")
    return DesignPoly(d, values)


def dumps_design(design: DesignPoly, family: Optional[str] = None,
                 m: object = "auto") -> str:
    """The design file: json.dumps of {"d", "m", "family", "terms"}, with the
    terms as binary words in graded-lex order, indent=2, plus a newline; the
    terms block is written from one (n, d + 8) byte array of '    "word",' lines."""
    if m == "auto":
        m = design.is_equitable()
    head = json.dumps({"d": design.dim, "m": m, "family": family, "terms": []}, indent=2)
    n, d = len(design), design.dim
    if not n:
        return head + "\n"
    lines = np.empty((n, d + 8), dtype=np.uint8)
    lines[:, :5] = np.frombuffer(b'    "', dtype=np.uint8)
    np.add(to_bits(design.ordered_terms, d), ord("0"), out=lines[:, 5:d + 5])
    lines[:, d + 5:] = np.frombuffer(b'",\n', dtype=np.uint8)
    lines[-1, d + 6] = ord("\n")  # no comma after the last word
    block = lines.reshape(-1)[:-1].tobytes().decode("ascii")
    return head[:-len("]\n}")] + "\n" + block + "  ]\n}\n"


def loads_design(text: str) -> DesignPoly:
    """The design in a JSON text.  design_from_dict reads its words a block at
    a time, and the parsed object is freed on return."""
    return design_from_dict(json.loads(text))


def to_dot(design: DesignPoly, name: str = "design") -> str:
    """Graphviz form: nodes labelled by binary word, edges tagged with their direction."""
    words = format_words(design.ordered_terms, design.dim)
    lines = [f"graph {name} {{"]
    lines += [f'  "{w}";' for w in words]
    rows, cols, starts = design.grlex_pairs
    direction = np.repeat(np.arange(design.dim), np.diff(starts))
    order = np.argsort(rows * design.dim + direction, kind="stable")  # by row, then direction
    lines += [f'  "{words[lo]}" -- "{words[hi]}" [dir={k}];'
              for lo, hi, k in zip(rows[order].tolist(), cols[order].tolist(),
                                   (direction[order] + 1).tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"
