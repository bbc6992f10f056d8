"""0/1 polynomials modulo X_i^2 = 1, representing subgraphs of the hypercube Q_d.

A vertex of Q_d is a monomial, stored as an integer bitmask (bit i set means
variable X_{i+1} is present).  A subgraph is the formal sum of its vertex
monomials with coefficients in {0,1}.  Products of monomials are XORs of
bitmasks, and the scalar product making the monomial basis orthonormal turns
several graph quantities (size, per-direction edge counts) into one-line
computations.

Since d <= 62, every monomial fits in an int64, and a design is one strictly
increasing int64 array of its monomials.  Every operation is an array pass:
mirror is an XOR and a sort, the scalar product an intersection, relabelling
one lookup per byte in a table of byte images, and a vertex's coordinate
levels for embedding one row per byte of a table of levels; graded-lex
order and binary-word serialization work on the whole array at once
(parsing, on a block of words at a time).  The edges, listed in graded-lex
positions by direction, are found by one searchsorted per direction, already
in order.
A randomized replicate, a reflection then a relabelling, is an automorphism
of Q_d, so `image` relabels the reflected base terms and carries the base
design's edges to them without a new search.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

MAX_DIM = 62

# complement() (and so full()) materialises all 2^d vertices; refuse
# dimensions where that would allocate hundreds of millions of ints
MAX_ENUM_DIM = 26


def check_int(name: str, value: int, low: int, high: Optional[int] = None) -> None:
    """The one rule for an int parameter: an int, not a bool, in [low, high]."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < low
            or high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an int {bound}, got {value!r}")


def check_dim(dim: int) -> None:
    check_int("ambient dimension", dim, 1, MAX_DIM)


def _is_integer_type(kind: type) -> bool:
    """Whether kind is an integer type: a Python or numpy int, not a bool."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def check_monomial(mono: int, dim: int) -> int:
    """mono as an int, if it is a monomial of Q_dim: a value of an integer
    type (_is_integer_type) with no bit at or above dim."""
    if not _is_integer_type(type(mono)):
        raise ValueError(f"a monomial must be an int, got {mono!r}")
    mono = int(mono)
    if mono < 0 or mono >> dim:
        raise ValueError(f"monomial {mono:#x} uses variables beyond dimension {dim}")
    return mono


def mono_from_vars(*indices: int) -> int:
    """Monomial with the given 1-based variable indices, e.g. mono_from_vars(1, 3) = X1*X3."""
    mono = 0
    for i in indices:
        check_int("variable index", i, 1)
        mono |= 1 << (i - 1)
    return mono


def mono_str(mono: int, dim: int) -> str:
    """Binary-word form, leftmost character = exponent of X_1."""
    return format(check_monomial(mono, dim), f"0{dim}b")[::-1]


def mono_parse(word: str) -> int:
    if not word or word.strip("01"):
        raise ValueError(f"not a binary word: {word!r}")
    return int(word[::-1], 2)


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


# _TABLE_START[k] = 256k: byte k's table starts at row 256k of bit_levels' tables
_TABLE_START = 256 * np.arange(8)


def _octets(values: np.ndarray) -> np.ndarray:
    """The (n, 8) uint8 bytes of n int64 values, least significant first: byte
    k holds bits 8k to 8k+7."""
    return values.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)


def to_bits(values: np.ndarray, dim: int) -> np.ndarray:
    """The (n, dim) uint8 bit matrix of n int64 vertices of Q_dim: column i holds bit i."""
    return np.unpackbits(_octets(values), axis=1, count=dim, bitorder="little")


# a screen embeds in one dimension; the bound caps what a process that works
# in many keeps, at most 8 indices of up to 128 kB
@lru_cache(maxsize=8)
def _level_index(dim: int) -> np.ndarray:
    """The (256 * ceil(dim/8), 8) index through which bit_levels builds its
    tables from a raveled (dim, 2) array of levels: entry [256k + b, j] is
    2(8k + j) + bit j of b, the position of coordinate 8k + j's level for the
    value b of byte k, or 0 for a padding coordinate, 8k + j >= dim."""
    coord = np.arange((dim + 7) // 8 * 8).reshape(-1, 1, 8)
    return _frozen(np.where(coord < dim, 2 * coord + _BYTE_BITS.T, 0).reshape(-1, 8))


def bit_levels(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The (n, dim) float matrix of n int64 vertices of Q_dim, for a (dim, 2)
    float array `levels`: entry [k, i] is levels[i, bit i of values[k]].

    A byte of a value selects the levels of 8 coordinates, so one table per
    byte holds those 8 levels for each of its 256 values (one take through
    a cached index), and a row is one table row per byte, side by side (one
    more take).  The result is a view: its rows are 8 * ceil(dim/8) floats
    apart, and the padding columns past dim hold copies of levels[0, 0]."""
    dim = len(levels)
    n_bytes = (dim + 7) // 8
    tables = levels.ravel().take(_level_index(dim))
    rows = tables.take(_octets(values)[:, :n_bytes] + _TABLE_START[:n_bytes], axis=0)
    return rows.reshape(len(values), 8 * n_bytes)[:, :dim]


def from_bits(bits: np.ndarray) -> np.ndarray:
    """The int64 vertices of an (n, k <= 64) uint8 bit matrix; inverse of to_bits."""
    octets = np.zeros((len(bits), 8), dtype=np.uint8)
    octets[:, :(bits.shape[1] + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return octets.view("<i8").ravel()


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
        terms = [check_monomial(t, dim) for t in terms]
        # not np.unique: numpy 2.4's imports numpy.ma, about 9 ms and 1 MB, on first use
        return cls(dim, np.array(sorted(set(terms)), dtype=np.int64))

    @classmethod
    def zero(cls, dim: int) -> "DesignPoly":
        return cls(dim, np.zeros(0, dtype=np.int64))

    @classmethod
    def full(cls, dim: int) -> "DesignPoly":
        return cls.zero(dim).complement()

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

        Found on first request, one pass per direction i, or carried from the
        base design into the result of its `image`.  The upper endpoints are
        the terms with bit i set, taken in graded-lex order; one searchsorted
        into sorted_terms finds each one's partner with bit i cleared, where
        it exists.  Clearing the bit lowers every such term's degree by 1 and
        its value by 2^i, so the partners keep that order and the rows come
        out ascending with no sort.
        """
        terms, values = self.ordered_terms, self.sorted_terms
        position = np.empty(len(self), dtype=np.int64)  # of each term in graded-lex order
        position[self.grlex_index] = np.arange(len(self))
        rows, cols = [], []
        for i in range(self.dim):
            upper = np.flatnonzero(terms & (1 << i))
            partner = terms[upper] ^ (1 << i)
            lower = np.searchsorted(values, partner)
            hit = values[lower] == partner
            rows.append(position[lower[hit]])
            cols.append(upper[hit])
        starts = list(accumulate(map(len, rows), initial=0))
        return _frozen(np.concatenate(rows)), _frozen(np.concatenate(cols)), starts

    # -- algebra ----------------------------------------------------------

    def mirror(self, s: int) -> "DesignPoly":
        """Multiply by monomial s: reflect along every direction present in s."""
        s = check_monomial(s, self.dim)
        return DesignPoly(self.dim, np.sort(self.sorted_terms ^ s, kind="stable"))

    def scalar(self, other: "DesignPoly") -> int:
        """Scalar product = size of the intersection of the two vertex sets."""
        if self.dim != other.dim:
            raise ValueError(f"dimensions differ: {self.dim} vs {other.dim}")
        return len(np.intersect1d(self.sorted_terms, other.sorted_terms, assume_unique=True))

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

    def _permutation(self, perm: Sequence[int]) -> np.ndarray:
        """perm as an int64 array, if it is a permutation of 1..dim whose
        entries are of integer types (_is_integer_type)."""
        if (not all(map(_is_integer_type, set(map(type, perm))))
                or sorted(perm) != list(range(1, self.dim + 1))):
            raise ValueError(f"not a permutation of 1..{self.dim}: {list(perm)!r}")
        return np.array(perm, dtype=np.int64)

    def _relabel(self, values: np.ndarray, perm: Sequence[int]) -> np.ndarray:
        """`values` with bit i moved to position perm[i]-1, for a checked
        1-based permutation.

        A bit permutation maps each byte of a value on its own, so one table
        per byte holds the images of all 256 bytes, and a value's image is
        the OR of one table entry per byte."""
        n_bytes = (self.dim + 7) // 8
        weights = np.zeros(8 * n_bytes, dtype=np.int64)  # the image of each bit
        weights[:self.dim] = np.left_shift(1, np.asarray(perm, dtype=np.int64) - 1)
        table = weights.reshape(n_bytes, 8) @ _BYTE_BITS  # (n_bytes, 256)
        octets = _octets(values)
        out = table[0].take(octets[:, 0])
        for k in range(1, n_bytes):
            out |= table[k].take(octets[:, k])
        return out

    def permute(self, perm: Sequence[int]) -> "DesignPoly":
        """Relabel directions: bit i moves to position perm[i]-1 (perm is 1-based)."""
        values = self._relabel(self.sorted_terms, self._permutation(perm))
        return DesignPoly(self.dim, np.sort(values, kind="stable"))

    @cached_property
    def _edge_directions(self) -> np.ndarray:
        """The 0-based direction of each edge of grlex_pairs, as int64."""
        return _frozen(np.repeat(np.arange(self.dim), np.diff(self.grlex_pairs[2])))

    def image(self, s: int, perm: Sequence[int]) -> "DesignPoly":
        """self.mirror(s).permute(perm) in one pass, carrying this design's edges:
        both maps are automorphisms of Q_dim, so an edge stays an edge,
        direction i becomes perm[i]-1, and every position follows the image's
        graded-lex order, in which the lower endpoint comes first."""
        s, perm = check_monomial(s, self.dim), self._permutation(perm)
        values = self._relabel(self.ordered_terms ^ s, perm)
        order = np.argsort(values)  # distinct keys: every sort kind agrees
        image = DesignPoly(self.dim, values[order])
        position = np.empty_like(order)  # of each of our ordered_terms in the image's
        position[order[image.grlex_index]] = np.arange(len(order))
        rows, cols, starts = self.grlex_pairs
        direction = perm[self._edge_directions]  # the image's, 1-based
        rows, cols = position[rows], position[cols]
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        # by direction, then row: one sort of a combined key (rows < len(image)),
        # distinct since a vertex has at most one upper neighbour per direction
        by_direction = np.argsort(direction * len(image) + rows)
        counts = [0] * self.dim  # the image's edges per direction
        for target, lo, hi in zip(perm.tolist(), starts, starts[1:]):
            counts[target - 1] = hi - lo
        image.__dict__["grlex_pairs"] = (_frozen(rows[by_direction]),
                                         _frozen(cols[by_direction]),
                                         list(accumulate(counts, initial=0)))
        return image

    def economy(self, m: Optional[int] = None) -> Fraction:
        """Elementary effects per function evaluation, Gamma = m*d/|S|."""
        if m is None:
            m = self.is_equitable()
            if m is None:
                raise ValueError(f"design is not equitable: profile {self.edge_profile()}")
        else:
            check_int("m", m, 1)
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


# the words DOT reserves, in any letter case: an ID only when quoted
_DOT_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def to_dot(design: DesignPoly, name: str = "design") -> str:
    """Graphviz form: nodes labelled by binary word, edges tagged with their
    direction.  The graph's `name` is written unquoted, so it must be a DOT
    ID of letters, digits and underscores that is not a keyword."""
    if (not isinstance(name, str) or not re.fullmatch("[A-Za-z_][A-Za-z_0-9]*", name)
            or name.lower() in _DOT_KEYWORDS):
        raise ValueError("graph name must match [A-Za-z_][A-Za-z_0-9]* and not be "
                         f"a DOT keyword, got {name!r}")
    words = format_words(design.ordered_terms, design.dim)
    lines = [f"graph {name} {{"]
    lines += [f'  "{w}";' for w in words]
    rows, cols, _ = design.grlex_pairs
    # by row, then direction: the listing is by direction, then row, already
    order = np.argsort(rows, kind="stable")
    lines += [f'  "{words[lo]}" -- "{words[hi]}" [dir={k}];'
              for lo, hi, k in zip(rows[order].tolist(), cols[order].tolist(),
                                   (design._edge_directions[order] + 1).tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"
