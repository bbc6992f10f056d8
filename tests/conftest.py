"""Shared brute-force oracles and hypothesis strategies for the test suite."""
import functools
import itertools
import json
from fractions import Fraction

import numpy as np
from hypothesis import settings, strategies as st

from eqdesign.families import alpha_h, gen_G, gen_H, gen_path, leaf_counts, q_min
from eqdesign.poly import DesignPoly, mono_str

# more cases from a fixed seed, for CI: pytest --hypothesis-profile=ci (the
# local default profile is unchanged)
settings.register_profile("ci", derandomize=True, max_examples=300)


def term_set(design):
    """The design's monomials as a frozenset of Python ints."""
    return frozenset(design.sorted_terms.tolist())


def brute_edge_profile(design):
    """Count direction-i edges by scanning all unordered vertex pairs."""
    counts = [0] * design.dim
    terms = design.sorted_terms.tolist()
    for a, b in itertools.combinations(terms, 2):
        diff = a ^ b
        if diff.bit_count() == 1:
            counts[diff.bit_length() - 1] += 1
    return tuple(counts)


def brute_direction_pairs(vertices, direction):
    """Unordered direction-i vertex pairs, found by adjacency scan of the list."""
    bit = 1 << (direction - 1)
    vs = set(vertices)
    return {(v, v | bit) for v in vs if not v & bit and v | bit in vs}


@st.composite
def design_polys(draw, min_dim=1, max_dim=8, min_size=0):
    d = draw(st.integers(min_dim, max_dim))
    terms = draw(st.sets(st.integers(0, (1 << d) - 1), min_size=min_size,
                         max_size=min(1 << d, 40)))
    return DesignPoly.of(d, terms)


@st.composite
def monomials_in(draw, dim):
    return draw(st.integers(0, (1 << dim) - 1))


@st.composite
def permutations_of(draw, dim):
    return tuple(p + 1 for p in draw(st.permutations(range(dim))))


# Bit-loop references for the int64 array passes of poly and effects.

def grlex_reference(terms):
    """Graded-lex order by explicit popcount, then integer value."""
    return sorted(terms, key=lambda t: (bin(t).count("1"), t))


def permute_reference(mono, perm):
    """Move bit i to position perm[i]-1, one bit at a time."""
    out = 0
    for i, p in enumerate(perm):
        if (mono >> i) & 1:
            out |= 1 << (p - 1)
    return out


def dumps_design_reference(design, family=None, m="auto"):
    """The design file as json.dumps writes it, one mono_str per term in
    graded-lex order."""
    if m == "auto":
        m = design.is_equitable()
    terms = [mono_str(t, design.dim) for t in design.ordered_terms.tolist()]
    return json.dumps({"d": design.dim, "m": m, "family": family, "terms": terms},
                      indent=2) + "\n"


def incidence_reference(vertices, direction):
    """(row, col, sign) pairs of a direction from a vertex -> row dict, sorted."""
    bit = 1 << (direction - 1)
    index = {v: k + 1 for k, v in enumerate(vertices)}
    pairs = []
    for v in vertices:
        if not v & bit and v | bit in index:
            lower, upper = index[v], index[v | bit]
            pairs.append((min(lower, upper), max(lower, upper), 1 if lower < upper else -1))
    return tuple(sorted(pairs))


def benchmark_coefficients_reference(seed):
    """(beta0, beta1, beta2) of the 20-factor benchmark, with the second-order
    coefficients drawn one pair at a time in lexicographic order."""
    rng = np.random.default_rng(seed)
    beta0 = float(rng.standard_normal())
    beta1 = np.zeros(20)
    beta1[:10] = 20.0
    beta1[10:] = rng.standard_normal(10)
    beta2 = np.zeros((20, 20))
    for i, j in itertools.combinations(range(20), 2):
        beta2[i, j] = -15.0 if (i < 6 and j < 6) else rng.standard_normal()
    return beta0, beta1, beta2


def embed_reference(vertices, base, delta):
    """Points base + delta * bits, coordinate by coordinate, capped at 1."""
    return [[min(1.0, b + delta * ((v >> i) & 1)) for i, b in enumerate(base)]
            for v in vertices]


def sample_base_reference(d, delta, levels, rng):
    """sample_base with every grid value listed, then the feasible ones."""
    grid = [k / (levels - 1) for k in range(levels)]
    feasible = [g for g in grid if g <= 1 - delta + 1e-9]
    picks = rng.integers(0, len(feasible), size=d)
    return tuple(feasible[k] for k in picks)


@st.composite
def wide_design_polys(draw, min_size=0):
    """Designs in Q_d for d up to 62, grown as clusters of neighbours so that
    they have edges.  Cluster centres are drawn with the top bit X_d set half
    the time, so designs with d > 53 hold terms >= 2^53, and at d = 62 terms
    with bit 61 set."""
    d = draw(st.one_of(st.just(62), st.integers(54, 62), st.integers(1, 62)))
    word = st.integers(0, (1 << d) - 1)
    terms = set()
    for centre in draw(st.lists(word, min_size=max(min_size, 1), max_size=8)):
        if draw(st.booleans()):
            centre |= 1 << (d - 1)
        terms.add(centre)
        for i in draw(st.lists(st.integers(0, d - 1), max_size=5)):
            terms.add(centre ^ (1 << i))
    return DesignPoly.of(d, terms)


def predicted_size_H_reference(d, m):
    """|H| = c(m) + alpha(m) d, as the closed form is written, in Fractions."""
    lc = leaf_counts(m)
    kappa, i = lc.kappa, lc.i_offset
    eps = 1 if (d - kappa) % 2 == 0 else -1
    if i >= 0:
        c = (-m * Fraction(eps + 1, 2) - m * kappa
             + Fraction(3 * eps + 2 * kappa + 9, 4) * (1 << kappa))
    else:
        c = (-Fraction(m, 2) * (Fraction(eps - 1, 2) + kappa)
             - Fraction(-3 * eps + 2 * kappa - 9, 8) * (1 << kappa))
    return c + alpha_h(m) * d


@functools.lru_cache(maxsize=None)
def family_reference(family, d, m):
    """The family's (d, m) design as the paper's sums state it, as a frozenset
    of Python ints, from the base designs gen_G(d, 1), gen_H(d, 2),
    gen_H(d, 3) and gen_path(d) up.

    G and H: lo + X1 Xd * hi, with lo and hi the (d-1) designs at m // 2 and
    (m + 1) // 2, which must not meet.  M: d = (c-1) q + t with q = q_min(m)
    and t in [q, 2q-1]; c-1 copies of the width-q block (H, or path for
    m = 1) shifted by jq, and the width-t block shifted by (c-1) q, which
    must meet only at the origin."""
    if family == "path":
        return term_set(gen_path(d))
    if (family, m) == ("G", 1):
        return term_set(gen_G(d, 1))
    if family == "H" and m in (2, 3):
        return term_set(gen_H(d, m))
    if family in ("G", "H"):
        lo = family_reference(family, d - 1, m // 2)
        hi = {t ^ (1 | 1 << (d - 1)) for t in family_reference(family, d - 1, (m + 1) // 2)}
        assert not lo & hi, (family, d, m)
        return lo | hi
    q = q_min(m)
    copies = d // q - 1
    block = "path" if m == 1 else "H"
    design = {0}
    for j, width in enumerate([q] * copies + [q + d % q]):
        shifted = {t << j * q for t in family_reference(block, width, m)}
        assert design & shifted == {0}, (family, d, m)
        design |= shifted
    return frozenset(design)
