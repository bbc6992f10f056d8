"""Property-based checks of the algebraic invariants behind the design families,
and fuzzing of the two parsers of outside input."""
import json
import math
import numbers
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqdesign import poly
from eqdesign.effects import build_incidence, embed, elementary_effects, \
    order_vertices, randomize
from eqdesign.families import FAMILIES, gen_G, gen_H, gen_M, gen_path, q_min
from eqdesign.poly import (DesignPoly, dumps_design, edge_index, format_words,
                           loads_design, mono_name, mono_str)
from eqdesign.screening import ScreenConfig, config_from_dict

from conftest import (brute_direction_pairs, brute_edge_profile, design_polys,
                      dumps_design_reference, embed_reference, grlex_reference,
                      incidence_reference, monomials_in, permutations_of,
                      permute_reference, term_set, wide_design_polys)


@st.composite
def design_with_monomial(draw):
    p = draw(design_polys())
    s = draw(monomials_in(p.dim))
    return p, s


@st.composite
def two_designs_with_monomial(draw):
    p = draw(design_polys())
    terms = draw(st.sets(st.integers(0, (1 << p.dim) - 1), max_size=40))
    q = DesignPoly.of(p.dim, terms)
    s = draw(monomials_in(p.dim))
    return p, q, s


@st.composite
def equitable_designs(draw, max_dim=9):
    d = draw(st.integers(2, max_dim))
    m = draw(st.integers(1, 1 << (d - 1)))
    if m == 1:
        family = draw(st.sampled_from(["G", "path"]))
    elif d >= 2 * q_min(m):
        family = draw(st.sampled_from(["G", "H", "M"]))
    else:
        family = draw(st.sampled_from(["G", "H"]))
    base = {"G": gen_G, "H": gen_H, "M": gen_M,
            "path": lambda d, m: gen_path(d)}[family](d, m)
    s = draw(monomials_in(d))
    perm = draw(permutations_of(d))
    return base.mirror(s).permute(perm), m


@given(two_designs_with_monomial())
def test_scalar_product_mirror_invariance(arg):
    p, q, s = arg
    assert p.mirror(s).scalar(q.mirror(s)) == p.scalar(q)


@given(design_with_monomial())
def test_mirror_size_and_involution(arg):
    p, s = arg
    assert len(p.mirror(s)) == len(p)
    assert p.mirror(s).mirror(s) == p


@given(design_polys())
def test_directional_scalar_even_and_norm(p):
    assert p.scalar(p) == len(p)
    for i in range(p.dim):
        assert p.scalar(p.mirror(1 << i)) % 2 == 0


@given(design_polys(max_dim=7))
def test_edge_profile_matches_brute_force(p):
    assert p.edge_profile() == brute_edge_profile(p)


@given(design_polys(max_dim=6), st.data())
def test_permute_permutes_profile(p, data):
    perm = data.draw(permutations_of(p.dim))
    permuted = p.permute(perm)
    prof = p.edge_profile()
    got = permuted.edge_profile()
    for i in range(p.dim):
        assert got[perm[i] - 1] == prof[i]


@given(equitable_designs())
def test_complement_multiplicity(arg):
    design, m = arg
    comp = design.complement()
    assert comp.is_equitable() == (1 << (design.dim - 1)) + m - len(design)


@given(equitable_designs())
def test_randomization_closure(arg):
    design, m = arg
    assert design.is_equitable() == m


@settings(max_examples=60)
@given(st.integers(1, 10), st.data())
def test_appendix_cross_family_condition(d, data):
    k = data.draw(st.integers(1, (1 << (d - 1)) - 1)) if d > 1 else 1
    if d == 1:
        return
    lhs = gen_G(d, k).scalar(gen_G(d, k + 1).mirror(1))
    assert lhs == 2 * k + 1


@given(equitable_designs(max_dim=7))
def test_incidence_pairs_per_direction(arg):
    design, m = arg
    od = order_vertices(design)
    for i in range(1, design.dim + 1):
        inc = build_incidence(od, i)
        assert len(inc.pairs) == m
        rows = [r for r, _, _ in inc.pairs]
        assert len(rows) == len(set(rows))
        got = {(od.ordered_terms[r - 1] & ~(1 << (i - 1)) if s == 1 else od.ordered_terms[c - 1] & ~(1 << (i - 1)),
                od.ordered_terms[r - 1] | (1 << (i - 1)) if s == 1 else od.ordered_terms[c - 1] | (1 << (i - 1)))
               for r, c, s in inc.pairs}
        assert got == brute_direction_pairs(od.ordered_terms, i)


@settings(max_examples=50)
@given(st.integers(3, 7), st.integers(0, 10_000), st.integers(1, 62))
def test_effect_sign_invariant_under_randomization(d, seed, direction_seed):
    base_design = gen_G(d, 2)
    rng = np.random.default_rng(seed)
    design, _, _ = randomize(base_design, rng)
    od = order_vertices(design)
    delta = 0.5
    rep = embed(od, [0.25] * d, delta)
    i = direction_seed % d + 1
    f = [pt[i - 1] for pt in rep.points]
    effects = elementary_effects(build_incidence(od, i), f, delta)
    assert all(abs(e - 1.0) < 1e-9 for e in effects)


@given(design_polys(min_size=1, max_dim=6), st.data())
def test_shift_preserves_structure(p, data):
    k = data.draw(st.integers(0, 4))
    top = max(t.bit_length() for t in term_set(p))
    new_dim = max(top + k, p.dim if k == 0 else top + k, 1)
    shifted = p.shift(k, new_dim)
    assert len(shifted) == len(p)
    prof = brute_edge_profile(p)
    got = brute_edge_profile(shifted)
    assert got[k:k + p.dim] == prof[:min(p.dim, new_dim - k)]


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_randomize_preserves_size_and_profile_multiset(d, seed):
    p = gen_G(d, 1)
    rng = np.random.default_rng(seed)
    q, s, perm = randomize(p, rng)
    assert len(q) == len(p)
    assert sorted(q.edge_profile()) == sorted(p.edge_profile())


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 70), st.integers(),
                         st.floats(), st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
INT_FIELDS = ("d", "m", "r", "levels", "seed", "function_seed")
REAL_FIELDS = ("delta", "tau0", "rho")


@given(st.dictionaries(st.sampled_from(tuple(ScreenConfig.__dataclass_fields__)),
                       json_values) | json_values)
def test_config_from_dict_is_typed_or_rejected(obj):
    try:
        cfg = config_from_dict(obj)
    except ValueError:
        return
    for name in INT_FIELDS:
        value = getattr(cfg, name)
        assert type(value) is int or name == "function_seed" and value is None
    for name in REAL_FIELDS:
        assert isinstance(getattr(cfg, name), numbers.Real)
        assert not isinstance(getattr(cfg, name), bool)
    assert 0 <= cfg.tau0 <= 1
    assert 0 <= cfg.rho < math.inf and math.isfinite(float(cfg.rho))
    assert cfg.family in FAMILIES


@given(st.sampled_from(INT_FIELDS + REAL_FIELDS),
       st.one_of(st.text(), st.booleans(), st.lists(st.integers(), max_size=2)))
def test_config_from_dict_rejects_wrong_types(name, value):
    with pytest.raises(ValueError):
        config_from_dict({"seed": 0, name: value})


design_texts = st.one_of(
    st.fixed_dictionaries({
        "d": st.integers(-1, 6) | json_scalars,
        "terms": st.lists(st.text(alphabet="01", max_size=6) | json_scalars, max_size=6)
        | json_values,
    }).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=20))


@given(design_texts)
def test_loads_design_is_faithful_or_rejected(text):
    try:
        design = loads_design(text)
    except ValueError:
        return
    words = json.loads(text)["terms"]
    assert sorted(mono_str(t, design.dim) for t in term_set(design)) == sorted(words)


@given(design_texts)
def test_loads_design_is_faithful_or_rejected_three_words_a_block(text):
    with mock.patch.object(poly, "_WORDS_PER_BLOCK", 3):
        test_loads_design_is_faithful_or_rejected.hypothesis.inner_test(text)


# -- the int64 array passes at full width (d up to 62, terms past 2^53) -------

@given(wide_design_polys())
def test_wide_edge_profile_matches_brute_force(p):
    assert p.edge_profile() == brute_edge_profile(p)


@given(wide_design_polys(), st.data())
def test_wide_permute_matches_bit_loop(p, data):
    perm = data.draw(permutations_of(p.dim))
    assert term_set(p.permute(perm)) == {permute_reference(t, perm) for t in term_set(p)}


@given(wide_design_polys(min_size=1))
def test_wide_order_and_incidence_match_references(p):
    od = order_vertices(p)
    assert od.ordered_terms.dtype == np.int64
    vertices = od.ordered_terms.tolist()
    assert vertices == grlex_reference(term_set(p))
    for i in range(1, p.dim + 1):
        pairs = build_incidence(od, i).pairs
        assert pairs == incidence_reference(vertices, i)
        assert {(vertices[r - 1], vertices[c - 1]) for r, c, _ in pairs} == \
            brute_direction_pairs(vertices, i)


@given(wide_design_polys(min_size=1), st.sampled_from([0.25, 0.5, 2 / 3, 1.0]),
       st.data())
def test_wide_embed_matches_reference(p, delta, data):
    od = order_vertices(p)
    grid = [g for g in (0.0, 0.1, 0.25, 1 / 3) if g <= 1 - delta]
    base = data.draw(st.lists(st.sampled_from(grid), min_size=p.dim, max_size=p.dim))
    points = embed(od, base, delta).points
    assert points.shape == (len(p), p.dim)
    assert points.tolist() == embed_reference(od.ordered_terms.tolist(), base, delta)


def test_wide_design_matches_references_in_every_direction():
    # about 4,000 vertices at d=62, scattered over all 62 directions
    rng = np.random.default_rng(0)
    terms = set()
    for centre in rng.integers(0, 1 << 62, size=800, dtype=np.int64).tolist():
        terms.add(centre)
        terms.update(centre ^ (1 << int(i)) for i in rng.integers(0, 62, size=4))
    design = DesignPoly.of(62, terms)
    profile = tuple(sum(1 for t in terms if not t >> i & 1 and t | 1 << i in terms)
                    for i in range(62))
    assert design.edge_profile() == profile
    od = order_vertices(design)
    vertices = od.ordered_terms.tolist()
    assert vertices == grlex_reference(terms)
    for i in range(1, 63):
        assert build_incidence(od, i).pairs == incidence_reference(vertices, i)


# -- construction on the int64 array, against frozenset references ----------

def assert_canonical(design):
    """The one state of a design: a strictly increasing, read-only int64 array."""
    values = design.sorted_terms
    assert values.dtype == np.int64 and values.ndim == 1
    assert not values.flags.writeable
    assert values.tolist() == sorted(set(values.tolist()))


@st.composite
def wide_words(draw, dim):
    """A monomial of Q_dim with the top variable X_dim set half the time."""
    word = draw(st.integers(0, (1 << dim) - 1))
    return word | (1 << (dim - 1)) if draw(st.booleans()) else word


@given(wide_design_polys(), st.data())
def test_wide_mirror_matches_set(p, data):
    s = data.draw(wide_words(p.dim))
    mirrored = p.mirror(s)
    assert_canonical(mirrored)
    assert term_set(mirrored) == {t ^ s for t in term_set(p)}


@given(wide_design_polys(), st.data())
def test_wide_union_matches_set(p, data):
    # q is a mirror image of p; reflecting by the XOR of two terms of p makes
    # them meet, so both the disjoint case and the overlap message are drawn
    terms = st.sampled_from(sorted(term_set(p)))
    s = data.draw(wide_words(p.dim) | st.builds(lambda a, b: a ^ b, terms, terms))
    q = DesignPoly.of(p.dim, {t ^ s for t in term_set(p)})
    overlap = term_set(p) & term_set(q)
    if overlap:
        message = (f"designs overlap on {len(overlap)} term(s), "
                   f"e.g. {mono_name(min(overlap))}")
        with pytest.raises(ValueError) as excinfo:
            p.union_disjoint(q)
        assert str(excinfo.value) == message
    else:
        union = p.union_disjoint(q)
        assert_canonical(union)
        assert term_set(union) == term_set(p) | term_set(q)
    assert p.scalar(q) == len(overlap)


def test_union_reports_a_design_meeting_its_neighbour():
    p = DesignPoly.of(62, [0, 1 << 61, (1 << 61) | (1 << 60), (1 << 62) - 1])
    with pytest.raises(ValueError) as excinfo:
        p.union_disjoint(p.mirror(1 << 60))
    assert str(excinfo.value) == "designs overlap on 2 term(s), e.g. X62"
    with pytest.raises(ValueError) as excinfo:
        p.union_disjoint(p)
    assert str(excinfo.value) == "designs overlap on 4 term(s), e.g. 1"


@given(wide_design_polys(min_size=1), st.data())
def test_wide_shift_matches_set(p, data):
    top = max(t.bit_length() for t in term_set(p))
    k = data.draw(st.integers(0, 62 - top))
    new_dim = data.draw(st.integers(max(top + k, 1), 62))
    shifted = p.shift(k, new_dim)
    assert_canonical(shifted)
    assert shifted.dim == new_dim
    assert term_set(shifted) == {t << k for t in term_set(p)}
    if top:
        k = data.draw(st.integers(62 - top + 1, 70))
        with pytest.raises(ValueError) as excinfo:
            p.shift(k, 62)
        assert str(excinfo.value) == f"shift by {k} pushes variable X{top} beyond dimension 62"


@given(wide_design_polys(min_size=1), st.data())
def test_wide_lift_shares_the_array(p, data):
    top = max(t.bit_length() for t in term_set(p))
    new_dim = data.draw(st.integers(max(top, 1), 62))
    lifted = DesignPoly(new_dim, p.sorted_terms)
    assert term_set(lifted) == term_set(p)
    assert lifted.sorted_terms is p.sorted_terms
    if top > 1:
        with pytest.raises(ValueError):
            DesignPoly(top - 1, p.sorted_terms)


@given(design_polys(max_dim=10))
def test_complement_matches_set(p):
    comp = p.complement()
    assert_canonical(comp)
    assert term_set(comp) == frozenset(range(1 << p.dim)) - term_set(p)
    assert comp.complement() == p


def test_complement_refuses_wide_designs():
    with pytest.raises(ValueError, match="refusing"):
        DesignPoly.of(62, [1 << 61]).complement()


@given(wide_design_polys())
def test_wide_words_round_trip(p):
    words = format_words(p.ordered_terms, p.dim)
    assert words == [mono_str(t, p.dim) for t in p.ordered_terms.tolist()]
    design = loads_design(dumps_design(p))
    assert design == p
    assert_canonical(design)


@given(st.one_of(design_polys(), wide_design_polys()),
       st.one_of(st.none(), st.sampled_from(FAMILIES), st.text(max_size=4)),
       st.one_of(st.just("auto"), st.none(), st.integers(0, 1 << 61)))
def test_dumps_design_writes_what_json_dumps_writes(p, family, m):
    assert dumps_design(p, family=family, m=m) == dumps_design_reference(p, family, m)


@pytest.mark.parametrize("terms", [[1 << 63], [2 ** 64 + 5], [-1], [0, -(1 << 63)],
                                   [1 << 62], [3, 1 << 62, 5], [1, 1 << 63]])
def test_of_rejects_terms_outside_q62(terms):
    bad = next(t for t in terms if t < 0 or t >> 62)
    with pytest.raises(ValueError) as excinfo:
        DesignPoly.of(62, terms)
    assert str(excinfo.value) == f"monomial {bad:#x} uses variables beyond dimension 62"


@pytest.mark.parametrize("terms", [[1.5], [0, 2.0], [3, "a"]])
def test_of_rejects_terms_that_are_not_ints(terms):
    with pytest.raises(TypeError):
        DesignPoly.of(4, terms)


@pytest.mark.parametrize("terms", [np.array([1, 0]), np.array([0, 0]), np.array([0.0]),
                                   np.array([[0, 1]]), [0, 1], (0, 1)])
def test_constructor_takes_only_a_strictly_increasing_int64_array(terms):
    with pytest.raises(ValueError, match="strictly increasing int64 array"):
        DesignPoly(3, terms)


def test_of_sorts_and_drops_repeats():
    design = DesignPoly.of(3, (t for t in [5, 1, 5, 0, 1]))
    assert design == DesignPoly(3, np.array([0, 1, 5]))
    assert_canonical(design)


# -- edges: one search per base design, inherited by every replicate ---------

def edge_triples(edges):
    return list(zip(*(column.tolist() for column in edges)))


@given(wide_design_polys())
def test_wide_edge_index_matches_bit_loop(p):
    values = p.sorted_terms.tolist()
    index = {v: k for k, v in enumerate(values)}
    # by direction, then lower endpoint
    expected = [(i, index[v], index[v | 1 << i]) for i in range(p.dim)
                for v in values if not v >> i & 1 and v | 1 << i in index]
    assert edge_triples(edge_index(p.sorted_terms, p.dim)) == expected


@pytest.mark.parametrize("terms", [[], [0, 3, 5, 6, 3 << 60]], ids=["empty", "edgeless"])
def test_edge_index_without_edges_is_three_empty_arrays(terms):
    edges = edge_index(np.array(terms, dtype=np.int64), 62)
    assert [(column.dtype, column.shape) for column in edges] == [(np.int64, (0,))] * 3


@given(wide_design_polys(), st.data())
def test_inherited_edges_match_a_fresh_search(p, data):
    s = data.draw(monomials_in(p.dim))
    perm = data.draw(permutations_of(p.dim))
    p.grlex_pairs
    image = p.image(s, perm)
    assert image == p.mirror(s).permute(perm)
    assert term_set(image) == {permute_reference(t ^ s, perm) for t in term_set(p)}
    # only the replicate image carries edges; mirror and permute are set maps
    assert "grlex_pairs" in image.__dict__  # carried, not searched
    for design in (p.mirror(s), p.permute(perm)):
        assert "grlex_pairs" not in design.__dict__
    od = order_vertices(image)
    searched = order_vertices(DesignPoly(image.dim, image.sorted_terms)).grlex_pairs
    for got, want in zip(od.grlex_pairs, searched):
        assert np.array_equal(got, want)
    vertices = od.ordered_terms.tolist()
    for i in range(1, p.dim + 1):
        assert build_incidence(od, i).pairs == incidence_reference(vertices, i)


def _swap_ends(d):
    """The permutation of 1..d that swaps bits 0 and d-1 and fixes the rest."""
    return [d] + list(range(2, d)) + [1]


@pytest.mark.parametrize("d", [8, 9, 16, 17, 62])
def test_relabel_matches_the_bit_loop_at_byte_boundaries(d):
    rng = np.random.default_rng(d)
    full = (1 << d) - 1
    values = sorted({0, 1, 1 << (d - 1), full, full ^ 1, full >> 1,
                     *(int(v) for v in rng.integers(0, full, size=200, endpoint=True))})
    p = DesignPoly.of(d, values)
    perms = [list(range(1, d + 1)), list(range(d, 0, -1)), _swap_ends(d),
             [int(k) + 1 for k in rng.permutation(d)]]
    for perm in perms:
        got = p._relabel(p.sorted_terms, perm)
        assert got.dtype == np.int64
        assert got.tolist() == [permute_reference(t, perm) for t in values], perm


@given(wide_design_polys(), st.data())
def test_image_relabels_then_reflects_by_the_relabelled_s(p, data):
    s = data.draw(monomials_in(p.dim))
    perm = data.draw(permutations_of(p.dim))
    relabelled = p._relabel(p.ordered_terms, perm) ^ permute_reference(s, perm)
    assert p.image(s, perm).sorted_terms.tolist() == sorted(relabelled.tolist())


@pytest.mark.parametrize("family", ["H", "M"])
def test_stress_images_carry_the_edges_a_fresh_search_finds(family):
    base = {"H": gen_H, "M": gen_M}[family](62, 64)
    rng = np.random.default_rng(62)
    for _ in range(3):
        s = int(rng.integers(0, 1 << 62))
        perm = tuple(int(k) + 1 for k in rng.permutation(62))
        image = base.image(s, perm)
        searched = DesignPoly(62, image.sorted_terms).grlex_pairs
        assert image.grlex_pairs[2] == searched[2]
        for got, want in zip(image.grlex_pairs[:2], searched[:2]):
            assert np.array_equal(got, want)
