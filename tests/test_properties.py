"""Property-based checks of the algebraic invariants behind the design families,
and fuzzing of the two parsers of outside input."""
import json
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqdesign.effects import build_incidence, embed, elementary_effects, \
    order_vertices, randomize
from eqdesign.families import FAMILIES, gen_G, gen_H, gen_M, gen_path, q_min
from eqdesign.poly import DesignPoly, loads_design, mono_str
from eqdesign.screening import ScreenConfig, config_from_dict

from conftest import (brute_direction_pairs, brute_edge_profile, design_polys,
                      embed_reference, grlex_reference, incidence_reference,
                      monomials_in, permutations_of, permute_reference,
                      wide_design_polys)


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
        got = {(od.vertices[r - 1] & ~(1 << (i - 1)) if s == 1 else od.vertices[c - 1] & ~(1 << (i - 1)),
                od.vertices[r - 1] | (1 << (i - 1)) if s == 1 else od.vertices[c - 1] | (1 << (i - 1)))
               for r, c, s in inc.pairs}
        assert got == brute_direction_pairs(od.vertices, i)


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
    top = max(t.bit_length() for t in p.terms)
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
    assert cfg.family in FAMILIES


@given(st.sampled_from(INT_FIELDS + REAL_FIELDS),
       st.one_of(st.text(), st.booleans(), st.lists(st.integers(), max_size=2)))
def test_config_from_dict_rejects_wrong_types(name, value):
    with pytest.raises(ValueError):
        config_from_dict({"seed": 0, name: value})


@given(st.one_of(
    st.fixed_dictionaries({
        "d": st.integers(-1, 6) | json_scalars,
        "terms": st.lists(st.text(alphabet="01", max_size=6) | json_scalars, max_size=6)
        | json_values,
    }).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=20)))
def test_loads_design_is_faithful_or_rejected(text):
    try:
        design, obj = loads_design(text)
    except ValueError:
        return
    assert sorted(mono_str(t, design.dim) for t in design.terms) == sorted(obj["terms"])


# -- the int64 array passes at full width (d up to 62, terms past 2^53) -------

@given(wide_design_polys())
def test_wide_edge_profile_matches_brute_force(p):
    assert p.edge_profile() == brute_edge_profile(p)


@given(wide_design_polys(), st.data())
def test_wide_permute_matches_bit_loop(p, data):
    perm = data.draw(permutations_of(p.dim))
    assert p.permute(perm).terms == {permute_reference(t, perm) for t in p.terms}


@given(wide_design_polys(min_size=1))
def test_wide_order_and_incidence_match_references(p):
    od = order_vertices(p)
    assert od.vertices.dtype == np.int64
    vertices = od.vertices.tolist()
    assert vertices == grlex_reference(p.terms)
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
    assert points.tolist() == embed_reference(od.vertices.tolist(), base, delta)


def test_blocked_pass_matches_references_across_blocks():
    # about 4,000 vertices at d=62: several blocks of the all-direction pass
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
    vertices = od.vertices.tolist()
    assert vertices == grlex_reference(terms)
    for i in range(1, 63):
        assert build_incidence(od, i).pairs == incidence_reference(vertices, i)
