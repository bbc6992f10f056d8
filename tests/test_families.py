from fractions import Fraction

import numpy as np
import pytest

from eqdesign import poly
from eqdesign.effects import randomize
from eqdesign.families import (CACHE_SIZE, FAMILIES, MAX_DESIGN_VERTICES, alpha_h,
                               check_domain, economy_limits, gen_G, gen_H,
                               gen_M, gen_path, generate, leaf_counts,
                               min_size_oracle, predicted_size, predicted_size_G,
                               predicted_size_H, predicted_size_M, q_min)
from eqdesign.poly import MAX_DIM, DesignPoly, mono_from_vars
from eqdesign.screening import MAX_SCREEN_CELLS, ScreenConfig

from conftest import brute_edge_profile, term_set


def test_path():
    assert term_set(gen_path(1)) == frozenset([0, 1])
    p3 = gen_path(3)
    assert term_set(p3) == frozenset([0b000, 0b001, 0b011, 0b111])
    assert brute_edge_profile(p3) == (1, 1, 1)
    for d in (1, 2, 5, 9):
        assert len(gen_path(d)) == d + 1
        assert gen_path(d).is_equitable() == 1


def test_gen_G_base_and_small():
    assert term_set(gen_G(3, 1)) == frozenset([0, 0b001, 0b010, 0b100])
    assert term_set(gen_G(2, 2)) == frozenset([0b00, 0b01, 0b10, 0b11])
    g44 = gen_G(4, 4)
    assert len(g44) == 12
    assert g44.is_equitable() == 4


def test_gen_G_range_errors():
    with pytest.raises(ValueError):
        gen_G(3, 5)
    with pytest.raises(ValueError):
        gen_G(3, 0)
    with pytest.raises(ValueError):
        gen_G(0, 1)


@pytest.mark.parametrize("d", ["3", 3.0, None, True])
@pytest.mark.parametrize("check", [predicted_size, generate, check_domain])
def test_a_dimension_that_is_not_an_int_is_refused(check, d):
    with pytest.raises(ValueError) as excinfo:
        check("G", d, 1)
    assert str(excinfo.value) == f"ambient dimension must be in [1, 62], got {d!r}"


@pytest.mark.parametrize("m", ["2", 2.0, None, True, np.int64(2)],
                         ids=["str", "float", "None", "bool", "int64"])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("check", [predicted_size, generate, check_domain])
def test_a_multiplicity_that_is_not_an_int_is_refused(check, family, m):
    with pytest.raises(ValueError) as excinfo:
        check(family, 5, m)
    assert str(excinfo.value) == f"m must be in [1, 2^(d-1)] = [1, 16], got {m!r}"


def test_predicted_size_G():
    assert predicted_size_G(7, 1) == 8
    assert predicted_size_G(19, 5) == 88
    assert predicted_size_G(4, 4) == 12


@pytest.mark.parametrize("d", range(1, 11))
def test_G_sweep_equitable_and_sized(d):
    for m in range(1, (1 << (d - 1)) + 1):
        g = gen_G(d, m)
        assert g.is_equitable() == m, (d, m)
        assert len(g) == predicted_size_G(d, m), (d, m)


def test_gen_H_examples():
    h53 = gen_H(5, 3)
    assert len(h53) == 11 == 1 + 2 * 5
    assert h53.is_equitable() == 3
    expected = {0, mono_from_vars(1, 5)}
    expected |= {mono_from_vars(k) for k in range(1, 6)}
    expected |= {mono_from_vars(j, j + 1) for j in range(1, 5)}
    assert term_set(h53) == frozenset(expected)

    h42 = gen_H(4, 2)
    assert len(h42) == 7
    assert brute_edge_profile(h42) == (2, 2, 2, 2)

    assert len(gen_H(4, 5)) == 13
    assert len(gen_H(19, 5)) == 65


def test_gen_H_range_errors():
    with pytest.raises(ValueError):
        gen_H(4, 1)
    with pytest.raises(ValueError):
        gen_H(2, 3)


@pytest.mark.parametrize("d", range(2, 11))
def test_H_sweep_equitable_and_sized(d):
    for m in range(2, (1 << (d - 1)) + 1):
        h = gen_H(d, m)
        assert h.is_equitable() == m, (d, m)
        assert len(h) == predicted_size_H(d, m), (d, m)


def test_leaf_counts():
    lc6 = leaf_counts(6)
    assert (lc6.p2, lc6.p3) == (0, 2)
    lc5 = leaf_counts(5)
    assert (lc5.p2, lc5.p3) == (1, 1)
    lc2 = leaf_counts(2)
    assert (lc2.p2, lc2.p3) == (1, 0)
    with pytest.raises(ValueError):
        leaf_counts(1)


@pytest.mark.parametrize("m", range(2, 130))
def test_leaf_counts_weighting(m):
    lc = leaf_counts(m)
    assert 2 * lc.p2 + 3 * lc.p3 == m
    assert -(1 << (lc.kappa - 1)) <= lc.i_offset < (1 << (lc.kappa - 1))


def test_predicted_size_H_closed_forms():
    for d in range(3, 15):
        assert predicted_size_H(d, 3) == 1 + 2 * d
    for d in range(4, 15):
        assert predicted_size_H(d, 6) == 4 * d - 2
    assert predicted_size_H(19, 5) == 65
    assert alpha_h(5) == Fraction(7, 2)


def test_q_min():
    assert q_min(4) == 3
    assert q_min(1) == 1
    assert q_min(5) == 4
    assert q_min(2) == 2
    with pytest.raises(ValueError):
        q_min(0)


def test_gen_M_examples():
    m204 = gen_M(20, 4)
    assert len(m204) == 49
    assert m204.is_equitable() == 4

    m195 = gen_M(19, 5)
    assert len(m195) == 59 == predicted_size_M(19, 5)
    assert m195.is_equitable() == 5

    m62 = gen_M(6, 2)
    assert len(m62) == 10
    assert brute_edge_profile(m62) == (2,) * 6


def test_gen_M_requires_room():
    with pytest.raises(ValueError):
        gen_M(3, 4)
    with pytest.raises(ValueError):
        gen_M(5, 4)


def test_gen_M_blocks_share_only_origin():
    from eqdesign.families import _m_decomposition
    for (d, m) in [(6, 2), (20, 4), (12, 3), (19, 5)]:
        family, q, copies, t = _m_decomposition(d, m)
        assert family.build is gen_H  # m >= 2: the blocks come from H
        blocks = [gen_H(q, m).shift(j * q, d) for j in range(copies)]
        blocks.append(gen_H(t, m).shift(copies * q, d))
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                assert term_set(blocks[a]) & term_set(blocks[b]) == {0}


def test_economy():
    for d in (3, 6, 10):
        assert gen_path(d).economy(1) == Fraction(d, d + 1)
        assert DesignPoly.full(d).economy() == Fraction(d, 2)
    assert gen_M(20, 4).economy(4) == Fraction(80, 49)
    with pytest.raises(ValueError):
        DesignPoly.of(3, [0, 0b001, 0b010, 0b101, 0b110]).economy()


def test_economy_limits():
    assert economy_limits(1)[0] == 1
    for m in (2, 3, 7, 12, 100):
        limit_g, (limit_h, h_bounds), m_bounds = economy_limits(m)
        assert limit_g == 1
        assert h_bounds[0] <= limit_h <= h_bounds[1]
        assert m_bounds == (Fraction(m * m, 2 * m - 1), Fraction(m * m, m - 1))
    assert economy_limits(2)[1][0] == Fraction(4, 3)
    assert economy_limits(3)[1][0] == Fraction(3, 2)


def test_alpha_h_matches_growth():
    # finite differences of the construction size confirm the slope
    for m in (2, 3, 4, 6, 11):
        sizes = [len(gen_H(d, m)) for d in range(8, 13)]
        alpha2 = alpha_h(m) * 2
        assert sizes[2] - sizes[0] == alpha2
        assert sizes[4] - sizes[2] == alpha2


def test_min_size_oracle():
    size, witness = min_size_oracle(2, 2)
    assert size == 4 and witness == DesignPoly.full(2)
    assert min_size_oracle(3, 2)[0] == 6 == len(gen_H(3, 2))
    size31, w31 = min_size_oracle(3, 1)
    assert size31 == 4
    assert brute_edge_profile(w31) == (1, 1, 1)
    with pytest.raises(ValueError):
        min_size_oracle(5, 2)


def test_generate_dispatch():
    assert generate("G", 3, 1) == gen_G(3, 1)
    assert generate("path", 4, 1) == gen_path(4)
    assert predicted_size("path", 4, 1) == 5
    with pytest.raises(ValueError):
        generate("Z", 3, 1)
    with pytest.raises(ValueError):
        generate("path", 4, 2)


def test_generate_refuses_designs_above_the_cap():
    # 34.6M vertices: refused from the size formula, before anything is built
    assert predicted_size("H", 62, 1 << 20) > MAX_DESIGN_VERTICES
    with pytest.raises(ValueError, match="above the cap"):
        generate("H", 62, 1 << 20)
    with pytest.raises(ValueError, match="above the cap"):
        generate("G", 62, 1 << 61)


def test_family_ordering_small():
    # |G| >= |H| >= |M| and economies reversed, on a small grid
    for d in range(4, 11):
        for m in range(2, min(1 << (d - 1), 17) + 1):
            sizes = {"G": len(gen_G(d, m)), "H": len(gen_H(d, m))}
            assert sizes["G"] >= sizes["H"], (d, m)
            if d >= 2 * q_min(m):
                sizes["M"] = len(gen_M(d, m))
                assert sizes["H"] >= sizes["M"], (d, m)


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


def _in_domain(family, d, m) -> bool:
    """The paper's domains, restated independently of families.check_domain."""
    if family not in ("G", "H", "M", "path") or not 1 <= d <= MAX_DIM:
        return False
    if not 1 <= m <= 1 << (d - 1):
        return False
    return {"G": True, "H": m >= 2, "path": m == 1,
            "M": d >= 2 * ((m - 1).bit_length() + 1)}[family]


@pytest.mark.parametrize("family", FAMILIES + ("Q", ""))
def test_domain_agreement_grid(family):
    for d in (0, 1, 2, 3, 4, 5, 6, 8, 12, 62, 63):
        top = 1 << max(d - 1, 0)
        for m in sorted({0, 1, 2, 3, 4, 5, top, top + 1}):
            sized = _accepts(lambda: predicted_size(family, d, m))
            valid = _accepts(lambda: ScreenConfig(d=d, m=m, family=family, seed=0))
            assert sized == _in_domain(family, d, m), (family, d, m)
            # a screen also keeps its points and its r=3 effects to the memory budget
            assert valid == (sized and max(predicted_size(family, d, m), 3 * m) * d
                             <= MAX_SCREEN_CELLS)
            if not sized:
                assert not _accepts(lambda: generate(family, d, m)), (family, d, m)
            elif predicted_size(family, d, m) <= 5000:
                assert len(generate(family, d, m)) == predicted_size(family, d, m), (family, d, m)


def _connected(design) -> bool:
    """Label propagation over the design's edges (grlex_pairs): each vertex
    takes the least label among itself and its neighbours, then the label of
    its label (pointer jumping), until nothing changes.  A label is always a
    vertex of the same component, so one label is left exactly when the
    design is connected."""
    rows, cols, _ = design.grlex_pairs
    label = np.arange(len(design))
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        np.minimum.at(low, cols, label[rows])
        low = low[low]
        if np.array_equal(low, label):
            return not label.any()
        label = low


def test_designs_connected():
    checked = 0
    for d in range(1, 9):
        for m in range(1, (1 << (d - 1)) + 1):
            for family in FAMILIES:
                try:
                    design = generate(family, d, m)
                except ValueError:
                    continue  # outside the family's domain
                assert _connected(design), (family, d, m)
                checked += 1
    assert checked > 500
    assert not _connected(DesignPoly.of(3, [0, 0b011]))
    assert not _connected(DesignPoly.of(4, [0, 0b0001, 0b0110, 0b1110]))


# every design of the screen_paper and screen_mid benchmark cycles, and
# stress-scale designs of each family
SCALE_DESIGNS = ([(family, 20, m) for family, m in (("M", 4), ("H", 4), ("G", 4), ("path", 1))]
                 + [(family, 30, m) for m in (32, 64, 128, 200) for family in ("M", "H", "G")]
                 + [("H", 62, 928), ("M", 62, 672), ("G", 62, 777)])


@pytest.mark.parametrize("family, d, m", SCALE_DESIGNS)
def test_designs_connected_at_scale(family, d, m):
    design = generate(family, d, m)
    assert _connected(design)
    # a randomized replicate is an automorphism image: it stays connected
    assert _connected(randomize(design, np.random.default_rng(d * m))[0])


def test_caches_are_bounded():
    assert gen_path.cache_info().maxsize == CACHE_SIZE
    caches = (gen_G, gen_H, gen_M)
    for cache in caches:
        assert cache.cache_info().maxsize == CACHE_SIZE
        cache.cache_clear()
    # an economy table at d=30 up to m=200 fits in the caches whole: nothing
    # built is evicted, and the benchmark's hit counts hold
    for m in range(1, 201):
        for family in ("G", "H", "M"):
            try:
                generate(family, 30, m)
            except ValueError:
                pass  # outside the family's domain
    infos = [cache.cache_info() for cache in caches]
    assert [info.hits for info in infos] == [584, 1492, 0]
    assert [info.misses - info.currsize for info in infos] == [0, 0, 0]
    for m in range(1, 1 << 11):
        gen_G(12, m)
    assert gen_G.cache_info().currsize == CACHE_SIZE
    for cache in caches:
        cache.cache_clear()


def test_generate_leaves_edges_uncomputed(monkeypatch):
    # construction mirrors sub-designs, which must stay a plain sort: no edge
    # search, and no edges to carry into the result
    def no_search(*args):
        raise AssertionError("family construction searched for edges")

    for cache in (gen_path, gen_G, gen_H, gen_M):
        cache.cache_clear()
    monkeypatch.setattr(poly, "edge_index", no_search)
    for family, d, m in (("G", 20, 4), ("G", 30, 200), ("H", 30, 200), ("M", 20, 4),
                         ("M", 30, 200), ("path", 20, 1)):
        design = generate(family, d, m)
        assert "grlex_pairs" not in design.__dict__
        assert "grlex_pairs" not in design.mirror(1).__dict__
    for cache in (gen_path, gen_G, gen_H, gen_M):
        cache.cache_clear()
