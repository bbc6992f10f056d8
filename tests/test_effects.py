import math
import re
import sys

import numpy as np
import pytest

from eqdesign.effects import (build_incidence, elementary_effects, embed,
                              order_vertices, pairs_csv, pooled_stats,
                              randomize, sample_base)
from eqdesign.families import gen_G, gen_H, gen_path
from eqdesign.poly import DesignPoly

from conftest import brute_direction_pairs, embed_reference, sample_base_reference

X1, X2, X3, X4 = 0b0001, 0b0010, 0b0100, 0b1000

E42 = DesignPoly.of(4, [0, X1, X2, X1 | X2, X1 | X2 | X3, X1 | X2 | X4,
                        X1 | X2 | X3 | X4])


def test_order_vertices_worked_example():
    od = order_vertices(E42)
    assert od.ordered_terms.tolist() == [0, X1, X2, X1 | X2, X1 | X2 | X3, X1 | X2 | X4,
                                    X1 | X2 | X3 | X4]
    assert len(od) == 7


def test_order_single_and_lex():
    assert order_vertices(DesignPoly.of(3, [0])).ordered_terms.tolist() == [0]
    assert order_vertices(DesignPoly.of(2, [X2, X1])).ordered_terms.tolist() == [X1, X2]
    with pytest.raises(ValueError):
        order_vertices(DesignPoly.zero(2))


def test_incidence_worked_example():
    od = order_vertices(E42)
    inc = build_incidence(od, 2)
    assert inc.pairs == ((1, 3, 1), (2, 4, 1))


def test_incidence_path_and_empty_direction():
    od = order_vertices(gen_path(2))
    assert build_incidence(od, 1).pairs == ((1, 2, 1),)
    lonely = order_vertices(DesignPoly.of(3, [0, X3]))
    assert build_incidence(lonely, 1).pairs == ()
    assert build_incidence(lonely, 3).pairs == ((1, 2, 1),)
    with pytest.raises(ValueError):
        build_incidence(od, 5)


@pytest.mark.parametrize("direction", [0, 5, True, 1.0, "1", None, np.int64(2)])
def test_incidence_refuses_a_direction_that_is_not_an_int_in_range(direction):
    message = f"^direction must be an int in \\[1, 4\\], got {re.escape(repr(direction))}$"
    with pytest.raises(ValueError, match=message):
        build_incidence(E42, direction)


def test_incidence_of_a_range_is_its_directions_in_turn():
    # random designs, among them ones with empty directions and unequal ones
    rng = np.random.default_rng(11)
    empty = unequal = 0
    for _ in range(40):
        d = int(rng.integers(1, 8))
        n = int(rng.integers(1, min(1 << d, 20) + 1))
        design = DesignPoly.of(d, (int(t) for t in rng.choice(1 << d, size=n, replace=False)))
        empty += 0 in design.edge_profile()
        unequal += design.is_equitable() is None
        single = [build_incidence(design, i) for i in range(1, d + 1)]
        for first in range(1, d + 1):
            for last in range(first, d + 1):
                inc = build_incidence(design, first, last)
                parts = single[first - 1:last]
                assert inc.rows.tolist() == [r for p in parts for r in p.rows.tolist()]
                assert inc.cols.tolist() == [c for p in parts for c in p.cols.tolist()]
                assert inc.size == len(design)
    assert empty and unequal


@pytest.mark.parametrize("last", [1, 5, True, 3.0, "3", np.int64(3)])
def test_incidence_refuses_a_last_direction_outside_its_range(last):
    # from direction 2 of E42 (d=4), last runs over 2..4
    message = f"^last must be an int in \\[2, 4\\], got {re.escape(repr(last))}$"
    with pytest.raises(ValueError, match=message):
        build_incidence(E42, 2, last)


def test_incidence_sign_after_mirror():
    # reflect so that some lower-index vertex has the coordinate set
    design = E42.mirror(X2)
    od = order_vertices(design)
    for i in range(1, 5):
        for row, col, sign in build_incidence(od, i).pairs:
            lower_first = not (od.ordered_terms[row - 1] >> (i - 1)) & 1
            assert sign == (1 if lower_first else -1)


def test_incidence_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, min(1 << d, 12) + 1))
        terms = rng.choice(1 << d, size=n, replace=False)
        od = order_vertices(DesignPoly.of(d, (int(t) for t in terms)))
        for i in range(1, d + 1):
            inc = build_incidence(od, i)
            got = {(od.ordered_terms[min(r, c) - 1] & ~(1 << (i - 1)),
                    od.ordered_terms[min(r, c) - 1] | (1 << (i - 1)))
                   for r, c, _ in inc.pairs}
            assert got == brute_direction_pairs(od.ordered_terms, i)
            rows = [r for r, _, _ in inc.pairs]
            assert len(rows) == len(set(rows))


def test_elementary_effects_worked_example():
    od = order_vertices(E42)
    inc = build_incidence(od, 2)
    f = [3.0, 1.0, 7.0, 2.0, 5.0, 4.0, 6.0]
    delta = 0.5
    assert elementary_effects(inc, f, delta).tolist() == [(7.0 - 3.0) / 0.5, (2.0 - 1.0) / 0.5]


def test_elementary_effects_constant_and_linear():
    od = order_vertices(E42)
    delta = 0.25
    rep = embed(od, [0.1] * 4, delta)
    coeffs = [2.0, -1.0, 0.5, 3.0]
    f = [sum(c * x for c, x in zip(coeffs, pt)) for pt in rep.points]
    for i in range(1, 5):
        inc = build_incidence(od, i)
        effects = elementary_effects(inc, f, delta)
        assert all(abs(e - coeffs[i - 1]) < 1e-9 for e in effects)
        assert elementary_effects(inc, [7.0] * 7, delta).tolist() == [0.0, 0.0][: len(effects)]


def test_elementary_effects_validation():
    od = order_vertices(E42)
    inc = build_incidence(od, 2)
    with pytest.raises(ValueError):
        elementary_effects(inc, [1.0, 2.0], 0.5)
    for delta in (0.0, float("nan"), float("inf"), 1.5):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\]"):
            elementary_effects(inc, [0.0] * 7, delta)


@pytest.mark.parametrize("f_values", [[0.0] * 6, [0.0] * 8, [[0.0, 1.0]] * 7, [[0.0] * 7]])
def test_elementary_effects_need_one_value_per_vertex(f_values):
    # E42 has 7 vertices: one too few, one too many, two columns, one row
    inc = build_incidence(E42, 2)
    with pytest.raises(ValueError, match=r"need 7 function values, one a vertex, got shape"):
        elementary_effects(inc, f_values, 0.5)


def test_randomize_preserves_equitability():
    rng = np.random.default_rng(0)
    g = gen_G(6, 3)
    for _ in range(10):
        randomized, s, perm = randomize(g, rng)
        assert len(randomized) == len(g)
        assert randomized.is_equitable() == 3
        assert sorted(perm) == list(range(1, 7))
        assert 0 <= s < 1 << 6


def test_embed():
    od = order_vertices(gen_path(2))
    rep = embed(od, [0.25, 0.5], 0.25)
    assert rep.points.tolist() == [[0.25, 0.5], [0.5, 0.5], [0.5, 0.75]]
    whole = embed(od, [0.0, 0.0], 1.0)
    assert whole.points.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
    for bad in (0.9, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            embed(od, [0.0, bad], 0.25)
    for bad in (0.0, -0.25, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\]"):
            embed(od, [0.0, 0.0], bad)
    with pytest.raises(ValueError):
        embed(od, [0.0], 0.25)


@pytest.mark.parametrize("d", [1, 7, 8, 9, 16, 17, 62])
def test_embed_matches_the_reference_byte_for_byte(d):
    # each side of the byte boundaries, where the rows are padded; every
    # coordinate at both levels, and at d=62 terms with bit 61 set
    rng = np.random.default_rng(d)
    terms = [0, (1 << d) - 1, *rng.integers(0, 1 << d, 40).tolist()]
    design = order_vertices(DesignPoly.of(d, terms))
    assert d < 62 or any(t >> 61 for t in design.ordered_terms.tolist())
    delta = 0.3
    # a -0.0 coordinate, whose low level is 0.0, and one whose high level caps at 1.0
    base = [-0.0, 0.7 + 1e-10, *rng.choice([0.0, 0.1, 0.25, 0.7], d).tolist()][:d]
    points = embed(design, base, delta).points
    assert points.shape == (len(design), d)
    reference = embed_reference(design.ordered_terms.tolist(), base, delta)
    assert points.astype("<f8").tobytes() == np.array(reference, dtype="<f8").tobytes()


@pytest.mark.parametrize("delta", [1e-17, 1e-300])
def test_embed_refuses_a_delta_that_moves_no_coordinate(delta):
    # 0.0 + delta is a new float, 1/3 + delta is 1/3 again: coordinate 2 would
    # give zero effects whatever the function
    od = order_vertices(gen_path(3))
    with pytest.raises(ValueError, match=r"does not move base coordinate 2 from 0\.333"):
        embed(od, [0.0, 1 / 3, 0.0], delta)
    assert embed(od, [0.0] * 3, delta).points[-1].tolist() == [delta] * 3


def test_sample_base():
    rng = np.random.default_rng(3)
    assert sample_base(4, 1.0, 2, rng) == (0.0,) * 4
    for _ in range(20):
        base = sample_base(6, 2 / 3, 4, rng)
        assert all(b in (0.0, pytest.approx(1 / 3)) for b in base)
        embed(order_vertices(gen_path(6)), base, 2 / 3)  # precondition holds


def test_sample_base_matches_listed_grid():
    for levels in (*range(2, 40), 100, 1001, 4096):
        for delta in (1.0, 0.999, 0.75, 2 / 3, 0.5, 1 / 3, 0.1, 1e-9):
            for seed in range(5):
                got = sample_base(7, delta, levels, np.random.default_rng(seed))
                want = sample_base_reference(7, delta, levels, np.random.default_rng(seed))
                assert got == want, (levels, delta, seed)


def test_sample_base_huge_levels():
    # the grid is never listed: 10^12 levels, or the most bisect can search,
    # cost one bisection
    for levels in (10 ** 12, sys.maxsize):
        base = sample_base(20, 2 / 3, levels, np.random.default_rng(0))
        assert all(0 <= b <= 1 / 3 + 1e-9 for b in base)
        assert len(set(base)) == 20
        assert all(round(b * (levels - 1)) / (levels - 1) == b for b in base)


def test_sample_base_infeasible():
    with pytest.raises(ValueError):
        sample_base(3, 2.0, 2, np.random.default_rng(0))
    for levels in (1, 2 ** 63, np.int64(4)):
        with pytest.raises(ValueError, match=r"levels must be an int in \[2, "):
            sample_base(3, 0.5, levels, np.random.default_rng(0))


def test_pooled_stats():
    stats = pooled_stats([[[2.0, 2.0], [2.0, 2.0]]])
    assert stats.mu == (2.0,) and stats.mu_star == (2.0,) and stats.sigma == (0.0,)
    two = pooled_stats([[[1.0], [-1.0]]])
    assert two.mu == (0.0,) and two.mu_star == (1.0,)
    assert two.sigma == (pytest.approx(math.sqrt(2)),)
    with pytest.raises(ValueError):
        pooled_stats([[[1.0]]])


def test_pooled_stats_between_estimator():
    samples = [[[1.0, 3.0], [5.0, 7.0]]]
    pooled = pooled_stats(samples, estimator="pooled")
    between = pooled_stats(samples, estimator="between")
    assert pooled.mu == between.mu == (4.0,)
    # replicate means 2 and 6 -> sd = sqrt(8)
    assert between.sigma == (pytest.approx(math.sqrt(8)),)
    with pytest.raises(ValueError):
        pooled_stats(samples, estimator="bogus")
    with pytest.raises(ValueError, match=">= 2 replicates"):
        pooled_stats([[[1.0, 3.0]]], estimator="between")  # r = 1


@pytest.mark.parametrize("estimator", ["pooled", "between"])
def test_pooled_stats_keep_a_read_only_view_of_a_float_array(estimator):
    samples = np.arange(24, dtype=float).reshape(2, 3, 4)
    stats = pooled_stats(samples, estimator=estimator)
    assert np.shares_memory(stats.effects, samples)
    assert not stats.effects.flags.writeable and samples.flags.writeable
    assert samples.tolist() == np.arange(24, dtype=float).reshape(2, 3, 4).tolist()


def test_pairs_csv():
    od = order_vertices(E42)
    text = "".join(pairs_csv(od))
    lines = text.strip().splitlines()
    assert lines[0] == "direction,row,col,sign,lower_vertex,upper_vertex"
    assert "2,1,3,+1,0000,0100" in lines
    assert "2,2,4,+1,1000,1100" in lines
    # 2 pairs per direction for an equitable m=2 design
    assert len(lines) == 1 + 4 * 2


def test_pairs_csv_piece_k_holds_direction_k():
    design = gen_H(8, 6)
    chunks = pairs_csv(design)
    assert chunks[0] == "direction,row,col,sign,lower_vertex,upper_vertex\n"
    assert len(chunks) == 1 + design.dim
    for k, chunk in enumerate(chunks[1:], start=1):
        lines = chunk.splitlines(keepends=True)
        assert len(lines) == 6 and "".join(lines) == chunk
        assert all(line.startswith(f"{k},") for line in lines)


def loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def stats_reference(samples, estimator):
    """(mu, mu*, sigma) of every direction, summed by explicit left-to-right loops."""
    mu, mu_star, sigma = [], [], []
    for per_direction in samples:
        flat = [e for rep in per_direction for e in rep]
        mean = loop_sum(flat) / len(flat)
        mu.append(mean)
        mu_star.append(loop_sum(abs(e) for e in flat) / len(flat))
        if estimator == "pooled":
            var = loop_sum((e - mean) ** 2 for e in flat) / (len(flat) - 1)
        else:
            means = [loop_sum(rep) / len(rep) for rep in per_direction]
            grand = loop_sum(means) / len(means)
            var = loop_sum((x - grand) ** 2 for x in means) / (len(means) - 1)
        sigma.append(math.sqrt(var))
    return tuple(mu), tuple(mu_star), tuple(sigma)


@pytest.mark.parametrize("estimator", ["pooled", "between"])
def test_pooled_stats_match_a_loop_reference(estimator):
    rng = np.random.default_rng(7)
    # d=1 with r*m >= 9: an (r*m, 1) reduction is where numpy sums pairwise
    for d, r, m in ((20, 3, 4), (3, 2, 1), (5, 12, 1), (1, 3, 3), (1, 20, 8), (30, 4, 200)):
        # magnitudes from 1e-8 to 1e8: every change of summation order shows
        samples = (rng.standard_normal((d, r, m))
                   * 10.0 ** rng.integers(-8, 9, (d, r, m))).tolist()
        stats = pooled_stats(samples, estimator=estimator)
        assert (stats.mu, stats.mu_star, stats.sigma) == stats_reference(samples, estimator)
        assert stats.effects.tolist() == samples
    # here a compensated sum (Python 3.12's sum, like math.fsum) or a pairwise
    # one (numpy's sum) of a direction's effects differs from the loop's
    flats = [[e for rep in per_direction for e in rep] for per_direction in samples]
    assert any(math.fsum(flat) != loop_sum(flat) for flat in flats)
    assert any(float(np.sum(flat)) != loop_sum(flat) for flat in flats)


def test_pooled_stats_sum_negative_zeros_to_zero():
    stats = pooled_stats([[[-0.0, -0.0], [-0.0, -0.0]]], estimator="between")
    assert [math.copysign(1.0, x) for x in stats.mu + stats.sigma] == [1.0, 1.0]


@pytest.mark.parametrize("estimator", ["pooled", "between"])
def test_sigma_squares_deviations_as_python_does(estimator):
    # x ** 2 (pow) and x * x differ in the last bit for about one double in
    # 1,200; take a seeded one where the difference outlives the square root
    rng = np.random.default_rng(1)
    x = next(x for x in rng.standard_normal(100_000).tolist()
             if math.sqrt(2 * x ** 2) != math.sqrt(2 * (x * x)))
    # effects x and -x: mean 0.0, deviations (and replicate means) x and -x
    stats = pooled_stats([[[x], [-x]]], estimator=estimator)
    assert stats.sigma == (math.sqrt(x ** 2 + (-x) ** 2),) == \
        stats_reference([[[x], [-x]]], estimator)[2]
    assert stats.sigma != (math.sqrt(x * x + x * x),)


def test_pooled_stats_need_one_count_of_effects():
    with pytest.raises(ValueError, match="same number of effects"):
        pooled_stats([[[1.0, 2.0], [3.0]]])
    with pytest.raises(ValueError, match="same number of effects"):
        pooled_stats([[1.0, 2.0]])


@pytest.mark.parametrize("estimator", ["pooled", "between"])
def test_pooled_stats_need_a_direction(estimator):
    # with no direction, classify would have no maximum to compare with
    with pytest.raises(ValueError, match="need effects for at least one direction"):
        pooled_stats(np.zeros((0, 3, 4)), estimator=estimator)


@pytest.mark.parametrize("estimator", ["pooled", "between"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_pooled_stats_refuse_statistics_that_are_not_finite(estimator, bad):
    samples = np.zeros((3, 2, 2))
    samples[1, 1, 0] = bad
    with pytest.raises(ValueError, match=r"^the statistics of factor 2 are not finite: "):
        pooled_stats(samples, estimator=estimator)


def test_pooled_stats_refuse_a_sum_that_overflows():
    # finite effects, but |1e308| + |-1e308| overflows mu*
    with pytest.raises(ValueError, match=r"^the statistics of factor 1 are not finite: "
                                         r"mu=0\.0, mu_star=inf, sigma=inf$"):
        pooled_stats([[[1e308, -1e308]]])
