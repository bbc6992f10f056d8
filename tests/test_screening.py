import functools
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eqdesign.effects import (FactorStats, build_incidence, elementary_effects, embed,
                              order_vertices, pooled_stats, randomize, sample_base)
from eqdesign.families import generate
from eqdesign.poly import mono_str
from eqdesign import families, poly, screening
from eqdesign.families import predicted_size
from eqdesign.screening import (MAX_SCREEN_CELLS, REFERENCE_CLASSES, ScreenConfig,
                                BenchmarkFunction, build_test_function, classify,
                                config_from_dict, run_screen, w_transform)

from conftest import benchmark_coefficients_reference
from test_digests import screen_cases


def test_w_transform():
    assert w_transform(np.zeros(20)) == pytest.approx(np.full(20, -1.0))
    ones = w_transform(np.ones((2, 20)))
    assert ones[:, 2] == pytest.approx(2.2 / 1.1 - 1.0)
    assert np.all(ones[:, 0] == 1.0)
    half = w_transform(np.full(20, 0.5))
    assert half[0] == 0.0
    assert half[4] != 0.0  # rational branch is not centred


def test_reference_classes():
    assert REFERENCE_CLASSES[:7] == ("C2",) * 7
    assert REFERENCE_CLASSES[7:10] == ("C1",) * 3
    assert REFERENCE_CLASSES[10:] == ("C0",) * 10


def test_test_function_deterministic():
    f = build_test_function(42)
    g = build_test_function(42)
    rng = np.random.default_rng(0)
    pts = rng.random((100, 20))
    assert np.array_equal(f(pts), g(pts))
    assert f(pts[0]) == f(pts)[0]


def test_test_function_matches_the_per_pair_draws():
    # one array draw for the 175 free pairs gives the same bits as a draw per pair
    for seed in range(64):
        f = build_test_function(seed)
        beta0, beta1, beta2 = benchmark_coefficients_reference(seed)
        assert f.beta0 == beta0
        assert f.beta1.tobytes() == beta1.tobytes()
        assert f.beta2.tobytes() == beta2.tobytes(), seed


def test_test_function_zero_point():
    f = build_test_function(1)
    zeroed = BenchmarkFunction(beta0=0.0,
                               beta1=np.where(np.abs(f.beta1) == 20.0, f.beta1, 0.0),
                               beta2=np.where(f.beta2 == -15.0, f.beta2, 0.0))
    # point where every w_i = 0: x = 0.5 on linear coords, x = 1/12 on rational ones
    x = np.full(20, 0.5)
    for i in (3, 5, 7):
        x[i - 1] = 1.0 / 12.0
    assert zeroed(x) == pytest.approx(0.0, abs=1e-12)


def test_test_function_coefficient_blocks():
    f = build_test_function(9)
    assert np.all(f.beta1[:10] == 20.0)
    assert f.beta1[10:].std() > 0
    for i in range(6):
        for j in range(i + 1, 6):
            assert f.beta2[i, j] == -15.0
    assert np.all(f.beta2[np.tril_indices(20)] == 0.0)
    assert f.beta2[0, 7] != -15.0


def test_test_function_domain_check():
    f = build_test_function(0)
    with pytest.raises(ValueError):
        f(np.full(20, 1.5))
    with pytest.raises(ValueError):
        f(np.zeros(19))
    for bad in (np.full(20, np.nan), np.r_[0.5, np.full(19, np.nan)]):
        with pytest.raises(ValueError, match=r"outside \[0,1\]\^20"):
            f(bad)
    with pytest.raises(ValueError, match=r"points of 20 coordinates, got shape \(2, 3, 20\)"):
        f(np.zeros((2, 3, 20)))


def test_test_function_of_no_points_is_empty():
    values = build_test_function(0)(np.zeros((0, 20)))
    assert values.shape == (0,) and values.dtype == float


def test_classify():
    stats = FactorStats(mu=(0.0, 10.0, 5.0), mu_star=(0.0, 10.0, 5.0),
                        sigma=(0.0, 0.1, 5.0), effects=((), (), ()))
    assert classify(stats, tau0=0.1, rho=0.5) == ("C0", "C1", "C2")
    allzero = FactorStats(mu=(0.0,) * 3, mu_star=(0.0,) * 3, sigma=(0.0,) * 3,
                          effects=((), (), ()))
    assert classify(allzero, tau0=0.1, rho=0.5) == ("C0", "C0", "C0")
    # sigma == rho * mu* exactly is C2, below it C1
    tie = FactorStats(mu=(10.0, 10.0), mu_star=(10.0, 10.0), sigma=(5.0, 4.0),
                      effects=((), ()))
    assert classify(tie, tau0=0.1, rho=0.5) == ("C2", "C1")


def test_run_screen_counts():
    rep = run_screen(ScreenConfig(seed=0))
    assert rep.n_evals == 147 == 3 * rep.design_size
    assert len(rep.classes) == 20
    for per_direction in rep.stats.effects:
        assert sum(len(r) for r in per_direction) == 4 * 3

    path = run_screen(ScreenConfig(family="path", m=1, r=12, seed=0))
    assert path.n_evals == 12 * 21


def test_run_screen_with_a_billion_levels():
    # the grid is bisected, never listed
    rep = run_screen(config_from_dict({"seed": 0, "levels": 10 ** 9}))
    assert rep.n_evals == 147
    for meta in rep.replicates:
        assert all(0 <= b <= 1 - meta.delta + 1e-9 for b in meta.base_point)


def test_run_screen_reproducible():
    a = run_screen(ScreenConfig(seed=123))
    b = run_screen(ScreenConfig(seed=123))
    assert a.stats.mu == b.stats.mu
    assert a.classes == b.classes
    assert a.replicates == b.replicates


def test_screens_search_each_base_design_once(monkeypatch):
    # replicates carry their base's edges, and the families cache their
    # designs, so repeated screens of a design never search it again
    def clear_caches():
        for obj in vars(families).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    searches, search = [], poly.DesignPoly.grlex_pairs.func

    def counted(design):
        searches.append(len(design))
        return search(design)

    hooked = functools.cached_property(counted)
    hooked.__set_name__(poly.DesignPoly, "grlex_pairs")
    clear_caches()
    monkeypatch.setattr(poly.DesignPoly, "grlex_pairs", hooked)
    cycle = (("M", 4, 3), ("H", 4, 3), ("G", 4, 3), ("path", 1, 12))
    for seed, (family, m, r) in enumerate(cycle * 2):
        run_screen(ScreenConfig(family=family, m=m, r=r, seed=seed))
    assert searches == [49, 60, 76, 21]
    clear_caches()


def test_run_screen_constant_function():
    rep = run_screen(ScreenConfig(seed=4), func=lambda pts: np.zeros(len(pts)))
    assert rep.classes == ("C0",) * 20
    assert all(v == 0.0 for v in rep.stats.mu_star)


def test_run_screen_custom_function_other_dim():
    cfg = ScreenConfig(d=6, m=2, r=3, family="H", seed=8)
    rep = run_screen(cfg, func=lambda pts: np.asarray(pts).sum(axis=1))
    # linear function: every effect is exactly 1 in every direction
    assert all(v == pytest.approx(1.0) for v in rep.stats.mu)
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in rep.stats.sigma)
    with pytest.raises(ValueError, match="^the built-in benchmark function has 20 factors, "
                                         "got d=6$"):
        run_screen(cfg)


def _first_replicate_vertex(cfg, k):
    """Binary word of the k-th vertex (0-based) of run_screen's first replicate."""
    rng = np.random.default_rng(cfg.seed)
    design = order_vertices(randomize(generate(cfg.family, cfg.d, cfg.m), rng)[0])
    return mono_str(int(design.ordered_terms[k]), cfg.d)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_screen_rejects_non_finite_values(bad):
    cfg = ScreenConfig(d=6, m=2, r=3, family="H", seed=8)

    def func(pts):
        values = pts.sum(axis=1)
        values[3] = bad
        return values

    word = _first_replicate_vertex(cfg, 3)
    with pytest.raises(ValueError) as info:
        run_screen(cfg, func)
    assert str(info.value) == f"replicate 1 of 3: func returned {float(bad)} at vertex {word}"


@pytest.mark.parametrize("shape", [lambda n: (n, 1), lambda n: (n - 1,), lambda n: ()])
def test_run_screen_rejects_wrongly_shaped_values(shape):
    cfg = ScreenConfig(d=6, m=2, r=3, family="H", seed=8)
    with pytest.raises(ValueError, match=r"^replicate 1 of 3: func returned shape"):
        run_screen(cfg, lambda pts: np.zeros(shape(len(pts))))


def test_run_screen_refuses_statistics_that_overflow():
    # factor 1's effects are 2e308 / delta, beyond the largest float
    with pytest.raises(ValueError, match=r"^the statistics of factor 1 are not finite: "
                                         r"mu=inf, mu_star=inf, sigma=nan$"):
        run_screen(ScreenConfig(seed=0), lambda x: np.where(x[:, 0] > 0.5, 1e308, -1e308))
    # finite effects whose squares overflow
    with pytest.raises(ValueError, match=r"^the statistics of factor 1 are not finite: "
                                         r"mu=1\.0\d*e\+300, .*, sigma=inf$"):
        run_screen(ScreenConfig(seed=0), lambda x: 1e300 * (1 + x[:, 0]))


def test_run_screen_refuses_complex_values():
    cfg = ScreenConfig(d=6, m=2, r=3, family="H", seed=8)
    with pytest.raises(ValueError, match=r"^replicate 1 of 3: func returned complex values, "
                                         r"dtype complex128$"):
        run_screen(cfg, lambda x: x[:, 0] + 1j * x[:, 1])


def _per_direction_effects(cfg, func):
    """run_screen's draws replayed: for each replicate, its (d, m) effects
    made one direction at a time, as (d, m) float bytes."""
    rng = np.random.default_rng(cfg.seed)
    design = generate(cfg.family, cfg.d, cfg.m)
    for _ in range(cfg.r):
        transformed = order_vertices(randomize(design, rng)[0])
        base = sample_base(cfg.d, cfg.delta, cfg.levels, rng)
        f = np.asarray(func(embed(transformed, base, cfg.delta).points), dtype=float)
        yield np.array([elementary_effects(build_incidence(transformed, i), f, cfg.delta)
                        for i in range(1, cfg.d + 1)]).tobytes()


def _mid_function(x):
    w = 2.0 * x - 1.0
    return w @ np.linspace(-3.0, 5.0, 30) + (w[:, :6] * w[:, 6:12]) @ np.arange(1.0, 7.0)


@pytest.mark.parametrize("d", [20, 30])
@pytest.mark.parametrize("family,m", [(f, m) for f in "MHG" for m in (2, 4, 16)]
                         + [("path", 1)])
def test_run_screen_effects_are_the_per_direction_effects_bit_for_bit(d, family, m):
    for seed, estimator in itertools.product(range(5), ("pooled", "between")):
        cfg = ScreenConfig(d=d, m=m, family=family, seed=seed, sigma_estimator=estimator)
        func = build_test_function(seed) if d == 20 else _mid_function
        report = run_screen(cfg, None if d == 20 else func)
        replayed = list(_per_direction_effects(cfg, func))
        assert [report.stats.effects[:, j].tobytes() for j in range(cfg.r)] == replayed


def test_run_screen_refuses_a_design_with_unequal_directions(monkeypatch):
    # (2, 2, 0, 0) adds up to d*m = 4 effects a replicate, which one (d, m)
    # block of the effects would take in the wrong places
    square = poly.DesignPoly.of(4, [0, 1, 2, 3])
    monkeypatch.setattr(screening, "generate", lambda family, d, m: square)
    with pytest.raises(ValueError, match=r"^path\(4, 1\) has edge profile \(2, 2, 0, 0\), "
                                         r"expected 1 in each of its 4 directions$"):
        run_screen(ScreenConfig(d=4, m=1, family="path", seed=0), lambda x: x.sum(axis=1))


def test_config_validation():
    with pytest.raises(ValueError, match="seed"):
        config_from_dict({})
    with pytest.raises(ValueError, match="unknown screen config fields"):
        config_from_dict({"seed": 1, "bogus": 2})
    with pytest.raises(ValueError, match="m must be"):
        ScreenConfig(d=3, m=9, seed=0)
    with pytest.raises(ValueError, match="r must be"):
        ScreenConfig(r=1, seed=0)
    with pytest.raises(ValueError, match="family"):
        ScreenConfig(family="X", seed=0)
    with pytest.raises(ValueError, match="tau0 must be in"):
        ScreenConfig(tau0=float("nan"), seed=0)
    with pytest.raises(ValueError, match="rho must be finite"):
        ScreenConfig(rho=float("inf"), seed=0)
    ScreenConfig(tau0=0, rho=0, seed=0)
    ScreenConfig(tau0=1, seed=0)
    for delta in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\]"):
            ScreenConfig(delta=delta, seed=0)
    with pytest.raises(ValueError, match="unknown sigma estimator 'bogus'"):
        ScreenConfig(sigma_estimator="bogus", seed=0)
    cfg = config_from_dict({"seed": 5, "m": 4, "r": 3, "family": "M"})
    assert cfg.d == 20 and cfg.delta == pytest.approx(2 / 3)


E42 = poly.DesignPoly.of(4, [0b0000, 0b0001, 0b0010, 0b0011, 0b0111, 0b1011, 0b1111])
# each step that reads a config field, called with a bad value of that field
STEPS = {
    "d": [lambda v: sample_base(v, 0.5, 4, np.random.default_rng(0))],
    "delta": [lambda v: embed(E42, [0.0] * 4, v),
              lambda v: elementary_effects(build_incidence(E42, 2), [0.0] * 7, v),
              lambda v: sample_base(4, v, 4, np.random.default_rng(0))],
    "levels": [lambda v: sample_base(4, 0.5, v, np.random.default_rng(0))],
    "sigma_estimator": [lambda v: pooled_stats(np.zeros((4, 3, 2)), estimator=v)],
}
BAD_VALUES = [*(("d", v) for v in (0, 63, 2.0, True, "x", np.int64(8))),
              *(("delta", v) for v in (0, -0.25, 1.5, float("inf"), float("nan"), "x", None,
                                       True, Fraction(1, 2), np.float32(0.5))),
              *(("levels", v) for v in (1, 2 ** 63, 4.0, True, np.int64(4))),
              ("sigma_estimator", "bogus")]


@pytest.mark.parametrize("field, value", BAD_VALUES, ids=[f"{f}={v!r}" for f, v in BAD_VALUES])
def test_config_and_steps_refuse_a_bad_value_in_the_same_words(field, value):
    with pytest.raises(ValueError) as refused:
        ScreenConfig(seed=0, **{field: value})
    for step in STEPS[field]:
        with pytest.raises(ValueError) as step_refused:
            step(value)
        assert str(refused.value) == f"invalid screen config: {step_refused.value}"


@pytest.mark.parametrize("field", ["tau0", "rho"])
@pytest.mark.parametrize("value", [Fraction(1, 2), np.float32(0.5)], ids=repr)
def test_config_refuses_thresholds_that_are_neither_int_nor_float(field, value):
    # such a value would pass a range check, run the whole screen, and then
    # fail to write as JSON
    with pytest.raises(ValueError, match=f"{field} must be .*, got {re.escape(repr(value))}$"):
        ScreenConfig(seed=0, **{field: value})


def test_config_and_steps_take_numpy_float64():
    half = np.float64(0.5)
    cfg = ScreenConfig(seed=0, delta=half, tau0=np.float64(0.1), rho=half)
    for step in STEPS["delta"]:
        step(half)
    meta = json.loads(run_screen(cfg).metadata_json())
    assert meta["config"]["delta"] == meta["replicates"][0]["delta"] == 0.5
    assert meta["config"]["tau0"] == 0.1


def metadata_reference(report) -> str:
    """The metadata file as json.dumps writes it, the object built here."""
    obj = {"config": vars(report.config), "n_evals": report.n_evals,
           "design_size": report.design_size,
           "replicates": [vars(r) for r in report.replicates],
           "classes": list(report.classes)}
    return json.dumps(obj, indent=2) + "\n"


# the digests' screens, then configs whose fields json writes in other ways:
# a float64 delta, int thresholds, the largest rho, both kinds of function seed
METADATA_CASES = [*screen_cases(),
                  ("delta-float64", ScreenConfig(seed=3, delta=np.float64(0.5)), None),
                  ("int-thresholds", ScreenConfig(seed=4, tau0=0, rho=1), None),
                  ("rho-max", ScreenConfig(seed=5, rho=sys.float_info.max), None),
                  ("function-seed", ScreenConfig(seed=6, function_seed=9), None)]


@pytest.mark.parametrize("name, cfg, func", METADATA_CASES, ids=[c[0] for c in METADATA_CASES])
def test_metadata_json_is_what_json_dumps_writes(name, cfg, func):
    report = run_screen(cfg, func)
    assert report.metadata_json() == metadata_reference(report)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": []}, [{}], "", "é\u2028\"\\\n", None, True, False, 0, -7, 2 ** 70,
    0.0, -0.0, 1e-310, 1e300, np.float64(0.1), [np.float64(2 / 3), 0.5], [1, 2.5, "x"],
    [True, False], [1, True], (3, 4), {"k": {"n": [None, {"m": (1.5,)}]}, "é": "ü"},
    [1, [2]], [{"a": 1}, 2.5], [[], {}], (np.float64(0.5), None), [None, "x", True],
])
def test_json_text_writes_what_json_dumps_writes(value):
    assert screening._json_text(value, "") == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), np.float32(0.5), [1, Fraction(1, 2)]])
def test_json_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        screening._json_text(value, "")


def test_config_validation_keeps_a_screen_within_its_memory_budget(monkeypatch):
    def no_build(*args):
        raise AssertionError("ScreenConfig built a design")

    monkeypatch.setattr(screening, "generate", no_build)
    # G(62, 65536): 3,080,192 vertices, 1.5 GB of float points
    assert predicted_size("G", 62, 65536) * 62 > MAX_SCREEN_CELLS
    with pytest.raises(ValueError, match="above the budget of 33554432"):
        ScreenConfig(d=62, m=65536, family="G", seed=0)
    # 496,384 and 544,384 vertices: one on each side of the budget
    ScreenConfig(d=62, m=10000, family="G", seed=0)
    with pytest.raises(ValueError, match="above the budget"):
        ScreenConfig(d=62, m=11000, family="G", seed=0)
    # G(32, 61440) has exactly 2^20 vertices, so |S|*d is the budget itself
    assert predicted_size("G", 32, 61440) * 32 == MAX_SCREEN_CELLS
    ScreenConfig(d=32, m=61440, family="G", seed=0)
    with pytest.raises(ValueError, match=r"^invalid screen config: G\(32, 61441\) has "
                                         r"33554944 point coordinates, above the budget"):
        ScreenConfig(d=32, m=61441, family="G", seed=0)
    with pytest.raises(ValueError, match="above the budget"):
        run_screen(ScreenConfig(d=62, m=65536, family="G", seed=0),
                   func=lambda points: points.sum(axis=1))


def test_config_budget_bounds_the_effects_array():
    # G(1, 1) has d = m = 1, so r alone sets d*r*m; the cap is checked
    # when the config is built, and no screen is run at it
    ScreenConfig(d=1, m=1, r=MAX_SCREEN_CELLS, family="G", seed=0)
    with pytest.raises(ValueError, match=f"gives d\\*r\\*m = {MAX_SCREEN_CELLS + 1} effects"):
        ScreenConfig(d=1, m=1, r=MAX_SCREEN_CELLS + 1, family="G", seed=0)
    with pytest.raises(ValueError, match=r"^invalid screen config: r=100000000 gives"):
        ScreenConfig(r=100_000_000, seed=0)


def test_config_refuses_negative_seeds():
    with pytest.raises(ValueError,
                       match=r"^invalid screen config: seed must be an int >= 0, got -5$"):
        ScreenConfig(seed=-5)
    with pytest.raises(ValueError, match=r"^invalid screen config: function_seed must be an int"):
        ScreenConfig(seed=0, function_seed=-1)
    with pytest.raises(ValueError, match=r"^invalid screen config: seed must be an int >= 0, "
                                         r"got None$"):
        ScreenConfig(seed=None)
    ScreenConfig(seed=0, function_seed=0)


def test_config_names_every_bad_field():
    with pytest.raises(ValueError) as refused:
        ScreenConfig(seed=0, d="x", r=1, levels=4.0, tau0=2)
    assert str(refused.value) == (
        "invalid screen config: ambient dimension must be an int in [1, 62], got 'x'; "
        "r must be an int >= 2, got 1; "
        f"levels must be an int in [2, {sys.maxsize}], got 4.0; "
        "tau0 must be in [0,1], got 2")
    # a design over the budget and a bad r are both named
    with pytest.raises(ValueError, match=r"r must be an int >= 2, got 1; G\(62, 65536\) has"):
        ScreenConfig(d=62, m=65536, family="G", r=1, seed=0)


def test_screen_experiment_script_runs():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, str(root / "scripts" / "screen_experiment.py"),
                          "--seeds", "2"], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout.splitlines()
    assert [line.split(":")[0] for line in out] == ["clustered (m=4, r=3)",
                                                    "baseline  (m=1, r=12)"]
    assert all("mean accuracy" in line and "over 2 seeds" in line for line in out)


def test_ab_screen_script_compares_two_trees(tmp_path):
    root = Path(__file__).resolve().parents[1]
    script, src = str(root / "scripts" / "ab_screen.py"), str(root / "src")
    out = subprocess.run([sys.executable, script, src, src, "--screens", "3"],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert [line.split(":")[0] for line in out.splitlines()] == ["screen_paper", "screen_mid"]
    assert all("3 screens, identical outputs; change/parent time ratio: sum " in line
               for line in out.splitlines())
    # a tree whose reports differ is refused
    shutil.copytree(root / "src" / "eqdesign", tmp_path / "eqdesign")
    with open(tmp_path / "eqdesign" / "screening.py", "a") as f:
        f.write("\nScreenReport.to_csv = lambda self: 'factor\\n'\n")
    proc = subprocess.run([sys.executable, script, src, str(tmp_path), "--screens", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ("error: screen_paper screen 0 (M(20, 4), seed 0) writes "
                           "different outputs in the two trees\n")


def test_run_screen_refuses_a_delta_below_float_resolution():
    # every base coordinate is 0, 1/3 or 2/3; the last two absorb delta
    with pytest.raises(ValueError, match="does not move base coordinate"):
        run_screen(ScreenConfig(seed=0, delta=1e-300))


def test_report_serialization():
    rep = run_screen(ScreenConfig(seed=11))
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "factor,mu,mu_star,sigma,class"
    assert len(lines) == 21
    scatter = rep.scatter_csv().strip().splitlines()
    assert scatter[0] == "factor,mu_star,sigma"
    assert len(scatter) == 21
    for line, point in zip(lines[1:], scatter[1:]):  # factor, mu_star and sigma
        factor, _, mu_star, sigma, _ = line.split(",")
        assert point == f"{factor},{mu_star},{sigma}"
    meta = json.loads(rep.metadata_json())
    assert meta["n_evals"] == 147
    assert len(meta["replicates"]) == 3
    for r in meta["replicates"]:
        assert len(r["reflection"]) == 20
        assert sorted(r["permutation"]) == list(range(1, 21))


def test_sigma_estimator_flag():
    pooled = run_screen(ScreenConfig(seed=2, sigma_estimator="pooled"))
    between = run_screen(ScreenConfig(seed=2, sigma_estimator="between"))
    assert pooled.stats.mu == between.stats.mu
    assert pooled.stats.sigma != between.stats.sigma


def test_test_function_adds_its_triples_as_a_loop_does():
    f = build_test_function(3)
    rng = np.random.default_rng(3)
    for n in (1, 21, 49, 76, 5000):
        pts = rng.random((n, 20))
        w = screening.w_transform(pts)
        want = f.beta0 + w @ f.beta1
        want += np.einsum("ni,ij,nj->n", w, f.beta2, w)
        for i, j, l in itertools.combinations(range(5), 3):
            want += screening.BETA3 * w[:, i] * w[:, j] * w[:, l]
        want += screening.BETA4 * w[:, 0] * w[:, 1] * w[:, 2] * w[:, 3]
        assert f(pts).tobytes() == want.tobytes()
