"""The benchmark's span tracer patches eqdesign attributes by name; a rename
must fail here, in the test suite, and not only when the benchmark runs."""
import sys
from pathlib import Path

from eqdesign import cli, families, poly, screening

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import _PATCHES, Tracer, summarize  # noqa: E402


def test_tracer_round_trip_on_paper_scale_screen():
    mirror, generate = poly.DesignPoly.mirror, screening.generate
    tracer = Tracer()
    tracer.install()
    try:
        report = screening.run_screen(screening.ScreenConfig(seed=0))
    finally:
        tracer.uninstall()
    assert report.n_evals == 147
    summary = summarize(tracer.spans)
    assert summary["families.generate"]["calls"] == 1
    assert summary["screening.evaluate"]["evals"] == 147
    # one incidence of all 20 directions a replicate
    assert summary["effects.build_incidence"]["calls"] == 3
    assert poly.DesignPoly.mirror is mirror
    assert screening.generate is generate is families.generate


def test_tracer_records_the_cli_design_path(tmp_path, capsys):
    design, pairs = str(tmp_path / "h.json"), str(tmp_path / "pairs.csv")
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["generate", "--family", "H", "--d", "8", "--m", "6",
                         "--out", design]) == 0
        assert cli.main(["verify", "--in", design]) == 0
        assert cli.main(["pairs", "--in", design, "--out", pairs]) == 0
    finally:
        tracer.uninstall()
    assert "equitable, m=6" in capsys.readouterr().out
    summary = summarize(tracer.spans)
    assert summary["poly.dumps_design"]["calls"] == 1
    assert summary["poly.loads_design"]["calls"] == 2
    assert summary["poly.edge_profile"]["calls"] == 1
    assert summary["effects.pairs_csv"]["calls"] == 1
    assert summary["effects.build_incidence"]["calls"] == 8
    assert summary["cli.write_atomic"]["calls"] == 2
    for name in ("mirror", "permute", "edge_profile"):
        assert name in poly.DesignPoly.__dict__


def test_every_patched_attribute_is_bound_on_its_owner():
    # Tracer.install reads each one from the owner's own __dict__
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in _PATCHES if attr not in owner.__dict__]
    assert missing == []
