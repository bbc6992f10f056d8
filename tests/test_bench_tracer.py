"""The benchmark's span tracer patches eqdesign attributes by name; a rename
must fail here, in the test suite, and not only when the benchmark runs."""
import sys
from pathlib import Path

from eqdesign import families, poly, screening

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import Tracer, summarize  # noqa: E402


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
    assert summary["effects.build_incidence"]["calls"] == 3 * 20
    assert poly.DesignPoly.mirror is mirror
    assert screening.generate is generate is families.generate
