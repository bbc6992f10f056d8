"""Byte-identity gate: SHA-256 digests of screening reports, of the pairs,
JSON and `verify` outputs of two d=62 designs, of the pairs and JSON outputs
of two d=62 G designs (one odd m, one even), of the DOT form of three
designs, and of a mid-scale `economy` table.

The screening, pairs and JSON digests were recorded before the vertex-array
refactor of `poly` and `effects`; the economy, verify and DOT digests before
designs were built on arrays; the between-estimator and m=200 screens before
replicates inherited their base design's edges; the G design digests before
G and H recursed through one split for odd and even m; the G and M DOT
digests before to_dot read the design's graded-lex pairs.  Any change to a
float, a row order or a formatting detail fails here.  Re-record (only for an
intended change of output) with

    PYTHONPATH=src python3 tests/test_digests.py
"""
import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from eqdesign import cli
from eqdesign.effects import order_vertices, pairs_csv
from eqdesign.families import gen_G, gen_H, gen_M
from eqdesign.poly import dumps_design, to_dot
from eqdesign.screening import ScreenConfig, run_screen

PAPER_CONFIGS = (("M", 4, 3), ("H", 4, 3), ("G", 4, 3), ("path", 1, 12))
MID_CONFIGS = (("M", 32, 3), ("H", 32, 3), ("G", 64, 2))
# the between-replicate estimator, at paper and mid scale, and one screen of
# the benchmark's screen_mid size: (name, d, family, m, r, estimator)
EXTRA_CONFIGS = (("screen-M-20-4-r3-between", 20, "M", 4, 3, "between"),
                 ("screen-H-30-32-r3-between", 30, "H", 32, 3, "between"),
                 ("screen-G-30-200-r4", 30, "G", 200, 4, "pooled"))
# G(62, m) designs for an even and an odd m (|S| 5,628 and 41,428)
G_MULTIPLICITIES = (100, 777)


def mid_function(x):
    """Fixed 30-factor function: slopes, squares and one interaction chain."""
    w = 2.0 * x - 1.0
    slope = np.linspace(-3.0, 5.0, 30)
    return w @ slope + 4.0 * w[:, 0] * w[:, 1] + 2.5 * w[:, 2] ** 2 - w[:, 3] * w[:, 4] * w[:, 5]


def screen_cases():
    for family, m, r in PAPER_CONFIGS:
        for seed in range(3):
            yield f"screen-{family}-20-{m}-r{r}-s{seed}", ScreenConfig(
                d=20, m=m, r=r, family=family, seed=seed), None
    for family, m, r in MID_CONFIGS:
        yield f"screen-{family}-30-{m}-r{r}", ScreenConfig(
            d=30, m=m, r=r, family=family, seed=11), mid_function
    for name, d, family, m, r, estimator in EXTRA_CONFIGS:
        yield name, ScreenConfig(d=d, m=m, r=r, family=family, seed=11,
                                 sigma_estimator=estimator), (
            None if d == 20 else mid_function)


def cli_stdout(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def digests():
    out = {}
    for name, cfg, func in screen_cases():
        report = run_screen(cfg, func)
        out[name] = report.to_csv() + report.metadata_json()
    with tempfile.TemporaryDirectory() as tmp:
        for family, design in (("H", gen_H(62, 100)), ("M", gen_M(62, 64))):
            out[f"pairs-{family}-62"] = "".join(pairs_csv(order_vertices(design)))
            out[f"json-{family}-62"] = dumps_design(design, family=family)
            path = Path(tmp) / f"{family}.json"
            path.write_text(out[f"json-{family}-62"])
            out[f"verify-{family}-62"] = cli_stdout(["verify", "--in", str(path)])
    for m in G_MULTIPLICITIES:
        design = gen_G(62, m)
        out[f"pairs-G-62-{m}"] = "".join(pairs_csv(order_vertices(design)))
        out[f"json-G-62-{m}"] = dumps_design(design, family="G")
    out["dot-H-62"] = to_dot(gen_H(62, 100))
    out["dot-G-62-777"] = to_dot(gen_G(62, 777))
    out["dot-M-62-672"] = to_dot(gen_M(62, 672))
    out["economy-30-40"] = cli_stdout(["economy", "--d", "30", "--m-max", "40"])
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in out.items()}


EXPECTED = {
    'screen-M-20-4-r3-s0': '7ef9454353a00a85aba19852f86cf97a7f9e22c333b52d34a429d72830a50637',
    'screen-M-20-4-r3-s1': 'ab2a3f0e913f7c4ad4c2d138fb8d66d9424e13ea4ab3d3450e4518cce2d4e3b9',
    'screen-M-20-4-r3-s2': 'aebaf5e8bc835635c2c557d55af65b0c914e54e4b51c6307fb6b43f87b9e0843',
    'screen-H-20-4-r3-s0': '54e9a1b3329c68ef6ec054d766df5c4c92c50310ff75838959dad5391a98c353',
    'screen-H-20-4-r3-s1': 'f805b12eac8c7f59836812a79a3ba73bfa1ba9eb44c514fc048b4836451fcd94',
    'screen-H-20-4-r3-s2': '11de514a845aa9935119475cecd13a5f2676b25da393cb108ca0abe7756c999b',
    'screen-G-20-4-r3-s0': '427d390c42b9937545864e73f9b9a33db5f79f9728d4843715edf8737ef37e50',
    'screen-G-20-4-r3-s1': 'b4b64481b8b60d7f43933e6996f67bf0cb9a24e3cfafe959b30686796eb4493b',
    'screen-G-20-4-r3-s2': 'a6f02f102e35af35b756fb3d5b648378554dd7b6fd87f8c9f97bf140d6fcc05d',
    'screen-path-20-1-r12-s0': 'c5d8d46717bafb0d963136fcd3723153d53719d41603841f956c6cebdacaf554',
    'screen-path-20-1-r12-s1': '8b3175b488f336972c9eec1bb34955e6a97e567459e1df24ad9932324df2195b',
    'screen-path-20-1-r12-s2': '582223560d991892c94ee7272867258c94f5be3b4be0a15796db9af01e4908ca',
    'screen-M-30-32-r3': '9e4d9470053b7b3ade0fda13dbd0c114117b10b327665889ed7cb588ab5e2fba',
    'screen-H-30-32-r3': '4d4f6091a35bf7f6e655fc6e9b58e279f91270db4a37be4503f1c4f73be2f192',
    'screen-G-30-64-r2': '18131a39c654cb6d162d5204584d11b70d41a2f161438e92b34bc2aee17d3913',
    'screen-M-20-4-r3-between': '858dc2208c6c9a0a1973bf048233e81fcfbbbd58f0e6f3abec30fb8ebcfffe13',
    'screen-H-30-32-r3-between': '59d8d94eda97ae558075f5ee0cd5e4b6109dc7e6fe2ec1ec1488f323da2228bf',
    'screen-G-30-200-r4': '09c8a3b10769da7baf61cedc91eeb5041c3f5111924a8b94de20aba37dfba1de',
    'pairs-H-62': '7e40f9ed70946889e27523f2575b641c50c7cc6d63c0e43676878e07d4589383',
    'json-H-62': 'cafc1f3da5b7b0714e29b15b3838b927e8ac2e9aabf12590b19f3f4ea6522e95',
    'pairs-M-62': 'ec5b713e9a472c84c206868250ac4a99e445454c54291fcfadfa0639e7bdcb7e',
    'json-M-62': '3aabb33a946a0ca3d205fa6d7b1cc82ac8ef57ce01d5713b8c1bda391863ae0c',
    'verify-H-62': '031442c48a413844dd609f91b2bdc1738308c9e7b1bcab3eeacfe1884c9a5bab',
    'verify-M-62': '2663e7d291148a533e7f6d549caf9149e1c53d026d05f11a4d76e7e4f6e44070',
    'pairs-G-62-100': 'ca5ef3045ebcb2f33357d0775a50d1ef6af2c55bc4fe48c4a5bcb0a2c734ca2d',
    'json-G-62-100': '3421119aeeb0bde79dfee0d1a26233ac337ef0c1089e52b79c53d35b8d9ded30',
    'pairs-G-62-777': 'f7302e102cc7df9aee8696dd8469d4962864d38262e02975fe2a88a5ba5f72f7',
    'json-G-62-777': '7e6e5b7ec021362a1e39719e06d2338e8fdd1ef06d05935329e683e6f404f7d0',
    'dot-H-62': '35d6066aad51ea2e7f2d8e2c8626470128ed2d2b9ac71c432655ed30a5b43952',
    'dot-G-62-777': 'fbdd10b9484dacb26d9cdacbab3eb70c9b352e828a23fd9ea81903df78aea3c7',
    'dot-M-62-672': 'a607eb9f2f18ae04aa07987fff5dbec166019ba915518c6f1419bb01deb7526e',
    'economy-30-40': '1dd9ae59c2cb323507a70954bc7908cb3575eba1b6de8f6c65459d7673fb1a29',
}


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_digest(current, name):
    assert current[name] == EXPECTED[name]


def test_digest_set_complete(current):
    assert set(current) == set(EXPECTED)


if __name__ == "__main__":
    for key, value in digests().items():
        print(f"    {key!r}: {value!r},")
