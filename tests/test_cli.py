import json
import math
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from eqdesign import cli, screening
from eqdesign.families import generate, predicted_size, q_min
from eqdesign.poly import DesignPoly, dumps_design, loads_design


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_json(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, _ = run_cli(capsys, "generate", "--family", "G", "--d", "3",
                              "--m", "1", "--out", str(out))
    assert code == 0
    assert "size=4" in stdout
    text = out.read_text()
    design, meta = loads_design(text), json.loads(text)
    assert len(design) == 4
    assert meta["family"] == "G" and meta["m"] == 1


def test_generate_m_reports_size(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, stdout, _ = run_cli(capsys, "generate", "--family", "M", "--d", "20",
                              "--m", "4", "--out", str(out))
    assert code == 0
    assert "size=49" in stdout


def test_generate_dot(tmp_path, capsys):
    out = tmp_path / "g.dot"
    code, _, _ = run_cli(capsys, "generate", "--family", "G", "--d", "2",
                         "--m", "2", "--format", "dot", "--out", str(out))
    assert code == 0
    assert out.read_text().count("--") == 4


def test_generate_invalid_range(capsys):
    code, _, stderr = run_cli(capsys, "generate", "--family", "M", "--d", "3",
                              "--m", "4")
    assert code == cli.EXIT_USAGE
    assert "2*q_min" in stderr


def test_verify_generated_round_trip(tmp_path, capsys):
    for family in ("G", "H", "M", "path"):
        for d in range(1, 13):
            for m in {"G": (1, 3), "H": (2, 5), "M": (2, 4), "path": (1,)}[family]:
                if family != "G" and family != "path" and m > 1 << (d - 1):
                    continue
                if family == "path" and m != 1:
                    continue
                if family == "H" and (d < 2 or m > 1 << (d - 1)):
                    continue
                if family == "M" and d < 2 * q_min(m):
                    continue
                if family == "G" and m > 1 << (d - 1):
                    continue
                path = tmp_path / f"{family}{d}m{m}.json"
                code, _, _ = run_cli(capsys, "generate", "--family", family,
                                     "--d", str(d), "--m", str(m), "--out", str(path))
                assert code == 0
                vcode, stdout, _ = run_cli(capsys, "verify", "--in", str(path))
                assert vcode == 0
                assert f"equitable, m={m}" in stdout


def test_verify_negative(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "d": 3, "m": None, "family": None,
        "terms": ["000", "100", "010", "101", "011"],
    }))
    code, stdout, _ = run_cli(capsys, "verify", "--in", str(bad))
    assert code == 1  # the exit code the README documents for a design that is not equitable
    assert "(1, 1, 2)" in stdout


def test_verify_empty_design(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"d": 3, "m": None, "family": None, "terms": []}))
    code, stdout, _ = run_cli(capsys, "verify", "--in", str(empty))
    assert code == 0
    assert stdout == "profile=(0, 0, 0)\nequitable, m=0\n"


def test_verify_parse_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, stderr = run_cli(capsys, "verify", "--in", str(broken))
    assert code == cli.EXIT_IO
    assert "cannot read design" in stderr
    code, _, _ = run_cli(capsys, "verify", "--in", str(tmp_path / "missing.json"))
    assert code == cli.EXIT_IO
    # nested past json's recursion limit, and bytes that are not UTF-8
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "latin1.json").write_bytes(b'{"d": 3, "family": "\xe9"}')
    for name in ("deep.json", "latin1.json"):
        for command in ("verify", "pairs"):
            code, _, stderr = run_cli(capsys, command, "--in", str(tmp_path / name))
            assert code == cli.EXIT_IO and "cannot read design" in stderr


@pytest.mark.parametrize("terms", [["0a0"], ["000", "000", "100"]])
def test_verify_rejects_malformed_terms(tmp_path, capsys, terms):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 3, "m": None, "family": None, "terms": terms}))
    code, _, stderr = run_cli(capsys, "verify", "--in", str(path))
    assert code == cli.EXIT_IO
    assert "cannot read design" in stderr


def test_json_reserialize_byte_identical(tmp_path, capsys):
    path = tmp_path / "h.json"
    run_cli(capsys, "generate", "--family", "H", "--d", "7", "--m", "3",
            "--out", str(path))
    text = path.read_text()
    design, meta = loads_design(text), json.loads(text)
    assert dumps_design(design, family=meta["family"], m=meta["m"]) == text


def test_economy_table(tmp_path, capsys):
    out = tmp_path / "econ.csv"
    code, _, _ = run_cli(capsys, "economy", "--d", "10", "--m-max", "8",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,d,m,size,predicted_size,economy"
    rows = [line.split(",") for line in lines[1:]]
    for family, d, m, size, predicted, _gamma in rows:
        assert size == predicted
        assert len(generate(family, int(d), int(m))) == int(size)
    assert any(r[0] == "M" for r in rows)


def test_economy_of_m_max_1_prints_the_m_1_rows(capsys):
    code, stdout, _ = run_cli(capsys, "economy", "--d", "10", "--m-max", "1")
    assert code == 0
    assert stdout == ("family,d,m,size,predicted_size,economy\n"
                      "G,10,1,11,11,10/11\nM,10,1,11,11,10/11\n")


@pytest.mark.parametrize("argv", [("--d", "0"), ("--d", "63"),
                                  ("--d", "10", "--m-max", "0"),
                                  ("--d", "10", "--m-max", "-3")])
def test_economy_bad_input(capsys, argv):
    code, stdout, stderr = run_cli(capsys, "economy", *argv)
    assert code == cli.EXIT_USAGE
    assert stderr.startswith("error: ")
    assert " must be an int " in stderr
    assert stdout == ""


def test_pairs_csv_command(tmp_path, capsys):
    design_path = tmp_path / "g.json"
    run_cli(capsys, "generate", "--family", "G", "--d", "4", "--m", "2",
            "--out", str(design_path))
    out = tmp_path / "pairs.csv"
    code, _, _ = run_cli(capsys, "pairs", "--in", str(design_path), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 2  # m=2 pairs per direction


def test_screen_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    report = tmp_path / "report.csv"
    meta = tmp_path / "meta.json"
    scatter = tmp_path / "scatter.csv"
    code, stdout, _ = run_cli(capsys, "screen", "--config", str(cfg),
                              "--out", str(report), "--metadata", str(meta),
                              "--scatter", str(scatter))
    assert code == 0
    assert "n_evals=147" in stdout
    assert len(report.read_text().strip().splitlines()) == 21
    assert json.loads(meta.read_text())["n_evals"] == 147
    assert scatter.read_text().startswith("factor,mu_star,sigma")


def test_screen_of_another_dimension_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "d": 30}))
    code, _, stderr = run_cli(capsys, "screen", "--config", str(cfg),
                              "--out", str(tmp_path / "r.csv"))
    assert code == cli.EXIT_USAGE
    assert stderr == "error: the built-in benchmark function has 20 factors, got d=30\n"
    assert not (tmp_path / "r.csv").exists()


def test_screen_path_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "family": "path", "m": 1, "r": 12}))
    code, stdout, _ = run_cli(capsys, "screen", "--config", str(cfg),
                              "--out", str(tmp_path / "r.csv"))
    assert code == 0
    assert "n_evals=252" in stdout


def test_screen_missing_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 4}))
    code, _, stderr = run_cli(capsys, "screen", "--config", str(cfg),
                              "--out", str(tmp_path / "r.csv"))
    assert code == cli.EXIT_USAGE
    assert "seed" in stderr


@pytest.mark.parametrize("fields", [{"r": "3"}, {"d": "20"}, {"levels": 2.5},
                                    {"seed": True}, {"family": "H", "m": 1},
                                    {"tau0": math.nan}, {"tau0": -0.1}, {"tau0": 1.5},
                                    {"rho": math.inf}, {"rho": math.nan}, {"rho": -1},
                                    {"rho": 10 ** 400}, {"levels": 2 ** 63},
                                    {"seed": -5}, {"function_seed": -1}, {"r": 10 ** 8}])
def test_screen_rejects_bad_config(tmp_path, capsys, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, **fields}))
    code, _, stderr = run_cli(capsys, "screen", "--config", str(cfg),
                              "--out", str(tmp_path / "r.csv"))
    assert code == cli.EXIT_USAGE
    assert stderr.startswith("error: invalid screen config")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("text", [b"{not json", b"[" * 100_000,
                                  b'{"seed": 0, "family": "\xe9"}'],
                         ids=["not-json", "deeply-nested", "not-utf-8"])
def test_screen_unreadable_config_exits_3(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    code, _, stderr = run_cli(capsys, "screen", "--config", str(cfg),
                              "--out", str(tmp_path / "r.csv"))
    assert code == cli.EXIT_IO
    assert stderr.startswith(f"error: cannot read config {cfg}")
    assert not (tmp_path / "r.csv").exists()


def test_pairs_of_an_empty_design_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(dumps_design(DesignPoly.of(3, [])))
    code, _, stderr = run_cli(capsys, "pairs", "--in", str(path),
                              "--out", str(tmp_path / "pairs.csv"))
    assert code == cli.EXIT_USAGE and "empty design has no pairs" in stderr
    assert not (tmp_path / "pairs.csv").exists()


def test_oracle_command(capsys):
    code, stdout, _ = run_cli(capsys, "oracle", "--d", "3", "--m", "2")
    assert code == 0
    assert "min_size=6" in stdout
    code, _, stderr = run_cli(capsys, "oracle", "--d", "9", "--m", "2")
    assert code == cli.EXIT_USAGE
    assert "capped" in stderr


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "generate", "--family", "Q", "--d", "3")
    assert code == cli.EXIT_USAGE


def test_economy_refuses_tables_above_the_cap(capsys):
    # without --m-max the table would run to m = 2^39
    code, stdout, stderr = run_cli(capsys, "economy", "--d", "40")
    assert code == 2 and stdout == ""
    assert "--m-max" in stderr and "Traceback" not in stderr


def test_generate_refuses_designs_above_the_cap(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, _, stderr = run_cli(capsys, "generate", "--family", "H", "--d", "62",
                              "--m", "1048576", "--out", str(out))
    assert code == 2 and "above the cap" in stderr
    assert not out.exists()


def test_screen_rejects_non_finite_function(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(screening, "build_test_function",
                        lambda seed: lambda pts: np.full(len(pts), np.nan))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0}))
    out = tmp_path / "report.csv"
    code, _, stderr = run_cli(capsys, "screen", "--config", str(cfg), "--out", str(out))
    assert code == 2 and "func returned nan at vertex" in stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "G", "--d", "3", "--out", "{missing}"),
    ("economy", "--d", "4", "--out", "{missing}"),
    ("pairs", "--in", "{design}", "--out", "{missing}"),
    ("screen", "--config", "{config}", "--out", "{missing}"),
    ("screen", "--config", "{config}", "--out", "{report}", "--metadata", "{missing}"),
    ("screen", "--config", "{config}", "--out", "{report}", "--scatter", "{missing}"),
], ids=["generate", "economy", "pairs", "screen-out", "screen-metadata", "screen-scatter"])
def test_unwritable_output_exits_3(tmp_path, capsys, argv):
    paths = {"missing": tmp_path / "no" / "such" / "dir" / "out.txt",
             "design": tmp_path / "g.json", "config": tmp_path / "cfg.json",
             "report": tmp_path / "r.csv"}
    paths["design"].write_text(dumps_design(generate("G", 3, 1)))
    paths["config"].write_text(json.dumps({"seed": 0}))
    # a screen's outputs are all or nothing: a report from before stays whole
    for report in (None, b"factor,mu\n1,0.5\n"):
        if report is not None:
            paths["report"].write_bytes(report)
        code, _, stderr = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == cli.EXIT_IO
        assert stderr.startswith(f"error: cannot write {paths['missing']}: ")
        assert not (tmp_path / "no").exists()
        if report is None:
            assert not paths["report"].exists()
        else:
            assert paths["report"].read_bytes() == report
        assert not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "G", "--d", "3", "--out", ""),
    ("economy", "--d", "4", "--out", ""),
    ("pairs", "--in", "g.json", "--out", ""),
    ("screen", "--config", "cfg.json", "--out", ""),
    ("screen", "--config", "cfg.json", "--out", "r.csv", "--metadata", ""),
    ("screen", "--config", "cfg.json", "--out", "r.csv", "--scatter", ""),
], ids=["generate", "economy", "pairs", "screen-out", "screen-metadata", "screen-scatter"])
def test_an_empty_output_path_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(dumps_design(generate("G", 3, 1)))
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": 0}))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert stderr == "error: empty output path\n" and stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "g.json"]


@pytest.mark.parametrize("argv", [
    ("generate", "--family", "G", "--d", "3", "--out", "adir"),
    ("screen", "--config", "cfg.json", "--out", "r.csv", "--metadata", "adir"),
    ("screen", "--config", "cfg.json", "--out", "adir", "--metadata", "r.csv"),
], ids=["generate", "screen-metadata", "screen-out"])
def test_an_output_path_that_is_a_directory_exits_3_and_writes_nothing(
        tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": 0}))
    (tmp_path / "r.csv").write_text("old\n")
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == cli.EXIT_IO
    assert stderr == "error: cannot write adir: [Errno 21] Is a directory: 'adir'\n"
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "cfg.json", "r.csv"]
    assert not list((tmp_path / "adir").iterdir())
    assert (tmp_path / "r.csv").read_text() == "old\n"


def test_failed_write_leaves_the_target_whole(tmp_path):
    target = tmp_path / "report.csv"
    target.write_bytes(b"factor,mu\n1,0.5\n")
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate cannot be encoded
        cli.write_atomic(str(target), "factor,mu\n" * 1000 + "\udc80")
    assert target.read_bytes() == b"factor,mu\n1,0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]  # no .tmp-* left
    cli.write_atomic(str(target), "new\n")
    assert target.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_screen_refuses_a_delta_that_moves_no_coordinate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "delta": 1e-300}))
    out = tmp_path / "r.csv"
    code, _, stderr = run_cli(capsys, "screen", "--config", str(cfg), "--out", str(out))
    assert code == cli.EXIT_USAGE and "does not move base coordinate" in stderr
    assert not out.exists()


def test_screen_refuses_a_screen_above_the_memory_budget(tmp_path, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("the screen built a design")

    monkeypatch.setattr(screening, "generate", no_build)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "d": 62, "m": 65536, "family": "G"}))
    code, _, stderr = run_cli(capsys, "screen", "--config", str(cfg),
                              "--out", str(tmp_path / "r.csv"))
    assert code == cli.EXIT_USAGE
    assert stderr.startswith("error: invalid screen config") and "above the budget" in stderr


def test_write_atomic_into_a_missing_directory_raises_a_file_fault(tmp_path):
    missing = tmp_path / "no" / "out.txt"
    with pytest.raises(cli.FileFault, match=f"^cannot write {re.escape(str(missing))}: "):
        cli.write_atomic(str(missing), "text\n")
    assert not (tmp_path / "no").exists()


def test_generate_without_out_prints_the_design_then_its_size(capsys):
    code, stdout, stderr = run_cli(capsys, "generate", "--family", "H", "--d", "5", "--m", "3")
    design = generate("H", 5, 3)
    assert code == 0 and stderr == ""
    assert stdout == (dumps_design(design, family="H", m=3)
                      + f"size={len(design)} predicted_size={predicted_size('H', 5, 3)} "
                      + f"economy={design.economy(3)}\n")


def test_output_through_a_symlink_replaces_its_target(tmp_path, capsys):
    target, link = tmp_path / "sub" / "g.json", tmp_path / "link.json"
    target.parent.mkdir()
    target.write_text("old\n")
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "generate", "--family", "G", "--d", "3", "--out", str(link))
    assert code == 0 and link.is_symlink()
    assert target.read_text() == dumps_design(generate("G", 3, 1), family="G", m=1)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["g.json", "link.json", "sub"]


def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    text = dumps_design(generate("G", 3, 1), family="G", m=1)
    assert len(text) < 1 << 16  # fits the pipe buffer: a write never waits for the reader
    # open the read end first, without blocking, so a writer can open it
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = run_cli(capsys, "generate", "--family", "G", "--d", "3", "--out", str(fifo))
        assert code == 0 and stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 1 << 16) == text.encode()
    finally:
        os.close(reader)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


def test_outputs_get_the_mode_open_gives_them(tmp_path, capsys):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("old\n")
    old.chmod(0o604)
    mask = os.umask(0o027)
    try:
        for path in (new, old):
            code, _, _ = run_cli(capsys, "generate", "--family", "G", "--d", "3",
                                 "--out", str(path))
            assert code == 0
    finally:
        os.umask(mask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert old.read_text() == new.read_text()


def test_inputs_longer_than_the_bound_exit_3(tmp_path, capsys, monkeypatch):
    design = tmp_path / "g.json"
    design.write_text(dumps_design(generate("G", 3, 1)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 0}))
    out = tmp_path / "r.csv"
    for argv, path, what in ((("verify", "--in"), design, "design from"),
                             (("screen", "--out", str(out), "--config"), config, "config")):
        monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(path.read_text()))
        assert run_cli(capsys, *argv, str(path))[0] == 0  # exactly at the bound
        monkeypatch.setattr(cli, "MAX_INPUT_CHARS", cli.MAX_INPUT_CHARS - 1)
        for source in (path, "/dev/zero"):
            code, _, stderr = run_cli(capsys, *argv, str(source))
            assert code == cli.EXIT_IO
            assert stderr == (f"error: cannot read {what} {source}: "
                              f"longer than {cli.MAX_INPUT_CHARS} characters\n")


def test_an_endless_input_is_refused_in_bounded_memory(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_INPUT_CHARS", 8 * cli.READ_CHUNK_CHARS)
    tracemalloc.start()
    try:
        code, _, stderr = run_cli(capsys, "verify", "--in", "/dev/zero")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_IO
    assert stderr == (f"error: cannot read design from /dev/zero: "
                      f"longer than {cli.MAX_INPUT_CHARS} characters\n")
    assert peak < 1.5 * cli.MAX_INPUT_CHARS


def test_outputs_are_encoded_one_chunk_at_a_time(tmp_path):
    text = "0,1\n" * (2 * cli.WRITE_CHUNK_CHARS)
    out = tmp_path / "big.csv"
    # a list is written piece by piece, in order, each piece a chunk at a time
    for written in (text, ["head\n", text, "", "1,0\n" * 3]):
        tracemalloc.start()
        try:
            cli.write_atomic(str(out), written)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_text() == "".join(written)
        assert peak < 3 * cli.WRITE_CHUNK_CHARS


@pytest.mark.parametrize("argv", [
    ("--metadata", "{report}", "--scatter", "{scatter}"),
    ("--metadata", "{meta}", "--scatter", "{link}"),
], ids=["metadata-is-out", "scatter-links-to-out"])
@pytest.mark.parametrize("report", [None, b"factor,mu\n1,0.5\n"], ids=["new", "old"])
def test_two_outputs_naming_one_file_exit_2_and_write_nothing(tmp_path, capsys, argv, report):
    paths = {"config": tmp_path / "cfg.json", "report": tmp_path / "r.csv",
             "link": tmp_path / "link.csv", "meta": tmp_path / "meta.json",
             "scatter": tmp_path / "scatter.csv"}
    paths["config"].write_text(json.dumps({"seed": 0}))
    paths["link"].symlink_to(paths["report"])
    if report is not None:
        paths["report"].write_bytes(report)
    before = sorted(p.name for p in tmp_path.iterdir())
    code, stdout, stderr = run_cli(capsys, "screen", "--config", str(paths["config"]),
                                   "--out", str(paths["report"]),
                                   *(arg.format(**paths) for arg in argv))
    assert code == cli.EXIT_USAGE and stdout == ""
    assert stderr.startswith("error: ") and "name the same file" in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no .tmp-*, no new output
    if report is None:
        assert not paths["report"].exists()
    else:
        assert paths["report"].read_bytes() == report


def test_in_place_outputs_may_repeat(capsys):
    cli.write_all([(None, "a\n"), (None, ["b\n", "c\n"])])
    assert capsys.readouterr().out == "a\nb\nc\n"


def test_pairs_holds_one_copy_of_its_csv(tmp_path):
    design_path, out = tmp_path / "h.json", tmp_path / "pairs.csv"
    design_path.write_text(dumps_design(generate("H", 62, 928), family="H", m=928))
    tracemalloc.start()
    try:
        assert cli.main(["pairs", "--in", str(design_path), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert out.read_bytes().count(b"\n") == 1 + 62 * 928
    # the CSV once, the design file's text and parse, and the vertices' words;
    # joining the pieces, or keeping the parsed JSON, puts it above 3x
    assert peak < 2.5 * size
