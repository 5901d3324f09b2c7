"""End-to-end CLI tests driving maskbench through main(argv)."""

import json

import pytest

from maskops.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_scene_file(tmp_path, capsys, name="scene.json", extra=()):
    path = tmp_path / name
    argv = ["gen", "--instances", "3", "--duplicates", "1", "--seed", "7",
            "--out", str(path), *extra]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    return path


def test_gen_deterministic(tmp_path, capsys):
    a = gen_scene_file(tmp_path, capsys, "a.json")
    b = gen_scene_file(tmp_path, capsys, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_gen_stdout_is_valid_mask_set(capsys):
    code, out, _ = run_cli(["gen", "--instances", "2", "--duplicates", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["height"] == 128 and doc["width"] == 128
    assert len(doc["instances"]) == 2


def test_gen_empty_scene(capsys):
    code, out, _ = run_cli(
        ["gen", "--instances", "0", "--height", "16", "--width", "16"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"height": 16, "width": 16, "instances": []}


def test_suppress_single_instance_keeps_it(tmp_path, capsys):
    path = tmp_path / "one.json"
    code, _, _ = run_cli(
        ["gen", "--instances", "1", "--duplicates", "0", "--out", str(path)], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["suppress", str(path), "--method", "hard"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["kept"]) == 1
    original = json.loads(path.read_text())["instances"][0]["score"]
    assert doc["kept"][0]["score"] == original


def test_suppress_matrix_reduces_duplicates(tmp_path, capsys):
    path = gen_scene_file(tmp_path, capsys)
    code, out, _ = run_cli(
        ["suppress", str(path), "--method", "matrix", "--score-threshold", "0.3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert 1 <= len(doc["kept"]) < 6  # 3 instances x (1 + 1 duplicate)
    for row in doc["kept"]:
        assert set(row) == {"index", "score", "category", "box"}


def test_suppress_table_format(tmp_path, capsys):
    path = gen_scene_file(tmp_path, capsys)
    code, out, _ = run_cli(["suppress", str(path), "--format", "table"], capsys)
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header.split()[:3] == ["index", "score", "category"]
    assert rows  # at least one kept mask


def test_bench_json(tmp_path, capsys):
    path = gen_scene_file(tmp_path, capsys)
    code, out, _ = run_cli(
        ["bench", "--scene", str(path), "--repeats", "3"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    methods = [r["method"] for r in doc["reports"]]
    assert methods == ["hard", "soft", "fast", "matrix"]
    for r in doc["reports"]:
        assert r["n"] == 6
        assert r["suppression_ms"] > 0.0


def test_bench_single_method_table(capsys):
    argv = ["bench", "--instances", "4", "--duplicates", "1", "--method", "matrix",
            "--repeats", "3", "--format", "table"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[0] == "method"
    assert len(lines) == 2 and lines[1].split()[0] == "matrix"


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify", "--seed", "1"], capsys)
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_missing_input_exits_2(capsys):
    code, _, err = run_cli(["suppress", "/nonexistent/scene.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"height": 4, "width": 4}')
    code, _, err = run_cli(["suppress", str(bad)], capsys)
    assert code == 2
    assert "malformed" in err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("[[[")
    code, _, _ = run_cli(["suppress", str(notjson)], capsys)
    assert code == 2


def test_oversized_mask_set_exits_2(tmp_path, capsys):
    # A count past int64 once escaped as an OverflowError traceback.
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({
        "height": 10**10, "width": 10**10,
        "instances": [{"counts": [10**20], "score": 0.5}],
    }))
    code, _, err = run_cli(["suppress", str(huge)], capsys)
    assert code == 2
    assert "malformed mask set" in err


def test_bad_flag_value_exits_2(tmp_path, capsys):
    path = gen_scene_file(tmp_path, capsys)
    code, _, err = run_cli(["suppress", str(path), "--sigma", "-1"], capsys)
    assert code == 2
    assert "error:" in err


def test_nan_score_noise_exits_2(capsys):
    code, _, err = run_cli(["gen", "--instances", "3", "--score-noise", "nan"], capsys)
    assert code == 2
    assert "score_noise" in err


@pytest.mark.parametrize("flag", ["--sigma", "--score-threshold"])
def test_nan_flag_value_exits_2(tmp_path, capsys, flag):
    # NaN fails every comparison, so it must fail the range checks too.
    path = gen_scene_file(tmp_path, capsys)
    code, _, err = run_cli(["suppress", str(path), flag, "nan"], capsys)
    assert code == 2
    assert "error:" in err
