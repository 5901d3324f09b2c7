"""End-to-end CLI tests driving maskbench through main(argv)."""

import json

import pytest

from maskops import bench, masks
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


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_suppress_keeps_an_empty_mask_without_a_box(tmp_path, capsys, fmt):
    # An all-background instance is a valid mask; it once made `suppress`
    # exit 2 with "empty mask has no bounding box".
    path = tmp_path / "empty.json"
    doc = {"height": 4, "width": 4, "instances": [
        {"counts": [16], "score": 0.9, "category": 0},
        {"counts": [5, 2, 9], "score": 0.8, "category": 0},
    ]}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["suppress", str(path), "--format", fmt], capsys)
    assert code == 0, err
    if fmt == "json":
        kept = json.loads(out)["kept"]
        assert [(row["index"], row["box"]) for row in kept] == [(0, None), (1, [1, 1, 2, 1])]
    else:
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert [(row[0], row[-1]) for row in rows] == [("0", "-"), ("1", "1,1,2,1")]


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


def test_verify_reports_a_check_that_raises_and_runs_the_rest(capsys, monkeypatch):
    # Such a check once ended verify with only "error: ..." and exit 2.
    def broken(rng):
        raise ValueError("diagonal and lower triangle must be zero")

    monkeypatch.setitem(bench.CHECKS, "pairwise-iou", broken)
    code, out, err = run_cli(["verify", "--seed", "1"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == len(bench.CHECKS)
    assert "[FAIL] pairwise-iou: raised ValueError: diagonal and lower triangle must be zero" in lines
    assert sum(line.startswith("[PASS] ") for line in lines) == len(bench.CHECKS) - 1
    assert err == f"1 of {len(bench.CHECKS)} checks failed\n"


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


@pytest.mark.parametrize("command", [["suppress"], ["bench", "--scene"]])
def test_deeply_nested_input_exits_2(tmp_path, capsys, command):
    # 3000 nested arrays once escaped json.load as a RecursionError.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 3000)
    code, out, err = run_cli([*command, str(deep)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed mask set: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("dims", [(0, 4), (4, -5), (0, -5), (0, 0)])
def test_empty_mask_set_with_bad_dims_exits_2(tmp_path, capsys, dims):
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"height": dims[0], "width": dims[1], "instances": []}))
    code, out, err = run_cli(["suppress", str(bad)], capsys)
    assert code == 2
    assert out == ""
    # Height is checked first, so a bad height is the one named.
    name, value = ("height", dims[0]) if dims[0] < 1 else ("width", dims[1])
    assert f"malformed mask set: the document: {name} must be an int >= 1, got {value}\n" in err


@pytest.mark.parametrize("instances", [{}, "", {"a": 1}])
def test_non_list_instances_exits_2(tmp_path, capsys, instances):
    # {} and "" were once read as an empty set and kept nothing with exit 0.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"height": 4, "width": 4, "instances": instances}))
    code, out, err = run_cli(["suppress", str(bad)], capsys)
    assert code == 2
    assert out == ""
    kind = type(instances).__name__
    assert f"malformed mask set: the document: instances must be a list, got {kind}\n" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"height": 4, "width": 4, "instances": ["abc"]}, "instance 0: must be an object, got str"),
        ({"height": 4, "width": 4, "instances": [None]}, "instance 0: must be an object, got NoneType"),
        ({"height": 4, "width": 4, "instances": [{"counts": [16], "score": 0.5}, 7]},
         "instance 1: must be an object, got int"),
        ([1, 2], "the document: must be an object, got list"),
    ],
    # Each id is the message without the colon after its location.
    ids=lambda v: v.replace(":", "") if isinstance(v, str) else None,
)
def test_non_object_mask_set_exits_2(tmp_path, capsys, doc, message):
    # Each once exited 2 with Python's indexing message, such as "string
    # indices must be integers, not 'str'".
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["suppress", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: malformed mask set: {message}\n"


@pytest.mark.parametrize(
    "content, what",
    [
        (b'{"height": 4, "width": 4, "instances": [}', "Expecting value: line 1 column 41"),
        (b'{"height": 4, "width": 4, "instances": []}\xff', "'utf-8' codec can't decode byte 0xff"),
        (b'{"height": 2, "width": 4, "instances": [], "height": 3}', 'repeated key "height"'),
    ],
    ids=["syntax", "not-utf-8", "repeated-key"],
)
def test_unreadable_mask_set_file_exits_2(tmp_path, capsys, content, what):
    # The first two once printed the bare JSON or codec error; the repeated
    # key was read last-wins, with exit 0.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(["suppress", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed mask set: the file: ")
    assert what in err


def test_missing_field_names_its_instance_and_no_category_is_0(tmp_path, capsys):
    instances = [{"counts": [16], "score": 0.9}, {"counts": [16], "score": 0.8}]
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"height": 4, "width": 4, "instances": instances}))
    code, out, _ = run_cli(["suppress", str(ok)], capsys)
    assert code == 0
    assert [k["category"] for k in json.loads(out)["kept"]] == [0, 0]
    del instances[1]["score"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"height": 4, "width": 4, "instances": instances}))
    code, out, err = run_cli(["suppress", str(bad)], capsys)
    assert code == 2
    assert err == "error: malformed mask set: instance 1: score is missing\n"


def test_a_long_score_list_exits_2_with_a_short_message(tmp_path, capsys):
    # The whole list was once printed: about 1 MB of stderr.
    doc = {"height": 4, "width": 4, "instances": [{"counts": [16], "score": [0.5] * 200000}]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["suppress", str(path)], capsys)
    assert code == 2
    assert len(err.encode()) < 300
    assert err.startswith("error: malformed mask set: instance 0: score must be a real number")


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


@pytest.mark.parametrize("side", [100000, 10**10, 2**40])
def test_oversized_empty_mask_set_exits_2(tmp_path, capsys, side):
    # An empty set is sized as one mask. 100000 x 100000 once exited 0 and
    # kept nothing; the larger sides exited 2 with NumPy's messages.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"height": side, "width": side, "instances": []}))
    code, out, err = run_cli(["suppress", str(empty)], capsys)
    assert code == 2
    assert out == ""
    row = -(-side // 64) * 64
    assert err == (
        f"error: malformed mask set: the document: 0 masks of {side}x{side} (rows padded to "
        f"{row} pixels) exceed {masks.MAX_MASK_SET_PIXELS} pixels\n"
    )


def test_one_pixel_wide_mask_set_is_capped_by_padded_rows(tmp_path, capsys, monkeypatch):
    # 2**27 pixels, but each of its 2**27 one-pixel rows is a whole word:
    # 2**33 padded pixels (1 GiB of words), so it fails before any decode.
    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps({
        "height": 1 << 27, "width": 1,
        "instances": [{"counts": [1 << 27], "score": 0.5}],
    }))
    monkeypatch.setattr(masks, "_checked_counts", lambda *a: pytest.fail("decoded"))
    code, out, err = run_cli(["suppress", str(narrow)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed mask set: the document: 1 masks of 134217728x1")
    assert "exceed" in err


def test_bad_flag_value_exits_2(tmp_path, capsys):
    # A subnormal sigma once overflowed matrix_nms's division by it.
    path = gen_scene_file(tmp_path, capsys)
    for sigma in ("-1", "1e-320"):
        code, _, err = run_cli(["suppress", str(path), "--sigma", sigma], capsys)
        assert code == 2
        assert "error:" in err


def test_bench_small_sigma_exits_0(capsys):
    # The decay oracle once overflowed math.exp at a sigma this small.
    argv = ["bench", "--sigma", "0.001", "--instances", "20", "--repeats", "3"]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_nonfinite_score_noise_exits_2(capsys, noise):
    code, _, err = run_cli(["gen", "--instances", "3", "--score-noise", noise], capsys)
    assert code == 2
    assert "score_noise" in err


def test_oversized_scene_exits_2(capsys):
    # Without the cap this one ellipse asked NumPy for 74.5 GiB and died
    # with a traceback.
    argv = ["gen", "--height", "100000", "--width", "100000", "--instances", "1",
            "--duplicates", "0", "--shape", "ellipse"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exceed" in err
    # An empty scene is sized as one mask, as an empty mask-set file is.
    code, out, err = run_cli([*argv[:6], "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: 0 masks of 100000x100000") and "exceed" in err


@pytest.mark.parametrize("command", [["gen", "--instances", "1"], ["verify"]])
def test_negative_seed_exits_2(capsys, command):
    code, out, err = run_cli([*command, "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be an int >= 0, got -1\n"


@pytest.mark.parametrize(
    "flag, value",
    [
        pytest.param(f, v, id=f if v == "nan" else f"{f}-{v}")
        for v in ("nan", "inf")
        for f in ("--sigma", "--score-threshold")
    ],
)
def test_nan_flag_value_exits_2(tmp_path, capsys, flag, value):
    # NaN fails every comparison, and inf passes a one-sided range check
    # (a threshold of inf once kept nothing), so both must be rejected.
    path = gen_scene_file(tmp_path, capsys)
    code, _, err = run_cli(["suppress", str(path), flag, value], capsys)
    assert code == 2
    assert "error:" in err
