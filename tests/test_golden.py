"""Recorded outputs of the seeded pipeline and of `suppress`.

`data/golden.json` holds what these calls returned when it was written.
Categories, boxes, RLE counts and kept indices must match exactly; scores
may move by a relative 1e-12, the last bits that a change of summation
order can move.
"""

import json
from pathlib import Path

import pytest

from maskops import (
    DecayFn,
    SceneSpec,
    SuppressionConfig,
    gen_scene,
    inference_pipeline,
    suppress,
)
from maskops.bench import seeded_pipeline_inputs
from maskops.formats import instances_to_dict

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())
SCORE_RTOL = 1e-12


@pytest.mark.parametrize("seed", [0, 11, 808])
def test_seeded_pipeline_matches_golden(seed):
    want = GOLDEN["pipeline"][str(seed)]
    got = instances_to_dict(inference_pipeline(*seeded_pipeline_inputs(seed)))
    got = got["instances"]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in ("category", "box", "counts"):
            assert g[key] == w[key]
        assert g["score"] == pytest.approx(w["score"], rel=SCORE_RTOL, abs=0.0)


@pytest.fixture(scope="module")
def scene():
    return gen_scene(SceneSpec(num_instances=30, seed=5))


@pytest.mark.parametrize("kind", ["linear", "gauss"])
@pytest.mark.parametrize("method", ["hard", "soft", "fast", "matrix"])
def test_suppress_matches_golden(scene, method, kind):
    want = GOLDEN["suppress"][f"{method}/{kind}"]
    got = suppress(scene, SuppressionConfig(method=method, decay=DecayFn(kind)))
    assert list(got.kept_indices) == want["kept"]
    assert list(got.updated_scores) == pytest.approx(
        want["scores"], rel=SCORE_RTOL, abs=0.0
    )
