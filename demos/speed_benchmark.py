"""Why matrix NMS exists: timing all four methods on a 500-mask scene.
Run with: python3 demos/speed_benchmark.py"""

from maskops import SceneSpec, gen_scene, run_bench

# A synthetic crowd: 125 objects, each with 3 jittered duplicate detections,
# is the classic NMS workload — lots of near-identical overlapping masks.
spec = SceneSpec(num_instances=125, num_duplicates_per_instance=3, seed=55)
scene = gen_scene(spec)
print(f"scene: {len(scene)} masks on a {spec.height}x{spec.width} canvas")

# run_bench sorts by score, builds the pairwise IoU matrix once (its build
# time is reported separately), cross-checks matrix, hard and fast NMS
# against slow oracle implementations, then reports the median
# suppression-step time. Soft NMS is itself the sequential reference; it is
# checked against matrix NMS on 1-2 masks by `maskbench verify`.
reports = run_bench(scene, repeats=20)

print(f"\n{'method':>8} {'median ms':>10} {'kept':>6}   notes")
notes = {
    "hard": "sequential keep/drop walk",
    "soft": "sequential, rescores every survivor each pass",
    "fast": "one matrix reduction, over-suppresses",
    "matrix": "one-shot decay, no data-dependent loop",
}
for r in reports:
    print(f"{r.method:>8} {r.suppression_ms:>10.3f} {r.kept:>6}   {notes[r.method]}")

mat = next(r for r in reports if r.method == "matrix")
print(f"\nIoU matrix build: {mat.iou_matrix_ms:.3f} ms (shared by all methods)")
for other in ("hard", "soft"):
    o = next(r for r in reports if r.method == other)
    print(f"matrix is {o.suppression_ms / mat.suppression_ms:.1f}x faster than {other}")

# The sequential methods can't be vectorized away: each step depends on which
# masks survived the previous one. Matrix NMS replaces the loop with two
# reductions over the IoU matrix, so its cost is one O(N^2) sweep.
