"""The benchmark's workloads.

Each workload builds a pool of distinct inputs from the workload seed alone,
hands every timed op fresh copies of one pool entry, and checks the op's
output against `maskops.reference` or against earlier passes over the same
entry. The op calls only exported `maskops` API (plus `maskops.formats`),
always with the default `threads` of 1.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from maskops import (
    BinaryMask,
    CategoryGrid,
    FeatureMap,
    FusionWeights,
    Instance,
    KernelGrid,
    PyramidLevels,
    SceneSpec,
    ScoredMask,
    SuppressionConfig,
    assemble_masks,
    fuse_pyramid,
    gen_scene,
    inference_pipeline,
    mask_iou,
    mask_to_box,
    pairwise_iou_matrix,
    sort_by_score,
    suppress,
)
from maskops import formats, reference

# Oracle tolerance for decayed scores: the one-shot decay takes exp of a
# minimum where the reference takes the minimum of exps.
SCORE_TOLERANCE = 1e-9


def timed_gen_scene(spec: SceneSpec, gen_times: list) -> list:
    t0 = time.perf_counter()
    scene = gen_scene(spec)
    gen_times.append(time.perf_counter() - t0)
    return scene


def copy_scored(masks) -> list:
    """New ScoredMask and BinaryMask objects over copied words, so no cached
    per-mask state carries over from an earlier op."""
    return [
        ScoredMask(
            BinaryMask(m.mask.height, m.mask.width, m.mask.words.copy()),
            m.score,
            m.category,
        )
        for m in masks
    ]


def expected_kept(per_group: list, config: SuppressionConfig) -> list:
    """`suppress`'s documented tail: drop scores at or below the threshold,
    order by (-score, index), keep top_k. Takes (index, score) pairs."""
    pairs = [(i, s) for i, s in per_group if s > config.score_threshold and s > 0.0]
    pairs.sort(key=lambda t: (-t[1], t[0]))
    return pairs if config.top_k is None else pairs[: config.top_k]


def kept_mismatch(got: list, want: list, exact: bool) -> str | None:
    """Compare (index, score) lists; None when they agree."""
    if [i for i, _ in got] != [i for i, _ in want]:
        return f"kept indices differ from the oracle ({len(got)} vs {len(want)} kept)"
    worst = max((abs(g - w) for (_, g), (_, w) in zip(got, want)), default=0.0)
    if worst > (0.0 if exact else SCORE_TOLERANCE):
        return f"kept scores differ from the oracle by {worst:.3g}"
    return None


def sorted_groups(masks, class_agnostic: bool) -> list:
    """Input indices per category, each in descending score order."""
    groups = {}
    for i, m in enumerate(masks):
        groups.setdefault(0 if class_agnostic else m.category, []).append(i)
    out = []
    for members in groups.values():
        order = sort_by_score([masks[i] for i in members])
        out.append([members[p] for p in order])
    return out


def direct_iou_rows(group) -> list:
    """Upper-triangular IoU rows from `mask_iou`, one pair at a time."""
    n = len(group)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = mask_iou(group[i].mask, group[j].mask)
    return rows


class Workload:
    """One op shape. Subclasses define the pool, the op and its checks.

    Op k runs on pool entry k % pool_size with variant k % len(variants);
    the pair is the op's key, and equal keys must give byte-identical output.
    """

    name = ""
    pool_size = 4
    variants = ("",)
    config = SuppressionConfig()

    def __init__(self):
        self._oracle = {}

    @property
    def distinct_keys(self) -> int:
        return int(np.lcm(self.pool_size, len(self.variants)))

    def key(self, k: int) -> tuple:
        return k % self.pool_size, k % len(self.variants)

    def build(self, seed: int, gen_times: list) -> list:
        raise NotImplementedError

    def fresh(self, entry):
        """Op arguments copied from a pool entry, outside the timed region."""
        raise NotImplementedError

    def op(self, args, variant: int):
        raise NotImplementedError

    def replay(self, args, variant: int, tracer):
        """The op through its stage functions, with a span per stage.
        Returns (output, state); state feeds `counts`."""
        raise NotImplementedError

    def render(self, output) -> bytes:
        """Canonical bytes of an op output, for identity checks and digests."""
        raise NotImplementedError

    def check(self, entry, key: tuple, output) -> list:
        """Problems found in one op's output against the oracle (empty if none)."""
        return []

    def counts(self, entry, state) -> dict:
        """Workload-specific per-layer counts for one distinct input."""
        return {}

    def oracle(self, entry, key: tuple):
        if key not in self._oracle:
            self._oracle[key] = self.make_oracle(entry, key[1])
        return self._oracle[key]

    def make_oracle(self, entry, variant: int):
        return None


@dataclass(frozen=True)
class PipelineEntry:
    levels: tuple
    weights: FusionWeights
    category: np.ndarray
    kernels: np.ndarray


def _copy_stage(stage):
    return replace(
        stage,
        kernel=stage.kernel.copy(),
        gn_scale=stage.gn_scale.copy(),
        gn_shift=stage.gn_shift.copy(),
    )


class Pipeline(Workload):
    """`inference_pipeline` on a 4-level, 64-channel pyramid (finest 64x64)
    and a 24x24 grid of 10 classes with 1x1 kernels. Exactly 115 of the
    5760 (cell, class) scores (2%) over 100 cells exceed the 0.1 confidence
    threshold, so the assembly work is the same for every seed."""

    name = "pipeline"
    LEVELS = 4
    CHANNELS = 64
    FINEST = 64
    GRID = 24
    CLASSES = 10
    CELLS_HIT = 100
    PAIRS_HIT = 115
    CONFIDENCE = 0.1

    def build(self, seed, gen_times):
        rng = np.random.default_rng([seed, 1])
        pool = []
        for _ in range(self.pool_size):
            weights = FusionWeights.seeded(
                self.LEVELS, self.CHANNELS, self.CHANNELS,
                seed=int(rng.integers(2**31)),
            )
            levels = tuple(
                rng.normal(size=(self.FINEST >> i, self.FINEST >> i, self.CHANNELS))
                for i in range(self.LEVELS)
            )
            s, c = self.GRID, self.CLASSES
            category = rng.uniform(0.0, self.CONFIDENCE, (s * s, c))
            cells = rng.choice(s * s, self.CELLS_HIT, replace=False)
            hits = {(int(cell), int(rng.integers(c))) for cell in cells}
            while len(hits) < self.PAIRS_HIT:
                hits.add((int(rng.choice(cells)), int(rng.integers(c))))
            for cell, cls in sorted(hits):
                category[cell, cls] = rng.uniform(0.2, 1.0)
            kernels = rng.normal(size=(s, s, self.CHANNELS))
            pool.append(
                PipelineEntry(levels, weights, category.reshape(s, s, c), kernels)
            )
        return pool

    def fresh(self, entry):
        w = entry.weights
        weights = replace(
            w,
            stages=tuple(tuple(_copy_stage(st) for st in level) for level in w.stages),
            output=_copy_stage(w.output),
        )
        pyramid = PyramidLevels(tuple(FeatureMap(a.copy()) for a in entry.levels), weights)
        return (
            CategoryGrid(entry.category.copy()),
            KernelGrid(entry.kernels.copy(), self.CHANNELS),
            pyramid,
        )

    def op(self, args, variant):
        category, kernels, pyramid = args
        return inference_pipeline(category, kernels, pyramid)

    def replay(self, args, variant, tracer):
        category, kernels, pyramid = args
        with tracer.span("dynahead.fuse_pyramid"):
            feature = fuse_pyramid(pyramid)
        with tracer.span("dynahead.assemble_masks"):
            masks = assemble_masks(category, kernels, feature)
        with tracer.span("suppression.suppress"):
            result = suppress(masks)
        instances = []
        for i, s in zip(result.kept_indices, result.updated_scores):
            with tracer.span("masks.mask_to_box"):
                box = mask_to_box(masks[i].mask)
            instances.append(Instance(masks[i].mask, box, s, masks[i].category))
        return instances, {"suppress_in": masks, "result": result}

    def render(self, output):
        """Every field of the instance JSON, with the mask as its bits rather
        than its RLE counts: equal renders mean byte-identical instance JSON,
        at a fraction of the cost of encoding it."""
        parts = []
        for inst in output:
            b = inst.box
            head = [inst.score, inst.category, b.x_min, b.y_min, b.x_max, b.y_max,
                    inst.mask.height, inst.mask.width]
            parts.append(json.dumps(head).encode())
            parts.append(np.packbits(inst.mask.to_array()).tobytes())
        return b"\n".join(parts)

    def counts(self, entry, state):
        w = entry.weights
        fuse_macs = 0
        for li, level in enumerate(entry.levels):
            h, wd = level.shape[:2]
            for st in w.stages[li]:
                _, _, cin, cout = st.kernel.shape
                fuse_macs += h * wd * 9 * cin * cout
                h, wd = 2 * h, 2 * wd
        h, wd = entry.levels[0].shape[:2]
        fuse_macs += h * wd * w.channels * w.out_channels
        above = entry.category > self.CONFIDENCE
        cells_hit = int(above.any(axis=2).sum())
        masks_out = len(state["suppress_in"])
        return {
            "dynahead.fuse_pyramid.macs": fuse_macs,
            "dynahead.assemble_masks.cells_hit": cells_hit,
            "dynahead.assemble_masks.masks_out": masks_out,
            "dynahead.assemble_masks.yield": masks_out / int(above.sum()),
            "dynahead.assemble_masks.macs": cells_hit * h * wd * entry.kernels.shape[2],
        }


@dataclass(frozen=True)
class SceneEntry:
    masks: list
    text: str = ""


class CrowdSuppress(Workload):
    """Class-agnostic matrix NMS (gauss decay) on one 256x256 scene of
    125 instances x (1 + 3 duplicates) = 500 masks per op."""

    name = "crowd_suppress"
    config = SuppressionConfig(class_agnostic=True)
    SAMPLED_PAIRS = 256

    def build(self, seed, gen_times):
        rng = np.random.default_rng([seed, 2])
        pool = []
        for _ in range(self.pool_size):
            spec = SceneSpec(
                height=256, width=256, num_instances=125,
                num_duplicates_per_instance=3, seed=int(rng.integers(2**31)),
            )
            pool.append(SceneEntry(timed_gen_scene(spec, gen_times)))
        return pool

    def fresh(self, entry):
        return copy_scored(entry.masks)

    def op(self, args, variant):
        return suppress(args, self.config)

    def replay(self, args, variant, tracer):
        with tracer.span("suppression.suppress"):
            result = suppress(args, self.config)
        return result, {"suppress_in": args, "result": result}

    def render(self, output):
        doc = {"kept": list(output.kept_indices), "scores": list(output.updated_scores)}
        return json.dumps(doc).encode()

    def make_oracle(self, entry, variant):
        """Expected kept list from `naive_matrix_decay` over the scene's IoU
        matrix, after checking sampled matrix entries against `mask_iou`."""
        masks = entry.masks
        (order,) = sorted_groups(masks, class_agnostic=True)
        group = [masks[i] for i in order]
        ious = pairwise_iou_matrix([m.mask for m in group]).values
        rng = np.random.default_rng(len(group))
        for _ in range(self.SAMPLED_PAIRS):
            i, j = sorted(rng.choice(len(group), 2, replace=False).tolist())
            if ious[i, j] != mask_iou(group[i].mask, group[j].mask):
                return f"pairwise IoU ({i}, {j}) differs from mask_iou"
        decay = self.config.decay
        updated = reference.naive_matrix_decay(
            [m.score for m in group], ious.tolist(), decay.kind, decay.sigma
        )
        return expected_kept(list(zip(order, updated)), self.config)

    def check(self, entry, key, output):
        want = self.oracle(entry, key)
        if isinstance(want, str):
            return [want]
        got = list(zip(output.kept_indices, output.updated_scores))
        problem = kept_mismatch(got, want, exact=False)
        return [problem] if problem else []


class MasksetIO(Workload):
    """The CLI `suppress` path in memory: mask-set JSON text -> json.loads ->
    mask_set_from_dict -> suppress -> kept_to_dict -> to_json. A 128x128
    scene of 60 instances x 5 = 300 masks in 20 categories of 15; the method
    rotates hard, soft, fast, matrix, one per op."""

    name = "maskset_io"
    pool_size = 5
    variants = ("hard", "soft", "fast", "matrix")
    CATEGORIES = 20
    configs = tuple(SuppressionConfig(method=m) for m in variants)

    def build(self, seed, gen_times):
        rng = np.random.default_rng([seed, 3])
        pool = []
        for _ in range(self.pool_size):
            spec = SceneSpec(
                height=128, width=128, num_instances=60,
                num_duplicates_per_instance=4, seed=int(rng.integers(2**31)),
            )
            scene = timed_gen_scene(spec, gen_times)
            per_cluster = 1 + spec.num_duplicates_per_instance
            labels = rng.permutation(spec.num_instances) % self.CATEGORIES
            masks = [
                ScoredMask(m.mask, m.score, int(labels[i // per_cluster]))
                for i, m in enumerate(scene)
            ]
            text = formats.to_json(formats.mask_set_to_dict(masks))
            pool.append(SceneEntry(masks, text))
        return pool

    def fresh(self, entry):
        return entry.text

    def op(self, args, variant):
        doc = json.loads(args)
        masks = formats.mask_set_from_dict(doc)
        result = suppress(masks, self.configs[variant])
        return formats.to_json(formats.kept_to_dict(masks, result)), masks

    def replay(self, args, variant, tracer):
        with tracer.span("formats.json_parse"):
            doc = json.loads(args)
        with tracer.span("formats.mask_set_from_dict"):
            masks = formats.mask_set_from_dict(doc)
        with tracer.span("suppression.suppress"):
            result = suppress(masks, self.configs[variant])
        with tracer.span("formats.kept_to_dict"):
            kept = formats.kept_to_dict(masks, result)
        with tracer.span("formats.to_json"):
            text = formats.to_json(kept)
        state = {"suppress_in": masks, "result": result, "text_in": args, "text_out": text}
        return (text, masks), state

    def render(self, output):
        return output[0].encode()

    def make_oracle(self, entry, variant):
        """Expected kept list per method: `greedy_keep` for hard,
        `column_max_keep` for fast, `naive_matrix_decay` for matrix, all on
        IoUs from `mask_iou`. Soft has no oracle; its passes must agree."""
        config = self.configs[variant]
        if config.method == "soft":
            return None
        masks = entry.masks
        per_group = []
        for order in sorted_groups(masks, class_agnostic=False):
            group = [masks[i] for i in order]
            if config.method == "hard":
                kept = reference.greedy_keep(group, config.iou_threshold)
                per_group += [(order[j], group[j].score) for j in kept]
                continue
            rows = direct_iou_rows(group)
            if config.method == "fast":
                kept = reference.column_max_keep(rows, config.iou_threshold)
                per_group += [(order[j], group[j].score) for j in kept]
            else:
                updated = reference.naive_matrix_decay(
                    [m.score for m in group], rows, config.decay.kind, config.decay.sigma
                )
                per_group += list(zip(order, updated))
        return expected_kept(per_group, config)

    def check(self, entry, key, output):
        text, masks = output
        problems = []
        # The input text is the RLE encoding of entry.masks, so this closes
        # the round trip mask -> RLE -> JSON -> mask.
        if masks != entry.masks:
            problems.append("parsed masks differ from the masks the input encodes")
        want = self.oracle(entry, key)
        if want is not None:
            got = [(row["index"], row["score"]) for row in json.loads(text)["kept"]]
            problem = kept_mismatch(got, want, exact=self.configs[key[1]].method != "matrix")
            if problem:
                problems.append(problem)
        return problems

    def counts(self, entry, state):
        return {
            "formats.bytes_in": len(state["text_in"].encode()),
            "formats.bytes_out": len(state["text_out"].encode()),
        }


WORKLOADS = {wl.name: wl for wl in (Pipeline, CrowdSuppress, MasksetIO)}
