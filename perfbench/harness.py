"""Set-up, the closed measurement loop, output checks and the metrics.

One caller, one thread: each op starts after the previous one and its check
have finished. Ops get fresh input copies and a garbage collection outside
the timed region; only the op itself is timed.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import ExitStack

import numpy as np

import maskops
from maskops import fast_nms, hard_nms, matrix_nms, soft_nms
from spans import Tracer
from workloads import WORKLOADS, sorted_groups

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("dynahead.fuse_pyramid.self_ms", "ms"),
    ("dynahead.fuse_pyramid.macs", "MAC-computed"),
    ("dynahead.assemble_masks.self_ms", "ms"),
    ("dynahead.assemble_masks.cells_hit", "count"),
    ("dynahead.assemble_masks.masks_out", "count"),
    ("dynahead.assemble_masks.yield", "ratio"),
    ("dynahead.assemble_masks.macs", "MAC-computed"),
    ("masks.pairwise_iou_matrix.self_ms", "ms"),
    ("masks.pairwise_iou_matrix.pairs", "count"),
    ("masks.pairwise_iou_matrix.overlap_share", "ratio"),
    ("masks.pairwise_iou_matrix.bytes", "B-computed"),
    ("masks.mask_to_box.self_ms", "ms"),
    ("suppression.suppress.self_ms", "ms"),
    ("suppression.suppress.candidates", "count"),
    ("suppression.suppress.groups", "count"),
    ("suppression.suppress.kept_share", "ratio"),
    ("suppression.matrix_nms.ms", "ms"),
    ("suppression.hard_nms.ms", "ms"),
    ("suppression.soft_nms.ms", "ms"),
    ("suppression.fast_nms.ms", "ms"),
    ("formats.json_parse.self_ms", "ms"),
    ("formats.mask_set_from_dict.self_ms", "ms"),
    ("formats.kept_to_dict.self_ms", "ms"),
    ("formats.to_json.self_ms", "ms"),
    ("formats.bytes_in", "B"),
    ("formats.bytes_out", "B"),
    ("scenes.gen_scene.ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.unattributed_share", "ratio"),
)

SETUP_REPEATS = 5
# The tail latency is the 11th largest sample, so a run needs more than 10.
MIN_SAMPLES = 20
TAIL_BEYOND = 10
OP_SPAN = "bench.op"
IOU_SPAN = "masks.pairwise_iou_matrix"


class Tally:
    """Attempted and failed ops. Equal keys must render byte-identically:
    the first output per key is the reference for every later pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}

    def record(self, k: int, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"op {k}: " + "; ".join(problems))

    def check(self, wl, pool, k: int, output, rendered=None) -> list:
        """Oracle and identity checks of one output, outside the timed region."""
        key = wl.key(k)
        try:
            rendered = wl.render(output) if rendered is None else rendered
            problems = list(wl.check(pool[key[0]], key, output))
        except Exception:
            return [traceback.format_exc(limit=3)]
        first = self.reference.setdefault(key, rendered)
        if rendered != first:
            problems.append("output differs from the first pass over the same input")
        return problems

    def digest(self, wl) -> str:
        h = hashlib.sha256()
        for k in range(wl.distinct_keys):
            h.update(repr(wl.key(k)).encode())
            h.update(self.reference.get(wl.key(k), b"<missing>"))
        return h.hexdigest()


def setup(wl, seed: int, gen_times: list):
    """Build the pool and warm up with one op per variant, SETUP_REPEATS
    times; returns the last pool and the seconds each repetition took."""
    samples = []
    pool = None
    for _ in range(SETUP_REPEATS):
        pool = None
        gc.collect()
        t0 = time.perf_counter()
        pool = wl.build(seed, gen_times)
        for variant in range(len(wl.variants)):
            wl.op(wl.fresh(pool[0]), variant)
        samples.append(time.perf_counter() - t0)
    return pool, samples


def _untraced(wl, pool, k: int, tally: Tally):
    entry, variant = wl.key(k)
    args = wl.fresh(pool[entry])
    gc.collect()
    t0 = time.perf_counter()
    try:
        output = wl.op(args, variant)
    except Exception:
        elapsed = time.perf_counter() - t0
        tally.record(k, [traceback.format_exc(limit=3)])
        return elapsed, None
    elapsed = time.perf_counter() - t0
    del args
    tally.record(k, tally.check(wl, pool, k, output))
    return elapsed, output


def _method_ms(wl, state, tracer) -> dict:
    """Each suppression method on the IoU matrices the op built, per group."""
    cfg = wl.config
    runs = {
        "suppression.matrix_nms.ms": lambda g, m: matrix_nms(g, m, cfg.decay),
        "suppression.hard_nms.ms": lambda g, m: hard_nms(g, m, cfg.iou_threshold),
        "suppression.soft_nms.ms": lambda g, m: soft_nms(
            g, cfg.decay, cfg.score_threshold, ious=m
        ),
        "suppression.fast_nms.ms": lambda g, m: fast_nms(g, m, cfg.iou_threshold),
    }
    masks = state["suppress_in"]
    groups = {}
    for order in sorted_groups(masks, cfg.class_agnostic):
        group = [masks[i] for i in order]
        groups[tuple(id(m.mask) for m in group)] = group
    out = dict.fromkeys(runs, 0.0)
    for _, args, ious in tracer.calls:
        group = groups.get(tuple(id(b) for b in args[0]))
        if group is None:
            raise ValueError("an IoU build matches no score-sorted category group")
        for name, run in runs.items():
            t0 = time.perf_counter()
            run(group, ious)
            out[name] += (time.perf_counter() - t0) * 1e3
    return out


def _shared_counts(wl, state, tracer) -> dict:
    pairs = nonzero = nbytes = 0
    for _, args, ious in tracer.calls:
        n = ious.n
        p = n * (n - 1) // 2
        pairs += p
        nonzero += int(np.count_nonzero(ious.values))
        if n:
            nbytes += p * 2 * args[0][0].words.nbytes
    masks = state["suppress_in"]
    candidates = len(masks)
    return {
        "masks.pairwise_iou_matrix.pairs": pairs,
        "masks.pairwise_iou_matrix.overlap_share": nonzero / pairs if pairs else 0.0,
        "masks.pairwise_iou_matrix.bytes": nbytes,
        "suppression.suppress.candidates": candidates,
        "suppression.suppress.groups": len(sorted_groups(masks, wl.config.class_agnostic)),
        "suppression.suppress.kept_share": (
            len(state["result"]) / candidates if candidates else 0.0
        ),
    }


class Layers:
    """Per-layer accumulation over traced ops. Times are summed over ops;
    counts are taken once per distinct input, so they repeat exactly."""

    def __init__(self):
        self.tracer = Tracer()
        self.ops = 0
        self.op_s = 0.0
        self.self_s = {}
        self.method_ms = {}
        self.counts = {}

    def run(self, wl, pool, k: int, expected: bytes, tally: Tally) -> float:
        tracer = self.tracer
        key = wl.key(k)
        args = wl.fresh(pool[key[0]])
        gc.collect()
        tracer.op = k
        tracer.calls.clear()
        first = len(tracer.spans)
        t0 = time.perf_counter()
        try:
            with ExitStack() as stack:
                stack.enter_context(
                    tracer.patched(maskops.suppression, "pairwise_iou_matrix", IOU_SPAN, keep=True)
                )
                stack.enter_context(
                    tracer.patched(maskops.formats, "mask_to_box", "masks.mask_to_box")
                )
                with tracer.span(OP_SPAN):
                    output, state = wl.replay(args, key[1], tracer)
        except Exception:
            tally.record(k, [traceback.format_exc(limit=3)])
            tracer.calls.clear()
            return time.perf_counter() - t0
        _, _, _, start, end = tracer.spans[first]
        del args
        rendered = wl.render(output)
        problems = [] if rendered == expected else ["traced replay differs from the op"]
        problems += tally.check(wl, pool, k, output, rendered)
        try:
            method_ms = _method_ms(wl, state, tracer)
            if key not in self.counts:
                self.counts[key] = _shared_counts(wl, state, tracer)
                self.counts[key].update(wl.counts(pool[key[0]], state))
        except Exception:
            problems.append(traceback.format_exc(limit=3))
            method_ms = {}
        tally.record(k, problems)
        tracer.calls.clear()
        self.ops += 1
        self.op_s += end - start
        for name, t in tracer.self_times(first).items():
            if name != OP_SPAN:
                self.self_s[name] = self.self_s.get(name, 0.0) + t
        for name, ms in method_ms.items():
            self.method_ms[name] = self.method_ms.get(name, 0.0) + ms
        return end - start

    def metrics(self, wl, untraced_s: list, gen_times: list) -> dict:
        ops = max(self.ops, 1)
        out = {name: 0.0 for name, _ in PER_LAYER}
        for name, t in self.self_s.items():
            out[name + ".self_ms"] = t * 1e3 / ops
        for name, ms in self.method_ms.items():
            out[name] = ms / ops
        keys = [wl.key(k) for k in range(wl.distinct_keys)]
        for name in {n for c in self.counts.values() for n in c}:
            out[name] = sum(self.counts.get(key, {}).get(name, 0) for key in keys) / len(keys)
        if gen_times:
            out["scenes.gen_scene.ms"] = statistics.fmean(gen_times) * 1e3
        traced_mean = self.op_s / ops
        out["bench.trace_overhead_share"] = 1.0 - statistics.fmean(untraced_s) / traced_mean
        attributed = sum(self.self_s.values())
        out["bench.unattributed_share"] = 1.0 - attributed / self.op_s if self.op_s else 0.0
        return {name: out[name] for name, _ in PER_LAYER}

    def shares(self) -> list:
        """(layer, share of traced op time), largest first."""
        total = self.op_s or 1.0
        return sorted(((n, t / total) for n, t in self.self_s.items()), key=lambda x: -x[1])


def measure(wl, pool, seconds: float, trace: bool):
    """Run ops until their summed time reaches `seconds` and every distinct
    input has been seen. With `trace`, each op is followed by a traced replay
    of the same input, and the two share the time budget."""
    # Move the pool out of the collector's reach, so the collection before
    # each op only walks what earlier ops left behind.
    gc.collect()
    gc.freeze()
    tally = Tally()
    latencies = []
    layers = Layers() if trace else None
    min_ops = wl.distinct_keys if trace else max(wl.distinct_keys, MIN_SAMPLES)
    spent = 0.0
    k = 0
    try:
        while spent < seconds or k < min_ops:
            elapsed, _ = _untraced(wl, pool, k, tally)
            latencies.append(elapsed)
            spent += elapsed
            if trace:
                expected = tally.reference.get(wl.key(k))
                spent += layers.run(wl, pool, k, expected, tally)
            k += 1
    finally:
        gc.unfreeze()
    return tally, latencies, layers


def tail(latencies: list):
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(import_s: float, setup_samples: list, latencies: list) -> dict:
    return {
        "setup_s": import_s + statistics.median(setup_samples),
        "throughput_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies)[0] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(pinned_vars) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_pin": " ".join(f"{v}={os.environ.get(v)}" for v in pinned_vars),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
