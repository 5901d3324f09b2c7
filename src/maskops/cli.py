"""maskbench command line: scene generation, suppression, timing, verification.

Exit codes: 0 success, 1 verification failure, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bench, formats
from .scenes import SceneSpec, gen_scene
from .suppression import METHODS, DecayFn, SuppressionConfig, suppress

def _add_scene_flags(p: argparse.ArgumentParser, instances: int):
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--instances", type=int, default=instances)
    p.add_argument("--duplicates", type=int, default=4,
                   help="jittered copies per instance")
    p.add_argument("--shape", choices=("rectangle", "ellipse"), default="rectangle")
    p.add_argument("--score-noise", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)


def _add_method_params(p: argparse.ArgumentParser):
    p.add_argument("--decay", choices=("linear", "gauss"), default="gauss")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--iou-threshold", type=float, default=0.5)
    p.add_argument("--score-threshold", type=float, default=0.05)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, default="matrix")
    _add_method_params(p)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--class-agnostic", action="store_true")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskbench",
        description="Synthetic mask scenes, suppression, and NMS benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic mask-set JSON")
    _add_scene_flags(gen, instances=8)
    gen.add_argument("--out", default="-", help="output path, '-' for stdout")

    sup = sub.add_parser("suppress", help="run suppression on a mask-set JSON")
    sup.add_argument("input", help="mask-set JSON path")
    _add_config_flags(sup)
    _add_common(sup)

    ben = sub.add_parser("bench", help="time the suppression methods")
    ben.add_argument("--scene", default=None, help="mask-set JSON (else generated)")
    _add_scene_flags(ben, instances=100)
    ben.add_argument("--method", choices=METHODS, default=None,
                     help="bench a single method (default: all)")
    _add_method_params(ben)
    ben.add_argument("--repeats", type=int, default=20)
    _add_common(ben)

    ver = sub.add_parser("verify", help="run the full oracle suite")
    ver.add_argument("--seed", type=int, default=0)
    return parser


def _emit(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def _scene_from_args(args):
    spec = SceneSpec(
        height=args.height,
        width=args.width,
        num_instances=args.instances,
        num_duplicates_per_instance=args.duplicates,
        shape=args.shape,
        score_noise=args.score_noise,
        seed=args.seed,
    )
    return gen_scene(spec), spec


def _cmd_gen(args) -> int:
    scene, spec = _scene_from_args(args)
    doc = formats.mask_set_to_dict(scene, spec.height, spec.width)
    _emit(formats.to_json(doc), args.out)
    return 0


def _config_from_args(args, **fields) -> SuppressionConfig:
    """The `_add_method_params` flags plus any further config fields."""
    return SuppressionConfig(
        decay=DecayFn(args.decay, args.sigma),
        iou_threshold=args.iou_threshold,
        score_threshold=args.score_threshold,
        **fields,
    )


def _cmd_suppress(args) -> int:
    masks = formats.read_mask_set(args.input)
    config = _config_from_args(
        args,
        method=args.method,
        top_k=args.top_k,
        class_agnostic=args.class_agnostic,
    )
    result = suppress(masks, config)
    doc = formats.kept_to_dict(masks, result)
    if args.format == "json":
        _emit(formats.to_json(doc), args.out)
    else:
        lines = [f"{'index':>6} {'score':>10} {'category':>8}  box"]
        for row in doc["kept"]:
            lines.append(
                f"{row['index']:>6} {row['score']:>10.6f} {row['category']:>8}  "
                f"{','.join(str(v) for v in row['box'])}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    if args.scene is not None:
        scene = formats.read_mask_set(args.scene)
    else:
        scene, _ = _scene_from_args(args)
    methods = [args.method] if args.method else list(METHODS)
    config = _config_from_args(args)
    reports = bench.run_bench(
        scene, methods=methods, repeats=args.repeats, config=config
    )
    if args.format == "json":
        doc = {"reports": [dataclasses.asdict(r) for r in reports]}
        _emit(formats.to_json(doc), args.out)
    else:
        lines = [
            f"{'method':>8} {'N':>6} {'iou_ms':>10} {'supp_ms':>10} "
            f"{'kept':>6}  checksum"
        ]
        for r in reports:
            lines.append(
                f"{r.method:>8} {r.n:>6} {r.iou_matrix_ms:>10.3f} "
                f"{r.suppression_ms:>10.3f} {r.kept:>6}  {r.checksum}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    checks = bench.run_verification(seed=args.seed)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.detail}")
        failed += 0 if c.passed else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "suppress": _cmd_suppress,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except bench.VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
