"""maskops: binary instance masks, the NMS family (greedy, soft, fast, and
one-shot matrix decay), dynamic-kernel mask assembly, and a timing bench."""

from .masks import (
    BinaryMask,
    Box,
    IoUMatrix,
    RleMask,
    box_iou,
    box_to_mask,
    mask_iou,
    mask_to_box,
    pairwise_iou_matrix,
    rle_decode,
    rle_encode,
)
from .suppression import (
    DecayFn,
    ScoredMask,
    SuppressionConfig,
    SuppressionResult,
    fast_nms,
    hard_nms,
    matrix_nms,
    soft_nms,
    sort_by_score,
    suppress,
)
from .dynahead import (
    CategoryGrid,
    FeatureMap,
    FusionWeights,
    Instance,
    KernelGrid,
    PyramidLevels,
    SoftMask,
    assemble_masks,
    bilinear_upsample_2x,
    coord_channels,
    dynamic_conv_1x1,
    dynamic_conv_3x3,
    fuse_pyramid,
    grid_index,
    group_norm,
    inference_pipeline,
)
from .losses import LossConfig, dice_loss, focal_loss, total_loss
from .scenes import SceneSpec, gen_scene
from .bench import (
    BenchReport,
    VerifyCheck,
    run_bench,
    run_verification,
    score_checksum,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMask", "Box", "IoUMatrix", "RleMask", "box_iou", "box_to_mask",
    "mask_iou", "mask_to_box", "pairwise_iou_matrix",
    "rle_decode", "rle_encode",
    "DecayFn", "ScoredMask", "SuppressionConfig", "SuppressionResult",
    "fast_nms", "hard_nms", "matrix_nms", "soft_nms", "sort_by_score",
    "suppress",
    "CategoryGrid", "FeatureMap", "FusionWeights", "Instance", "KernelGrid",
    "PyramidLevels", "SoftMask", "assemble_masks", "bilinear_upsample_2x",
    "coord_channels", "dynamic_conv_1x1", "dynamic_conv_3x3", "fuse_pyramid",
    "grid_index", "group_norm", "inference_pipeline",
    "LossConfig", "dice_loss", "focal_loss", "total_loss",
    "SceneSpec", "gen_scene",
    "BenchReport", "VerifyCheck", "run_bench", "run_verification",
    "score_checksum",
]
