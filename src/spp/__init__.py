"""Sparsity-preserving multiplicative adapters for pruned linear layers.

The package covers the full desk-scale pipeline: score and prune dense
weights (magnitude or activation-weighted), attach multiplicative adapters
that cannot disturb the zero pattern, train them on a toy objective, merge
them back into the weights, and verify the result, with a low-rank additive
adapter as the densifying contrast case.  Deterministic float64 kernels and
a pinned RNG make every artifact byte-reproducible from its seed.
"""

from .adapters import (
    AdapterGrads,
    DropoutMask,
    LoraAdapter,
    SppAdapter,
    dropout_apply,
    lora_backward,
    lora_forward,
    lora_init,
    lora_merge_dense,
    spp_backward,
    spp_effective_weight,
    spp_forward_naive,
    spp_init,
    spp_merge,
)
from .errors import (
    NonFiniteError,
    PatternError,
    ShapeError,
    StateError,
    StoreFormatError,
    TrainingDiverged,
)
from .numerics import as_matrix, matmul, sampled_matmul, slot_matmul
from .pruning import (
    MaskReport,
    NofM,
    PrunedLayer,
    SlotLayout,
    SparseMask,
    Unstructured,
    apply_mask,
    build_mask,
    collect_calibration,
    mask_report,
    parse_pattern,
    score_magnitude,
    score_wanda,
    verify_mask,
)
from .rng import Rng, splitmix64
from .store import META_NAME, TensorStore, store_read, store_write
from .training import (
    AdamState,
    NetLayer,
    RunRecord,
    TeacherStudent,
    ToyNet,
    TrainConfig,
    adamw_step,
    count_trainable,
    cross_entropy_loss,
    eval_loss,
    lr_schedule,
    make_teacher_student,
    mse_loss,
    net_backward,
    net_forward,
    train,
)

__version__ = "0.1.0"
