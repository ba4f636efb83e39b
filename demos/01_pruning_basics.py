"""Score a weight matrix, build masks, and read the verification report."""

import numpy as np

from spp import (
    NofM,
    PrunedLayer,
    Rng,
    Unstructured,
    apply_mask,
    build_mask,
    collect_calibration,
    score_magnitude,
    score_wanda,
    verify_mask,
)

rng = Rng(0)
w = rng.uniform(-1.0, 1.0, 8, 8)
print("dense weight, nnz =", np.count_nonzero(w))

# keep the 2 largest magnitudes in every contiguous group of 4
mask = build_mask(score_magnitude(w), NofM(2, 4))
layer = apply_mask(w, mask)
report = verify_mask(layer)
print(f"2:4 pruned: nnz={report.nnz} ratio={report.ratio:.2f} ok={report.ok}")

# unstructured: the lowest 75% of scores go to zero, matrix-wide
layer75 = apply_mask(w, build_mask(score_magnitude(w), Unstructured(0.75)))
print("unstructured 0.75: nnz =", verify_mask(layer75).nnz, "of", w.size)

# per-row variant keeps the zero budget balanced across rows
rw = build_mask(score_magnitude(w), Unstructured(0.75), row_wise=True)
print("row-wise keeps per row:", rw.mask.sum(axis=1).astype(int).tolist())

# activation-aware scoring: a loud input column protects its weights.
# calibration rows are activations; their column norms reweight |w|.
acts = rng.uniform(-1.0, 1.0, 32, 8)
acts[:, 3] *= 25.0  # make feature 3 dominate
col_norms = collect_calibration(acts)
wanda_mask = build_mask(score_wanda(w, col_norms), NofM(2, 4))
col3_kept_mag = int(mask.mask[:, 3].sum())
col3_kept_wanda = int(wanda_mask.mask[:, 3].sum())
print(f"column 3 survivors: magnitude={col3_kept_mag} wanda={col3_kept_wanda}")

# a pruned layer holds only its kept values, so it cannot break its mask.
# A dense weight that is nonzero at a masked position is refused, with the
# coordinates; `spp verify` lists every such position of a raw store.
tampered = layer.weight  # a fresh dense copy
tampered[tuple(np.argwhere(mask.mask == 0)[0])] = 1e-9
try:
    PrunedLayer(tampered, mask)
except ValueError as exc:
    print("after tampering:", exc)
