"""Recover accuracy lost to pruning by training only the adapter factors.

A dense random teacher generates the data; the student is the same matrix
magnitude-pruned to 2:4.  Training the multiplicative factors (the base
stays frozen) claws back part of the gap, and the merged result still
satisfies the mask.  Baseline: training the same net without adapters, which
retrains the surviving weights directly.
"""

import numpy as np

from spp import (
    NofM,
    Rng,
    TrainConfig,
    eval_loss,
    make_teacher_student,
    spp_init,
    spp_merge,
    train,
    verify_mask,
)

ts = make_teacher_student(seed=0, m=64, n=64, pattern=NofM(2, 4), samples=2048)
print("teacher eval loss:", eval_loss(ts.teacher, ts.x_eval, ts.y_eval))
before = eval_loss(ts.student, ts.x_eval, ts.y_eval)
print("pruned student eval loss:", round(before, 6))

layer = ts.student.layers[0].layer
ad = spp_init(64, 64, r=8, s=1.0, p=0.05, rng=Rng(1000))
ts.student.layers[0].adapter = ad
cfg = TrainConfig(steps=500, optimizer="adamw", batch_size=32, seed=0)
_, record = train(ts.student, (ts.x_train, ts.y_train), cfg)

after = eval_loss(ts.student, ts.x_eval, ts.y_eval)
print("adapter-trained eval loss:", round(after, 6),
      f"({(before - after) / before * 100:.1f}% better)")
print("base weights moved:", bool(np.any(layer.weight != ts.teacher.layers[0].layer.weight * layer.mask.mask)))

merged = spp_merge(layer, ad)
print("merged mask still ok:", verify_mask(merged).ok)

# classical alternative: a net without adapters retrains its weights, with
# gradient steps masked to the surviving support
ts2 = make_teacher_student(seed=0, m=64, n=64, pattern=NofM(2, 4), samples=2048)
train(ts2.student, (ts2.x_train, ts2.y_train), cfg)
direct = eval_loss(ts2.student, ts2.x_eval, ts2.y_eval)
print("fixed-mask retraining eval loss:", round(direct, 6))
print("it verifies too:", verify_mask(ts2.student.layers[0].layer).ok)

first, last = record.steps[0], record.steps[-1]
print(f"loss went {first[2]:.5f} (step {first[0]}) -> {last[2]:.5f} (step {last[0]})")
