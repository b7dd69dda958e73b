"""Training schedules on a small synthetic problem.

Compares joint training against multigrid-style cycles (the gamma
parameter counts recursive coarse visits; gamma=1 is a V cycle) and
coarse-to-fine stage training with patience-based advancement. Every run
logs best validation error against the FLOPs cost model, which is how the
models are compared fairly.
"""

import numpy as np

from gpcn import ScheduleSpec, build_from_table, make_tube, seeded_rng, train
from gpcn.ensembles import make_hierarchy
from gpcn.simulator import Dataset
from gpcn.training import gamma_sequence

hier = make_hierarchy([make_tube(8, 5, 1), make_tube(4, 5, 1), make_tube(4, 2, 0)])
spec = build_from_table("gpcn3", hier)

rng = seeded_rng(0)
n = hier.graphs[0].n
x = rng.normal(size=(60, n, 6))
w = rng.normal(size=(6, 1))
data = Dataset(
    x=x,
    y=np.tanh(x @ w) + 0.05 * rng.normal(size=(60, n, 1)),
    column_names=[f"f{i}" for i in range(6)],
    manifest={"synthetic": True},
)

print("gamma cycle visit orders (0 = fine):")
for gamma in (0, 1, 2, 3):
    print(f"  gamma={gamma}: {gamma_sequence(3, gamma)}")

common = dict(total_epochs=30, batches_per_epoch=5, batch_size=6)
runs = {
    "joint": train(spec, data, ScheduleSpec(**common), seed=1),
    "v-cycle": train(spec, data, ScheduleSpec(kind="gamma_cycle", gamma=1, **common), seed=1),
    "w-cycle": train(spec, data, ScheduleSpec(kind="gamma_cycle", gamma=2, **common), seed=1),
    "coarse-to-fine": train(
        spec, data, ScheduleSpec(kind="coarse_to_fine", patience=2, **common), seed=1
    ),
}

print(f"\n{'schedule':<15} {'best val nmse':>14} {'total gflops':>13}")
for name, record in runs.items():
    print(f"{name:<15} {record.best_val_nmse:>14.4f} {record.total_flops / 1e9:>13.2f}")

stages = runs["coarse-to-fine"].stage_starts
print(f"\ncoarse-to-fine stage starts (stage, epoch): {stages}")
