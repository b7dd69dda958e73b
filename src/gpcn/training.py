"""Training loops, the FLOPs cost model, and multigrid-style schedules.

Cost model: a graph convolution layer with n-by-n structure matrix Z (nnz
stored entries), n-by-F input, and F-by-C filter costs ``n*F*(nnz + C)``; a
node-wise dense layer costs ``n*F*C``; a projection between an n-by-k and a
k-by-m operand costs ``n*m*k``. A backward pass is charged at twice the
forward cost. Validation passes are not charged.

Schedules differ only in what each epoch does: which levels it updates and
which levels the forward sums. :meth:`Trainer.run` is one epoch loop for all
of them; it trains, logs, evaluates and stops on divergence the same way,
and asks the schedule for each epoch's (label, updated levels, forward
mask):

* ``joint``: every step updates every level (and the prolongations when the
  model is adaptive).
* ``gamma_cycle``: recursive smoothing. A cycle at level l smooths level l,
  recurses gamma times into level l+1, then smooths level l again; gamma=0
  degenerates to fine-level smoothing only. Smoothing runs the full ensemble
  forward with gradients masked to the level that owns them (a config switch
  selects partial-ensemble forwards instead).
* ``coarse_to_fine``: stage s trains the s coarsest levels as a partial
  ensemble; a stage advances after ``patience`` epochs without validation
  improvement, and the last stage trains everything.

Validation error is always measured at the fine scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape
from .ensembles import ModelSpec, init_model_params, model_forward, model_graph
from .numcore import AdamState, adam_step, seeded_rng
from .serialize import check_fields, write_csv
from .simulator import Dataset

__all__ = [
    "nmse",
    "flops_gcn_layer",
    "flops_dense",
    "flops_project",
    "layer_flops",
    "model_forward_flops",
    "NormStats",
    "split_indices",
    "normalize_dataset",
    "ScheduleSpec",
    "EvalPoint",
    "RunRecord",
    "Trainer",
    "train",
    "gamma_sequence",
    "best_val_at_budget",
]


def nmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all entries of two equally shaped signals
    (unitless once both are z-scored)."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


# ---------------------------------------------------------------------------
# FLOPs cost model


def flops_gcn_layer(n: int, f: int, c: int, nnz: int) -> int:
    if min(n, f, c, nnz) < 1:
        raise ValueError("flops arguments must be positive")
    return n * f * (nnz + c)


def flops_dense(n: int, f: int, c: int) -> int:
    if min(n, f, c) < 1:
        raise ValueError("flops arguments must be positive")
    return n * f * c


def flops_project(n: int, m: int, k: int) -> int:
    if min(n, m, k) < 1:
        raise ValueError("flops arguments must be positive")
    return n * m * k


def _nnz(level) -> int:
    """Stored entries of a level's structure matrix; a level without one (a
    pooled level) aggregates with a dense one, n^2 entries."""
    return level.z.nnz if level.z is not None else level.n * level.n


def layer_flops(level, in_features: int):
    """Per-frame forward cost of each layer of one member, as (layer, flops)
    rows: the convolutions ``gcn<j>`` then the dense head ``dense<j>``."""
    n, nnz = level.n, _nnz(level)
    rows = []
    f = in_features
    for j, c in enumerate(level.gcn_widths):
        rows.append((f"gcn{j}", flops_gcn_layer(n, f, c, nnz)))
        f = c
    f = level.concat_width
    for j, c in enumerate(level.dense_widths):
        rows.append((f"dense{j}", flops_dense(n, f, c)))
        f = c
    return rows


def model_forward_flops(
    spec: ModelSpec, in_features: int, level_mask=None, batch: int = 1
):
    """Predicted forward cost of a batch, per the cost model above.

    Returns (total, breakdown dict). Follows :func:`model_graph` level by
    level up to the coarsest active level. Building level i charges
    differentiable pooling its pooling convolution, the coarsening products
    and the extension of its lift (coarse structure matrices are dense,
    nnz = n^2); an adaptive gpcn recomposes its prolongations once per pass,
    while frozen compositions are precomputable and free. An active level
    then adds its member, the gpcn input restriction and the lift of its
    output back to the fine scale.
    """
    active = set(range(spec.n_levels)) if level_mask is None else set(level_mask)
    f, n0 = in_features, spec.n_fine
    gcn_cost = dense_cost = project_cost = 0  # per frame
    compose_cost = 0  # per pass, independent of the batch size
    for i, lvl in enumerate(spec.levels[: max(active) + 1]):
        n = lvl.n
        if i > 0 and spec.kind == "diffpool":
            prev = spec.levels[i - 1]
            # pooling convolution, then S^T X, S^T (Z S) and the lift S_1 ... S_i
            gcn_cost += flops_gcn_layer(prev.n, f, n, _nnz(prev))
            project_cost += flops_project(n, f, prev.n)
            project_cost += flops_project(prev.n, n, prev.n)
            project_cost += flops_project(n, n, prev.n)
            if i >= 2:
                project_cost += flops_project(n0, n, prev.n)
        elif i >= 2 and spec.kind == "gpcn" and spec.adaptive:
            # composing P(fine->i) from P(fine->i-1)
            compose_cost += flops_project(n0, n, spec.levels[i - 1].n)
        if i not in active:
            continue
        for layer, cost in layer_flops(lvl, f):
            if layer.startswith("gcn"):
                gcn_cost += cost
            else:
                dense_cost += cost
        if i > 0 and spec.kind == "gpcn":
            project_cost += flops_project(n, f, n0)  # restrict the input
        if i > 0 and spec.kind in ("gpcn", "diffpool"):
            project_cost += flops_project(n0, 1, n)  # lift the output
    breakdown = {
        "gcn_layer": batch * gcn_cost,
        "dense": batch * dense_cost,
        "projection": batch * project_cost + compose_cost,
    }
    return sum(breakdown.values()), breakdown


# ---------------------------------------------------------------------------
# normalization and splits


@dataclass
class NormStats:
    """Per-node, per-feature z-score statistics from the training split only."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray


# share of the frames split_indices puts in the training set
_TRAIN_FRACTION = 0.8


def split_indices(n_frames: int, seed):
    """Deterministic train/validation split; depends only on (seed, size)."""
    rng = seeded_rng(np.random.SeedSequence((int(seed), int(n_frames))))
    perm = rng.permutation(n_frames)
    n_train = max(1, int(_TRAIN_FRACTION * n_frames))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _guarded_std(a: np.ndarray, axis) -> np.ndarray:
    std = a.std(axis=axis)
    return np.where(std < 1e-12, 1.0, std)


def normalize_dataset(data: Dataset, train_idx: np.ndarray):
    """Z-score inputs and targets along the frame axis using training frames
    only; returns (stats, x_normalized, y_normalized). ``data`` is left
    unchanged."""
    stats = NormStats(
        x_mean=data.x[train_idx].mean(axis=0),
        x_std=_guarded_std(data.x[train_idx], 0),
        y_mean=data.y[train_idx].mean(axis=0),
        y_std=_guarded_std(data.y[train_idx], 0),
    )
    xn = (data.x - stats.x_mean) / stats.x_std
    yn = (data.y - stats.y_mean) / stats.y_std
    return stats, xn, yn


# ---------------------------------------------------------------------------
# schedules


@dataclass
class ScheduleSpec:
    kind: str = "joint"  # joint | gamma_cycle | coarse_to_fine
    gamma: int = 1
    smoothing_epochs: int = 1
    patience: int = 10
    total_epochs: int = 1000
    batches_per_epoch: int = 20
    batch_size: int = 8
    smoothing_forward: str = "full"  # or "partial": coarser-levels-only output

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ("joint", "gamma_cycle", "coarse_to_fine"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (0 <= self.gamma <= 3):
            raise ValueError("gamma must be in {0,1,2,3}")
        if self.smoothing_epochs < 1 or self.batches_per_epoch < 1 or self.batch_size < 1:
            raise ValueError("schedule counts must be positive")
        if self.total_epochs < 0:
            raise ValueError("total_epochs must be nonnegative")
        if self.smoothing_forward not in ("full", "partial"):
            raise ValueError("smoothing_forward must be 'full' or 'partial'")


def gamma_sequence(n_levels: int, gamma: int):
    """Level-visit order of one cycle, fine level first (0 = fine)."""
    if n_levels < 2:
        raise ValueError("cycles need at least two levels")

    def cycle(level):
        if level == n_levels - 1:
            return [level]
        inner = []
        for _ in range(gamma):
            inner.extend(cycle(level + 1))
        return [level, *inner, level]

    return cycle(0)


@dataclass
class EvalPoint:
    flops: int
    epoch: int
    train_nmse: float
    best_val_nmse: float


@dataclass
class RunRecord:
    """Per-epoch evaluation trace of one training run."""

    model_name: str
    seed: int
    points: list = field(default_factory=list)
    epoch_log: list = field(default_factory=list)  # (epoch, label) rows
    stage_starts: list = field(default_factory=list)  # (stage, epoch) rows
    diverged: bool = False

    @property
    def best_val_nmse(self) -> float:
        return min(p.best_val_nmse for p in self.points)

    @property
    def total_flops(self) -> int:
        return self.points[-1].flops if self.points else 0

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["flops", "epoch", "train_nmse", "best_val_nmse"],
            [(p.flops, p.epoch, p.train_nmse, p.best_val_nmse) for p in self.points],
        )


def best_val_at_budget(record: RunRecord, budget: int) -> float:
    """Best validation NMSE among evaluations within a FLOPs budget."""
    vals = [p.best_val_nmse for p in record.points if p.flops <= budget]
    if not vals:
        raise ValueError("no evaluation points inside the budget")
    return min(vals)


# the one dtype training computes in; statistics, errors and the ledger stay float64
_TRAIN_DTYPE = np.float32


class Trainer:
    """Owns parameters, optimizer state, data split, and the FLOPs ledger
    (``flops``, the cost-model total charged so far) for one run.

    Training and validation run in float32: set-up casts the normalized
    frames, the initial parameters (the ADAM moments follow them) and a copy
    of the spec's structure matrices and prolongations, held as ``spec``.
    The parameters are drawn in float64 first, so a seed draws the same
    values as before the cast."""

    def __init__(self, spec: ModelSpec, data: Dataset, schedule: ScheduleSpec, seed):
        if spec.n_fine != data.x.shape[1]:
            raise ValueError(
                f"model fine scale has {spec.n_fine} nodes but the dataset has {data.x.shape[1]}"
            )
        if schedule.kind == "gamma_cycle" and spec.n_levels < 2:
            raise ValueError("gamma cycles need a multiscale model")
        self.spec = spec.astype(_TRAIN_DTYPE)
        self.schedule = schedule
        self.seed = seed
        train_idx, val_idx = split_indices(data.n_frames, seed)
        if len(val_idx) == 0:
            raise ValueError("dataset too small for a validation split")
        _, xn, yn = normalize_dataset(data, train_idx)
        xn, yn = xn.astype(_TRAIN_DTYPE), yn.astype(_TRAIN_DTYPE)
        self.x_train, self.y_train = xn[train_idx], yn[train_idx]
        self.x_val, self.y_val = xn[val_idx], yn[val_idx]
        self.in_features = xn.shape[-1]
        self.rng = seeded_rng(seed)
        self.params = init_model_params(spec, self.in_features, self.rng).map(
            lambda arr: arr.astype(_TRAIN_DTYPE)
        )
        self.adam = {
            owner: AdamState.for_params([arr for _, arr in self.params.owned_arrays(owner)])
            for owner in range(spec.n_levels)
        }
        self.flops = 0
        self.record = RunRecord(model_name=spec.name or spec.kind, seed=int(seed))
        self._best_val = np.inf

    def _train_epoch(self, update_levels=None, forward_mask=None) -> float:
        """One epoch of batched ADAM steps; returns the mean batch loss."""
        update = (
            set(range(self.spec.n_levels)) if update_levels is None else set(update_levels)
        )
        if forward_mask is not None and not update <= set(forward_mask):
            # a level the forward never reaches gets no gradient for ADAM to apply
            raise ValueError(
                f"update levels {sorted(update - set(forward_mask))} are outside "
                f"the forward mask {sorted(forward_mask)}"
            )
        losses = []
        for _ in range(self.schedule.batches_per_epoch):
            idx = self.rng.choice(
                len(self.x_train),
                size=min(self.schedule.batch_size, len(self.x_train)),
                replace=False,
            )
            tape = Tape()
            bound = self.params.bind(tape, update)
            out = model_graph(tape, self.spec, bound, self.x_train[idx], level_mask=forward_mask)
            loss = tape.mse(out, self.y_train[idx])
            losses.append(float(loss.value))
            if not np.isfinite(loss.value):
                self.record.diverged = True
                return float(loss.value)
            tape.backward(loss)
            for owner in sorted(update):
                arrays = [arr for _, arr in self.params.owned_arrays(owner)]
                grads = [node.grad for _, node in bound.owned_arrays(owner)]
                adam_step(self.adam[owner], arrays, grads)
            cost, _ = model_forward_flops(
                self.spec, self.in_features, level_mask=forward_mask, batch=len(idx)
            )
            self.flops += 3 * cost  # forward plus backward at 2x
        return float(np.mean(losses))

    def _predict(self, x: np.ndarray, level_mask=None) -> np.ndarray:
        """Forward ``x`` in consecutive slices of ``batch_size`` frames. Each
        frame's output does not depend on the others in its batch, so this
        equals one whole-split forward bit for bit, while each slice's
        temporaries stay as small as a training step's."""
        b = self.schedule.batch_size
        return np.concatenate(
            [
                model_forward(self.spec, self.params, x[i : i + b], level_mask=level_mask)
                for i in range(0, len(x), b)
            ]
        )

    def _evaluate(self, epoch: int, train_nmse: float, forward_mask=None) -> float:
        """Validate at the fine scale, record the point; returns the error."""
        val = nmse(self._predict(self.x_val, forward_mask), self.y_val)
        self._best_val = min(self._best_val, val)
        self.record.points.append(
            EvalPoint(
                flops=self.flops,
                epoch=epoch,
                train_nmse=train_nmse,
                best_val_nmse=self._best_val,
            )
        )
        return val

    def _plan(self, epoch: int, stage: int):
        """(label, levels updated, levels the forward sums) of one epoch;
        ``None`` means every level."""
        kind, k = self.schedule.kind, self.spec.n_levels
        if kind == "joint":
            return "joint", None, None
        if kind == "coarse_to_fine":
            mask = set(range(k - stage, k))
            return f"stage{stage}", mask, mask
        visits = gamma_sequence(k, self.schedule.gamma)
        level = visits[(epoch - 1) // self.schedule.smoothing_epochs % len(visits)]
        partial = self.schedule.smoothing_forward == "partial"
        return f"level{level}", {level}, set(range(level, k)) if partial else None

    def run(self) -> RunRecord:
        """Train the epochs the schedule plans, evaluating after each, until
        ``total_epochs`` or divergence. Coarse-to-fine also validates on its
        stage's levels and advances a stage after ``patience`` epochs without
        improvement while epochs remain; with a single level, stage 1 is already every level,
        which is plain joint training."""
        c2f, k = self.schedule.kind == "coarse_to_fine", self.spec.n_levels
        total = self.schedule.total_epochs
        stage, since_improve = 1, 0
        if c2f:
            self.record.stage_starts.append((stage, 0))
        train_nmse = nmse(self._predict(self.x_train), self.y_train)
        best_in_stage = self._evaluate(0, train_nmse, {k - 1} if c2f else None)
        for epoch in range(1, total + 1):
            label, update, mask = self._plan(epoch, stage)
            train_nmse = self._train_epoch(update_levels=update, forward_mask=mask)
            self.record.epoch_log.append((epoch, label))
            val = self._evaluate(epoch, train_nmse, mask if c2f else None)
            if self.record.diverged:
                break
            if not c2f:
                continue
            if val < best_in_stage - 1e-15:
                best_in_stage, since_improve = val, 0
            else:
                since_improve += 1
            if since_improve >= self.schedule.patience and stage < k and epoch < total:
                stage += 1
                self.record.stage_starts.append((stage, epoch))
                best_in_stage, since_improve = np.inf, 0
        return self.record


def train(spec: ModelSpec, data: Dataset, schedule: ScheduleSpec, seed) -> RunRecord:
    """Run one training schedule to completion; deterministic given the seed."""
    return Trainer(spec, data, schedule, seed).run()
