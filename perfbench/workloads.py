"""The three benchmark workloads: simulate, train and coarsen.

Each workload builds its inputs from the seed in ``setup`` and hands the
runner one round of operations as (part, callable) pairs. A round is closed
loop with a single client: each operation starts when the previous one has
returned. ``summarize`` turns an operation's output into a digest (for the
bit-identity checks across rounds and against the traced run), the number
of operations it attempted and the number that failed. ``check`` runs the
output checks on the first round, outside the timed region.

Calls into the program that the benchmark makes itself go through
``tr.call`` so the traced run records them as spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

import gpcn.ensembles as ensembles
from gpcn.ensembles import build_from_table, desk_hierarchy, init_model_params, model_forward
from gpcn.gdd import coarse_search, limit_curve
from gpcn.graphs import make_tube, relabel
from gpcn.numcore import seeded_rng
from gpcn.simulator import (
    Dataset,
    SimConfig,
    build_geometry,
    desk_strength_grid,
    forces_and_energy,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from gpcn.training import ScheduleSpec, model_forward_flops, train
from spans import MODELS

HERE = os.path.dirname(os.path.abspath(__file__))


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()


class Simulate:
    """Desk tube over the desk strength grid (9 runs, 156 particles) and the
    paper tube over a 2-run grid (624 particles), each followed by a bin
    save/load round trip."""

    name = "simulate"
    # 60 integration steps, a frame every 5: still 12 frames per run
    config = SimConfig(ramp_steps=24, hold_steps=36, save_every=5)
    frames_per_run = 12
    scales = {
        "desk": ((12, 13, 3), desk_strength_grid()),
        "paper": ((48, 13, 3), {"LatAssoc": [0.1, 1.9]}),
    }
    legs = {"sim.desk": "leg1", "sim.paper": "leg2"}
    kernel = "scatter"
    unit = "particle-steps/s"
    suffix = ".particle_steps_per_s"

    def work(self, part, state):
        model, grid = state[part.split(".")[1]]
        runs = math.prod(len(v) for v in grid.values())
        return model.n * self.config.total_steps * runs

    def setup(self, seed, scratch):
        state = {"seed": seed, "scratch": scratch}
        for scale, (shape, grid) in self.scales.items():
            state[scale] = (build_geometry(*shape), grid)
        return state

    def setup_digest(self, state):
        return _sha(*(state[s][0].positions.tobytes() for s in self.scales))

    def ops(self, state, tr, first):
        def roundtrip(scale):
            model, grid = state[scale]
            out_dir = os.path.join(state["scratch"], scale)
            ds = tr.call(
                "simulator.generate_dataset", generate_dataset,
                model, grid, self.config, state["seed"], note=_diverged,
            )
            tr.call("serialize.save_dataset", save_dataset, ds, out_dir, note=_dir_bytes)
            back = tr.call("serialize.load_dataset", load_dataset, out_dir)
            return ds, back

        return [("sim." + scale, lambda s=scale: roundtrip(s)) for scale in self.scales]

    def summarize(self, part, out):
        ds, back = out
        digest = _sha(ds.x.tobytes(), ds.y.tobytes(), json.dumps(ds.manifest, sort_keys=True))
        failed = _diverged(None, ds) + (not _same_dataset(ds, back))
        return digest, len(ds.manifest["runs"]) + 1, failed

    def check(self, state, part, out):
        ds, back = out
        model, _ = state[part.split(".")[1]]
        runs = ds.manifest["runs"]
        checks = [
            (f"{part}: every run returns {self.frames_per_run} frames",
             all(r["status"] == "ok" and r["n_frames"] == self.frames_per_run for r in runs)),
            (f"{part}: bin round trip is bit-identical", _same_dataset(ds, back)),
        ]
        worst = 0.0
        for i, run in enumerate(r for r in runs if r["status"] == "ok"):
            kb, ka = model.strength_vectors(run["strengths"])
            kb, ka = kb * self.config.bond_k_base, ka * self.config.angle_k_base
            for f in range(i * self.frames_per_run, (i + 1) * self.frames_per_run):
                _, _, total = forces_and_energy(model, ds.x[f, :, :3], kb, ka)
                worst = max(worst, abs(ds.y[f].sum() - total) / max(abs(total), 1e-300))
        checks.append((f"{part}: per-particle energy sums to the total within 1e-9", worst <= 1e-9))
        return checks


def _diverged(_args, ds):
    return sum(r["status"] != "ok" for r in ds.manifest["runs"])


def _dir_bytes(args, _result):
    out_dir = args[1]
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def _same_dataset(a: Dataset, b: Dataset) -> bool:
    return (
        a.x.dtype == b.x.dtype and a.y.dtype == b.y.dtype
        and a.x.shape == b.x.shape and a.y.shape == b.y.shape
        and a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
        and list(a.column_names) == list(b.column_names)
        and a.manifest == b.manifest
    )


class Train:
    """Joint-schedule training (batch 8, 20 batches, one epoch with
    validation) and forward-only passes over the frames in batches of 22, one
    model per aggregation kind, on desk-shaped synthetic frames. Each forward
    batch is its own operation, so the infer legs sum over many."""

    name = "train"
    legs = {**{f"train.{m}": "leg1" for m in MODELS}, **{f"infer.{m}": "leg2" for m in MODELS}}
    kernel = "dense"
    n_frames, n_nodes, n_features = 108, 156, 10
    infer_batch = 22  # the validation split size of 108 frames
    infer_starts = (0, 22, 44, 66, 86)  # five full batches cover all 108 frames
    schedule = ScheduleSpec(kind="joint", total_epochs=1, batch_size=8, batches_per_epoch=20)
    unit = "frames/s"
    suffix = ".frames_per_s"

    @property
    def steps(self):
        return self.schedule.total_epochs * self.schedule.batches_per_epoch

    def work(self, part, state):
        if part.startswith("train."):
            return self.steps * self.schedule.batch_size
        return self.infer_batch

    def setup(self, seed, scratch):
        hier = desk_hierarchy()
        specs = {m: build_from_table(m, hier) for m in MODELS}
        # drawn the way tests/conftest.py::synthetic_dataset draws its frames
        rng = seeded_rng(seed)
        x = rng.normal(size=(self.n_frames, self.n_nodes, self.n_features))
        w = rng.normal(size=(self.n_features, 1))
        y = x @ w + 0.1 * rng.normal(size=(self.n_frames, self.n_nodes, 1))
        data = Dataset(
            x=x, y=y,
            column_names=[f"f{i}" for i in range(self.n_features)],
            manifest={"seed": seed, "synthetic": True},
        )
        params = {
            m: init_model_params(specs[m], self.n_features, seeded_rng(seed))
            for m in MODELS
        }
        return {"seed": seed, "hier": hier, "specs": specs, "data": data, "params": params}

    def setup_digest(self, state):
        chunks = [p.tobytes() for p in state["hier"].prolongations]
        chunks += [state["data"].x.tobytes(), state["data"].y.tobytes()]
        for m in MODELS:
            chunks += [a.tobytes() for _, a in state["params"][m].all_arrays()]
        return _sha(*chunks)

    def ops(self, state, tr, first):
        def fit(m):
            return train(state["specs"][m], state["data"], self.schedule, state["seed"])

        def infer(m, start):
            x = state["data"].x[start : start + self.infer_batch]
            return tr.call(
                "ensembles.model_forward", model_forward, state["specs"][m], state["params"][m], x
            )

        ops = [(f"train.{m}", lambda m=m: fit(m)) for m in MODELS]
        ops += [
            (f"infer.{m}", lambda m=m, i=i: infer(m, i))
            for m in MODELS
            for i in self.infer_starts
        ]
        return ops

    def ledger(self, state, part):
        """FLOPs the ledger must hold after one train() call: three times the
        forward cost of a batch, per step."""
        spec = state["specs"][part.split(".", 1)[1]]
        cost, _ = model_forward_flops(spec, self.n_features, batch=self.schedule.batch_size)
        return 3 * cost * self.steps

    def summarize(self, part, out):
        if part.startswith("train."):
            rows = [(p.flops, p.epoch, p.train_nmse, p.best_val_nmse) for p in out.points]
            bad = out.diverged or not all(math.isfinite(v) for row in rows for v in row[2:])
            return _sha(rows, out.diverged, out.epoch_log), self.steps, int(bad)
        return _sha(out.tobytes()), 1, int(not np.isfinite(out).all())

    def check(self, state, part, out):
        if part.startswith("infer."):
            return [(f"{part}: outputs are finite", bool(np.isfinite(out).all()))]
        pts = out.points
        return [
            (f"{part}: losses are finite",
             not out.diverged and all(math.isfinite(p.train_nmse) for p in pts)),
            (f"{part}: ledger equals 3 x model_forward_flops x steps",
             out.total_flops == self.ledger(state, part)),
            (f"{part}: best validation NMSE is below the initial value",
             pts[-1].best_val_nmse < pts[0].best_val_nmse),
        ]


class Coarsen:
    """Search leg: coarse_search of Tube(24,k,p,w) candidates against the
    paper fine tube, relabelled by a seeded permutation. Chain leg:
    paper_hierarchy() plus limit_curve over n = 4..24."""

    name = "coarsen"
    fine = (48, 13, 3)
    candidates = dict(n_rings=24, k_range=range(11, 14), p_range=range(0, 3), seam_weights=(1.0, 2.0))
    limit_n = range(4, 25)
    legs = {"gdd.search": "leg1", "gdd.chain": "leg2"}
    kernel = "eig"
    unit = "pairs/s"
    suffix = ".pairs_per_s"
    # |d - d_ref| <= RTOL * max(1, d_ref): relabelling the fine graph moves
    # the distances by rounding only
    rtol = 1e-9
    orth_tol = 1e-9

    def __init__(self):
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def work(self, part, state):
        if part == "gdd.search":
            c = self.candidates
            return len(c["k_range"]) * len(c["p_range"]) * len(c["seam_weights"])
        return 2 + 2 * len(self.limit_n)

    def setup(self, seed, scratch):
        fine = make_tube(*self.fine)
        perm = seeded_rng(seed).permutation(fine.n)
        return {"fine": relabel(fine, perm.tolist())}

    def setup_digest(self, state):
        return _sha(state["fine"].edges)

    def ops(self, state, tr, first):
        def search():
            got = []
            with _record_gdd(got) if first else contextlib.nullcontext():
                rows = coarse_search(state["fine"], **self.candidates)
            return {"rows": rows, "prolongations": [], "gdd": got}

        def chain():
            got = []
            with _record_gdd(got) if first else contextlib.nullcontext():
                hier = ensembles.paper_hierarchy()
                rows = limit_curve(self.limit_n)
            return {"rows": rows, "prolongations": hier.prolongations, "gdd": got}

        return [("gdd.search", search), ("gdd.chain", chain)]

    def summarize(self, part, out):
        digest = _sha(out["rows"], *(p.tobytes() for p in out["prolongations"]))
        return digest, self.work(part, None), 0

    def check(self, state, part, out):
        ref = {tuple(r[:-1]): r[-1] for r in self.reference[part]}
        got = {tuple(r[:-1]): r[-1] for r in out["rows"]}
        close = got.keys() == ref.keys() and all(
            abs(got[k] - ref[k]) <= self.rtol * max(1.0, abs(ref[k])) for k in ref
        )
        worst = max(
            (np.abs(r.p.T @ r.p - np.eye(r.p.shape[1])).max() for r in out["gdd"]),
            default=np.inf,
        )
        return [
            (f"{part}: distances match the recorded reference", close),
            (f"{part}: every prolongation has P^T P = I within {self.orth_tol:g}",
             len(out["gdd"]) == self.work(part, None) and worst <= self.orth_tol),
        ]


@contextlib.contextmanager
def _record_gdd(results):
    """Append the Prolongation of every gdd call made inside the block to
    ``results``, for the orthogonality check."""
    saved = [(owner, owner.gdd) for owner in (sys.modules["gpcn.gdd"], ensembles)]

    def recording(orig):
        def gdd(*args, **kwargs):
            results.append(orig(*args, **kwargs))
            return results[-1]

        return gdd

    for owner, orig in saved:
        owner.gdd = recording(orig)
    try:
        yield
    finally:
        for owner, orig in saved:
            owner.gdd = orig


WORKLOADS = {w.name: w for w in (Simulate, Train, Coarsen)}
