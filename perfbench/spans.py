"""In-memory span tracer for the benchmark's traced run.

The tracer patches public functions at the module namespace their caller
looks them up in, plus every recorded Tape op, and keeps one span per call:
(name, start, end, parent). Backward time is attributed to an op kind by
wrapping the vjp closures on the node each op returns. No wrapper changes an
argument or a result, so a traced round must reproduce the untraced outputs
bit for bit; the runner checks that.

Spans stay in memory until the run ends. ``layer_metrics`` turns them into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict

TAPE_OPS = (
    "matmul",
    "spmm",
    "add",
    "relu",
    "sigmoid",
    "concat",
    "row_softmax",
    "transpose",
    "mse",
)
MODELS = ("single_gcn", "a_gpcn3", "ngcn5", "diffpool3")  # one per aggregation kind


class NullTracer:
    """Untraced runs: every call goes straight through."""

    def call(self, name, fn, *args, note=None, **kwargs):
        return fn(*args, **kwargs)

    def op(self, part, round_index, fn, *args):
        return fn(*args)


class Tracer(NullTracer):
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.notes: dict = {}  # span index -> number reported by a note hook
        self.roots: list = []  # (span index, part, round index); round -1 is set-up
        self.flops: Counter = Counter()  # computed forward FLOPs per tape op kind
        self._stack = [-1]
        self._patches: list = []
        self._tape_nodes = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, note=None, **kwargs):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()
        if note is not None:
            self.notes[i] = note(args, result)
        return result

    def op(self, part, round_index, fn, *args):
        self.roots.append((len(self.names), part, round_index))
        return self.call(part, fn, *args)

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, name, note=None):
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, orig, *args, note=note, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def _patch_tape_op(self, tape_cls, op):
        orig = getattr(tape_cls, op)
        fwd, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"

        def timed_vjp(vjp):
            return lambda g: self.call(bwd, vjp, g)

        def traced(tape, *args, **kwargs):
            node = self.call(fwd, orig, tape, *args, **kwargs)
            node.vjps = tuple(timed_vjp(v) for v in node.vjps)
            self._tape_nodes[tape] = self._tape_nodes.get(tape, 0) + 1
            self.flops[op] += _forward_flops(op, args, node.value)
            return node

        setattr(tape_cls, op, traced)
        self._patches.append((tape_cls, op, orig))

    def install(self):
        """Patch every layer boundary the benchmark reports on."""
        import gpcn.autodiff as autodiff
        import gpcn.ensembles as ensembles
        import gpcn.simulator as simulator
        import gpcn.training as training

        # gpcn.gdd is the function re-exported by the package; the module
        # object lives in sys.modules
        gdd_mod = sys.modules["gpcn.gdd"]
        self.patch(simulator, "forces_and_energy", "simulator.forces_and_energy")
        self.patch(simulator, "step", "simulator.step")
        self.patch(training, "model_graph", "ensembles.model_graph")
        self.patch(training, "model_forward", "ensembles.model_forward")
        self.patch(training, "adam_step", "numcore.adam_step")
        self.patch(ensembles, "gcn_graph", "gcn.gcn_graph")
        self.patch(ensembles, "gdd", "gdd.gdd")
        self.patch(ensembles, "laplacian", "graphs.laplacian")
        self.patch(
            ensembles, "structure_power", "graphs.structure_power",
            note=lambda args, r: r.nnz,
        )
        self.patch(gdd_mod, "gdd", "gdd.gdd")
        self.patch(gdd_mod, "laplacian", "graphs.laplacian")
        self.patch(gdd_mod, "eig_sym", "numcore.eig_sym")
        self.patch(gdd_mod, "rlap_solve", "gdd.rlap_solve")
        self.patch(gdd_mod, "warm_start", "gdd.warm_start")
        self.patch(
            gdd_mod, "refine_orthogonal", "gdd.refine_orthogonal",
            note=lambda args, r: len(r.trace) - 1,
        )
        tape_cls = autodiff.Tape
        for op in TAPE_OPS:
            self._patch_tape_op(tape_cls, op)
        orig_variable = tape_cls.variable

        def variable(tape, value):
            self._tape_nodes[tape] = self._tape_nodes.get(tape, 0) + 1
            return orig_variable(tape, value)

        tape_cls.variable = variable
        self._patches.append((tape_cls, "variable", orig_variable))
        self.patch(
            tape_cls, "backward", "autodiff.backward",
            note=lambda args, r: self._tape_nodes.get(args[0], 0),
        )

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self):
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "notes": {str(k): v for k, v in self.notes.items()},
            "roots": self.roots,
        }


def _forward_flops(op, args, out):
    """Multiply-add count x 2 of one forward product, from shapes and nnz."""
    if op == "matmul":
        return 2 * out.size * args[0].shape[-1]
    if op == "spmm":
        return 2 * args[0].nnz * (out.size // out.shape[-2])
    return 0


# ---------------------------------------------------------------------------
# metrics


def _percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(tr: Tracer, ledger_per_op: dict):
    """Per-layer metrics for one set-up plus one round, and the exact-count
    repeat check.

    Spans under the set-up root count once; spans under round roots are
    averaged over the traced rounds. ``ledger_per_op`` maps a train part to
    the FLOPs ledger of one ``train()`` call. Returns (metrics, checks).
    """
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tr.parents):
        if p >= 0:
            child[p] += dur[i]
    root_of = list(range(n))
    for i, p in enumerate(tr.parents):
        if p >= 0:
            root_of[i] = root_of[p]
    root_info = {i: (part, r) for i, part, r in tr.roots}
    rounds = sorted({r for _, _, r in tr.roots if r >= 0})
    n_rounds = max(1, len(rounds))

    def weight(i):
        return 1.0 if root_info[root_of[i]][1] < 0 else 1.0 / n_rounds

    incl, self_t, calls, notes = Counter(), Counter(), Counter(), Counter()
    per_round = defaultdict(Counter)  # round -> exact counts
    by_part = defaultdict(list)  # (root part, name) -> span indices
    for i, name in enumerate(tr.names):
        part, r = root_info[root_of[i]]
        w = weight(i)
        incl[name] += w * dur[i]
        self_t[name] += w * (dur[i] - child[i])
        calls[name] += w
        by_part[(part, name)].append(i)
        if i in tr.notes:
            notes[name] += w * tr.notes[i]
        if r >= 0:
            per_round[r][name + ".calls"] += 1
            if i in tr.notes:
                per_round[r][name + ".note"] += tr.notes[i]

    m = {}
    f = "simulator.forces_and_energy"
    m[f + ".calls"] = round(calls[f])
    m[f + ".self_s"] = self_t[f]
    fdur = {scale: [dur[i] for i in by_part[("sim." + scale, f)]] for scale in ("desk", "paper")}
    every = fdur["desk"] + fdur["paper"]
    m[f + ".us_p50"] = 1e6 * statistics.median(every) if every else 0.0
    for scale, vals in fdur.items():
        m[f"{f}.{scale}.us_p50"] = 1e6 * statistics.median(vals) if vals else 0.0
    m["simulator.step.self_s"] = self_t["simulator.step"]
    m["simulator.generate_dataset.self_s"] = self_t["simulator.generate_dataset"]
    m["simulator.runs_diverged"] = round(notes["simulator.generate_dataset"])
    m["serialize.save_dataset.s"] = incl["serialize.save_dataset"]
    m["serialize.load_dataset.s"] = incl["serialize.load_dataset"]
    m["serialize.bytes_written"] = round(notes["serialize.save_dataset"])

    for op in TAPE_OPS:
        m[f"autodiff.{op}.calls"] = round(calls[f"autodiff.{op}.fwd"])
        m[f"autodiff.{op}.fwd_s"] = incl[f"autodiff.{op}.fwd"]
        m[f"autodiff.{op}.bwd_s"] = incl[f"autodiff.{op}.bwd"]
    m["autodiff.backward.self_s"] = self_t["autodiff.backward"]
    for op in ("spmm", "matmul"):
        fwd_total = sum(dur[i] for i in range(n) if tr.names[i] == f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.gflop_s"] = tr.flops[op] / fwd_total / 1e9 if fwd_total else 0.0

    checks = []
    for model in MODELS:
        part = "train." + model
        counts = {tr.notes[i] for i in by_part[(part, "autodiff.backward")]}
        if len(counts) > 1:
            checks.append((f"{model} tape nodes per step are constant", False))
        m[f"autodiff.{model}.nodes_per_step"] = max(counts) if counts else 0
        steps = _train_steps(tr, sorted(by_part[(part, "ensembles.model_graph")]
                                        + by_part[(part, "numcore.adam_step")]))
        ms = [1e3 * s for s in steps]
        m[f"training.{model}.step_ms_p50"] = statistics.median(ms) if ms else 0.0
        m[f"training.{model}.step_ms_p90"] = _percentile(ms, 90) if ms else 0.0
        n_ops = len([1 for _, p, r in tr.roots if p == part])
        ledger = ledger_per_op.get(part, 0)
        m[f"training.{model}.ledger_flops"] = ledger
        m[f"training.{model}.achieved_gflop_s"] = (
            ledger * n_ops / sum(steps) / 1e9 if steps else 0.0
        )

    m["gcn.gcn_graph.s"] = incl["gcn.gcn_graph"]
    m["ensembles.model_graph.s"] = incl["ensembles.model_graph"]
    m["ensembles.model_forward.s"] = incl["ensembles.model_forward"]
    for name in ("numcore.adam_step", "numcore.eig_sym"):
        m[name + ".calls"] = round(calls[name])
        m[name + ".self_s"] = self_t[name]
    m["gdd.gdd.calls"] = round(calls["gdd.gdd"])
    for name in ("gdd.rlap_solve", "gdd.warm_start", "gdd.refine_orthogonal"):
        m[name + ".s"] = incl[name]
    m["gdd.refine_orthogonal.accepted_steps"] = round(notes["gdd.refine_orthogonal"])
    m["graphs.structure_power.s"] = incl["graphs.structure_power"]
    m["graphs.structure_power.nnz"] = round(notes["graphs.structure_power"])
    m["graphs.laplacian.s"] = incl["graphs.laplacian"]

    first = per_round[rounds[0]] if rounds else Counter()
    same = all(per_round[r] == first for r in rounds)
    checks.append(("exact counts repeat in every traced round", same))
    return m, checks


def _train_steps(tr: Tracer, idx):
    """Training step durations: from a recorded forward (model_graph) to the
    end of the last ADAM update that follows it."""
    steps = []
    start = end = None
    for i in idx:
        if tr.names[i] == "ensembles.model_graph":
            if start is not None and end is not None:
                steps.append(end - start)
            start, end = tr.starts[i], None
        elif start is not None:
            end = tr.ends[i]
    if start is not None and end is not None:
        steps.append(end - start)
    return steps
