"""The benchmark's tracer patches functions by module and name (see
perfbench/spans.py). A rename in the package would crash the traced run or
leave a per-layer metric at zero without failing; these tests run a small
traced train and simulation, and a small traced coarse search and limit
curve, and check that every patched layer recorded spans.
"""

from pathlib import Path

from gpcn.ensembles import build_from_table, make_hierarchy
from gpcn.gdd import coarse_search, gdd, limit_curve
from gpcn.graphs import make_tube
from gpcn.simulator import SimConfig, build_geometry, desk_strength_grid, generate_dataset
from gpcn.training import ScheduleSpec, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# tape ops a gpcn train step records; row_softmax is diffpool's alone
GPCN_OPS = ("matmul", "spmm", "add", "relu", "sigmoid", "concat", "transpose", "mse")


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads  # noqa: F401  (the runner imports it with the package)

    return spans.Tracer()


def test_traced_run_records_every_patched_layer(monkeypatch):
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        data = generate_dataset(
            build_geometry(4, 13, 3),
            desk_strength_grid(),
            SimConfig(ramp_steps=2, hold_steps=2, save_every=1),
            seed=1,
        )
        hier = make_hierarchy([make_tube(4, 13, 3), make_tube(2, 13, 1)])
        schedule = ScheduleSpec(total_epochs=1, batches_per_epoch=1, batch_size=4)
        record = train(build_from_table("a_gpcn2", hier), data, schedule, seed=2)
    finally:
        tracer.uninstall()
    assert not record.diverged
    names = set(tracer.names)
    expected = {
        "ensembles.model_graph",
        "ensembles.model_forward",
        "gcn.gcn_graph",
        "numcore.adam_step",
        "autodiff.backward",
        "gdd.gdd",
        "numcore.eig_sym",
        "gdd.rlap_solve",
        "gdd.warm_start",
        "simulator.step",
        "simulator.forces_and_energy",
    }
    expected |= {f"autodiff.{op}.{way}" for op in GPCN_OPS for way in ("fwd", "bwd")}
    assert expected <= names, sorted(expected - names)


def test_traced_coarsening_records_every_gdd_layer(monkeypatch):
    # the coarsen workload's spans exist only while every distance is
    # computed in this process, through these module names. Distances never
    # lift P, so the one P read here makes the only warm_start span; gdd is
    # called by the name imported above, which the tracer does not patch,
    # so it adds no gdd.gdd span of its own
    tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        rows = coarse_search(make_tube(4, 5, 1), 2, k_range=(3, 4), p_range=(0, 1))
        rows += limit_curve([2, 3], k=4)
        p_reads = [gdd(make_tube(2, 5, 1), make_tube(4, 5, 1)).p]
    finally:
        tracer.uninstall()
    names = set(tracer.names)
    expected = {"gdd.gdd", "numcore.eig_sym", "gdd.rlap_solve", "gdd.warm_start", "graphs.laplacian"}
    assert expected <= names, sorted(expected - names)
    assert tracer.names.count("gdd.gdd") == len(rows)
    assert tracer.names.count("gdd.warm_start") == len(p_reads)
