"""The benchmark's tracer patches functions by module and name (see
perfbench/spans.py). A rename in the package would crash the traced run or
leave a per-layer metric at zero without failing; this test runs a small
traced train and simulation and checks that every patched layer recorded
spans.
"""

from pathlib import Path

from gpcn.ensembles import build_from_table, make_hierarchy
from gpcn.graphs import make_tube
from gpcn.simulator import SimConfig, build_geometry, desk_strength_grid, generate_dataset
from gpcn.training import ScheduleSpec, train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# tape ops a gpcn train step records; row_softmax is diffpool's alone
GPCN_OPS = ("matmul", "spmm", "add", "relu", "sigmoid", "concat", "transpose", "mse")


def test_traced_run_records_every_patched_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads  # noqa: F401  (the runner imports it with the package)

    tracer = spans.Tracer()
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
