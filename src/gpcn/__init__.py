"""Multiscale graph prolongation convolutional networks.

The package covers the full pipeline: graph families and Laplacians
(:mod:`gpcn.graphs`), the linear graph diffusion distance and its optimized
prolongation operators (:mod:`gpcn.gdd`), single-scale GCNs and multiscale
ensembles over a minimal reverse-mode tape (:mod:`gpcn.gcn`,
:mod:`gpcn.ensembles`, :mod:`gpcn.autodiff`), a coarse-grained microtubule
simulator that regenerates the benchmark dataset (:mod:`gpcn.simulator`),
and training loops with FLOPs accounting and multigrid schedules
(:mod:`gpcn.training`). ``python -m gpcn`` exposes the command line.
"""

from .autodiff import Tape
from .gcn import GcnSpec, init_gcn_params
from .gdd import Prolongation, gdd
from .graphs import Graph, laplacian, make_grid, make_tube, structure_power
from .ensembles import (
    Hierarchy,
    ModelSpec,
    build_from_table,
    desk_hierarchy,
    init_model_params,
    model_forward,
    paper_hierarchy,
)
from .numcore import AdamState, adam_step, eig_sym, seeded_rng
from .simulator import SimConfig, build_geometry, generate_dataset, run_simulation
from .training import RunRecord, ScheduleSpec, Trainer, nmse, train

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "GcnSpec",
    "init_gcn_params",
    "Prolongation",
    "gdd",
    "Graph",
    "laplacian",
    "make_grid",
    "make_tube",
    "structure_power",
    "Hierarchy",
    "ModelSpec",
    "build_from_table",
    "desk_hierarchy",
    "init_model_params",
    "model_forward",
    "paper_hierarchy",
    "AdamState",
    "adam_step",
    "eig_sym",
    "seeded_rng",
    "SimConfig",
    "build_geometry",
    "generate_dataset",
    "run_simulation",
    "RunRecord",
    "ScheduleSpec",
    "Trainer",
    "nmse",
    "train",
    "__version__",
]
