"""Command-line interface.

Subcommands mirror the package's capabilities one to one:

* ``generate``      simulate a dataset over a strength-parameter grid
* ``gdd``           distance and prolongation between two graph files
* ``coarse-search`` distance table over candidate coarse tubes
* ``limit-curve``   tube/grid family distances against growing tubes
* ``train``         train a named model on a dataset, write the run trace
* ``flops``         predicted per-layer costs of a named model

Every command is deterministic given its config and seed, writes a manifest
echoing both, and exits 0 on success, 2 on usage/config errors, 3 on
numerical failure. ``main`` is the one place that maps failures to exit
codes: a ``NumericalError`` exits 3, and any ``ValueError`` or ``OSError``
exits 2 with one ``error: <message>`` line. The library raises
``ValueError`` for every argument it rejects, every argument passed here
comes from the user, and every file opened or written is one the user
named. Every JSON value is type-checked with ``serialize.check_value``, here
or by the config dataclass it fills, and nothing is coerced, so a
``TypeError`` is never mapped and stays a bug.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import ensembles, graphs, simulator, training
from .gdd import coarse_search, gdd as run_gdd, limit_curve
from .numcore import NumericalError
from .serialize import check_value, dump_json, save_arrays, write_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Bad or unknown configuration content (exit code 2)."""


def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = set(check_value("dict", obj, where)) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {', '.join(sorted(unknown))}")


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("this command needs --config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _out_dir(args) -> str:
    if args.out is None:
        raise ConfigError("this command needs --out")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_manifest(out, command: str, config, seed=None) -> None:
    dump_json(
        os.path.join(out, "manifest.json"),
        {"command": command, "config": config, "seed": seed},
    )


def _numbers(kind: str, values, where: str) -> list:
    """A config list whose entries are all of ``kind``, unchanged."""
    return [check_value(kind, v, f"{where} entry") for v in check_value("list", values, where)]


_TUBE_KINDS = {"n_rings": "int", "k": "int", "offset": "int", "seam_weight": "float"}


def _tube_args(d, where: str, defaults: dict) -> list:
    """The values of a tube spec for the keys of ``defaults``, in order, each
    checked against its kind; a default of None makes a key required."""
    _require_keys(d, defaults, where)
    d = {**defaults, **d}
    return [check_value(_TUBE_KINDS[key], d[key], f"{where} {key}") for key in defaults]


def _tube_from_dict(d, where: str) -> graphs.Graph:
    spec = {"n_rings": None, "k": None, "offset": None, "seam_weight": 1.0}
    return graphs.make_tube(*_tube_args(d, where, spec))


def _fields_config(cls, d, where: str, skip=()) -> dict:
    """A config object whose keys are fields of dataclass ``cls`` (less
    ``skip``); the dataclass checks the values."""
    _require_keys(d, {f.name for f in dataclasses.fields(cls)} - set(skip), where)
    return d


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    _require_keys(config, {"tube", "sim", "grid", "strengths", "seed"}, "config")
    seed = args.seed if args.seed is not None else check_value("int", config.get("seed", 0), "seed")
    grid = check_value("dict", config.get("grid", {}), "grid")
    for key, values in grid.items():
        check_value("list", values, f"grid {key!r}")
    sim_cfg = simulator.SimConfig(
        strengths=config.get("strengths", {}),
        **_fields_config(simulator.SimConfig, config.get("sim", {}), "sim", skip={"strengths"}),
    )
    tube = _tube_args(config.get("tube", {}), "tube", {"n_rings": 12, "k": 13, "offset": 3})
    model = simulator.build_geometry(*tube)
    data = simulator.generate_dataset(model, grid, sim_cfg, seed=seed)
    out = _out_dir(args)
    simulator.save_dataset(data, out, fmt=args.format)
    _write_manifest(out, "generate", config, seed)
    failed = [r for r in data.manifest["runs"] if r["status"] != "ok"]
    print(
        f"wrote {data.n_frames} frames from "
        f"{len(data.manifest['runs']) - len(failed)} runs to {out}"
        + (f" ({len(failed)} runs diverged)" if failed else "")
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# gdd / coarse-search / limit-curve


def _read_graph(path) -> graphs.Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graphs.graph_from_edgelist(fh.read(), name=os.path.basename(path))


def cmd_gdd(args) -> int:
    result = run_gdd(_read_graph(args.graph_a), _read_graph(args.graph_b), args.alpha)
    print(f"{result.distance!r}")
    if args.out is not None:
        out = _out_dir(args)
        if args.format == "csv":
            write_csv(
                os.path.join(out, "prolongation.csv"),
                [f"c{j}" for j in range(result.p.shape[1])],
                [row.tolist() for row in result.p],
            )
        else:
            save_arrays(
                os.path.join(out, "prolongation.bin"),
                {"p": result.p},
                {"alpha": args.alpha, "objective": result.objective},
            )
        _write_manifest(
            out, "gdd", {"graph_a": args.graph_a, "graph_b": args.graph_b, "alpha": args.alpha}
        )
    return EXIT_OK


def cmd_coarse_search(args) -> int:
    config = _load_config(args.config)
    _require_keys(
        config,
        {"fine", "candidate_rings", "k_values", "p_values", "seam_weights", "alpha"},
        "config",
    )
    fine = _tube_from_dict(config.get("fine", {}), "fine")
    half_fine = config["fine"]["n_rings"] // 2  # an int, checked by _tube_from_dict
    n_rings = check_value("int", config.get("candidate_rings", half_fine), "candidate_rings")
    k_values = _numbers("int", config.get("k_values", list(range(3, 13))), "k_values")
    p_values = _numbers("int", config.get("p_values", list(range(4))), "p_values")
    seam_weights = _numbers("float", config.get("seam_weights", [1.0, 2.0]), "seam_weights")
    alpha = config.get("alpha", 1.0)
    rows = coarse_search(fine, n_rings, k_values, p_values, seam_weights, alpha)
    out = _out_dir(args)
    write_csv(os.path.join(out, "coarse_search.csv"), ["k", "p", "seam_weight", "distance"], rows)
    _write_manifest(out, "coarse-search", config)
    best = min(rows, key=lambda r: r[3])
    print(f"{len(rows)} candidates; nearest k={best[0]} p={best[1]} seam={best[2]:g} distance={best[3]!r}")
    return EXIT_OK


def cmd_limit_curve(args) -> int:
    config = _load_config(args.config)
    _require_keys(config, {"n_values", "k", "alpha"}, "config")
    n_values = _numbers("int", config.get("n_values", list(range(4, 11))), "n_values")
    k = check_value("int", config.get("k", 13), "k")
    rows = limit_curve(n_values, k=k, alpha=config.get("alpha", 1.0))
    out = _out_dir(args)
    write_csv(os.path.join(out, "limit_curve.csv"), ["n", "family", "distance"], rows)
    _write_manifest(out, "limit-curve", config)
    print(f"wrote {len(rows)} rows to {os.path.join(out, 'limit_curve.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / flops


def _hierarchy_from_config(value) -> ensembles.Hierarchy:
    if value == "desk" or value is None:
        return ensembles.desk_hierarchy()
    if value == "paper":
        return ensembles.paper_hierarchy()
    if isinstance(value, list):
        return ensembles.make_hierarchy(
            [_tube_from_dict(d, f"hierarchy[{i}]") for i, d in enumerate(value)]
        )
    raise ConfigError("hierarchy must be 'desk', 'paper', or a list of tube specs")


def cmd_train(args) -> int:
    config = _load_config(args.config)
    _require_keys(config, {"dataset", "model", "hierarchy", "schedule", "seed"}, "config")
    dataset = check_value("str", config.get("dataset"), "dataset")
    schedule = training.ScheduleSpec(
        **_fields_config(training.ScheduleSpec, config.get("schedule", {}), "schedule")
    )
    seed = args.seed if args.seed is not None else check_value("int", config.get("seed", 0), "seed")
    data = simulator.load_dataset(dataset)
    name = config.get("model", "single_gcn")
    spec = ensembles.build_from_table(name, _hierarchy_from_config(config.get("hierarchy")))
    trainer = training.Trainer(spec, data, schedule, seed)
    record = trainer.run()
    out = _out_dir(args)
    record.to_csv(os.path.join(out, "run_record.csv"))
    ensembles.save_checkpoint(os.path.join(out, "checkpoint.bin"), spec, trainer.params)
    if record.stage_starts:
        write_csv(os.path.join(out, "stages.csv"), ["stage", "epoch"], record.stage_starts)
    _write_manifest(out, "train", config, seed)
    if record.diverged:
        print("training diverged; partial record written", file=sys.stderr)
        return EXIT_NUMERICAL
    print(
        f"{name}: best validation nmse {record.best_val_nmse!r} "
        f"after {record.points[-1].epoch} epochs ({record.total_flops:,} flops)"
    )
    return EXIT_OK


def cmd_flops(args) -> int:
    spec = ensembles.build_from_table(args.model, _hierarchy_from_config(args.hierarchy))
    rows = [
        (i, layer, cost)
        for i, lvl in enumerate(spec.levels)
        for layer, cost in training.layer_flops(lvl, args.features)
    ]
    total, breakdown = training.model_forward_flops(spec, args.features)
    for level, layer, cost in rows:
        print(f"level {level}  {layer:<8} {cost:>14,}")
    print(f"forward total (with projections): {total:,}  {breakdown}")
    if args.out is not None:
        out = _out_dir(args)
        write_csv(os.path.join(out, "flops.csv"), ["level", "layer", "flops"], rows)
        _write_manifest(out, "flops", {"model": args.model, "hierarchy": args.hierarchy})
    return EXIT_OK


# ---------------------------------------------------------------------------


_OPTIONS = {
    "config": {"help": "JSON config file"},
    "seed": {"type": int, "help": "seed override"},
    "out": {"help": "output directory"},
    "format": {"choices": ("csv", "bin"), "default": "csv"},
    "alpha": {"type": float, "default": 1.0},
    "model": {"required": True},
    "hierarchy": {"default": "desk"},
    "features": {"type": int, "default": 10},
}

# command -> (handler, the options it reads, help); gdd also takes two graph files
_COMMANDS = {
    "generate": (cmd_generate, "config seed out format", "simulate a dataset over a strength grid"),
    "gdd": (cmd_gdd, "alpha out format", "diffusion distance between two edge-list graphs"),
    "coarse-search": (cmd_coarse_search, "config out", "distance table over candidate coarse tubes"),
    "limit-curve": (cmd_limit_curve, "config out", "tube/grid family distances vs tube length"),
    "train": (cmd_train, "config seed out", "train a named model on a dataset directory"),
    "flops": (
        cmd_flops, "model hierarchy features out", "predicted per-layer costs of a named model"
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcn",
        description="Multiscale graph prolongation networks and the microtubule benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, options, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "gdd":
            p.add_argument("graph_a")
            p.add_argument("graph_b")
        for option in options.split():
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # divergence guards and isfinite checks report inf and nan; numpy need not warn first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
