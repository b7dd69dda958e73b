import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import struct
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gpcn import training
from gpcn.cli import _build_parser, main
from gpcn.ensembles import (
    build_from_table,
    init_model_params,
    load_checkpoint,
    make_hierarchy,
    save_checkpoint,
)
from gpcn.graphs import graph_to_edgelist, make_grid, make_tube
from gpcn.numcore import seeded_rng
from gpcn.serialize import load_arrays, save_arrays
from gpcn.simulator import load_dataset, save_dataset
from gpcn.training import ScheduleSpec, flops_gcn_layer


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def dir_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


GEN_CONFIG = {
    "tube": {"n_rings": 4, "k": 13, "offset": 3},
    "sim": {"ramp_steps": 200, "hold_steps": 200, "save_every": 100},
    "grid": {"LatAssoc": [0.5, 1.5]},
    "seed": 3,
}


class TestGenerate:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", GEN_CONFIG)
        out = tmp_path / "out"
        assert main(["generate", "--config", cfg, "--out", str(out), "--format", "bin"]) == 0
        assert (out / "frames.bin").exists() and (out / "manifest.json").exists()
        assert "8 frames from 2 runs" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", GEN_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(a), "--format", "bin"]) == 0
        assert main(["generate", "--config", cfg, "--out", str(b), "--format", "bin"]) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_invalid_strength_names_the_key(self, tmp_path, capsys):
        bad = dict(GEN_CONFIG, grid={"LatAssoc": [-1.0]})
        cfg = write_json(tmp_path / "c.json", bad)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "LatAssoc" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = dict(GEN_CONFIG, typo=1)
        cfg = write_json(tmp_path / "c.json", bad)
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "typo" in capsys.readouterr().err


class TestGdd:
    def test_same_graph_distance_zero(self, tmp_path, capsys):
        g = make_tube(3, 4, 1)
        p = tmp_path / "g.txt"
        p.write_text(graph_to_edgelist(g))
        assert main(["gdd", str(p), str(p)]) == 0
        assert float(capsys.readouterr().out.strip()) < 1e-8

    def test_writes_prolongation(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(graph_to_edgelist(make_grid(1, 3)))
        b.write_text(graph_to_edgelist(make_grid(2, 3)))
        out = tmp_path / "out"
        assert main(["gdd", str(a), str(b), "--out", str(out), "--format", "bin"]) == 0
        from gpcn.serialize import load_arrays

        arrays, meta = load_arrays(out / "prolongation.bin")
        assert arrays["p"].shape == (6, 3)

    def test_missing_file(self, tmp_path, capsys):
        assert main(["gdd", str(tmp_path / "nope.txt"), str(tmp_path / "nope.txt")]) == 2

    def test_size_order_enforced(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(graph_to_edgelist(make_grid(2, 3)))
        b.write_text(graph_to_edgelist(make_grid(1, 3)))
        assert main(["gdd", str(a), str(b)]) == 2

    def test_directory_argument_exits_two(self, tmp_path, capsys):
        fine = tmp_path / "fine.txt"
        fine.write_text(graph_to_edgelist(make_grid(2, 3)))
        assert main(["gdd", str(tmp_path), str(fine)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestCoarseSearch:
    def test_exact_candidate_is_minimal(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "fine": {"n_rings": 6, "k": 4, "offset": 1},
                "candidate_rings": 6,
                "k_values": [3, 4],
                "p_values": [0, 1],
                "seam_weights": [1.0],
            },
        )
        out = tmp_path / "out"
        assert main(["coarse-search", "--config", cfg, "--out", str(out)]) == 0
        assert "nearest k=4 p=1" in capsys.readouterr().out
        rows = (out / "coarse_search.csv").read_text().splitlines()
        assert rows[0] == "k,p,seam_weight,distance"
        assert len(rows) == 1 + 4

    def test_deterministic_csv(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "fine": {"n_rings": 4, "k": 4, "offset": 1},
                "candidate_rings": 4,
                "k_values": [3],
                "p_values": [0, 1],
                "seam_weights": [1.0, 2.0],
            },
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["coarse-search", "--config", cfg, "--out", str(a)]) == 0
        assert main(["coarse-search", "--config", cfg, "--out", str(b)]) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_candidate_rings_default_to_half_the_fine_rings(self, tmp_path):
        search = {
            "fine": {"n_rings": 8, "k": 4, "offset": 1},
            "k_values": [3, 4],
            "p_values": [0, 1, 2, 3],
            "seam_weights": [1.0],
        }
        default = write_json(tmp_path / "default.json", search)
        four = write_json(tmp_path / "four.json", dict(search, candidate_rings=4))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["coarse-search", "--config", default, "--out", str(a)]) == 0
        assert main(["coarse-search", "--config", four, "--out", str(b)]) == 0
        rows = (a / "coarse_search.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 4  # offset 3 is feasible only with 4 or more rings
        assert (a / "coarse_search.csv").read_bytes() == (b / "coarse_search.csv").read_bytes()


class TestLimitCurve:
    def test_rows_ordered_by_n(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"n_values": [3, 2], "k": 5})
        out = tmp_path / "out"
        assert main(["limit-curve", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "limit_curve.csv").read_text().splitlines()[1:]
        ns = [int(r.split(",")[0]) for r in rows]
        assert ns == sorted(ns)
        families = {r.split(",")[1] for r in rows}
        assert families == {"tube", "grid"}


SEARCH_CONFIG = {
    "fine": {"n_rings": 4, "k": 4, "offset": 1},
    "candidate_rings": 4,
    "k_values": [3],
    "p_values": [0],
    "seam_weights": [1.0],
}

def _truncate_frames(dataset):
    frames = dataset / "frames.bin"
    frames.write_bytes(frames.read_bytes()[:40])


def _drop_manifest(dataset):
    (dataset / "manifest.json").unlink()


def _edit_frames(edit):
    """Rewrite frames.bin after ``edit(arrays, meta)`` changed them in place."""

    def damage(dataset):
        arrays, meta = load_arrays(dataset / "frames.bin")
        edit(arrays, meta)
        save_arrays(dataset / "frames.bin", arrays, meta)

    return damage


def _edit_header(edit):
    """Rewrite the JSON header of frames.bin after ``edit(header)`` changed it
    in place; the payload is kept as it is."""

    def damage(dataset):
        frames = dataset / "frames.bin"
        raw = frames.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + hlen])
        edit(header)
        new = json.dumps(header).encode("utf-8")
        frames.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + hlen :])

    return damage


def _flip_byte(index):
    """Flip every bit of one byte of frames.bin."""

    def damage(dataset):
        frames = dataset / "frames.bin"
        raw = bytearray(frames.read_bytes())
        raw[index] ^= 0xFF
        frames.write_bytes(bytes(raw))

    return damage


def _keep_one_frame(arrays, meta):
    arrays.update({name: a[:1] for name, a in arrays.items()})


def _csv_lines(edit):
    """Rewrite the dataset as frames.csv and replace its lines, the header
    first, by ``edit(lines)``."""

    def damage(dataset):
        data = load_dataset(dataset)
        (dataset / "frames.bin").unlink()
        save_dataset(data, dataset, fmt="csv")
        frames = dataset / "frames.csv"
        frames.write_text("".join(edit(frames.read_text().splitlines(keepends=True))))

    return damage


# case -> (command, payload, extra arguments). The payload is bad edge-list
# text for gdd; for flops, which reads no config, the text of a file already
# at the --out path, or None; a config for the other commands; and for train
# a pair of config entries and a function that damages a copy of the dataset.
BAD_INPUTS = {
    "gdd-malformed-header": ("gdd", "three\n0 1 1.0\n", []),
    "gdd-node-out-of-range": ("gdd", "3\n0 5 1.0\n", []),
    "gdd-nonpositive-weight": ("gdd", "3\n0 1 -1.0\n", []),
    "gdd-nan-weight": ("gdd", "3\n0 1 nan\n1 2 1.0\n", []),
    "gdd-inf-weight": ("gdd", "3\n0 1 inf\n1 2 1.0\n", []),
    "gdd-degree-overflows": ("gdd", "3\n0 1 1e308\n1 2 1e308\n", []),
    "gdd-eigenvalues-overflow": ("gdd", "2\n0 1 1e308\n", []),
    "gdd-no-node-count": ("gdd", "0 1 1.0\n1 2 1.0\n", []),
    "gdd-fractional-node-id": ("gdd", "3\n0 1.5 1.0\n", []),
    "gdd-weight-not-a-number": ("gdd", "3\n0 1 x\n", []),
    "gdd-alpha-zero": ("gdd", None, ["--alpha", "0"]),
    "gdd-alpha-nan": ("gdd", None, ["--alpha", "nan"]),
    "gdd-alpha-overflows": ("gdd", None, ["--alpha", "1e200"]),
    "limit-curve-alpha-zero": ("limit-curve", {"n_values": [2], "k": 5, "alpha": 0}, []),
    "coarse-search-alpha-negative": ("coarse-search", dict(SEARCH_CONFIG, alpha=-1), []),
    "coarse-search-alpha-overflows": ("coarse-search", dict(SEARCH_CONFIG, alpha=1e200), []),
    "coarse-search-one-candidate-ring": ("coarse-search", dict(SEARCH_CONFIG, candidate_rings=1), []),
    "coarse-search-candidates-exceed-fine": (
        "coarse-search", dict(SEARCH_CONFIG, candidate_rings=6), []
    ),
    "coarse-search-no-candidates": ("coarse-search", dict(SEARCH_CONFIG, p_values=[4]), []),
    "coarse-search-candidate-k-below-two": (
        "coarse-search", dict(SEARCH_CONFIG, k_values=[1]), []
    ),
    "coarse-search-rings-not-a-number": (
        "coarse-search", dict(SEARCH_CONFIG, candidate_rings="four"), []
    ),
    "coarse-search-k-not-a-number": ("coarse-search", dict(SEARCH_CONFIG, k_values=["x"]), []),
    "coarse-search-p-not-a-number": ("coarse-search", dict(SEARCH_CONFIG, p_values=["x"]), []),
    "coarse-search-seam-not-a-number": (
        "coarse-search", dict(SEARCH_CONFIG, seam_weights=["x"]), []
    ),
    "limit-curve-n-not-a-number": ("limit-curve", {"n_values": ["x"], "k": 5}, []),
    "limit-curve-k-not-a-number": ("limit-curve", {"n_values": [2], "k": "x"}, []),
    "limit-curve-k-below-two": ("limit-curve", {"n_values": [2], "k": 1}, []),
    "limit-curve-n-below-two": ("limit-curve", {"n_values": [1, 3], "k": 5}, []),
    "flops-features-zero": ("flops", None, ["--model", "single_gcn", "--features", "0"]),
    "flops-unknown-model": ("flops", None, ["--model", "vit"]),
    "flops-out-is-a-file": ("flops", "", ["--model", "single_gcn"]),
    "limit-curve-n-not-an-integer": ("limit-curve", {"n_values": [4.9], "k": 5}, []),
    "limit-curve-k-not-an-integer": ("limit-curve", {"n_values": [2], "k": 3.9}, []),
    "limit-curve-alpha-nan": ("limit-curve", {"n_values": [2], "k": 5, "alpha": float("nan")}, []),
    "coarse-search-k-a-string": ("coarse-search", dict(SEARCH_CONFIG, k_values=["3"]), []),
    "coarse-search-rings-a-bool": ("coarse-search", dict(SEARCH_CONFIG, candidate_rings=True), []),
    "limit-curve-config-not-an-object": ("limit-curve", [2, 3], []),
    "coarse-search-fine-not-an-object": ("coarse-search", dict(SEARCH_CONFIG, fine=5), []),
    "generate-tube-not-an-object": ("generate", dict(GEN_CONFIG, tube=5), []),
    "generate-sim-not-an-object": ("generate", dict(GEN_CONFIG, sim=5), []),
    "generate-tube-k-below-three": (
        "generate", dict(GEN_CONFIG, tube={"n_rings": 4, "k": 2, "offset": 3}), []
    ),
    "generate-tube-offset-out-of-range": (
        "generate", dict(GEN_CONFIG, tube={"n_rings": 4, "k": 13, "offset": 7}), []
    ),
    "generate-tube-lateral-rest-too-short": (
        "generate", dict(GEN_CONFIG, tube={"n_rings": 12, "k": 3, "offset": 11}), []
    ),
    "generate-tube-not-a-number": (
        "generate", dict(GEN_CONFIG, tube={"n_rings": "x", "k": 13, "offset": 3}), []
    ),
    "generate-grid-not-a-number": ("generate", dict(GEN_CONFIG, grid={"LatAssoc": ["x"]}), []),
    "generate-seed-not-a-number": ("generate", dict(GEN_CONFIG, seed="x"), []),
    "generate-seed-a-bool": ("generate", dict(GEN_CONFIG, seed=True), []),
    "generate-tube-rings-not-an-integer": (
        "generate", dict(GEN_CONFIG, tube={"n_rings": 4.0, "k": 13, "offset": 3}), []
    ),
    "generate-strength-a-string": ("generate", dict(GEN_CONFIG, strengths={"LatAssoc": "1"}), []),
    "generate-sim-steps-not-integers": (
        "generate",
        dict(GEN_CONFIG, sim={"ramp_steps": 200.5, "hold_steps": 199.5, "save_every": 100}),
        [],
    ),
    "generate-sim-temperature-not-a-number": (
        "generate", dict(GEN_CONFIG, sim=dict(GEN_CONFIG["sim"], temperature="hot")), []
    ),
    "generate-sim-damping-zero": ("generate", dict(GEN_CONFIG, sim=dict(GEN_CONFIG["sim"], damping=0.0)), []),
    "generate-sim-damping-negative": (
        "generate", dict(GEN_CONFIG, sim=dict(GEN_CONFIG["sim"], damping=-5.0)), []
    ),
    "generate-sim-dt-nan": ("generate", dict(GEN_CONFIG, sim=dict(GEN_CONFIG["sim"], dt=float("nan"))), []),
    "generate-sim-temperature-negative": (
        "generate", dict(GEN_CONFIG, sim=dict(GEN_CONFIG["sim"], temperature=-1.0)), []
    ),
    "generate-sim-dt-overflows": ("generate", dict(GEN_CONFIG, sim=dict(GEN_CONFIG["sim"], dt=1e308)), []),
    "generate-sim-max-force-overflows": (
        "generate", dict(GEN_CONFIG, sim=dict(GEN_CONFIG["sim"], max_force=1e308)), []
    ),
    "train-total-epochs-not-an-integer": ("train", ({"schedule": {"total_epochs": 1.5}}, None), []),
    "train-batch-size-not-an-integer": (
        "train", ({"schedule": {"total_epochs": 1, "batch_size": 2.5}}, None), []
    ),
    "train-hierarchy-too-shallow": ("train", ({"model": "gpcn3"}, None), []),
    "train-truncated-frames": ("train", ({}, _truncate_frames), []),
    "train-no-manifest": ("train", ({}, _drop_manifest), []),
    "train-one-frame-dataset": ("train", ({}, _edit_frames(_keep_one_frame)), []),
    "train-bin-no-x": ("train", ({}, _edit_frames(lambda a, m: a.pop("x"))), []),
    "train-bin-no-y": ("train", ({}, _edit_frames(lambda a, m: a.pop("y"))), []),
    "train-bin-no-column-names": ("train", ({}, _edit_frames(lambda a, m: m.pop("column_names"))), []),
    "train-bin-x-not-3d": ("train", ({}, _edit_frames(lambda a, m: a.update(x=a["x"][..., 0]))), []),
    "train-bin-y-wrong-shape": ("train", ({}, _edit_frames(lambda a, m: a.update(y=a["y"][:, :-1]))), []),
    "train-bin-column-names-short": (
        "train", ({}, _edit_frames(lambda a, m: m.update(column_names=m["column_names"][:-1]))), []
    ),
    "train-bin-header-no-arrays": ("train", ({}, _edit_header(lambda h: h.pop("arrays"))), []),
    "train-bin-entry-no-offset": ("train", ({}, _edit_header(lambda h: h["arrays"][0].pop("offset"))), []),
    "train-bin-dtype-not-a-type": (
        "train", ({}, _edit_header(lambda h: h["arrays"][0].update(dtype="foo"))), []
    ),
    "train-bin-shape-a-string": (
        "train", ({}, _edit_header(lambda h: h["arrays"][0].update(shape="3"))), []
    ),
    "train-bin-nbytes-not-shape": (
        "train", ({}, _edit_header(lambda h: h["arrays"][0].update(nbytes=8))), []
    ),
    # bytes 8-15 of frames.bin hold the header length, little-endian
    "train-bin-header-length-terabytes": ("train", ({}, _flip_byte(13)), []),
    "train-bin-header-length-overflows": ("train", ({}, _flip_byte(15)), []),
    "train-csv-header-only": ("train", ({}, _csv_lines(lambda lines: lines[:1])), []),
    "train-csv-one-row": ("train", ({}, _csv_lines(lambda lines: lines[:2])), []),
    "train-csv-rows-reversed": ("train", ({}, _csv_lines(lambda lines: lines[:1] + lines[:0:-1])), []),
    "train-csv-first-row-for-last": (
        "train", ({}, _csv_lines(lambda lines: lines[:-1] + lines[1:2])), []
    ),
    "train-seed-not-an-integer": ("train", ({"seed": 1.5}, None), []),
    "train-schedule-not-an-object": ("train", ({"schedule": 5}, None), []),
    "train-hierarchy-entry-not-an-object": ("train", ({"hierarchy": [5]}, None), []),
    "train-hierarchy-empty": ("train", ({"hierarchy": []}, None), []),
    "train-hierarchy-coarse-to-fine": (
        "train",
        ({"hierarchy": [{"n_rings": 2, "k": 13, "offset": 1}, {"n_rings": 4, "k": 13, "offset": 3}]},
         None),
        [],
    ),
    "train-gamma-cycle-single-level": (
        "train",
        ({"model": "single_gcn", "schedule": {"kind": "gamma_cycle", "total_epochs": 1}}, None),
        [],
    ),
    "coarse-search-seam-weights-empty": ("coarse-search", dict(SEARCH_CONFIG, seam_weights=[]), []),
    "coarse-search-k-values-empty": ("coarse-search", dict(SEARCH_CONFIG, k_values=[]), []),
    "coarse-search-p-values-empty": ("coarse-search", dict(SEARCH_CONFIG, p_values=[]), []),
}

# cases whose one line must name the one input that left no candidate
EMPTY_SEARCH_MESSAGES = {
    "coarse-search-seam-weights-empty": "seam_weights is empty",
    "coarse-search-k-values-empty": "k_values is empty",
    "coarse-search-p-values-empty": "no offset in p_values is nonnegative and below 4",
    "coarse-search-no-candidates": "no offset in p_values is nonnegative and below 4",
}


# generate cases whose one line must name the sim field at fault
GENERATE_FIELDS = {
    "generate-sim-dt-overflows": "dt",
    "generate-sim-max-force-overflows": "max_force",
}


# train cases whose one line must name the config entry at fault
TRAIN_MESSAGES = {
    "train-hierarchy-empty": "hierarchy needs at least one graph",
}


# gdd cases whose one line must name the line or node at fault
GDD_MESSAGES = {
    "gdd-degree-overflows": "weighted degree of node 1 overflows",
    "gdd-eigenvalues-overflow": "eigenvalues overflow float64",
    "gdd-no-node-count": "line 1: expected the node count alone, got '0 1 1.0'",
    "gdd-fractional-node-id": "line 2: expected an integer node id, got '1.5'",
    "gdd-weight-not-a-number": "line 2: expected a number for the weight, got 'x'",
}


# a warning would print a second stderr line outside pytest
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two_with_one_line(tmp_path, capsys, request, case):
    command, payload, extra = BAD_INPUTS[case]
    if command == "train":
        entries, damage = payload
        dataset = tmp_path / "dataset"
        shutil.copytree(request.getfixturevalue("dataset_dir"), dataset)
        if damage is not None:
            damage(dataset)
        payload = dict(
            {"dataset": str(dataset), "hierarchy": TRAIN_HIER, "schedule": {"total_epochs": 1}},
            **entries,
        )
    if command == "gdd":
        fine = tmp_path / "fine.txt"
        fine.write_text(graph_to_edgelist(make_grid(2, 3)))
        coarse = fine
        if payload is not None:
            coarse = tmp_path / "bad.txt"
            coarse.write_text(payload)
        argv = ["gdd", str(coarse), str(fine), *extra]
    elif command == "flops":
        out = tmp_path / "out"
        if payload is not None:
            out.write_text(payload)
        argv = ["flops", "--out", str(out), *extra]
    else:
        cfg = write_json(tmp_path / "c.json", payload)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), *extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("case", sorted(EMPTY_SEARCH_MESSAGES))
def test_coarse_search_names_the_empty_input(tmp_path, capsys, case):
    _, config, _ = BAD_INPUTS[case]
    cfg = write_json(tmp_path / "c.json", config)
    assert main(["coarse-search", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: no candidate tubes: {EMPTY_SEARCH_MESSAGES[case]}\n"


@pytest.mark.parametrize("case", sorted(GENERATE_FIELDS))
def test_generate_names_the_sim_field(tmp_path, capsys, case):
    _, config, _ = BAD_INPUTS[case]
    cfg = write_json(tmp_path / "c.json", config)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {GENERATE_FIELDS[case]} ") and err.count("\n") == 1, err


# a warning would print a second stderr line outside pytest
@pytest.mark.filterwarnings("error")
def test_diverged_generate_prints_one_line(tmp_path, capsys):
    config = dict(GEN_CONFIG, sim=dict(GEN_CONFIG["sim"], bond_k_base=1e308))
    cfg = write_json(tmp_path / "c.json", config)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


# A valid 4-ring, 8-step generate config that sets every key it may. The
# mutations below never give a size a large valid value: a number becomes
# 0, -1 or 1e308 (a float, so never a valid count), or a small sample of
# another JSON type.
MUTABLE_CONFIG = {
    "tube": {"n_rings": 4, "k": 13, "offset": 3},
    "sim": {
        "ramp_steps": 4, "hold_steps": 4, "save_every": 4, "dt": 0.05, "max_force": 0.4,
        "bond_k_base": 100.0, "angle_k_base": 500.0, "langevin": True, "temperature": None,
        "damping": None, "feature_columns": 10,
    },
    "grid": {"LatAssoc": [0.5, 1.5]},
    "strengths": {"LongAssoc": 1.0},
    "seed": 3,
}
JSON_SAMPLES = ("x", True, 2, 0.5, {})
DROP = "<drop the key>"


def _json_type(value):
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) else type(value)


def config_mutations(node, path=()):
    """Every (path, new value) that changes one node of the config: drop
    it, add an unknown key, change its JSON type, wrap it in a list, null
    it, set a number to 0, -1 or 1e308, or empty a list."""
    if path:
        yield path, DROP
    if isinstance(node, dict):
        yield path + ("unknown",), 1
    for sample in JSON_SAMPLES:
        if _json_type(sample) != _json_type(node):
            yield path, sample
    yield path, [node]
    if node is not None:
        yield path, None
    if _json_type(node) == "number":
        yield from ((path, value) for value in (0, -1, 1e308))
    if isinstance(node, list) and node:
        yield path, []
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from config_mutations(child, path + (key,))


def mutated_config(config, path, value):
    if not path:
        return value
    config = copy.deepcopy(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return config


def assert_one_line_exit(argv, case):
    """``main(argv)`` exits 0 silently, or 2 or 3 with one stderr line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():  # a warning would print a second stderr line
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 2, 3), case
    err = err.getvalue()
    if code == 0:
        assert err == "", case
    else:
        prefix = "error: " if code == 2 else "numerical failure: "
        assert err.startswith(prefix) and err.count("\n") == 1, (case, err)


def assert_config_exit(command, config, case):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_json(os.path.join(tmp, "c.json"), mutated_config(config, *case))
        assert_one_line_exit([command, "--config", cfg, "--out", os.path.join(tmp, "out")], case)


MUTATIONS = list(config_mutations(MUTABLE_CONFIG))


@settings(max_examples=2 * len(MUTATIONS))  # stops once every mutation ran
@given(st.sampled_from(MUTATIONS))
def test_generate_exit_codes_under_one_mutation(case):
    assert_config_exit("generate", MUTABLE_CONFIG, case)


# Small valid configs for the two distance commands that set every key they
# may; all 141 and 52 single mutations of them run.
MUTABLE_SEARCH_CONFIG = {
    "fine": {"n_rings": 4, "k": 5, "offset": 1, "seam_weight": 1.0},
    "candidate_rings": 2,
    "k_values": [3, 4],
    "p_values": [0, 1],
    "seam_weights": [1.0],
    "alpha": 1.0,
}
MUTABLE_CURVE_CONFIG = {"n_values": [2, 3], "k": 4, "alpha": 1.0}


@pytest.mark.parametrize(
    "command, config",
    [("coarse-search", MUTABLE_SEARCH_CONFIG), ("limit-curve", MUTABLE_CURVE_CONFIG)],
)
def test_distance_exit_codes_under_one_mutation(command, config):
    for case in config_mutations(config):
        assert_config_exit(command, config, case)


# byte values a one-character typo in an edge list could plausibly bring in,
# plus a NUL, DEL and two bytes that are not UTF-8
EDGE_LIST_BYTES = b"0123456789 \t\n\r\x0b\x0c.-+_,;#eEinfaINFAxj()[]/*\x00\x7f\x80\xff"


def test_gdd_exit_codes_under_one_byte_replaced(tmp_path):
    fine, coarse = tmp_path / "fine.txt", tmp_path / "coarse.txt"
    fine.write_text(graph_to_edgelist(make_grid(2, 3)))
    text = graph_to_edgelist(make_grid(1, 3)).encode()
    for at in range(len(text)):
        for byte in EDGE_LIST_BYTES:
            coarse.write_bytes(text[:at] + bytes([byte]) + text[at + 1 :])
            assert_one_line_exit(["gdd", str(coarse), str(fine)], (at, bytes([byte])))


# A valid train config on the 4-ring dataset of ``dataset_dir`` that sets
# every key it may. The caps live here: one epoch of two batches of two
# frames; no mutation raises a count (see MUTABLE_CONFIG), and a dropped
# schedule key falls back to CappedSchedule's default, not the program's.
MUTABLE_TRAIN_CONFIG = {
    "dataset": None,  # the dataset_dir path
    "model": "gpcn2",
    "hierarchy": [
        {"n_rings": 4, "k": 13, "offset": 3, "seam_weight": 1.0},
        {"n_rings": 2, "k": 13, "offset": 1, "seam_weight": 1.0},
    ],
    "schedule": {
        "kind": "joint", "gamma": 1, "smoothing_epochs": 1, "patience": 1, "total_epochs": 1,
        "batches_per_epoch": 2, "batch_size": 2, "smoothing_forward": "full",
    },
    "seed": 1,
}


@dataclasses.dataclass
class CappedSchedule(ScheduleSpec):
    # annotations are the kind names check_fields looks up, as in training.py
    total_epochs: "int" = 1
    batches_per_epoch: "int" = 2
    batch_size: "int" = 2


def test_train_exit_codes_under_one_mutation(dataset_dir, monkeypatch):
    monkeypatch.setattr(training, "ScheduleSpec", CappedSchedule)
    config = dict(MUTABLE_TRAIN_CONFIG, dataset=str(dataset_dir))
    for case in config_mutations(config):
        assert_config_exit("train", config, case)


# byte values for a one-byte replacement of the dataset's array payload (zero,
# the largest and smallest signed byte, all bits set) and of its manifest (a
# quote, a letter and a byte that is not UTF-8)
FRAMES_BYTES = b"\x00\x7f\x80\xff"
MANIFEST_BYTES = b'"x\xff'


def dataset_damage(dataset):
    """Every (file name, position, byte) of one damaged byte: the first,
    eighth and last byte of each array in ``frames.bin``, and every fifth
    byte of ``manifest.json``."""
    raw = (dataset / "frames.bin").read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    payload = 16 + hlen
    for entry in json.loads(raw[16:payload])["arrays"]:
        start = payload + entry["offset"]
        for at in (start, start + 7, start + entry["nbytes"] - 1):
            yield from (("frames.bin", at, byte) for byte in FRAMES_BYTES)
    size = (dataset / "manifest.json").stat().st_size
    for at in range(0, size, 5):
        yield from (("manifest.json", at, byte) for byte in MANIFEST_BYTES)


def test_train_exit_codes_under_one_dataset_byte_replaced(tmp_path, dataset_dir, monkeypatch):
    monkeypatch.setattr(training, "ScheduleSpec", CappedSchedule)
    dataset = tmp_path / "dataset"
    shutil.copytree(dataset_dir, dataset)
    cfg = write_json(tmp_path / "c.json", dict(MUTABLE_TRAIN_CONFIG, dataset=str(dataset)))
    for name, at, byte in list(dataset_damage(dataset)):
        path = dataset / name
        raw = path.read_bytes()
        path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1 :])
        try:
            assert_one_line_exit(["train", "--config", cfg, "--out", str(tmp_path / "out")], (name, at, byte))
        finally:
            path.write_bytes(raw)


# byte values for a one-byte replacement of a checkpoint: a digit, a quote,
# a letter and a byte that is not UTF-8
CHECKPOINT_BYTES = b'0"x\xff'


def test_checkpoint_one_byte_replaced_loads_or_raises_value_error(tmp_path):
    """No command reads a checkpoint yet, so the contract is held at
    ``load_checkpoint``: a damaged file loads or raises ValueError, which
    ``main`` maps to exit 2. The checkpoint is a two-level gpcn on the 4-ring
    train hierarchy, with two-wide layers so that the file stays small.
    Every header byte is replaced, and the first and last byte of each array."""
    spec = build_from_table("gpcn2", make_hierarchy([make_tube(t["n_rings"], t["k"], t["offset"]) for t in TRAIN_HIER]))
    spec = dataclasses.replace(spec, levels=[
        dataclasses.replace(lvl, gcn_widths=(2,), dense_widths=(2, 1)) for lvl in spec.levels
    ])
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, spec, init_model_params(spec, 3, seeded_rng(0)))
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    payload = 16 + hlen
    positions = list(range(payload))
    for entry in json.loads(raw[16:payload])["arrays"]:
        positions += [payload + entry["offset"], payload + entry["offset"] + entry["nbytes"] - 1]
    for at in positions:
        for byte in CHECKPOINT_BYTES:
            path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1 :])
            try:
                load_checkpoint(path)
            except ValueError:
                pass


@pytest.mark.parametrize("case", sorted(TRAIN_MESSAGES))
def test_train_names_the_fault(tmp_path, capsys, dataset_dir, case):
    _, (entries, _), _ = BAD_INPUTS[case]
    config = dict({"dataset": str(dataset_dir), "schedule": {"total_epochs": 1}}, **entries)
    cfg = write_json(tmp_path / "c.json", config)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {TRAIN_MESSAGES[case]}\n"


@pytest.mark.parametrize("case", sorted(GDD_MESSAGES))
def test_gdd_names_the_fault(tmp_path, capsys, case):
    _, text, _ = BAD_INPUTS[case]
    fine, coarse = tmp_path / "fine.txt", tmp_path / "bad.txt"
    fine.write_text(graph_to_edgelist(make_grid(2, 3)))
    coarse.write_text(text)
    assert main(["gdd", str(coarse), str(fine)]) == 2
    assert capsys.readouterr().err == f"error: {GDD_MESSAGES[case]}\n"


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = write_json(root / "c.json", GEN_CONFIG)
    out = root / "dataset"
    assert main(["generate", "--config", cfg, "--out", str(out), "--format", "bin"]) == 0
    return out


TRAIN_HIER = [
    {"n_rings": 4, "k": 13, "offset": 3},
    {"n_rings": 2, "k": 13, "offset": 1},
]


class TestTrain:
    def test_trains_and_writes_outputs(self, tmp_path, dataset_dir, capsys):
        cfg = write_json(
            tmp_path / "t.json",
            {
                "dataset": str(dataset_dir),
                "model": "gpcn2",
                "hierarchy": TRAIN_HIER,
                "schedule": {"total_epochs": 2, "batches_per_epoch": 2, "batch_size": 3},
                "seed": 1,
            },
        )
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "run_record.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert "best validation nmse" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path, dataset_dir):
        cfg = write_json(
            tmp_path / "t.json",
            {
                "dataset": str(dataset_dir),
                "model": "single_gcn",
                "hierarchy": TRAIN_HIER,
                "schedule": {"total_epochs": 2, "batches_per_epoch": 2, "batch_size": 3},
                "seed": 5,
            },
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(b)]) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_gamma_schedule_through_config(self, tmp_path, dataset_dir):
        cfg = write_json(
            tmp_path / "t.json",
            {
                "dataset": str(dataset_dir),
                "model": "gpcn2",
                "hierarchy": TRAIN_HIER,
                "schedule": {
                    "kind": "gamma_cycle",
                    "gamma": 1,
                    "total_epochs": 3,
                    "batches_per_epoch": 2,
                    "batch_size": 3,
                },
                "seed": 2,
            },
        )
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "run_record.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header, initial eval, three smoothing epochs

    def test_unknown_model_exits_two_and_lists_names(self, tmp_path, dataset_dir, capsys):
        cfg = write_json(
            tmp_path / "t.json",
            {"dataset": str(dataset_dir), "model": "transformer", "hierarchy": TRAIN_HIER, "schedule": {}},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "a_gpcn3" in err and "single_gcn" in err

    def test_node_count_mismatch_rejected(self, tmp_path, dataset_dir, capsys):
        cfg = write_json(
            tmp_path / "t.json",
            {
                "dataset": str(dataset_dir),
                "model": "single_gcn",
                "hierarchy": "desk",
                "schedule": {"total_epochs": 1},
            },
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "nodes" in capsys.readouterr().err


class TestFlops:
    def test_single_gcn_layer_table(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert main(["flops", "--model", "single_gcn", "--hierarchy", "desk", "--out", str(out)]) == 0
        rows = (out / "flops.csv").read_text().splitlines()[1:]
        costs = {r.split(",")[1]: int(r.split(",")[2]) for r in rows}
        # hand arithmetic on the desk-scale fine tube: n=156, nnz=748
        assert costs["gcn0"] == flops_gcn_layer(156, 10, 64, 748) == 156 * 10 * (748 + 64)
        assert costs["gcn1"] == 156 * 64 * (748 + 64)
        assert costs["dense0"] == 156 * 192 * 256
        assert costs["dense3"] == 156 * 8 * 1

    def test_unknown_model_lists_names(self, capsys):
        assert main(["flops", "--model", "vit"]) == 2
        assert "ngcn5" in capsys.readouterr().err


def test_each_command_accepts_only_the_options_it_reads():
    parser = _build_parser()
    (commands,) = [a.choices for a in parser._actions if a.choices and a.dest == "command"]
    options = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert options == {
        "generate": {"--config", "--seed", "--out", "--format"},
        "gdd": {"--alpha", "--out", "--format"},
        "coarse-search": {"--config", "--out"},
        "limit-curve": {"--config", "--out"},
        "train": {"--config", "--seed", "--out"},
        "flops": {"--model", "--hierarchy", "--features", "--out"},
    }


def test_python_dash_m_entry_point():
    import os
    import subprocess
    import sys

    import gpcn

    src_dir = os.path.dirname(os.path.dirname(gpcn.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    result = subprocess.run(
        [sys.executable, "-m", "gpcn", "flops", "--model", "single_gcn", "--hierarchy", "desk"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "forward total" in result.stdout


