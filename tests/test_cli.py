"""Command-line behavior: exit codes, file outputs, determinism, replay."""

import contextlib
import copy
import importlib
import io
import json
import math
import os
import random
import re
import stat
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipescope import (PointOnPipe, ReconConfig, SimConfig, action_times, area_profile, oracle_irm, sample_irm,
                       step_inflow, validate_network, volume_profile)
from pipescope.cli import OPTIONS, _reciprocity, _remove_old_output, build_parser, main, run
from pipescope.errors import ActionTimeExceedsTau, ConfigError, NumericError, PipescopeError
from pipescope.inversion import VolumeProfile
from pipescope.irm import SampledIRM, load_irm, save_irm
from pipescope.presets import EXP1_NETWORK, EXP2_NETWORK, PRESETS, preset
from pipescope.simulate import simulate_runs
from test_inversion import TREE6
from test_irm import SIX_LEAF_UNIFORM, damaged_irm_lines, edited_irm_lines


@pytest.fixture
def net1_path(tmp_path):
    path = tmp_path / "net1.json"
    path.write_text(json.dumps(EXP1_NETWORK))
    return path


def read_dir_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_oracle_irm_exp1_bins(tmp_path, net1_path):
    out = tmp_path / "irm.csv"
    code = run(
        [
            "oracle-irm",
            "--network",
            str(net1_path),
            "--horizon",
            "1.61",
            "--dt",
            "0.01",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    irm = load_irm(out)
    assert list(np.nonzero(irm.k[0, 0])[0]) == [80, 140, 160]
    assert (tmp_path / "irm.csv.manifest.json").exists()


def test_irm_manifests_record_reciprocity(tmp_path, net1_path):
    # the exact oracle IRM is reciprocal bit for bit; a measured one only nearly
    irm1, irm2 = tmp_path / "irm1.csv", tmp_path / "irm2.csv"
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(irm1)]) == 0
    assert json.loads((tmp_path / "irm1.csv.manifest.json").read_text())["reciprocity"] == 0.0
    argv = ["simulate-irm", "--network", str(net1_path), "--dx", "20", "--duration", "0.9", "--out", str(irm2)]
    assert run(argv) == 0
    k = load_irm(irm2).k
    recorded = json.loads((tmp_path / "irm2.csv.manifest.json").read_text())["reciprocity"]
    assert recorded == np.abs(k - k.transpose(1, 0, 2)).max() / np.abs(k).max()
    assert 0.0 < recorded < 0.05
    # an all-zero IRM counts as reciprocal
    assert run(["oracle-irm", "--preset", "exp1", "--horizon", "0", "--out", str(irm1)]) == 0
    assert json.loads((tmp_path / "irm1.csv.manifest.json").read_text())["reciprocity"] == 0.0


def test_pruned_oracle_irm_manifest_records_its_asymmetry(tmp_path):
    # pruning drops different fronts from each source on this mixed-area tree, and the manifest shows by how much
    net_path, out = tmp_path / "tree6.json", tmp_path / "irm.csv"
    net_path.write_text(json.dumps(TREE6))
    assert run(["oracle-irm", "--network", str(net_path), "--horizon", "1.01", "--dt", "0.01", "--out", str(out)]) == 0
    k = load_irm(out).k
    recorded = json.loads((tmp_path / "irm.csv.manifest.json").read_text())["reciprocity"]
    assert recorded == np.abs(k - k.transpose(1, 0, 2)).max() / np.abs(k).max() > 0


def _reciprocity_peak(spec, horizon, dt, skewed):
    """The recorded reciprocity of an oracle IRM with one kernel skewed by half, its exact value, and the traced peak."""
    irm = sample_irm(oracle_irm(validate_network(spec), horizon), dt=dt)
    irm.k[skewed] *= 1.5
    _reciprocity(irm)
    tracemalloc.start()
    try:
        recorded = _reciprocity(irm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return recorded, np.abs(irm.k - irm.k.transpose(1, 0, 2)).max() / np.abs(irm.k).max(), peak, irm.k.nbytes


def test_reciprocity_peak_below_the_kernel_grid():
    # one source row at a time: the deviation of a skewed six-leaf IRM without a temporary the size of its kernels
    recorded, exact, peak, nbytes = _reciprocity_peak(SIX_LEAF_UNIFORM, 2.4, 0.01, (2, 4))
    assert recorded == exact > 0
    assert peak < nbytes


def test_reciprocity_peak_below_the_kernel_grid_on_two_leaves():
    # one row-sized temporary alive: on two leaves a source row is half the kernels
    recorded, exact, peak, nbytes = _reciprocity_peak(EXP1_NETWORK, 1.61, 1e-4, (0, 1))
    assert recorded == exact > 0
    assert peak < 0.6 * nbytes


def test_oracle_irm_zero_horizon(tmp_path, net1_path):
    out = tmp_path / "irm0.csv"
    assert run(["oracle-irm", "--network", str(net1_path), "--horizon", "0", "--dt", "0.01", "--out", str(out)]) == 0
    irm = load_irm(out)
    assert np.all(irm.k == 0.0)


@pytest.mark.parametrize(
    "flag, value",
    [("--horizon", "nan"), ("--horizon", "inf"), ("--horizon", "-1"), ("--prune-eps", "nan"),
     ("--prune-eps", "inf"), ("--prune-eps", "-1"), ("--dt", "inf"), ("--dt", "nan")],
)
def test_oracle_irm_bad_option_exit_2(tmp_path, net1_path, capsys, flag, value):
    argv = {"--horizon": "1.61", "--dt": "0.01", "--prune-eps": "1e-4", flag: value}
    code = run(["oracle-irm", "--network", str(net1_path), *(x for kv in argv.items() for x in kv),
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_non_tree_network_exit_2(tmp_path):
    spec = copy.deepcopy(EXP1_NETWORK)
    spec["pipes"].append(
        {"id": "AB", "from": "A", "to": "B", "length": 10.0, "area": {"base": 1.0, "blocks": []}}
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code = run(["oracle-irm", "--network", str(bad), "--horizon", "1.0", "--dt", "0.01", "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("text", [
    json.dumps(dict(EXP1_NETWORK, pipes=[{k: v for k, v in EXP1_NETWORK["pipes"][0].items() if k != "id"}])),
    json.dumps(EXP1_NETWORK).replace('"length": 400.0', '"length": NaN'),
    json.dumps(EXP1_NETWORK).replace('"id": "AD"', '"id": ["AD"]'),
], ids=["no-pipe-id", "nan-length", "list-pipe-id"])
def test_malformed_network_file_exit_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = run(["oracle-irm", "--network", str(bad), "--horizon", "1.0", "--dt", "0.01", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1


def test_missing_required_flag_exit_2(tmp_path, net1_path):
    assert run(["oracle-irm", "--network", str(net1_path), "--dt", "0.01", "--out", str(tmp_path / "x.csv")]) == 2


def test_config_file_supplies_network(tmp_path, net1_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"network": EXP1_NETWORK, "horizon": 1.61, "dt": 0.01}))
    assert run(["oracle-irm", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    assert run(["oracle-irm", "--config", str(cfg), "--network", str(net1_path), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_no_network_exit_2(tmp_path, capsys):
    code = run(["oracle-irm", "--horizon", "1.61", "--dt", "0.01", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "no network given" in err and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_simulate_irm_bad_courant_exit_2(tmp_path, net1_path):
    code = run(
        [
            "simulate-irm",
            "--network",
            str(net1_path),
            "--dx",
            "5",
            "--courant",
            "1.2",
            "--duration",
            "1.0",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


def test_reconstruct_exp1_preset(tmp_path):
    irm_path = tmp_path / "irm.csv"
    out_dir = tmp_path / "recon"
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(irm_path)]) == 0
    assert run(["reconstruct", "--preset", "exp1", "--irm", str(irm_path), "--out", str(out_dir)]) == 0
    for pid in ("AD", "BD", "DC"):
        rows = (out_dir / f"{pid}_area.csv").read_text().strip().splitlines()[1:]
        areas = np.array([float(r.split(",")[2]) for r in rows])
        assert np.abs(areas - 1.0).max() < 0.01
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "reconstruct"


def test_reconstruct_csvs_write_each_value_as_its_float_repr(tmp_path):
    # the stock exp1 volume and area CSVs hold every position and value as
    # repr(float(v)), which reads back exactly, byte for byte
    irm_path, out_dir = tmp_path / "irm.csv", tmp_path / "recon"
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(irm_path)]) == 0
    assert run(["reconstruct", "--preset", "exp1", "--irm", str(irm_path), "--out", str(out_dir)]) == 0
    stock = PRESETS["exp1"]["reconstruct"]
    cfg = ReconConfig(tau=stock["tau"], dx=stock["dx"], lam=stock["lam"])
    net, irm = validate_network(EXP1_NETWORK), load_irm(irm_path)
    for pid in stock["pipes"]:
        vp = volume_profile(net, irm, pid, cfg)
        ap = area_profile(vp)
        for name, column, x, y in (("volume", "V_m3", vp.positions, vp.volumes),
                                   ("area", "A_m2", ap.positions, ap.areas)):
            rows = "".join(f"{pid},{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
            assert (out_dir / f"{pid}_{name}.csv").read_bytes() == f"pipe,x_m,{column}\n{rows}".encode(), (pid, name)


def test_reconstruct_unreachable_exit_4(tmp_path):
    irm_path = tmp_path / "irm.csv"
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(irm_path)]) == 0
    code = run(
        [
            "reconstruct",
            "--preset",
            "exp1",
            "--irm",
            str(irm_path),
            "--tau",
            "0.35",
            "--pipes",
            "DC",
            "--lambda",
            "1e-5",
            "--out",
            str(tmp_path / "r"),
        ]
    )
    assert code == 4


@pytest.mark.parametrize("source, value", [("flag", "1e-5,1e-5"), ("config", "1e-5"), ("config", [1e-5, 1e-5, 1e-5]),
                                           ("manifest", "1e-5"), ("manifest", [1e-5])])
def test_reconstruct_lambda_not_one_number_exit_2(tmp_path, exp1_irm_path, capsys, source, value):
    # --lambda is one weight for every pipe: a list, or a string as older manifests hold, is refused and writes nothing
    out = tmp_path / "r"
    config = {"irm": str(exp1_irm_path), "tau": 0.8, "dx": 10.0, "lam": value, "pipes": "AD", "out": str(out)}
    (tmp_path / "cfg.json").write_text(json.dumps({"lam": value}))
    (tmp_path / "manifest.json").write_text(json.dumps({"command": "reconstruct",
                                                        "config": {**config, "network": EXP1_NETWORK}}))
    argv = {
        "flag": ["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--lambda", value, "--out", str(out)],
        "config": ["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path),
                   "--config", str(tmp_path / "cfg.json"), "--out", str(out)],
        "manifest": ["replay", str(tmp_path / "manifest.json")],
    }[source]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    if source == "flag":  # argparse's usage error
        assert "argument --lambda: invalid float value: '1e-5,1e-5'" in err
    else:
        assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
        assert f"sets lam to {value!r}, not a finite number" in err
    assert not out.exists()


def test_determinism_and_replay(tmp_path):
    irm_path = tmp_path / "irm.csv"
    out_a = tmp_path / "ra"
    out_b = tmp_path / "rb"
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(irm_path)]) == 0
    args = ["reconstruct", "--preset", "exp1", "--irm", str(irm_path)]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    bytes_a = read_dir_bytes(out_a)
    bytes_b = read_dir_bytes(out_b)
    for name in bytes_a:
        if name != "manifest.json":  # manifest carries wall time
            assert bytes_a[name] == bytes_b[name]

    # replaying the manifest regenerates the same outputs in place
    before = read_dir_bytes(out_a)
    assert run(["replay", str(out_a / "manifest.json")]) == 0
    after = read_dir_bytes(out_a)
    for name in before:
        if name != "manifest.json":
            assert before[name] == after[name]


def _outputs(paths):
    """Each file's bytes, less a manifest's wall-time line, the one line that differs from run to run."""
    return {path: re.sub(rb'\n "wall_time_s": [^\n]*', b"", path.read_bytes()) for path in paths}


def test_reused_parser_keeps_calls_apart(tmp_path):
    build_parser.cache_clear()
    irm, recon, sim = tmp_path / "irm.csv", tmp_path / "recon", tmp_path / "sim.csv"
    oracle = ["oracle-irm", "--preset", "exp1", "--out", str(irm)]
    reconstruct = ["reconstruct", "--preset", "exp1", "--irm", str(irm), "--out", str(recon)]
    irm_manifest = tmp_path / "irm.csv.manifest.json"
    assert run(oracle) == 0  # the first command of this parser
    first_oracle = _outputs([irm, irm_manifest])
    assert run(reconstruct) == 0
    first_reconstruct = _outputs(sorted(recon.iterdir()))
    assert build_parser() is build_parser()

    assert run([*oracle, "--prune-eps", "1e-3"]) == 0
    assert json.loads(irm_manifest.read_text())["config"]["prune_eps"] == 1e-3
    assert run(oracle) == 0
    assert json.loads(irm_manifest.read_text())["config"]["prune_eps"] == 1e-4
    assert _outputs([irm, irm_manifest]) == first_oracle

    # reconstruct takes --dx from its preset, not from the simulate-irm run before it
    assert run(["simulate-irm", "--preset", "exp1", "--dx", "20", "--duration", "0.9", "--out", str(sim)]) == 0
    assert run(reconstruct) == 0
    assert json.loads((recon / "manifest.json").read_text())["config"]["dx"] == 10.0
    assert _outputs(sorted(recon.iterdir())) == first_reconstruct


def _exp1_pipeline(tmp_path):
    """oracle-irm and reconstruct of exp1 into ``tmp_path``: the two commands and their output paths."""
    irm, recon = tmp_path / "irm.csv", tmp_path / "recon"
    commands = [["oracle-irm", "--preset", "exp1", "--out", str(irm)],
                ["reconstruct", "--preset", "exp1", "--irm", str(irm), "--out", str(recon)]]
    for argv in commands:
        assert run(argv) == 0
    return commands, [irm, tmp_path / "irm.csv.manifest.json", *sorted(recon.iterdir())]


def test_rerun_writes_each_output_as_a_new_file(tmp_path):
    # a hard link to each output keeps the first run's bytes through a
    # rerun and a replay, which write new files of the same bytes
    commands, paths = _exp1_pipeline(tmp_path)
    (tmp_path / "links").mkdir()
    links = [tmp_path / "links" / f"{i}_{path.name}" for i, path in enumerate(paths)]
    for path, link in zip(paths, links):
        os.link(path, link)
    first, first_exact = _outputs(paths), {path: path.read_bytes() for path in paths}
    for argv in commands:
        assert run(argv) == 0
    for manifest in (paths[1], paths[-1]):
        assert run(["replay", str(manifest)]) == 0
    assert _outputs(paths) == first
    for path, link in zip(paths, links):
        assert os.stat(path).st_ino != os.stat(link).st_ino, path
        assert link.read_bytes() == first_exact[path]


def test_refused_rerun_leaves_the_outputs_untouched(tmp_path, capsys):
    commands, paths = _exp1_pipeline(tmp_path)
    before = {path: (os.stat(path).st_ino, path.read_bytes()) for path in paths}
    capsys.readouterr()
    assert run([*commands[1], "--pipes", "DC", "--lambda", "0"]) == 3  # lambda 0 leaves DC singular
    assert capsys.readouterr().err.startswith("pipescope: numeric error:")
    assert {path: (os.stat(path).st_ino, path.read_bytes()) for path in paths} == before


@pytest.mark.parametrize("command", ["oracle-irm", "plot"])
def test_symlinked_out_is_written_through(tmp_path, command):
    _exp1_pipeline(tmp_path)
    argv = {"oracle-irm": ["oracle-irm", "--preset", "exp1"],
            "plot": ["plot", "--in", str(tmp_path / "recon" / "AD_area.csv")]}[command]
    assert run([*argv, "--out", str(tmp_path / "plain.out")]) == 0
    target, link = tmp_path / "target.out", tmp_path / "link.out"
    target.write_text("old\n")
    link.symlink_to(target)
    assert run([*argv, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "plain.out").read_bytes()


def test_old_output_removal_keeps_what_is_not_a_regular_file(tmp_path):
    fifo, directory, regular = tmp_path / "fifo", tmp_path / "dir", tmp_path / "file.csv"
    os.mkfifo(fifo)
    directory.mkdir()
    regular.write_text("old\n")
    for path in (fifo, directory, regular, tmp_path / "absent.csv"):
        _remove_old_output(path)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and directory.is_dir() and not regular.exists()


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root may write a read-only file")
def test_read_only_output_still_refused(tmp_path, capsys):
    commands, paths = _exp1_pipeline(tmp_path)
    paths[0].chmod(0o444)
    before = {path: (os.stat(path).st_ino, path.read_bytes()) for path in paths}
    capsys.readouterr()
    assert run(commands[0]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: file error:") and err.count("\n") == 1
    assert {path: (os.stat(path).st_ino, path.read_bytes()) for path in paths} == before
    assert stat.S_IMODE(os.stat(paths[0]).st_mode) == 0o444


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["reconstruct", "--help"], 0),
                                        (["oracle-irm", "--preset", "exp1", "--no-such-flag"], 2),
                                        (["oracle-irm", "--bogus"], 2)],
                         ids=["version", "help", "unknown-flag", "bogus"])
def test_parser_exit_does_not_spoil_later_calls(tmp_path, capsys, argv, code):
    seen = []
    for _ in range(2):
        seen.append((run(argv), *capsys.readouterr()))
        assert run(["oracle-irm", "--preset", "exp1", "--out", str(tmp_path / "irm.csv")]) == 0
        capsys.readouterr()
    assert seen[0] == seen[1]
    exit_code, out, err = seen[0]
    assert exit_code == code and (err if code else out)  # help and version print to stdout, a usage error to stderr


def test_main_exits_with_argparse_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pipescope", "oracle-irm", "--bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2 and "--bogus" in capsys.readouterr().err


def test_plot_svg(tmp_path, net1_path):
    irm_path = tmp_path / "irm.csv"
    out_dir = tmp_path / "recon"
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(irm_path)]) == 0
    assert run(["reconstruct", "--preset", "exp1", "--irm", str(irm_path), "--out", str(out_dir)]) == 0
    svg = tmp_path / "fig.svg"
    code = run(
        [
            "plot",
            "--in",
            str(out_dir / "DC_area.csv"),
            "--truth",
            str(net1_path),
            "--out",
            str(svg),
        ]
    )
    assert code == 0
    text = svg.read_text()
    assert text.count("<polyline") == 2  # truth line + dashed reconstruction

    # volume CSVs plot too (single monotone curve)
    svg2 = tmp_path / "vol.svg"
    assert run(["plot", "--in", str(out_dir / "DC_volume.csv"), "--out", str(svg2)]) == 0
    assert svg2.read_text().count("<polyline") == 1

    # byte-deterministic
    svg3 = tmp_path / "fig2.svg"
    run(["plot", "--in", str(out_dir / "DC_area.csv"), "--truth", str(net1_path), "--out", str(svg3)])
    assert svg.read_bytes() == svg3.read_bytes()


def test_plot_empty_csv_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("pipe,x_m,A_m2\n")
    assert run(["plot", "--in", str(empty), "--out", str(tmp_path / "x.svg")]) == 2


@pytest.mark.parametrize(
    "row", ["P,abc,1", "P,1", "P,nan,1", "P,1,inf", "Q,1.0,1.0"],
    ids=["not-a-number", "short-row", "nan-x", "inf-y", "second-pipe"],
)
def test_plot_bad_csv_row_exit_2(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"pipe,x_m,A_m2\nP,0.0,1.0\n{row}\n")
    assert run(["plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("column", ["foo", "A_m3"])
def test_plot_unknown_profile_column_exit_2(tmp_path, capsys, column):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"pipe,x_m,{column}\nP,0.0,1.0\nP,10.0,1.0\n")
    svg = tmp_path / "x.svg"
    assert run(["plot", "--in", str(bad), "--out", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert not svg.exists()


def test_simulate_irm_dump_fields(tmp_path, net1_path):
    fields = tmp_path / "fields"
    code = run(["simulate-irm", "--network", str(net1_path), "--dx", "50", "--courant", "1.0", "--duration", "0.3",
                "--dump-fields", str(fields), "--out", str(tmp_path / "irm.csv")])
    assert code == 0
    net = validate_network(EXP1_NETWORK)
    cfg = SimConfig(dx=50.0, duration=0.3, courant=1.0)
    hist = simulate_runs(net, [step_inflow(net, cfg, "B")], cfg, fields=True)[0]
    header, *rows = (fields / "src_B_pipe_DC.csv").read_text().splitlines()
    assert header == "t,x,H,Q"
    grid = hist.grids["DC"]
    assert len(rows) == len(hist.t) * len(grid.x)
    expected = [
        f"{float(t)!r},{float(x)!r},{float(hist.H['DC'][k, node])!r},{float(hist.Q['DC'][k, node])!r}"
        for k, t in enumerate(hist.t)
        for node, x in enumerate(grid.x)
    ]
    assert rows == expected
    assert len(list(fields.iterdir())) == len(net.accessible) * len(net.pipes)


def test_simulate_irm_with_traces(tmp_path, net1_path):
    out = tmp_path / "irm.csv"
    traces = tmp_path / "traces"
    code = run(
        [
            "simulate-irm",
            "--network",
            str(net1_path),
            "--dx",
            "10",
            "--courant",
            "1.0",
            "--duration",
            "0.5",
            "--dump-traces",
            str(traces),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    irm = load_irm(out)
    assert irm.leaves == ("A", "B")
    probe = (traces / "src_A_probe_B.csv").read_text().splitlines()
    assert probe[0] == "t,H"
    assert len(probe) == 52  # 0..0.5 s at dt = 0.01, plus header


@pytest.mark.parametrize("dump", ["--dump-traces", "--dump-fields"])
def test_simulate_irm_unmakeable_dump_directory_writes_nothing(tmp_path, capsys, dump):
    # the dump directory is made before any file is written, so a plain file in its path leaves no IRM behind
    (tmp_path / "afile").touch()
    out = tmp_path / "s.csv"
    capsys.readouterr()
    code = run(["simulate-irm", "--preset", "exp1", "--dx", "20", "--duration", "1.61",
                dump, str(tmp_path / "afile" / "sub"), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("pipescope: file error:")
    assert not out.exists() and not (tmp_path / "s.csv.manifest.json").exists()


def test_simulate_irm_exp2_preset(tmp_path):
    out = tmp_path / "irm2.csv"
    assert run(["simulate-irm", "--preset", "exp2", "--out", str(out)]) == 0
    irm = load_irm(out)
    assert irm.leaves == ("A", "B", "C")
    assert irm.k.shape[:2] == (3, 3)
    assert irm.dt == 0.007


def test_reconstruct_exp2_preset_end_to_end(tmp_path):
    irm_path = tmp_path / "irm2.csv"
    out_dir = tmp_path / "recon2"
    assert run(["simulate-irm", "--preset", "exp2", "--out", str(irm_path)]) == 0
    assert run(["reconstruct", "--preset", "exp2", "--irm", str(irm_path), "--out", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert {"AE_area.csv", "BE_area.csv", "CE_area.csv", "ED_area.csv"} <= names
    rows = (out_dir / "BE_area.csv").read_text().strip().splitlines()[1:]
    x = np.array([float(r.split(",")[1]) for r in rows])
    areas = np.array([float(r.split(",")[2]) for r in rows])
    # the blockage at 350-375 m shows up as a dip below the 2 m^2 baseline
    dip_zone = (x > 320) & (x < 400)
    assert areas[dip_zone].min() < 1.7
    assert abs(np.median(areas[x < 300]) - 2.0) < 0.05


def test_show_network(capsys):
    assert run(["show-network", "--preset", "exp2"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec["x0"] == "D"
    assert [p["id"] for p in spec["pipes"]] == ["AE", "BE", "CE", "ED"]


def test_numeric_error_exit_3(tmp_path, net1_path, monkeypatch):
    from pipescope import cli

    def boom(*args, **kwargs):
        raise NumericError("event explosion")

    monkeypatch.setattr(cli, "oracle_irm", boom)
    code = run(
        ["oracle-irm", "--network", str(net1_path), "--horizon", "1.0", "--dt", "0.01", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3


def test_other_pipescope_error_exit_2(tmp_path, net1_path, capsys, monkeypatch):
    # an error of no family: exit 2 with a one-line message, not a traceback
    from pipescope import cli
    from pipescope.errors import PipescopeError

    class Unclassified(PipescopeError):
        pass

    def boom(*args, **kwargs):
        raise Unclassified("neither configuration nor numeric")

    monkeypatch.setattr(cli, "oracle_irm", boom)
    capsys.readouterr()
    code = run(
        ["oracle-irm", "--network", str(net1_path), "--horizon", "1.0", "--dt", "0.01", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err == "pipescope: error: neither configuration nor numeric\n"


def _error_classes(cls=PipescopeError):
    """``cls`` and every subclass of it that ``pipescope.errors`` defines, walked recursively."""
    subclasses = [sub for sub in cls.__subclasses__() if sub.__module__ == "pipescope.errors"]
    return [cls] + [c for sub in subclasses for c in _error_classes(sub)]


def _exp1(edit=None, **fields):
    """A validated copy of EXP1_NETWORK with top-level ``fields`` replaced and ``edit`` applied to the spec."""
    spec = copy.deepcopy(EXP1_NETWORK) | fields
    if edit:
        edit(spec)
    return validate_network(spec)


def _set_pipe(key, value):
    def edit(spec):
        spec["pipes"][0][key] = value
    return edit


def _dropped_vertex_b(spec):
    spec["pipes"] = [p for p in spec["pipes"] if p["id"] != "BD"]


# each refusal that once had a leaf class of its own, by that class's name: its family and the library call that
# raises it (messages as the call raises them, matched against its family's raise)
_FORMER_LEAF_REFUSALS = {
    "InvalidNetworkSpec": (ConfigError, lambda: _exp1(vertices=["A", "A", "B", "C", "D"]), "duplicate vertex ids"),
    "CycleDetected": (ConfigError, lambda: _exp1(_set_pipe("to", "A")), "pipe 'AD' is a self-loop"),
    "Disconnected": (ConfigError, lambda: _exp1(vertices=["A", "B", "C", "D", "E"]),
                     "3 pipes cannot connect 5 vertices"),
    "DegreeTwoVertex": (ConfigError, lambda: _exp1(_dropped_vertex_b, vertices=["A", "C", "D"], accessible=["A"]),
                        "vertex 'D' joins exactly two pipes"),
    "NonLeafX0": (ConfigError, lambda: _exp1(x0="D"), "x0 = 'D' is not a leaf"),
    "NonpositiveLength": (ConfigError, lambda: _exp1(_set_pipe("length", 0.0)),
                          "pipe 'AD' has length 0.0, not a positive finite number"),
    "NonpositiveArea": (ConfigError, lambda: _exp1(_set_pipe("area", {"base": 0.0, "blocks": []})),
                        "pipe 'AD' area profile is not positive and finite everywhere"),
    "InvalidPoint": (ConfigError, lambda: action_times(_exp1(), PointOnPipe("XY", 1.0)), "unknown pipe 'XY'"),
    "PointIsJunction": (ConfigError, lambda: action_times(_exp1(), PointOnPipe("AD", 400.0)),
                        "point at 'D' is a junction"),
    "UnstableConfig": (ConfigError, lambda: SimConfig(dx=1.0, duration=1.0, courant=2.0),
                       "courant = 2.0 outside (0, 1]"),
    "MismatchedSeriesLength": (ConfigError,
                               lambda: simulate_runs(_exp1(), [{"A": np.zeros(5)}], SimConfig(dx=100.0, duration=0.2)),
                               "series for 'A' has 5 samples, run needs"),
    "HorizonTooLarge": (NumericError, lambda: oracle_irm(_exp1(), 2.0, max_events=1),
                        "more than 1 wavefront events before 2.0s"),
    "NonuniformPipeArea": (ConfigError, lambda: oracle_irm(validate_network(EXP2_NETWORK), 1.0),
                           "pipe 'BE' has a nonconstant area profile"),
    "OutOfRange": (ConfigError, lambda: sample_irm(oracle_irm(_exp1(), 1.0), 0.0),
                   "dt must be positive and finite, not 0.0"),
    "HorizonTooShort": (ConfigError, lambda: volume_profile(_exp1(), sample_irm(oracle_irm(_exp1(), 0.5), 0.01), "AD",
                                                            ReconConfig(tau=0.35, dx=10.0, lam=1e-5)),
                        "kernels have 51 samples, need 70 to span 2*tau"),
    "SingularSystem": (NumericError, lambda: volume_profile(_exp1(), sample_irm(oracle_irm(_exp1(), 1.0), 0.01), "DC",
                                                            ReconConfig(tau=0.41, dx=10.0)),
                       "restricted matrix rank"),
    "TooFewPoints": (ConfigError, lambda: area_profile(VolumeProfile("AD", np.zeros(1), np.zeros(1), 10.0)),
                     "profile for pipe 'AD' has 1 points, need at least 2"),
}


@pytest.mark.parametrize("cls, trigger, start", [pytest.param(cls, None, f"raised {cls.__name__}", id=cls.__name__)
                                                 for cls in _error_classes()] +
                         [pytest.param(*case, id=name) for name, case in _FORMER_LEAF_REFUSALS.items()])
def test_every_error_class_exit_code_and_label(tmp_path, net1_path, capsys, monkeypatch, cls, trigger, start):
    # the whole exit table: a class's code and label are those of its family, 2 and "error" outside every family;
    # each refusal that had a leaf class raises its family itself, so it keeps that family's row of the table
    from pipescope import cli

    def boom(*args, **kwargs):
        if trigger is None:
            raise cls(start)
        trigger()
        pytest.fail("the call refused nothing")

    if trigger is not None:
        with pytest.raises(PipescopeError) as refused:
            trigger()
        assert type(refused.value) is cls
        assert str(refused.value).startswith(start)
        message = str(refused.value)
    else:
        message = start
    if issubclass(cls, ActionTimeExceedsTau):
        code, label = 4, "point out of reach"
    elif issubclass(cls, NumericError):
        code, label = 3, "numeric error"
    else:
        code, label = 2, "configuration error" if issubclass(cls, ConfigError) else "error"
    monkeypatch.setattr(cli, "oracle_irm", boom)
    capsys.readouterr()
    out = tmp_path / "x.csv"
    argv = ["oracle-irm", "--network", str(net1_path), "--horizon", "1.0", "--dt", "0.01", "--out", str(out)]
    assert run(argv) == code
    assert capsys.readouterr().err == f"pipescope: {label}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("pipe, code, start", [
    ("DC", 4, "pipescope: point out of reach: first point PointOnPipe(pipe='DC', offset=10.0)"),
    ("AD", 2, "pipescope: configuration error: kernels have 51 samples, need 70 to span 2*tau"),
])
def test_reconstruct_on_too_short_an_irm_reports_reach_first(tmp_path, capsys, pipe, code, start):
    # 51 samples cannot span 2*tau = 0.7 s: an unreachable first point is reported before the short horizon
    irm = tmp_path / "short.csv"
    assert run(["oracle-irm", "--preset", "exp1", "--horizon", "0.5", "--out", str(irm)]) == 0
    capsys.readouterr()
    argv = ["reconstruct", "--preset", "exp1", "--irm", str(irm), "--tau", "0.35", "--lambda", "1e-5", "--pipes", pipe]
    assert run([*argv, "--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1


def test_config_file_precedence(tmp_path, net1_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 1.61, "dt": 0.01}))
    out = tmp_path / "irm.csv"
    assert run(["oracle-irm", "--network", str(net1_path), "--config", str(cfg), "--out", str(out)]) == 0
    irm = load_irm(out)
    assert irm.dt == 0.01
    # flag beats config file
    out2 = tmp_path / "irm2.csv"
    assert run(
        ["oracle-irm", "--network", str(net1_path), "--config", str(cfg), "--dt", "0.02", "--out", str(out2)]
    ) == 0
    assert load_irm(out2).dt == 0.02


@pytest.fixture
def exp1_irm_path(tmp_path):
    path = tmp_path / "irm.csv"
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(path)]) == 0
    return path


def _reconstruct_exit(irm_path, out_dir, capsys):
    capsys.readouterr()
    code = run(["reconstruct", "--preset", "exp1", "--irm", str(irm_path), "--out", str(out_dir)])
    err = capsys.readouterr().err
    return code, err


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[: len(lines) // 2],  # file cut in half
        lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0] + ",nan"] + lines[6:],  # NaN sample
        lambda lines: lines[:-1] + ["0,0,99.0,1.0"],  # row beyond the header's n
        lambda lines: [lines[0].replace('["A", "B"]', '"AB"'), *lines[1:]],  # leaves not a list
        lambda lines: [json.dumps({"dt": 0.01, "n": 10**30, "leaves": [], "horizon": 1.0}), lines[1]],  # no leaves
        lambda lines: [lines[0].replace('"dt": 0.01', '"dt": Infinity'), *lines[1:]],  # the step reconstruct takes
    ],
    ids=["truncated", "nan-sample", "time-out-of-range", "leaves-string", "no-leaves-huge-n", "infinite-dt"],
)
def test_reconstruct_bad_irm_file_exit_2(tmp_path, exp1_irm_path, capsys, edit):
    lines = exp1_irm_path.read_text().splitlines()
    exp1_irm_path.write_text("\n".join(edit(lines)) + "\n")
    code, err = _reconstruct_exit(exp1_irm_path, tmp_path / "r", capsys)
    assert code == 2
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1


def test_reconstruct_manifest_records_solver(tmp_path, exp1_irm_path):
    out = tmp_path / "r"
    assert run(["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    profiles = manifest["profiles"]
    # the factored path records the largest point's residual and volume bound; the IRM's reciprocity is recorded once
    trust = {pid: (profiles[pid].pop("residual"), profiles[pid].pop("volume_bound")) for pid in profiles}
    assert profiles == {pid: {"solver": "layer-stripping"} for pid in ("AD", "BD", "DC")}
    assert all(0 <= value <= 1e-10 for pair in trust.values() for value in pair)
    assert manifest["reciprocity"] == 0.0
    out = tmp_path / "r0"
    argv = ["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--pipes", "AD", "--lambda", "0"]
    assert run([*argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["profiles"] == {"AD": {"solver": "per-point: lambda 0", "residual": None, "volume_bound": None}}
    assert manifest["reciprocity"] == 0.0


@pytest.mark.parametrize(
    "flags",
    [["--lambda", "nan"], ["--lambda", "-1"], ["--lambda", "inf"], ["--lambda", "1e400"],
     ["--tau", "nan"], ["--tau", "-0.8"], ["--dx", "0"], ["--dx", "nan"], ["--tau", "1e308"]],
)
def test_reconstruct_out_of_range_flag_exit_2(tmp_path, exp1_irm_path, capsys, flags):
    capsys.readouterr()
    code = run(["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), *flags, "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--dx", "nan"), ("--dx", "inf"), ("--duration", "nan"), ("--duration", "-1"), ("--resample-dt", "-1"),
     ("--resample-dt", "nan"), ("--resample-dt", "1.91")],
)
def test_simulate_irm_out_of_range_flag_exit_2(tmp_path, capsys, flag, value):
    code = run(["simulate-irm", "--preset", "exp2", flag, value, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "flag, value",
    # each run needs an array larger than any address space, a shape numpy cannot hold, or a count that overflows
    [("--courant", "1e-12"), ("--dx", "1e-12"), ("--duration", "1e12"), ("--courant", "1e-300"), ("--dx", "1e-300"),
     ("--duration", "1e300"), ("--courant", "5e-324"), ("--dx", "5e-324"), ("--resample-dt", "1e-15"),
     ("--resample-dt", "5e-324")],
)
def test_simulate_irm_run_too_large_for_memory_exit_2(tmp_path, capsys, flag, value):
    code = run(["simulate-irm", "--preset", "exp2", flag, value, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert re.search(r"cells and \d+ time steps|cell or step count|kernel samples", err)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value", ["1e-15", "5e-324"])
def test_simulate_irm_kernel_grid_refused_before_any_run(tmp_path, capsys, monkeypatch, value):
    calls = []
    monkeypatch.setattr("pipescope.irm.simulate_runs", lambda *args, **kwargs: calls.append(args))
    code = run(["simulate-irm", "--preset", "exp2", "--resample-dt", value, "--out", str(tmp_path / "x.csv")])
    assert code == 2 and calls == []
    assert "kernel samples" in capsys.readouterr().err


def test_simulate_irm_past_physical_memory_exit_2(tmp_path, capsys, monkeypatch):
    # the exp2 defaults, about 0.35 MB of arrays, with 64 kB of physical memory: refused, bytes named, before any run
    calls = []
    monkeypatch.setattr(importlib.import_module("pipescope.errors"), "_physical_memory", lambda: 1 << 16)
    monkeypatch.setattr("pipescope.irm.simulate_runs", lambda *args, **kwargs: calls.append(args))
    code = run(["simulate-irm", "--preset", "exp2", "--out", str(tmp_path / "x.csv")])
    assert code == 2 and calls == []
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert re.search(r"kernel samples, needs \d+ bytes, more than the 65536 bytes of physical memory", err)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("dt", ["1e-12", "5e-324"])
def test_oracle_irm_kernel_grid_too_large_for_memory_exit_2(tmp_path, capsys, dt):
    # 1.6e12 samples per kernel, past any physical memory, and a sample count that overflows: neither is allocated
    code = run(["oracle-irm", "--preset", "exp1", "--dt", dt, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert "kernel samples" in err
    assert not (tmp_path / "x.csv").exists()


def test_reconstruct_system_past_physical_memory_exit_2(tmp_path, exp1_irm_path, capsys, monkeypatch):
    # DC's points and masks fit in 256 kB of physical memory, its 1.24 MB system (150 unknowns, S and what its
    # factorisation holds) does not: refused, bytes named, before S is allocated
    capsys.readouterr()
    monkeypatch.setattr(importlib.import_module("pipescope.errors"), "_physical_memory", lambda: 1 << 18)
    monkeypatch.setattr(importlib.import_module("pipescope.inversion").np, "empty",
                        lambda *args: pytest.fail("allocated"))
    code = run(["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--pipes", "DC", "--lambda", "1e-5",
                "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert "a system of 150 unknowns needs 1238208 bytes, more than the 262144 bytes of physical memory" in err
    assert list(tmp_path.glob("r/*.csv")) == []


def test_reconstruct_on_an_irm_step_too_small_to_count_samples_exit_2(tmp_path, capsys):
    # tau / dt overflows to inf: M = floor(tau/dt + 1e-6) is refused before any array of the points is sized
    irm = tmp_path / "tiny.csv"
    save_irm(SampledIRM(5e-324, ("A", "B"), np.zeros((2, 2, 2)), 1.0), irm)
    code = run(["reconstruct", "--preset", "exp1", "--irm", str(irm), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error: samples 5e-324 s apart") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_simulate_irm_shorter_than_one_step_exit_2(tmp_path, net1_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("pipescope.irm.simulate_runs", lambda *args, **kwargs: calls.append(args))
    code = run(["simulate-irm", "--network", str(net1_path), "--dx", "5", "--duration", "0", "--out",
                str(tmp_path / "x.csv")])
    assert code == 2 and calls == []
    err = capsys.readouterr().err
    assert "two or more time samples" in err and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_missing_input_or_unwritable_output_exit_2(tmp_path, capsys):
    argvs = [
        ["reconstruct", "--preset", "exp1", "--irm", str(tmp_path / "nonexist.csv"), "--out", str(tmp_path / "r")],
        ["oracle-irm", "--preset", "exp1", "--out", str(tmp_path / "no" / "dir" / "x.csv")],
    ]
    for argv in argvs:
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pipescope: file error:") and err.count("\n") == 1


def test_reconstruct_unknown_pipe_exit_2(tmp_path, exp1_irm_path, capsys):
    capsys.readouterr()
    code = run(["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--pipes", "XX", "--lambda", "1e-5",
                "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown pipe id(s): XX" in err and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("case", ["pipes", "config", "network", "manifest"])
def test_line_feed_in_a_refused_value_keeps_one_stderr_line(tmp_path, exp1_irm_path, capsys, case):
    # these messages embed the user's string raw; run escapes CR and LF, so each refusal stays one line
    missing, out = str(tmp_path / "no\nsuch.json"), str(tmp_path / "out")
    shown = missing.replace("\n", "\\n")
    unreadable = f"cannot read JSON from {shown}: [Errno 2] No such file or directory: {missing!r}"
    reconstruct = ["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--lambda", "1e-5", "--out", out]
    argv, message = {
        "pipes": ([*reconstruct, "--pipes", "A\nB"], "unknown pipe id(s): A\\nB"),
        "config": ([*reconstruct, "--config", missing], unreadable),
        "network": (["oracle-irm", "--preset", "exp1", "--network", missing, "--out", out], unreadable),
        "manifest": (["replay", missing], unreadable),
    }[case]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == f"pipescope: configuration error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("source", ["flag", "config", "manifest"])
def test_reconstruct_repeated_pipe_exit_2(tmp_path, exp1_irm_path, capsys, source):
    # a pipe named twice is refused before anything is solved or written, wherever the pipe list comes from
    out = tmp_path / "r"
    config = {"irm": str(exp1_irm_path), "tau": 0.8, "dx": 10.0, "lam": 1e-5, "pipes": ["AD", "AD"], "out": str(out)}
    (tmp_path / "cfg.json").write_text(json.dumps({"pipes": ["AD", "AD"]}))
    (tmp_path / "manifest.json").write_text(json.dumps({"command": "reconstruct",
                                                        "config": {**config, "network": EXP1_NETWORK}}))
    argv = {
        "flag": ["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--pipes", "AD,AD", "--lambda", "1e-5",
                 "--out", str(out)],
        "config": ["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path),
                   "--config", str(tmp_path / "cfg.json"), "--lambda", "1e-5", "--out", str(out)],
        "manifest": ["replay", str(tmp_path / "manifest.json")],
    }[source]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == "pipescope: configuration error: pipe 'AD' is named more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, code, start", [
    (["--pipes", "AD,DC", "--tau", "0.3", "--lambda", "1e-5"], 4, "pipescope: point out of reach: first point "
     "PointOnPipe(pipe='DC'"),
    (["--pipes", "DC", "--lambda", "0"], 3, "pipescope: numeric error: restricted matrix rank"),
    (["--pipes", "AD,BD", "--dx", "200", "--lambda", "1e-5"], 2, "pipescope: configuration error: profile for pipe "
     "'BD' has 1 points"),
], ids=["unreachable", "singular", "too-few-points"])
def test_failed_reconstruct_writes_nothing(tmp_path, exp1_irm_path, capsys, flags, code, start):
    # every pipe is solved before the output directory is made, so a refused pipe, alone or after one that solved,
    # leaves no file
    capsys.readouterr()
    assert run(["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), *flags,
                "--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("pipes", [",", ",,"])
def test_reconstruct_empty_pipe_list_exit_2(tmp_path, exp1_irm_path, capsys, pipes):
    capsys.readouterr()
    code = run(["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--pipes", pipes, "--lambda", "1e-5",
                "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "names no pipe" in err and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("leaves", [["B", "A"], ["A", "Z"]], ids=["reversed", "unknown"])
def test_reconstruct_irm_leaves_must_match_network(tmp_path, exp1_irm_path, capsys, leaves):
    header, *rows = exp1_irm_path.read_text().splitlines()
    spec = json.loads(header)
    spec["leaves"] = leaves
    exp1_irm_path.write_text("\n".join([json.dumps(spec), *rows]) + "\n")
    code, err = _reconstruct_exit(exp1_irm_path, tmp_path / "r", capsys)
    assert code == 2
    assert "accessible leaves" in err and err.count("\n") == 1


def _replay_exit(tmp_path, exp1_irm_path, capsys, edit):
    """Exit code and stderr of replaying an exp1 reconstruct manifest after ``edit``."""
    out_dir = tmp_path / "r"
    code, _ = _reconstruct_exit(exp1_irm_path, out_dir, capsys)
    assert code == 0
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
    code = run(["replay", str(manifest_path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("shift", [0, 1])
def test_replay_rejects_removed_sigma_shift_option(tmp_path, exp1_irm_path, capsys, shift):
    # manifests recorded while the kernel shift was still an option carry it
    code, err = _replay_exit(tmp_path, exp1_irm_path, capsys, lambda m: {**m, "config": {**m["config"], "sigma_shift": shift}})
    assert code == 2
    assert "sigma_shift" in err and err.count("\n") == 1


def test_replay_rejects_removed_jobs_option(tmp_path, exp1_irm_path, capsys):
    # manifests recorded while reconstruct had a worker-thread count carry it
    code, err = _replay_exit(tmp_path, exp1_irm_path, capsys, lambda m: {**m, "config": {**m["config"], "jobs": "1"}})
    assert code == 2
    assert "jobs" in err and err.count("\n") == 1


def test_removed_smooth_window_option_exit_2(tmp_path, capsys):
    # simulate-irm manifests and config files written while the median smoothing was an option set smooth_window
    config, out = tmp_path / "cfg.json", tmp_path / "irm.csv"
    config.write_text(json.dumps({"smooth_window": 0.02}))
    argv = ["simulate-irm", "--preset", "exp1", "--dx", "20", "--duration", "0.5", "--out", str(out)]
    capsys.readouterr()
    assert run([*argv, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "smooth_window" in err and err.count("\n") == 1 and not out.exists()
    assert run(argv) == 0
    manifest_path = tmp_path / "irm.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest, "config": {**manifest["config"], "smooth_window": 0.02}}))
    capsys.readouterr()
    assert run(["replay", str(manifest_path)]) == 2
    err = capsys.readouterr().err
    assert "smooth_window" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: {"command": m["command"]},
        lambda m: {**m, "config": [1]},
        lambda m: [1],
        lambda m: {"command": "plot", "config": {}},  # plot writes no manifest
        lambda m: {**m, "config": {k: v for k, v in m["config"].items() if k != "tau"}},
    ],
    ids=["no-config", "config-not-object", "not-object", "plot", "missing-option"],
)
def test_replay_malformed_manifest_exit_2(tmp_path, exp1_irm_path, capsys, edit):
    code, err = _replay_exit(tmp_path, exp1_irm_path, capsys, edit)
    assert code == 2
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("cfg", [{"sigma_shift": 0}, {"jobs": 2}, [1]], ids=["sigma_shift", "jobs", "not-object"])
def test_config_file_unknown_key_exit_2(tmp_path, exp1_irm_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = run(["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--config", str(path),
                "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_reconstruct_ignores_direct_in_older_irm_header(tmp_path, exp1_irm_path, capsys):
    # IRM files written before the direct coefficients left the header still carry them
    header, *rows = exp1_irm_path.read_text().splitlines()
    spec = json.loads(header)
    old = {"dt": spec["dt"], "n": spec["n"], "leaves": spec["leaves"], "direct": [1000.0 / 9.81] * 2,
           "horizon": spec["horizon"]}
    old_path = tmp_path / "old_irm.csv"
    old_path.write_text("\n".join([json.dumps(old), *rows]) + "\n")
    assert _reconstruct_exit(exp1_irm_path, tmp_path / "new", capsys)[0] == 0
    assert _reconstruct_exit(old_path, tmp_path / "old", capsys)[0] == 0
    new_out, old_out = read_dir_bytes(tmp_path / "new"), read_dir_bytes(tmp_path / "old")
    del new_out["manifest.json"], old_out["manifest.json"]  # they name different IRM files
    assert len(new_out) == 6 and new_out == old_out


@pytest.mark.parametrize(
    "key, value", [("lam", [True]), ("lam", [{}]), ("lam", ["x"]), ("lam", "1e-5,x"), ("pipes", [None])]
)
def test_config_list_with_bad_element_exit_2(tmp_path, exp1_irm_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    capsys.readouterr()
    code = run(["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--config", str(path),
                "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "pipe_id, out_name, replay",
    [("../AD", "recon", False), ("A,D", "recon", False), ("A\0D", "recon", False), ("AD", "recon\0.csv", False),
     ("AD", "recon\0.csv", True)],
    ids=["pipe-id-slash", "pipe-id-comma", "pipe-id-nul", "config-out-nul", "manifest-out-nul"],
)
def test_id_or_path_that_would_break_a_file_exit_2_and_writes_nothing(tmp_path, exp1_irm_path, capsys, pipe_id,
                                                                      out_name, replay):
    # "../AD" once wrote AD_volume.csv and AD_area.csv beside --out, "A,D" wrote rows that plot refuses, and a NUL in
    # an id or a path ended in a traceback, for reconstruct after its --out directory was made
    spec = copy.deepcopy(EXP1_NETWORK)
    spec["pipes"][0]["id"] = pipe_id
    config = {"irm": str(exp1_irm_path), "tau": 0.8, "dx": 10.0, "lam": 1e-5, "pipes": "", "network": spec,
              "out": str(tmp_path / "work" / out_name)}
    path = tmp_path / "work" / "cfg.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"command": "reconstruct", "config": config} if replay else config))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(["replay", str(path)] if replay else ["reconstruct", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("key, value", [("dt", "0.01"), ("horizon", "1.61"), ("horizon", True), ("dt", True)])
def test_irm_header_step_or_horizon_not_a_json_number_exit_2(tmp_path, exp1_irm_path, capsys, key, value):
    # float() read "0.01", "1.61" and true; "dt": true then failed as kernel samples that were not finite
    header, *rows = exp1_irm_path.read_text().splitlines()
    exp1_irm_path.write_text("\n".join([json.dumps({**json.loads(header), key: value}), *rows]) + "\n")
    code, err = _reconstruct_exit(exp1_irm_path, tmp_path / "r", capsys)
    assert code == 2
    assert "unreadable IRM header" in err and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_unknown_preset_name_rejected():
    with pytest.raises(KeyError, match="unknown preset 'exp3'"):
        preset("exp3")


# every option of the three manifest-writing commands with a valid value, on small exp1 runs
VALID_OPTIONS = {
    "oracle-irm": {"horizon": 1.61, "dt": 0.01, "prune_eps": 1e-4, "out": "irm.csv"},
    "simulate-irm": {"dx": 20.0, "courant": 0.95, "duration": 0.5, "resample_dt": 0.0,
                     "dump_traces": "", "dump_fields": "", "out": "irm.csv"},
    "reconstruct": {"irm": "exp1_irm.csv", "tau": 0.8, "dx": 10.0, "lam": 1e-5, "pipes": "AD", "out": "r"},
}
NOT_A_NUMBER = (st.text(max_size=5) | st.booleans() | st.none() | st.just(10**400)
                | st.sampled_from([math.inf, -math.inf, math.nan]) | st.lists(st.integers(), max_size=2)
                | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NOT_A_STRING = (st.integers() | st.floats() | st.booleans() | st.none()
                | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def wrong_option(draw):
    """A command, one of its options and a JSON value of the wrong type for it."""
    command = draw(st.sampled_from(sorted(VALID_OPTIONS)))
    key = draw(st.sampled_from(sorted(VALID_OPTIONS[command])))
    if isinstance(VALID_OPTIONS[command][key], float):
        return command, key, draw(NOT_A_NUMBER)
    if key == "pipes":
        return command, key, draw(NOT_A_STRING)
    return command, key, draw(NOT_A_STRING | st.lists(st.text(max_size=3), max_size=2))


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A directory holding the exp1 network, its oracle IRM and a simulated IRM of it."""
    work = tmp_path_factory.mktemp("inputs")
    (work / "net.json").write_text(json.dumps(EXP1_NETWORK))
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(work / "exp1_irm.csv")]) == 0
    simulated = ["--dx", "20", "--duration", "1.0", "--resample-dt", "0.01", "--out", str(work / "exp1_sim_irm.csv")]
    assert run(["simulate-irm", "--network", str(work / "net.json"), *simulated]) == 0
    return work


def _run_with_options(work, inputs, command, changes, through_replay):
    """Exit code and stderr of ``command`` on VALID_OPTIONS with ``changes``, from a config file or a manifest."""
    directory = {"out": work, "irm": inputs}
    config = {k: str(directory[k] / v) if k in directory else v for k, v in VALID_OPTIONS[command].items()}
    config.update(changes)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        if through_replay:
            path = work / "manifest.json"
            path.write_text(json.dumps({"command": command, "config": {**config, "network": EXP1_NETWORK}}))
            code = run(["replay", str(path)])
        else:
            path = work / "cfg.json"
            path.write_text(json.dumps(config))
            code = run([command, "--network", str(inputs / "net.json"), "--config", str(path)])
    return code, stderr.getvalue()


@pytest.mark.parametrize("command", sorted(VALID_OPTIONS))
@pytest.mark.parametrize("through_replay", [False, True])
def test_valid_options_run(tmp_path, valid_inputs, command, through_replay):
    # the baseline the fuzz test below breaks one option of
    assert _run_with_options(tmp_path, valid_inputs, command, {}, through_replay)[0] == 0


@given(wrong_option(), st.booleans())
@example(("oracle-irm", "horizon", "1.61"), False)
@settings(max_examples=150, deadline=None)
def test_fuzz_option_of_wrong_type_exit_2(tmp_path_factory, valid_inputs, bad, through_replay):
    # wrong types are refused before any run starts, so no output appears
    command, key, value = bad
    work = tmp_path_factory.mktemp("wrong")
    code, err = _run_with_options(work, valid_inputs, command, {key: value}, through_replay)
    assert code == 2
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert [p.name for p in work.iterdir()] == ["manifest.json" if through_replay else "cfg.json"]


def test_valid_options_name_every_option():
    assert {command: set(options) for command, options in VALID_OPTIONS.items()} == {
        command: set(spec[3]) for command, spec in OPTIONS.items()
    }


# per number or list option, values a run accepts, sized so that no run takes long
VALID_VALUES = {
    "horizon": st.floats(0.0, 2.0),
    "dt": st.floats(0.005, 0.05),
    "prune_eps": st.floats(1e-4, 1e-2),
    "dx": st.floats(5.0, 50.0),
    "courant": st.floats(0.5, 1.0),
    "duration": st.floats(0.0, 1.0),
    "resample_dt": st.just(0.0) | st.floats(0.005, 0.05),
    "tau": st.floats(0.1, 1.0),
    "lam": st.sampled_from([1e-5, 0.0, 0.1]),
    "pipes": st.sampled_from(["", "AD", "AD,BD,DC"]),
}


@st.composite
def fuzzed_options(draw, work, inputs):
    """A command and its options, each left out, valid or bad; every path lies under ``work`` or ``inputs``.

    ``--irm`` names the exp1 oracle or simulated IRM, or a damaged or
    edited copy of a small IRM file that this draw writes into ``work``.
    """
    command = draw(st.sampled_from(sorted(OPTIONS)))
    irm = draw(st.sampled_from(["exp1_irm.csv", "exp1_sim_irm.csv", "edited"])) if "irm" in OPTIONS[command][3] else ""
    if irm == "edited":
        (work / "edited_irm.csv").write_text("\n".join(draw(damaged_irm_lines() | edited_irm_lines())) + "\n")
    valid = {
        **VALID_VALUES,
        "out": st.just(str(work / ("r" if command == "reconstruct" else "irm.csv"))),
        "irm": st.just(str(work / "edited_irm.csv" if irm == "edited" else inputs / irm)),
        "dump_traces": st.sampled_from(["", str(work / "traces")]),
        "dump_fields": st.sampled_from(["", str(work / "fields")]),
    }
    options = {}
    for key, option in OPTIONS[command][3].items():
        kind = draw(st.sampled_from(["valid", "valid", "valid", "absent", "bad"]))
        if kind == "valid":
            options[key] = draw(valid[key])
        elif kind == "bad" and option.type is str:  # a path in a directory that does not exist
            options[key] = str(work / "missing" / key)
        elif kind == "bad":
            bad = draw(st.sampled_from(["x", math.nan, math.inf, -1.0]))
            options[key] = bad if option.type is float else str(bad)
    return command, options


def _exit_and_stderr(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return code, stderr.getvalue()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_fuzz_whole_cli_exits_cleanly(tmp_path_factory, valid_inputs, data):
    # the same options as flags, from a --config file and from a replay manifest; a run that fails writes no file
    work = tmp_path_factory.mktemp("cli")
    command, options = data.draw(fuzzed_options(work, valid_inputs))
    network = str(valid_inputs / "net.json")
    flags = [f"{OPTIONS[command][3][key].flag}={value}" for key, value in options.items()]
    (work / "cfg.json").write_text(json.dumps(options))
    manifest = {"command": command, "config": {**options, "network": EXP1_NETWORK}}
    (work / "manifest.json").write_text(json.dumps(manifest))
    results = []
    for argv in ([command, "--network", network, *flags],
                 [command, "--network", network, "--config", str(work / "cfg.json")],
                 ["replay", str(work / "manifest.json")]):
        files = {p for p in work.rglob("*") if p.is_file()}
        code, err = _exit_and_stderr(argv)
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        assert code == 0 or {p for p in work.rglob("*") if p.is_file()} == files, err
        results.append((code, err))
    assert results[0][0] == results[1][0]  # a config file means what the same flags mean


# numbers and texts for a profile CSV field: extremes whose spans overflow, and texts float() may or may not read
PROFILE_FIELDS = (st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", "-1.7976931348623157e308", "5e-324"])
                  | st.sampled_from(["-0.0", "nan", "inf", "", "x", "1_0", " 2 ", "DC", "pipe", "x_m", "A_m2"])
                  | st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def damaged_profile_csv(draw):
    """The bytes of a small area or volume CSV with a line or one or two fields damaged, maybe cut or not UTF-8."""
    kind = draw(st.sampled_from(["A_m2", "V_m3"]))
    pipe = draw(st.sampled_from(["DC", "AD", "XX"]))
    lines = [f"pipe,x_m,{kind}", *(f"{pipe},{x!r},{y!r}" for x, y in ((0.0, 1.0), (10.0, 0.8), (20.0, 1.1)))]
    k = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["fields", "fields", "replace", "drop", "duplicate", "none"]))
    if action == "fields":
        for k in draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=2)):
            fields = lines[k].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(PROFILE_FIELDS)
            lines[k] = ",".join(fields)
    elif action == "replace":
        lines[k] = draw(st.text(max_size=20))
    elif action == "drop":
        del lines[k]
    elif action == "duplicate":
        lines.insert(k, lines[k])
    data = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"", b"\xff", b"\xc3", b"\x00"])) + data[cut:]
    return data


JSON_FIELD_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.just(10**400) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_network_json(draw):
    """The bytes of the exp1 network with one field replaced by any JSON value, or its text cut short or not UTF-8."""
    spec = copy.deepcopy(EXP1_NETWORK)
    parent = draw(st.sampled_from([spec, spec["pipes"][0], spec["pipes"][2], spec["pipes"][2]["area"]]))
    parent[draw(st.sampled_from(sorted(parent)))] = draw(JSON_FIELD_VALUES)
    data = json.dumps(spec).encode()
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"", b"\xff", b"}"]))
    return data


@pytest.mark.parametrize("target", ["network", "config", "irm-header", "manifest"])
def test_json_nested_too_deep_to_decode_exit_2(tmp_path, exp1_irm_path, capsys, target):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    if target == "irm-header":
        lines = exp1_irm_path.read_text().splitlines()
        header = {**json.loads(lines[0]), "horizon": "DEEP"}
        path.write_text("\n".join([json.dumps(header).replace('"DEEP"', deep), *lines[1:]]))
    else:
        path.write_text(deep)
    argv = {
        "network": ["oracle-irm", "--network", str(path), "--horizon", "1", "--dt", "0.01", "--out", "x.csv"],
        "config": ["oracle-irm", "--preset", "exp1", "--config", str(path), "--out", str(tmp_path / "x.csv")],
        "irm-header": ["reconstruct", "--preset", "exp1", "--irm", str(path), "--out", str(tmp_path / "r")],
        "manifest": ["replay", str(path)],
    }[target]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "rows", [["DC,0.0,1.0", "DC,10.0,1.7976931348623157e308"], ["DC,-1e308,1.0", "DC,1e308,1.0"]],
    ids=["padded-y-overflows", "x-span-overflows"],
)
def test_plot_values_whose_span_overflows_exit_2(tmp_path, capsys, rows):
    # finite values whose plotted range is not: the SVG would carry nan coordinates
    path = tmp_path / "big.csv"
    path.write_text("\n".join(["pipe,x_m,A_m2", *rows]) + "\n")
    assert run(["plot", "--in", str(path), "--out", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "x.svg").exists()


def test_input_that_is_not_text_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"pipe,x_m,A_m2\nDC,0.0,\xff\n")
    assert run(["plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")]) == 2
    argv = ["oracle-irm", "--network", str(bad), "--horizon", "1", "--dt", "0.01", "--out", str(tmp_path / "i.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("pipescope: ") for line in err)


@given(st.lists(damaged_profile_csv(), min_size=1, max_size=2), st.none() | damaged_network_json())
@settings(max_examples=200, deadline=None)
def test_fuzz_plot_exits_cleanly(tmp_path_factory, profiles, truth):
    work = tmp_path_factory.mktemp("plot")
    argv = ["plot", "--in"]
    for n, data in enumerate(profiles):
        (work / f"p{n}.csv").write_bytes(data)
        argv.append(str(work / f"p{n}.csv"))
    if truth is not None:
        (work / "net.json").write_bytes(truth)
        argv += ["--truth", str(work / "net.json")]
    code, err = _exit_and_stderr([*argv, "--out", str(work / "fig.svg")])
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 0:  # every coordinate drawn is a finite number
        points = re.findall(r'points="([^"]*)"', (work / "fig.svg").read_text())
        assert all(math.isfinite(float(v)) for line in points for xy in line.split() for v in xy.split(","))


SHOW_NETWORK_ARGS = (st.sampled_from(["--preset", "exp1", "exp2", "exp3", "--network", "--out", "x", ""])
                     | st.text(max_size=8))


@given(st.lists(SHOW_NETWORK_ARGS, max_size=3))
@settings(max_examples=100, deadline=None)
def test_fuzz_show_network_exits_cleanly(args):
    code, err = _exit_and_stderr(["show-network", *args])
    assert code in (0, 2), err
    assert "Traceback" not in err


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_vertex_order_does_not_change_outputs(tmp_path, order):
    # Network.vertices follows the spec's list, and the simulator numbers its vertex rule by it
    def reorder(stock):
        spec = copy.deepcopy(stock)
        vertices = spec["vertices"]
        if order == "reversed":
            vertices.reverse()
        else:
            random.Random(19).shuffle(vertices)
        assert vertices != stock["vertices"] and validate_network(spec).vertices == tuple(vertices)
        path = tmp_path / f"{order}_{len(vertices)}.json"
        path.write_text(json.dumps(spec))
        return str(path)

    exp1 = reorder(EXP1_NETWORK)
    for name, network in (("stock", []), ("reordered", ["--network", exp1])):
        irm, recon = tmp_path / f"{name}.csv", tmp_path / f"{name}_recon"
        assert run(["oracle-irm", "--preset", "exp1", *network, "--out", str(irm)]) == 0
        assert run(["reconstruct", "--preset", "exp1", *network, "--irm", str(irm), "--out", str(recon)]) == 0
    assert (tmp_path / "stock.csv").read_bytes() == (tmp_path / "reordered.csv").read_bytes()
    stock, reordered = read_dir_bytes(tmp_path / "stock_recon"), read_dir_bytes(tmp_path / "reordered_recon")
    del stock["manifest.json"], reordered["manifest.json"]  # wall time and the network's source
    assert stock == reordered

    exp2 = reorder(EXP2_NETWORK)
    for name, network in (("stock2", []), ("reordered2", ["--network", exp2])):
        argv = ["simulate-irm", "--preset", "exp2", *network, "--dx", "20", "--duration", "0.9"]
        assert run([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "stock2.csv").read_bytes() == (tmp_path / "reordered2.csv").read_bytes()
