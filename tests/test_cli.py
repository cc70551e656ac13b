"""Command-line behavior: exit codes, file outputs, determinism, replay."""

import contextlib
import copy
import importlib
import io
import json
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipescope import SimConfig, simulate, step_inflow, validate_network
from pipescope.cli import OPTIONS, build_parser, main, run
from pipescope.irm import load_irm
from pipescope.presets import EXP1_NETWORK, EXP2_NETWORK
from test_irm import damaged_irm_lines, edited_irm_lines


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


def test_reconstruct_lambda_count_mismatch_exit_2(tmp_path):
    irm_path = tmp_path / "irm.csv"
    assert run(["oracle-irm", "--preset", "exp1", "--out", str(irm_path)]) == 0
    code = run(
        [
            "reconstruct",
            "--preset",
            "exp1",
            "--irm",
            str(irm_path),
            "--lambda",
            "1e-5,1e-5",
            "--pipes",
            "AD,BD,DC",
            "--out",
            str(tmp_path / "r"),
        ]
    )
    assert code == 2


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


def test_simulate_irm_dump_fields(tmp_path, net1_path):
    fields = tmp_path / "fields"
    code = run(["simulate-irm", "--network", str(net1_path), "--dx", "50", "--courant", "1.0", "--duration", "0.3",
                "--dump-fields", str(fields), "--out", str(tmp_path / "irm.csv")])
    assert code == 0
    net = validate_network(EXP1_NETWORK)
    cfg = SimConfig(dx=50.0, duration=0.3, courant=1.0)
    hist = simulate(net, step_inflow(net, cfg, "B"), cfg, fields=True)
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
    from pipescope.errors import HorizonTooLarge

    def boom(*args, **kwargs):
        raise HorizonTooLarge("event explosion")

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
    profiles = json.loads((out / "manifest.json").read_text())["profiles"]
    # the factored path records the largest point's residual and volume bound
    trust = {pid: (profiles[pid].pop("residual"), profiles[pid].pop("volume_bound")) for pid in profiles}
    assert profiles == {pid: {"solver": "layer-stripping", "reciprocity": 0.0} for pid in ("AD", "BD", "DC")}
    assert all(0 <= value <= 1e-10 for pair in trust.values() for value in pair)
    out = tmp_path / "r0"
    argv = ["reconstruct", "--preset", "exp1", "--irm", str(exp1_irm_path), "--pipes", "AD", "--lambda", "0"]
    assert run([*argv, "--out", str(out)]) == 0
    profiles = json.loads((out / "manifest.json").read_text())["profiles"]
    assert profiles == {"AD": {"solver": "per-point: sqrt(lambda) 0 <= skew bound 0", "reciprocity": 0.0,
                               "residual": None, "volume_bound": None}}


@pytest.mark.parametrize(
    "flags",
    [["--lambda", "nan"], ["--lambda", "-1"], ["--lambda", "inf"], ["--lambda", "1e-5,nan,1e-5"],
     ["--tau", "nan"], ["--tau", "-0.8"], ["--dx", "0"], ["--dx", "nan"]],
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
    [("--dx", "nan"), ("--dx", "inf"), ("--duration", "nan"), ("--duration", "-1"), ("--smooth-window", "-1"),
     ("--smooth-window", "nan"), ("--resample-dt", "-1"), ("--resample-dt", "nan")],
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
    # the exp2 defaults, about 0.1 MB of arrays, with 64 kB of physical memory: refused, bytes named, before any run
    calls = []
    monkeypatch.setattr(importlib.import_module("pipescope.simulate"), "_physical_memory", lambda: 1 << 16)
    monkeypatch.setattr("pipescope.irm.simulate_runs", lambda *args, **kwargs: calls.append(args))
    code = run(["simulate-irm", "--preset", "exp2", "--out", str(tmp_path / "x.csv")])
    assert code == 2 and calls == []
    err = capsys.readouterr().err
    assert err.startswith("pipescope: configuration error:") and err.count("\n") == 1
    assert re.search(r"kernel samples, needs \d+ bytes, more than the 65536 bytes of physical memory", err)
    assert not (tmp_path / "x.csv").exists()


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


# every option of the three manifest-writing commands with a valid value, on small exp1 runs
VALID_OPTIONS = {
    "oracle-irm": {"horizon": 1.61, "dt": 0.01, "prune_eps": 1e-4, "out": "irm.csv"},
    "simulate-irm": {"dx": 20.0, "courant": 0.95, "duration": 0.5, "resample_dt": 0.0, "smooth_window": 0.02,
                     "dump_traces": "", "dump_fields": "", "out": "irm.csv"},
    "reconstruct": {"irm": "exp1_irm.csv", "tau": 0.8, "dx": 10.0, "lam": "1e-5", "pipes": "AD", "out": "r"},
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
    if key in ("lam", "pipes"):
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
    "smooth_window": st.floats(0.0, 0.05),
    "tau": st.floats(0.1, 1.0),
    "lam": st.sampled_from(["1e-5", "0", "1e-5,1e-3,0.1"]),
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
    # the same options as flags, from a --config file and from a replay manifest
    work = tmp_path_factory.mktemp("cli")
    command, options = data.draw(fuzzed_options(work, valid_inputs))
    network = str(valid_inputs / "net.json")
    flags = [f"{OPTIONS[command][3][key].flag}={value}" for key, value in options.items()]
    (work / "cfg.json").write_text(json.dumps(options))
    manifest = {"command": command, "config": {**options, "network": EXP1_NETWORK}}
    (work / "manifest.json").write_text(json.dumps(manifest))
    results = [
        _exit_and_stderr([command, "--network", network, *flags]),
        _exit_and_stderr([command, "--network", network, "--config", str(work / "cfg.json")]),
        _exit_and_stderr(["replay", str(work / "manifest.json")]),
    ]
    for code, err in results:
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
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
