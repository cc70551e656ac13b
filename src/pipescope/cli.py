"""Command-line front end: experiment orchestration, file I/O, plots.

Subcommands: oracle-irm, simulate-irm, reconstruct, plot, show-network,
replay. The table ``OPTIONS`` declares each of the first three once; the
parser, the --config and manifest checks and ``replay`` read it. Option
precedence is flags > --config file > --preset values > built-in
defaults; the two presets carry the stock experiment constants so each
experiment runs with a single flag. Every output set gets a manifest
JSON recording the resolved configuration; ``replay`` re-runs a
manifest and reproduces the outputs byte for byte.

Exit codes: 0 success, 2 configuration or file error, 3 numeric error,
4 reconstruction point out of reach (action time exceeds tau).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import ActionTimeExceedsTau, ConfigError, NumericError, PipescopeError
from .graph import Network, validate_network
from .inversion import ReconConfig, _check_leaves, area_profile, volume_profile
from .irm import load_irm, measure_irm, oracle_irm, sample_irm, save_irm
from .presets import PRESETS, preset
from .simulate import SimConfig

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_UNREACHABLE = 4


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def _known_options(config, command: str, source: str) -> dict:
    """Return ``config`` if it is a JSON object setting only options of ``command``, each of its declared type.

    An option the command lacks would silently change what the run means,
    so it is refused. A ``float`` option takes a finite JSON number, not a
    boolean; any other a string, or for a ``list`` option also a list.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"{source} is not a JSON object")
    options = OPTIONS[command][3]
    unknown = sorted(set(config) - set(options) - {"network"})
    if unknown:
        raise ConfigError(f"{source} sets option(s) {', '.join(unknown)} that the command does not have")
    for key, value in config.items():
        if key == "network":
            continue
        number = options[key].type is float
        if number:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
        else:
            ok = isinstance(value, str) or (options[key].type is list and isinstance(value, list))
        if not ok:
            raise ConfigError(f"{source} sets {key} to {value!r}, not a {'finite number' if number else 'string'}")
    return config


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Merge flag values over config-file values over preset values over defaults."""
    _, _, preset_section, options = OPTIONS[command]
    file_cfg = _known_options(_load_json(args.config), command, f"config file {args.config}") if args.config else {}
    preset_cfg = {}
    network_spec = None
    if getattr(args, "preset", None):
        p = preset(args.preset)
        preset_cfg = p.get(preset_section, {})
        network_spec = p["network"]
    resolved = {}
    for key, option in options.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        elif key in preset_cfg:
            resolved[key] = preset_cfg[key]
        else:
            resolved[key] = option.default
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")
    if getattr(args, "network", None):
        network_spec = _load_json(args.network)
    elif "network" in file_cfg:
        network_spec = file_cfg["network"]
    if network_spec is not None:
        resolved["network"] = network_spec
    return resolved


def _require_network(resolved: dict) -> Network:
    if "network" not in resolved:
        raise ConfigError("no network given: use --network FILE or --preset")
    return validate_network(resolved["network"])


def _write_manifest(command: str, resolved: dict, inputs: dict, outputs: list, path, wall: float, **extra):
    manifest = {
        "command": command,
        "version": __version__,
        "config": resolved,
        "inputs": inputs,
        "outputs": [str(o) for o in outputs],
        "wall_time_s": wall,
        **extra,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _reciprocity(irm) -> float:
    """max|k_ij - k_ji| / max|k| of an IRM, the deviation from reciprocity; 0 for an all-zero IRM."""
    peak = np.abs(irm.k).max(initial=0.0)
    return float(np.abs(irm.k - irm.k.transpose(1, 0, 2)).max(initial=0.0) / peak) if peak > 0 else 0.0


def _write_csv(path, header: str, rows):
    """Write ``rows`` under ``header``: strings as they are, numbers as ``repr(float(v))``, which reads back exactly."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join([v if isinstance(v, str) else repr(float(v)) for v in row]) + "\n")


# -- commands -----------------------------------------------------------------


def cmd_oracle_irm(resolved: dict) -> list:
    net = _require_network(resolved)
    started = time.perf_counter()
    analytic = oracle_irm(net, resolved["horizon"], prune_eps=resolved["prune_eps"])
    irm = sample_irm(analytic, resolved["dt"])
    out = resolved["out"]
    save_irm(irm, out)
    _write_manifest("oracle-irm", resolved, {}, [out], f"{out}.manifest.json", time.perf_counter() - started,
                    reciprocity=_reciprocity(irm))
    return [out]


def cmd_simulate_irm(resolved: dict) -> list:
    net = _require_network(resolved)
    started = time.perf_counter()
    cfg = SimConfig(dx=resolved["dx"], duration=resolved["duration"], courant=resolved["courant"])
    irm, runs = measure_irm(
        net,
        cfg,
        resample_dt=resolved["resample_dt"] or None,
        smooth_window_s=resolved["smooth_window"],
        fields=bool(resolved.get("dump_fields")),
    )
    out = resolved["out"]
    save_irm(irm, out)
    outputs = [out]
    if resolved.get("dump_traces"):
        trace_dir = resolved["dump_traces"]
        os.makedirs(trace_dir, exist_ok=True)
        for source, hist in zip(net.accessible, runs):
            for leaf, series in hist.boundary.items():
                path = os.path.join(trace_dir, f"src_{source}_probe_{leaf}.csv")
                _write_csv(path, "t,H", zip(hist.t, series))
                outputs.append(path)
    if resolved.get("dump_fields"):
        field_dir = resolved["dump_fields"]
        os.makedirs(field_dir, exist_ok=True)
        for source, hist in zip(net.accessible, runs):
            for pid, grid in hist.grids.items():
                path = os.path.join(field_dir, f"src_{source}_pipe_{pid}.csv")
                t, x = np.repeat(hist.t, len(grid.x)), np.tile(grid.x, len(hist.t))  # time-major, as H and Q
                _write_csv(path, "t,x,H,Q", zip(t, x, hist.H[pid].ravel(), hist.Q[pid].ravel()))
                outputs.append(path)
    _write_manifest("simulate-irm", resolved, {}, outputs, f"{out}.manifest.json", time.perf_counter() - started,
                    reciprocity=_reciprocity(irm))
    return outputs


def _parse_list(value, cast):
    """A comma-separated string or a JSON list of strings and numbers, as ``cast`` values."""
    items = value if isinstance(value, list) else [v for v in value.split(",") if v != ""]
    if any(isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in items):
        raise ConfigError(f"list {value!r} holds an item that is neither a string nor a number")
    try:
        return [cast(v) for v in items]
    except ValueError as exc:
        raise ConfigError(f"unreadable list {value!r}: {exc}") from exc


def cmd_reconstruct(resolved: dict) -> list:
    net = _require_network(resolved)
    started = time.perf_counter()
    irm = load_irm(resolved["irm"])
    _check_leaves(irm, net)
    pipes = _parse_list(resolved["pipes"], str) if resolved["pipes"] else list(net.pipes)
    if not pipes:
        raise ConfigError(f"pipe list {resolved['pipes']!r} names no pipe")
    lams = _parse_list(resolved["lam"], float)
    if len(lams) == 1:
        lams = lams * len(pipes)
    if len(lams) != len(pipes):
        raise ConfigError(f"{len(lams)} lambda values for {len(pipes)} pipes")
    unknown = [p for p in pipes if p not in net.pipes]
    if unknown:
        raise ConfigError(f"unknown pipe id(s): {', '.join(unknown)}")
    cfgs = [ReconConfig(tau=resolved["tau"], dx=resolved["dx"], lam=lam) for lam in lams]

    out_dir = resolved["out"]
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    profiles = {}  # per pipe: the solver that ran, the reciprocity it saw and, if it factored, its trust numbers
    for pid, cfg in zip(pipes, cfgs):
        vp = volume_profile(net, irm, pid, cfg)
        profiles[pid] = {"solver": vp.solver, "reciprocity": vp.reciprocity,
                         "residual": vp.residual, "volume_bound": vp.volume_bound}
        ap = area_profile(vp)
        vol_path = os.path.join(out_dir, f"{pid}_volume.csv")
        _write_csv(vol_path, "pipe,x_m,V_m3", ((pid, x, v) for x, v in zip(vp.positions, vp.volumes)))
        area_path = os.path.join(out_dir, f"{pid}_area.csv")
        _write_csv(area_path, "pipe,x_m,A_m2", ((pid, x, a) for x, a in zip(ap.positions, ap.areas)))
        outputs.extend([vol_path, area_path])
    manifest = os.path.join(out_dir, "manifest.json")
    _write_manifest("reconstruct", resolved, {"irm": str(resolved["irm"])}, outputs, manifest,
                    time.perf_counter() - started, profiles=profiles)
    return outputs


def _read_profile_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header[:2] != ["pipe", "x_m"] or len(header) != 3 or not rows:
        raise ConfigError(f"{path}: expected pipe,x_m,(A_m2|V_m3) CSV with data rows")
    if any(len(r) != 3 for r in rows):
        raise ConfigError(f"{path}: every data row needs three fields")
    try:
        x = np.array([float(r[1]) for r in rows])
        y = np.array([float(r[2]) for r in rows])
    except ValueError as exc:
        raise ConfigError(f"{path}: unreadable number in a data row: {exc}") from exc
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigError(f"{path}: a data row holds a number that is not finite")
    pipes = sorted({r[0] for r in rows})
    if len(pipes) > 1:
        raise ConfigError(f"{path}: rows name pipes {pipes[0]!r} and {pipes[1]!r}; a profile CSV holds one pipe")
    return pipes[0], header[2], x, y


def _svg_polyline(points, style):
    coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
    return f'<polyline fill="none" {style} points="{coords}"/>'


def cmd_plot(resolved: dict) -> list:
    panels = []
    truth_net = None
    if resolved.get("truth"):
        truth_net = validate_network(_load_json(resolved["truth"]))
    for path in resolved["inputs"]:
        pipe_id, kind, x, y = _read_profile_csv(path)
        truth_xy = None
        if truth_net is not None and kind == "A_m2" and pipe_id in truth_net.pipes:
            pipe = truth_net.pipes[pipe_id]
            # sample from the reconstruction-start end so coordinates line up
            from_far = truth_net.far_side_vertex(pipe_id) == pipe.from_vertex
            tx = np.linspace(0.0, pipe.length, 401)
            ty = np.asarray(pipe.area(tx if from_far else pipe.length - tx))
            truth_xy = (tx, ty)
        panels.append((pipe_id, kind, x, y, truth_xy))

    width, panel_h, pad_l, pad_r, pad_t, pad_b = 640, 220, 50, 15, 25, 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{panel_h * len(panels)}">'
    ]
    for idx, (pipe_id, kind, x, y, truth_xy) in enumerate(panels):
        oy = idx * panel_h
        xs = [x] if truth_xy is None else [x, truth_xy[0]]
        ys = [y] if truth_xy is None else [y, truth_xy[1]]
        # as Python floats, an overflowing span turns into inf with no warning, and the check below refuses it
        x_lo, x_hi = float(min(v.min() for v in xs)), float(max(v.max() for v in xs))
        y_lo, y_hi = float(min(v.min() for v in ys)), float(max(v.max() for v in ys))
        span_y = (y_hi - y_lo) or 1.0
        y_lo, y_hi = y_lo - 0.1 * span_y, y_hi + 0.1 * span_y
        span_x = (x_hi - x_lo) or 1.0
        if not all(map(math.isfinite, (span_x, y_lo, y_hi, y_hi - y_lo))):
            raise ConfigError(f"{pipe_id} {kind}: the values span more than a float can hold")

        def sx(v):
            return pad_l + (v - x_lo) / span_x * (width - pad_l - pad_r)

        def sy(v):
            return oy + pad_t + (y_hi - v) / (y_hi - y_lo) * (panel_h - pad_t - pad_b)

        parts.append(
            f'<rect x="{pad_l}" y="{oy + pad_t}" width="{width - pad_l - pad_r}" '
            f'height="{panel_h - pad_t - pad_b}" fill="none" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{pad_l}" y="{oy + pad_t - 8}" font-family="monospace" font-size="12">'
            f"{pipe_id} {kind} [{y_lo:.6g}, {y_hi:.6g}] over x [{x_lo:.6g}, {x_hi:.6g}] m</text>"
        )
        if truth_xy is not None:
            parts.append(
                _svg_polyline(
                    [(sx(px), sy(py)) for px, py in zip(*truth_xy)],
                    'stroke="gray" stroke-width="2"',
                )
            )
        parts.append(
            _svg_polyline(
                [(sx(px), sy(py)) for px, py in zip(x, y)],
                'stroke="black" stroke-width="1" stroke-dasharray="6,3"',
            )
        )
    parts.append("</svg>")
    out = resolved["out"]
    with open(out, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return [out]


class Option(NamedTuple):
    """One option of a command. ``type`` is ``float``, ``str``, or ``list``: a comma-separated string or a JSON list."""

    flag: str
    type: type
    default: object  # None marks a required option
    help: str | None = None


# per command that writes a manifest: runner, subcommand help, preset section and options in flag order
OPTIONS = {
    "oracle-irm": (cmd_oracle_irm, "exact impulse-response matrix on uniform pipes", "oracle", {
        "horizon": Option("--horizon", float, None),
        "dt": Option("--dt", float, None),
        "prune_eps": Option("--prune-eps", float, 1e-4),
        "out": Option("--out", str, None),
    }),
    "simulate-irm": (cmd_simulate_irm, "impulse-response matrix from step-response runs", "simulate", {
        "dx": Option("--dx", float, None),
        "courant": Option("--courant", float, 0.95),
        "duration": Option("--duration", float, None),
        "resample_dt": Option("--resample-dt", float, 0.0),
        "smooth_window": Option("--smooth-window", float, 0.02),
        "dump_traces": Option("--dump-traces", str, ""),
        "dump_fields": Option("--dump-fields", str, ""),
        "out": Option("--out", str, None),
    }),
    "reconstruct": (cmd_reconstruct, "area profiles from an IRM file", "reconstruct", {
        "irm": Option("--irm", str, None),
        "tau": Option("--tau", float, None),
        "dx": Option("--dx", float, None),
        "lam": Option("--lambda", list, None, "comma-separated per-pipe weights (or one for all)"),
        "pipes": Option("--pipes", list, "", "comma-separated pipe ids (default: all)"),
        "out": Option("--out", str, None, "output directory"),
    }),
}


def cmd_replay(manifest_path: str) -> list:
    """Re-run a manifest written by one of the ``OPTIONS`` commands."""
    manifest = _load_json(manifest_path)
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if command not in OPTIONS:
        raise ConfigError(f"manifest {manifest_path} has no known command: {command!r}")
    config = _known_options(manifest.get("config"), command, f"manifest {manifest_path} config")
    missing = sorted(OPTIONS[command][3].keys() - config.keys())
    if missing:
        raise ConfigError(f"manifest {manifest_path} config lacks option(s) {', '.join(missing)}")
    return OPTIONS[command][0](config)


# -- argument parsing ---------------------------------------------------------


@functools.cache  # built on the first run, then shared: parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pipescope", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pipescope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (_, help_text, _, options) in OPTIONS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--network", help="network JSON file")
        p.add_argument("--preset", choices=list(PRESETS), help="built-in experiment defaults")
        p.add_argument("--config", help="JSON file with option defaults")
        for key, option in options.items():
            p.add_argument(option.flag, dest=key, type=float if option.type is float else str, help=option.help)

    p = sub.add_parser("plot", help="render area/volume CSVs as an SVG figure")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--truth", help="network JSON for the true-profile line")
    p.add_argument("--out", required=True)

    p = sub.add_parser("show-network", help="print a preset network as JSON")
    p.add_argument("--preset", choices=list(PRESETS), required=True)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its --help, --version or usage error
        return exc.code
    try:
        if args.command in OPTIONS:
            outputs = OPTIONS[args.command][0](_resolve(args, args.command))
        elif args.command == "plot":
            outputs = cmd_plot(vars(args))
        elif args.command == "show-network":
            print(json.dumps(preset(args.preset)["network"], indent=1))
            return 0
        else:  # argparse allows no other command than replay
            outputs = cmd_replay(args.manifest)
    except ActionTimeExceedsTau as exc:
        print(f"pipescope: point out of reach: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except ConfigError as exc:
        print(f"pipescope: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"pipescope: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PipescopeError as exc:
        print(f"pipescope: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, UnicodeDecodeError) as exc:  # an input that cannot be read or is not text, an unwritable output
        print(f"pipescope: file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in outputs:
        print(path)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
