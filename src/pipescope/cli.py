"""Command-line front end: experiment orchestration, file I/O, plots.

Subcommands: oracle-irm, simulate-irm, reconstruct, plot, show-network,
replay. The table ``OPTIONS`` declares each of the first three once; the
parser, the --config and manifest checks and ``replay`` read it. Option
precedence is flags > --config file > --preset values > built-in
defaults, and the network follows the same order; the two presets
carry the stock experiment constants so each experiment runs with a
single flag. Every output set gets a manifest JSON recording the
resolved configuration; ``replay`` re-runs a manifest and reproduces the
outputs byte for byte. ``_execute`` is the one place that writes these
commands' files: their runners only compute, so a run refused with any
error writes nothing.

Exit codes, set per error family in errors.py: 0 success, 2 configuration
or file error, 3 numeric error, 4 point out of reach (action time > tau).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import math
import os
import stat
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, PipescopeError
from .graph import validate_network
from .inversion import ReconConfig, area_profile, volume_profile
from .irm import load_irm, measure_irm, oracle_irm, sample_irm, save_irm
from .presets import PRESETS, preset
from .simulate import SimConfig


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
    boolean; any other a string without NUL, which no path may hold, or
    for a ``list`` option also a list.
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
        if isinstance(value, str) and "\0" in value:
            raise ConfigError(f"{source} sets {key} to {value!r}, which holds a NUL byte")
    return config


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Read each option, then the network, from flags, else the config file, else the preset, else the defaults."""
    _, _, preset_section, options = OPTIONS[command]
    file_cfg = _known_options(_load_json(args.config), command, f"config file {args.config}") if args.config else {}
    stock = preset(args.preset) if args.preset else {}
    flags = {key: value for key, value in vars(args).items() if key in options and value is not None}
    defaults = {key: option.default for key, option in options.items()}
    chain = collections.ChainMap(flags, file_cfg, stock.get(preset_section, {}), defaults)
    resolved = {key: chain[key] for key in options}
    missing = [k for k, v in resolved.items() if v is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")
    network = _load_json(args.network) if args.network else file_cfg.get("network", stock.get("network"))
    if network is not None:
        resolved["network"] = network
    return resolved


def _reciprocity(irm) -> float:
    """max|k_ij - k_ji| / max|k| of an IRM, the deviation from reciprocity, one source row at a time; 0 if all zero."""
    k = irm.k

    def absmax(d):  # max|d| as max(max d, -min d): a row's difference is then the one row-sized temporary
        return max(d.max(initial=0.0), -d.min(initial=0.0))

    peak = max((absmax(k[i]) for i in range(len(k))), default=0.0)
    skew = max((absmax(k[i] - k[:, i]) for i in range(len(k))), default=0.0)
    return float(skew / peak) if peak > 0 else 0.0


def _remove_old_output(path):
    """Delete ``path`` if it is a regular file this process may write, so that the write after it makes a new file.

    Writing over an old file truncates it, and ext4 flushes the old data
    before the truncate returns (26-60 ms a file on one 2-core Xeon's disk);
    a new file has none to flush. A symlink, device or FIFO is written
    through, and a file without write permission stays, to be refused by
    the write. A directory that forbids the delete leaves the file to be
    written over.
    """
    with contextlib.suppress(FileNotFoundError, PermissionError):
        if stat.S_ISREG(os.lstat(path).st_mode) and os.access(path, os.W_OK):
            os.unlink(path)


def _write_csv(header: str, rows, path):
    """Write ``rows`` of strings under ``header``; floats come as ``repr`` of ``column.tolist()``, which reads back."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _execute(command: str, resolved: dict) -> list:
    """Run ``command`` on ``resolved``, then make its directories, write its files in order and its manifest last.

    The one place that writes for the ``OPTIONS`` commands: a runner only
    computes, so only a file error here can leave part of a run. Each file
    replaces an older regular file of its name by a new one
    (``_remove_old_output``).
    """
    if "network" not in resolved:
        raise ConfigError("no network given: use --network FILE or --preset")
    net = validate_network(resolved["network"])
    started = time.perf_counter()
    directories, files, manifest, extra = OPTIONS[command][0](net, resolved)
    for directory in directories:
        os.makedirs(directory, exist_ok=True)
    for path, write in files:
        _remove_old_output(path)
        write(path)
    outputs = [path for path, _ in files]
    _remove_old_output(manifest)
    with open(manifest, "w") as fh:
        json.dump({"command": command, "version": __version__, "config": resolved, "outputs": outputs,
                   "wall_time_s": time.perf_counter() - started, **extra}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return outputs


# -- commands -----------------------------------------------------------------
# A runner takes the validated network and the resolved options and writes nothing. It returns the directories to
# make, its files as ordered (path, write) pairs, its manifest's path and the manifest's extra keys.


def _field_rows(hist, pid):
    """Rows t,x,H,Q of one run's fields on pipe ``pid``, time-major as H and Q."""
    x = list(map(repr, hist.grids[pid].x.tolist()))
    for t, h, q in zip(map(repr, hist.t.tolist()), hist.H[pid], hist.Q[pid]):
        yield from zip([t] * len(x), x, map(repr, h.tolist()), map(repr, q.tolist()))


def _irm_outputs(net, resolved: dict, irm, runs=()) -> tuple:
    """The IRM file, then the runs' --dump-traces and --dump-fields CSVs, as an IRM command returns them."""
    out, traces, fields = resolved["out"], resolved.get("dump_traces"), resolved.get("dump_fields")
    files = [(out, functools.partial(save_irm, irm))]
    for source, hist in zip(net.accessible, runs if traces else ()):
        for leaf, series in hist.boundary.items():
            write = functools.partial(_write_csv, "t,H", zip(map(repr, hist.t.tolist()), map(repr, series.tolist())))
            files.append((os.path.join(traces, f"src_{source}_probe_{leaf}.csv"), write))
    for source, hist in zip(net.accessible, runs if fields else ()):
        for pid in hist.grids:
            write = functools.partial(_write_csv, "t,x,H,Q", _field_rows(hist, pid))
            files.append((os.path.join(fields, f"src_{source}_pipe_{pid}.csv"), write))
    return [d for d in (traces, fields) if d], files, f"{out}.manifest.json", {"reciprocity": _reciprocity(irm)}


def cmd_oracle_irm(net, resolved: dict) -> tuple:
    analytic = oracle_irm(net, resolved["horizon"], prune_eps=resolved["prune_eps"])
    return _irm_outputs(net, resolved, sample_irm(analytic, resolved["dt"]))


def cmd_simulate_irm(net, resolved: dict) -> tuple:
    cfg = SimConfig(dx=resolved["dx"], duration=resolved["duration"], courant=resolved["courant"])
    irm, runs = measure_irm(net, cfg, resample_dt=resolved["resample_dt"], fields=bool(resolved.get("dump_fields")))
    return _irm_outputs(net, resolved, irm, runs)


def _parse_list(value):
    """A comma-separated string or a JSON list of strings and numbers, as strings."""
    items = value if isinstance(value, list) else [v for v in value.split(",") if v != ""]
    if any(isinstance(v, bool) or not isinstance(v, (str, int, float)) for v in items):
        raise ConfigError(f"list {value!r} holds an item that is neither a string nor a number")
    return [str(v) for v in items]


def cmd_reconstruct(net, resolved: dict) -> tuple:
    irm = load_irm(resolved["irm"])
    pipes = _parse_list(resolved["pipes"]) if resolved["pipes"] else list(net.pipes)
    if not pipes:
        raise ConfigError(f"pipe list {resolved['pipes']!r} names no pipe")
    unknown = [p for p in pipes if p not in net.pipes]
    if unknown:
        raise ConfigError(f"unknown pipe id(s): {', '.join(unknown)}")
    if len(set(pipes)) < len(pipes):
        raise ConfigError(f"pipe {next(p for p in pipes if pipes.count(p) > 1)!r} is named more than once")
    cfg = ReconConfig(tau=resolved["tau"], dx=resolved["dx"], lam=resolved["lam"])

    out_dir = resolved["out"]
    files = []
    profiles = {}  # per pipe: the solver that ran and, if it factored, its trust numbers
    for pid in pipes:
        vp = volume_profile(net, irm, pid, cfg)
        ap = area_profile(vp)
        profiles[pid] = {"solver": vp.solver, "residual": vp.residual, "volume_bound": vp.volume_bound}
        for name, column, x, y in (("volume", "V_m3", vp.positions, vp.volumes),
                                   ("area", "A_m2", ap.positions, ap.areas)):
            rows = zip([pid] * len(x), map(repr, x.tolist()), map(repr, y.tolist()))
            write = functools.partial(_write_csv, f"pipe,x_m,{column}", rows)
            files.append((os.path.join(out_dir, f"{pid}_{name}.csv"), write))
    extra = {"profiles": profiles, "reciprocity": _reciprocity(irm)}
    return [out_dir], files, os.path.join(out_dir, "manifest.json"), extra


def _read_profile_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header not in (["pipe", "x_m", "A_m2"], ["pipe", "x_m", "V_m3"]) or not rows:
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


def cmd_plot(resolved: dict) -> list:
    """One panel per input CSV, each line an SVG polyline: the true area first where --truth has the pipe."""
    truth_net = validate_network(_load_json(resolved["truth"])) if resolved.get("truth") else None
    panels = [_read_profile_csv(path) for path in resolved["inputs"]]

    width, panel_h, pad_l, pad_r, pad_t, pad_b = 640, 220, 50, 15, 25, 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{panel_h * len(panels)}">'
    ]
    for idx, (pipe_id, kind, x, y) in enumerate(panels):
        oy = idx * panel_h
        lines = []  # (x, y, style) of each polyline, in drawing order
        if truth_net is not None and kind == "A_m2" and pipe_id in truth_net.pipes:
            pipe = truth_net.pipes[pipe_id]
            # sample from the reconstruction-start end so coordinates line up
            from_far = truth_net.far_side_vertex(pipe_id) == pipe.from_vertex
            tx = np.linspace(0.0, pipe.length, 401)
            ty = np.asarray(pipe.area(tx if from_far else pipe.length - tx))
            lines.append((tx, ty, 'stroke="gray" stroke-width="2"'))
        lines.append((x, y, 'stroke="black" stroke-width="1" stroke-dasharray="6,3"'))
        # as Python floats, an overflowing span turns into inf with no warning, and the check below refuses it
        x_lo, x_hi = float(min(lx.min() for lx, _, _ in lines)), float(max(lx.max() for lx, _, _ in lines))
        y_lo, y_hi = float(min(ly.min() for _, ly, _ in lines)), float(max(ly.max() for _, ly, _ in lines))
        span_y = (y_hi - y_lo) or 1.0
        y_lo, y_hi = y_lo - 0.1 * span_y, y_hi + 0.1 * span_y
        span_x = (x_hi - x_lo) or 1.0
        if not all(map(math.isfinite, (span_x, y_lo, y_hi, y_hi - y_lo))):
            raise ConfigError(f"{pipe_id} {kind}: the values span more than a float can hold")
        parts.append(
            f'<rect x="{pad_l}" y="{oy + pad_t}" width="{width - pad_l - pad_r}" '
            f'height="{panel_h - pad_t - pad_b}" fill="none" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{pad_l}" y="{oy + pad_t - 8}" font-family="monospace" font-size="12">'
            f"{pipe_id} {kind} [{y_lo:.6g}, {y_hi:.6g}] over x [{x_lo:.6g}, {x_hi:.6g}] m</text>"
        )
        for lx, ly, style in lines:
            px = pad_l + (lx - x_lo) / span_x * (width - pad_l - pad_r)
            py = oy + pad_t + (y_hi - ly) / (y_hi - y_lo) * (panel_h - pad_t - pad_b)
            coords = " ".join(f"{u:.2f},{v:.2f}" for u, v in zip(px, py))
            parts.append(f'<polyline fill="none" {style} points="{coords}"/>')
    parts.append("</svg>")
    out = resolved["out"]
    _remove_old_output(out)
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
        "dump_traces": Option("--dump-traces", str, ""),
        "dump_fields": Option("--dump-fields", str, ""),
        "out": Option("--out", str, None),
    }),
    "reconstruct": (cmd_reconstruct, "area profiles from an IRM file", "reconstruct", {
        "irm": Option("--irm", str, None),
        "tau": Option("--tau", float, None),
        "dx": Option("--dx", float, None),
        "lam": Option("--lambda", float, None, "Tikhonov weight of every pipe's solve"),
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
    return _execute(command, config)


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
            outputs = _execute(args.command, _resolve(args, args.command))
        elif args.command == "plot":
            outputs = cmd_plot(vars(args))
        elif args.command == "show-network":
            print(json.dumps(preset(args.preset)["network"], indent=1))
            return 0
        else:  # argparse allows no other command than replay
            outputs = cmd_replay(args.manifest)
    except (PipescopeError, OSError, UnicodeDecodeError) as exc:
        # errors.py gives each family its exit code and label; the rest are an input that cannot be read or is not
        # text, or an unwritable output
        label, code = (exc.label, exc.exit_code) if isinstance(exc, PipescopeError) else ("file error", 2)
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")  # one line, whatever a path or id holds
        print(f"pipescope: {label}: {message}", file=sys.stderr)
        return code
    for path in outputs:
        print(path)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
