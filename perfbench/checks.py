"""Correctness of one reconstructed area profile against the network's truth.

The rules follow the repository's acceptance criteria. Exact workloads
must meet criterion 1: every area within 1% of the truth. Measured
workloads must meet criterion 2: the baseline within 10% of the truth
away from blockage edges and profile ends, and each blockage dip centred
within two reconstruction steps of the blockage. The reported error uses
criterion 2's masking on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MARGIN_M = 28.0  # criterion 2's smear allowance at blockage edges and profile ends
EXACT_BOUND = 0.01
MEASURED_BOUND = 0.10
# Errors below this read as this value: round-off in a solver rewrite is not lost accuracy.
ERR_FLOOR = 1e-6


@dataclass(frozen=True)
class ProfileCheck:
    ok: bool
    area_err: float  # max relative error on the masked points, floored at ERR_FLOOR
    reason: str = ""


def read_profile(path) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of a ``pipe,x_m,<value>`` CSV written by ``reconstruct``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    return data[:, 0], data[:, 1]


def truth_in_profile_coords(net, pipe_id: str):
    """Base area and blockages (lo, hi, depth) in the profile's coordinates.

    Profiles run from the pipe end away from x0, which is the pipe's own
    coordinate only when that end is the pipe's ``from`` vertex.
    """
    pipe = net.pipes[pipe_id]
    flipped = net.far_side_vertex(pipe_id) != pipe.from_vertex
    blocks = []
    for lo, hi, delta in pipe.area.blocks:
        if flipped:
            lo, hi = pipe.length - hi, pipe.length - lo
        blocks.append((lo, hi, -delta))
    return pipe.area.base, blocks


def check_profile(positions, areas, base, blocks, dx: float, exact: bool) -> ProfileCheck:
    if not np.isfinite(areas).all():
        return ProfileCheck(False, 1.0, "non-finite area")
    truth = np.full_like(positions, base)
    for lo, hi, depth in blocks:
        truth -= depth * ((positions > lo) & (positions < hi))
    rel = np.abs(areas - truth) / truth
    keep = (positions >= positions[0] + MARGIN_M) & (positions <= positions[-1] - MARGIN_M)
    for lo, hi, _ in blocks:
        keep &= ~((positions > lo - MARGIN_M) & (positions < hi + MARGIN_M))
    if not keep.any():
        return ProfileCheck(False, max(float(rel.max()), ERR_FLOOR), "no point left after masking")
    err = max(float(rel[keep].max()), ERR_FLOOR)

    if exact:
        if rel.max() >= EXACT_BOUND:
            return ProfileCheck(False, err, f"max relative error {rel.max():.3g} >= {EXACT_BOUND}")
        return ProfileCheck(True, err)
    if err >= MEASURED_BOUND:
        return ProfileCheck(False, err, f"baseline error {err:.3g} >= {MEASURED_BOUND}")
    for lo, hi, _ in blocks:
        window = (positions >= lo - MARGIN_M) & (positions <= hi + MARGIN_M)
        deficit = np.clip(base - areas[window], 0.0, None)
        if deficit.sum() <= 0.0:
            return ProfileCheck(False, err, f"no dip at blockage ({lo}, {hi})")
        centroid = float((positions[window] * deficit).sum() / deficit.sum())
        if abs(centroid - (lo + hi) / 2) > 2 * dx:
            return ProfileCheck(False, err, f"dip of blockage ({lo}, {hi}) centred at {centroid:.1f}")
    return ProfileCheck(True, err)
