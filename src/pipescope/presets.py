"""Built-in example networks and the default run parameters for each.

``exp1`` is the three-pipe Y network with uniform unit area, used with an
exactly binned analytic IRM. ``exp2`` is the four-leaf star with three
blockages, used with simulated step-response measurements.
"""

from __future__ import annotations

import copy

EXP1_NETWORK = {
    "wave_speed": 1000.0,
    "gravity": 9.81,
    "vertices": ["A", "B", "C", "D"],
    "pipes": [
        {"id": "AD", "from": "A", "to": "D", "length": 400.0, "area": {"base": 1.0, "blocks": []}},
        {"id": "BD", "from": "B", "to": "D", "length": 300.0, "area": {"base": 1.0, "blocks": []}},
        {"id": "DC", "from": "D", "to": "C", "length": 1000.0, "area": {"base": 1.0, "blocks": []}},
    ],
    "x0": "C",
    "accessible": ["A", "B"],
}

EXP2_NETWORK = {
    "wave_speed": 1000.0,
    "gravity": 9.81,
    "vertices": ["A", "B", "C", "D", "E"],
    "pipes": [
        {"id": "AE", "from": "A", "to": "E", "length": 300.0, "area": {"base": 1.0, "blocks": []}},
        {
            "id": "BE",
            "from": "B",
            "to": "E",
            "length": 400.0,
            "area": {"base": 2.0, "blocks": [{"x0": 350.0, "x1": 375.0, "delta": -0.6}]},
        },
        {
            "id": "CE",
            "from": "C",
            "to": "E",
            "length": 400.0,
            "area": {"base": 1.0, "blocks": [{"x0": 210.0, "x1": 250.0, "delta": -0.2}]},
        },
        {
            "id": "ED",
            "from": "E",
            "to": "D",
            "length": 500.0,
            "area": {
                "base": 1.0,
                "blocks": [
                    {"x0": 410.0, "x1": 450.0, "delta": -0.4},
                    {"x0": 150.0, "x1": 250.0, "delta": -0.2},
                ],
            },
        },
    ],
    "x0": "D",
    "accessible": ["A", "B", "C"],
}

PRESETS = {
    "exp1": {
        "network": EXP1_NETWORK,
        "oracle": {"horizon": 1.61, "dt": 0.01},
        "reconstruct": {"tau": 0.8, "dx": 10.0, "pipes": ["AD", "BD", "DC"], "lam": 1e-5},
    },
    "exp2": {
        "network": EXP2_NETWORK,
        "simulate": {"dx": 5.0, "courant": 0.95, "duration": 1.9, "resample_dt": 0.007},
        "reconstruct": {"tau": 0.9, "dx": 7.0, "pipes": ["AE", "BE", "CE", "ED"], "lam": 1.0},
    },
}


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
