"""Seeded tree networks for the benchmark's tree workloads.

Every tree has the same shape: 6 accessible leaves, 5 junctions and 11
pipes, with x0 behind the first junction and the probe pipe, the leaf
pipe the benchmark reconstructs, four pipes away from x0. The seed names
the vertices and pipes, orders them in the JSON, and draws the areas:

- ``measured`` trees draw each pipe's base area from ``BASE_AREAS`` and
  put a blockage on about half of them;
- ``exact`` trees draw one area from ``BASE_AREAS`` for the whole network,
  as the oracle needs constant areas; a uniform network's reflections
  do not depend on the value, so neither does the oracle's work.

What the seed does not change, and why: the work. Every pipe but the
probe is ``PIPE_LENGTH`` long, so the simulator's grid, time step and
node count are the same for every tree. The shape is fixed because the
wavefront oracle's work follows it: over seeds 301-315 of random shapes
the oracle's delta count ranged from 173 to 204, a spread between seeds
as large as the benchmark's bound. The probe has a fixed length and area
profile, so the reconstruction error stays comparable across seeds.

Usage: python3 perfbench/treegen.py --seed 7 --kind measured > net.json
"""

from __future__ import annotations

import argparse
import json
import random

LEAVES = 6  # accessible leaves of SHAPE
PIPE_LENGTH = 240.0  # a whole multiple of the simulator's dx and of a*dt for the oracle
PROBE_ID = "probe"
PROBE_LENGTH = 280.0
PROBE_BLOCK = {"x0": 120.0, "x1": 160.0, "delta": -0.3}  # on base area 1.0
BASE_AREAS = (0.5, 1.0, 1.5, 2.0)
KINDS = ("measured", "exact")


def _block(rng: random.Random, base: float) -> dict:
    width = rng.choice((20.0, 30.0, 40.0, 50.0))
    lo = round(rng.uniform(0.25 * PIPE_LENGTH, 0.75 * PIPE_LENGTH - width), 1)
    return {"x0": lo, "x1": lo + width, "delta": -rng.choice((0.2, 0.3, 0.4)) * base}


# (vertex away from x0, vertex towards x0) for every pipe; "probe" ends the probe pipe
SHAPE = (
    ("J1", "x0"),
    ("J2", "J1"), ("J3", "J1"),
    ("J4", "J2"), ("L1", "J2"),
    ("L2", "J3"), ("J5", "J3"),
    ("L3", "J4"), ("L4", "J4"),
    ("L5", "J5"), ("probe", "J5"),
)


def generate(seed: int, kind: str) -> dict:
    """The network spec of the tree for ``seed`` and ``kind`` (one of KINDS)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, not {kind!r}")
    rng = random.Random(f"{kind}:{seed}")
    junctions = [f"J{n}" for n in range(1, 6)]
    leaves = [f"L{n}" for n in range(1, LEAVES + 1)]
    rename = dict(zip(junctions, rng.sample(junctions, len(junctions))))
    rename.update(zip(leaves[:-1] + ["probe"], rng.sample(leaves, len(leaves))))
    rename["x0"] = "x0"
    edges = [(rename[a], rename[b]) for a, b in SHAPE]
    rng.shuffle(edges)
    probe_leaf = rename["probe"]
    uniform = rng.choice(BASE_AREAS)

    pipes = []
    for n, (a, b) in enumerate((e for e in edges if e[0] != probe_leaf), start=1):
        base, blocks = uniform, []
        if kind == "measured":
            base = rng.choice(BASE_AREAS)
            if rng.random() < 0.5:
                blocks = [_block(rng, base)]
        pipes.append({"id": f"P{n:02d}", "from": a, "to": b, "length": PIPE_LENGTH,
                      "area": {"base": base, "blocks": blocks}})
    probe_junction = next(b for a, b in edges if a == probe_leaf)
    if kind == "measured":
        probe_area = {"base": 1.0, "blocks": [dict(PROBE_BLOCK)]}
    else:
        probe_area = {"base": uniform, "blocks": []}
    pipes.append({"id": PROBE_ID, "from": probe_leaf, "to": probe_junction, "length": PROBE_LENGTH,
                  "area": probe_area})

    return {
        "wave_speed": 1000.0,
        "gravity": 9.81,
        "vertices": sorted({v for e in edges for v in e}),
        "pipes": pipes,
        "x0": "x0",
        "accessible": sorted(v for v in rename.values() if v.startswith("L")),
    }


def dumps(spec: dict) -> str:
    """The canonical JSON text of a spec: the same spec always gives the same bytes."""
    return json.dumps(spec, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=KINDS, required=True)
    args = parser.parse_args(argv)
    print(dumps(generate(args.seed, args.kind)), end="")


if __name__ == "__main__":
    main()
