"""Scene compositions of the three benchmark workloads.

Every workload is a list of parts, one `mapassoc gen` call each. A part fixes
its layout, its generator seed and its perturbation seed, so the lane-graph
topology, and with it the amount of path-level work, is the same for every
workload seed. The workload seed picks one of SLOTS slots, and the slot seeds
the label-preserving augmentation (rotation, scale, flip, tiny jitter): the
same slot gives the same bytes, another slot moves every coordinate and the
labels the methods produce, but not the topology. Without that split one
dropped centerline in the 5x5 rung moves its lane-path count between 340 and
1,200 and stage times by 3x from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("ladder", "fleet", "noisy")
SIZES = ("full", "tiny")

# The golden table in golden.json holds the seed commit's outputs for every
# slot, so every seed is checked byte for byte.
SLOTS = 16

FULL_CROP = [75.0, 75.0]
MODERATE = {"gps_shift": 1.0, "dropout_rate": 0.05, "jitter_sigma": 0.2, "oversegment_rate": 0.05}
HEAVY = {"gps_shift": 3.0, "dropout_rate": 0.3, "jitter_sigma": 0.5, "oversegment_rate": 0.3}
PERTURB_SEED = 0


@dataclass(frozen=True)
class Part:
    """One `gen` call: `count` scenes of one layout from generator seed `seed`."""

    name: str
    gen: dict
    perturb: dict
    count: int
    seed: int

    def config(self, slot: int) -> dict:
        """The `gen --config` document of this part for one slot."""
        return {
            "gen": self.gen,
            "perturb": dict(self.perturb, seed=PERTURB_SEED),
            "augment": {"seed": slot * 1000},
        }


def _grid(k: int, crop) -> dict:
    return {"layout": "grid", "grid_rows": k, "grid_cols": k, "hd_extent": crop}


def _ladder(size: str) -> list:
    rungs = (2, 3, 4, 5) if size == "full" else (2, 3)
    gens = [(f"grid{k}x{k}", _grid(k, FULL_CROP)) for k in rungs]
    if size == "full":
        gens += [
            ("radial5", {"layout": "radial", "radial_arms": 5, "hd_extent": FULL_CROP}),
            ("random10", {"layout": "random-planar", "random_roads": 10, "hd_extent": FULL_CROP}),
        ]
    return [Part(name, gen, MODERATE, 1, seed) for seed, (name, gen) in enumerate(gens)]


def _fleet(size: str) -> list:
    count = 20 if size == "full" else 2
    layouts = ("grid", "radial", "random-planar")
    return [Part(layout, {"layout": layout}, MODERATE, count, 0) for layout in layouts]


def _noisy(size: str) -> list:
    gens = [(f"grid{k}x{k}", _grid(k, FULL_CROP)) for k in ((4, 5) if size == "full" else (3,))]
    if size == "full":
        gens += [
            ("radial6", {"layout": "radial", "radial_arms": 6, "hd_extent": FULL_CROP}),
            ("random10", {"layout": "random-planar", "random_roads": 10, "hd_extent": FULL_CROP}),
        ]
    return [Part(name, gen, HEAVY, 1, seed) for seed, (name, gen) in enumerate(gens)]


def compose(workload: str, size: str = "full") -> list:
    """The parts of a workload, in container order."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    build = {"ladder": _ladder, "fleet": _fleet, "noisy": _noisy}.get(workload)
    if build is None:
        raise ValueError(f"unknown workload {workload!r}")
    return build(size)


def slot_of(seed: int) -> int:
    return seed % SLOTS
