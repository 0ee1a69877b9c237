"""The benchmark's three workloads: inputs made from a seed.

Each workload draws its items from a fixed, finite *universe* of run
points, so the reference digests in ``reference.json`` cover every
seed: the seed decides which points run, in which order, never what a
point computes.

* ``adaptive_tiny`` — a stratified slice of the real ``--scale tiny``
  figure plan (the paper's adaptive mechanisms on the wheel engine).
* ``minimal_array`` — minimal routing at ``--scale small`` (h=3): high
  load steady points and burst drains, on the array core.
* ``serve_closed_loop`` — small h=2 single-point jobs over every
  mechanism, submitted to the HTTP service by two closed-loop clients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.experiments import figures
from repro.experiments.presets import get_scale, preset_config, preset_runspec
from repro.registry import ROUTING_REGISTRY
from repro.runplan import RunPoint

ADAPTIVE_MECHS = ("olm", "par62", "rlm", "pb", "valiant")
#: (flow control, pattern, mechanisms plotted) of the tiny figure plan
ADAPTIVE_CELLS = (
    ("vct", "uniform", figures.VCT_UN_MECHS),
    ("vct", "advg+1", figures.VCT_ADV_MECHS),
    ("vct", "advg+h", figures.VCT_ADV_MECHS),
    ("wh", "uniform", figures.WH_UN_MECHS),
    ("wh", "advg+1", figures.WH_ADV_MECHS),
    ("wh", "advg+h", figures.WH_ADV_MECHS),
)
#: replica seeds of the minimal_array and serve universes
UNIVERSE_SEEDS = (1, 2, 3, 4)
#: serve jobs: windows (cycles) and load grids per pattern
SERVE_WINDOWS = (250, 500)
SERVE_LOADS = {
    "uniform": (0.1, 0.2, 0.3, 0.4, 0.5),
    "advg+1": (0.05, 0.1, 0.15, 0.2, 0.3),
    "advg+h": (0.05, 0.1, 0.15, 0.2, 0.3),
}
#: every this many-th serve submission repeats an earlier one of the client
SERVE_REPEAT_EVERY = 3
SERVE_CLIENTS = 2


def _auto(point: RunPoint) -> RunPoint:
    return replace(point, config=point.config.with_(engine="auto"))


# --------------------------------------------------------- adaptive_tiny
def adaptive_cells() -> list[list[list[RunPoint]]]:
    """The tiny plan's adaptive points: ``cells[c][mech][load_index]``."""
    cells = []
    for fc, pattern, mechs in ADAPTIVE_CELLS:
        cells.append([
            [_auto(p) for p in preset_runspec(
                fc, scale="tiny", routing=mech, pattern=pattern).expand()]
            for mech in mechs if mech in ADAPTIVE_MECHS])
    return cells


#: the slots of one adaptive deck: (flow control, pattern family,
#: mechanism class, load index).  Every load index of the tiny grid
#: appears once; the seed draws the mechanism within its class
#: ("transit" = the in-transit adaptive olm/par62/rlm) and the pattern
#: within the adversarial family.  Host time follows the load index,
#: flow control and class far more than that draw, so every deck costs
#: about the same and the metrics stay steady across seeds.
ADAPTIVE_SLOTS = (
    ("vct", "uniform", "transit", 9),
    ("vct", "uniform", "transit", 6),
    ("vct", "adversarial", "transit", 8),
    ("wh", "uniform", "transit", 7),
    ("vct", "adversarial", "valiant", 5),
    ("wh", "adversarial", "pb", 4),
    ("vct", "uniform", "pb", 3),
    ("vct", "adversarial", "pb", 2),
    ("wh", "adversarial", "valiant", 1),
    ("vct", "uniform", "transit", 0),
)
TRANSIT = ("olm", "par62", "rlm")


def adaptive_deck(seed: int, k: int = 0) -> list[RunPoint]:
    """Deck ``k`` of the seed: one point per slot of :data:`ADAPTIVE_SLOTS`,
    in seeded order."""
    rng = random.Random(f"{seed}/{k}")
    plan = {}
    for (fc, pattern, _), cell in zip(ADAPTIVE_CELLS, adaptive_cells()):
        for series in cell:
            plan[fc, pattern, series[0].config.routing] = series
    deck = []
    for fc, family, cls, load_index in ADAPTIVE_SLOTS:
        pattern = ("uniform" if family == "uniform"
                   else rng.choice(("advg+1", "advg+h")))
        mechs = [m for m in TRANSIT if (fc, pattern, m) in plan]
        mech = rng.choice(mechs) if cls == "transit" else cls
        deck.append(plan[fc, pattern, mech][load_index])
    rng.shuffle(deck)
    return deck


# --------------------------------------------------------- minimal_array
def _minimal_config(fc: str, seed: int):
    return preset_config(fc, scale="small", routing="minimal", seed=seed,
                         engine="auto")


def minimal_strata(seed: int) -> list[list[RunPoint]]:
    """Per stratum (flow control x pattern x steady/drain), its points.

    Steady points run at the top load of the scale's grid, far past
    minimal routing's saturation on both patterns: the backlog of the
    source queues, and with it the peak memory, then depends on the
    flow control and pattern alone, not on a seeded load draw."""
    scale = get_scale("small")
    strata = []
    for fc in ("vct", "wh"):
        for pattern, grid in (("uniform", scale.loads_uniform),
                              ("advg+1", scale.loads_adversarial)):
            strata.append([_auto(p) for p in preset_runspec(
                fc, scale=scale, routing="minimal", pattern=pattern,
                loads=grid[-1:], seed=seed).expand()])
            strata.append([RunPoint(
                config=_minimal_config(fc, seed), pattern=pattern,
                kind="drain",
                packets_per_node=(scale.burst_vct if fc == "vct"
                                  else scale.burst_wh),
                max_cycles=scale.max_drain_cycles)])
    return strata


def minimal_deck(seed: int, k: int = 0) -> list[RunPoint]:
    """Deck ``k`` of the seed: one point per stratum; the seed draws the
    replica seed and the order."""
    rng = random.Random(f"{seed}/{k}")
    deck = [rng.choice(stratum)
            for stratum in minimal_strata(rng.choice(UNIVERSE_SEEDS))]
    rng.shuffle(deck)
    return deck


# ----------------------------------------------------- serve_closed_loop
def serve_configs(seed: int) -> list:
    """Every registered mechanism under each flow control it supports."""
    out = []
    for name in ROUTING_REGISTRY:
        for fc in ("vct", "wh"):
            if fc == "wh" and ROUTING_REGISTRY.get(name).requires_vct:
                continue
            out.append(preset_config(fc, scale="tiny", routing=name,
                                     seed=seed))
    return out


def serve_universe() -> list[RunPoint]:
    warmup, measure = SERVE_WINDOWS
    return [RunPoint(config=cfg, pattern=pattern, load=load,
                     warmup=warmup, measure=measure)
            for seed in UNIVERSE_SEEDS
            for cfg in serve_configs(seed)
            for pattern, loads in SERVE_LOADS.items()
            for load in loads]


@dataclass(frozen=True)
class Submission:
    """One client submission: a point, and whether it asks for progress
    rows (which changes the job key, so a repeat with the flag flipped
    misses dedupe and reads the result cache instead)."""

    point: RunPoint
    progress: bool = False

    def payload(self) -> dict:
        p = self.point
        body = {"config": p.config.to_dict(), "pattern": p.pattern,
                "load": p.load, "warmup": p.warmup, "measure": p.measure}
        if self.progress:
            body["progress"] = True
        return body


def serve_sequences(seed: int, length: int = 600) -> list[list[Submission]]:
    """Each client's submissions, in order.

    The universe is split between the clients, so fresh points never
    collide across clients.  A client's fresh points come in rounds of
    one point per config (mechanism x flow control), so any stretch of
    a run meets every mechanism about equally often; the seed draws the
    point of each config in each round and the order within the round.
    Every third submission repeats one of the client's earlier points,
    alternately verbatim (dedupe) and with the progress flag flipped (a
    result-cache read).  Which submissions run a simulation is therefore
    fixed by the seed, not by timing, and the mix of fresh, deduped and
    cached jobs does not depend on the seed.
    """
    rng = random.Random(seed)
    by_config: dict = {}
    for point in serve_universe():
        key = point.config.routing, point.config.flow_control
        by_config.setdefault(key, []).append(point)
    groups = list(by_config.values())
    for group in groups:
        rng.shuffle(group)
    out = []
    for c in range(SERVE_CLIENTS):
        mine = [group[c::SERVE_CLIENTS] for group in groups]
        fresh: list[RunPoint] = []
        for r in range(len(mine[0])):
            batch = [points[r] for points in mine]
            rng.shuffle(batch)
            fresh += batch
        seq: list[Submission] = []
        seen: list[RunPoint] = []
        while len(seq) < length:
            if len(seq) % SERVE_REPEAT_EVERY == SERVE_REPEAT_EVERY - 1:
                repeats = len(seq) // SERVE_REPEAT_EVERY
                seq.append(Submission(rng.choice(seen),
                                      progress=repeats % 2 == 1))
            else:
                point = fresh[len(seen) % len(fresh)]
                seen.append(point)
                seq.append(Submission(point))
        out.append(seq)
    return out


# ----------------------------------------------------------- per workload
DECKS = {"adaptive_tiny": adaptive_deck, "minimal_array": minimal_deck}


def universe(workload: str) -> list[RunPoint]:
    """Every point the workload can run, for the reference digests."""
    if workload == "adaptive_tiny":
        return [p for cell in adaptive_cells() for series in cell
                for p in series]
    if workload == "minimal_array":
        return [p for seed in UNIVERSE_SEEDS
                for stratum in minimal_strata(seed) for p in stratum]
    if workload == "serve_closed_loop":
        return serve_universe()
    raise ValueError(f"unknown workload {workload!r}")


def first_items(workload: str, seed: int) -> list[RunPoint]:
    """The points the seed runs first: its first deck, or the first
    submissions of each service client."""
    if workload in DECKS:
        return DECKS[workload](seed)
    return [s.point for seq in serve_sequences(seed, 20) for s in seq]


def setup_configs(workload: str) -> list:
    """The workload's distinct configs (the replica seed aside)."""
    configs = {}
    for p in universe(workload):
        cfg = p.config.with_(seed=1)
        configs.setdefault(cfg.canonical_json(), cfg)
    return list(configs.values())


def warmup_point(workload: str) -> RunPoint:
    """A cheap universe point: a drain if any, else the lowest load."""
    return min(universe(workload),
               key=lambda p: (p.kind != "drain", p.load or 0,
                              p.config.flow_control != "wh"))
