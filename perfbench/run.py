"""Repo benchmark: three workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python3 perfbench/run.py --workload adaptive_tiny --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload's first items untraced, then again inside the layer spans of
``trace.py``, and reports per-layer metrics, tracing overhead and
attribution coverage.  Human-readable lines come first; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  A record that fails the correctness gate
makes the command exit with status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("adaptive_tiny", "minimal_array", "serve_closed_loop")
#: points (figure workloads) or submissions per client (service) of each
#: pass of a traced run, per ten seconds of ``--seconds``: the untraced
#: and the traced pass together take about ``--seconds``
TRACE_ITEMS_PER_10S = {"adaptive_tiny": 4 / 3, "minimal_array": 4 / 3,
                       "serve_closed_loop": 15}


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))


# ------------------------------------------------------------- statistics
def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest nearest-rank percentile with
    at least ten samples beyond it; below 20 samples that percentile is
    under the median, so the maximum (p100) is reported instead."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return s[-1], 100.0
    return s[n - 11], math.floor(1000 * (n - 10) / n) / 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------- workloads
class Workload:
    """One named workload at one seed."""

    def __init__(self, name: str, seed: int) -> None:
        import workloads

        self.name, self.seed = name, seed
        self.serve = name == "serve_closed_loop"
        self.warmup_point = workloads.warmup_point(name)
        self._w = workloads

    def decks(self):
        """Figure workloads: the seed's decks, one after another."""
        deck = self._w.DECKS[self.name]
        return (deck(self.seed, k) for k in itertools.count())

    def sequences(self):
        """Service workload: each client's submissions."""
        return self._w.serve_sequences(self.seed)

    def first_items(self) -> list:
        return self._w.first_items(self.name, self.seed)


def run_decks(wl: Workload, gate, seconds: float) -> list:
    """Whole decks, while the next one is expected to fit in ``seconds``
    (at least one): every run measures the same mix of points."""
    from drivers import run_points

    items: list = []
    for deck in wl.decks():
        items += run_points(deck, gate)
        spent = sum(i.host_s for i in items)
        per_deck = spent / (len(items) / len(deck))
        if spent + per_deck > seconds:
            break
    return items


def warm_up(wl: Workload, gate) -> None:
    """One untimed item, so imports and caches are warm before timing."""
    from drivers import run_points, run_serve
    from workloads import Submission

    if wl.serve:
        run_serve([[Submission(wl.warmup_point)]], gate, TMP)
    else:
        run_points([wl.warmup_point], gate)


# ------------------------------------------------------- end-to-end run
def measure(wl: Workload, gate, seconds: float) -> tuple[list, dict, list]:
    """Untraced run: set-up, warm-up, timed items; returns the items,
    the metrics and report-only lines."""
    from drivers import run_serve, setup

    setup_s = setup(wl.name)
    warm_up(wl, gate)
    if wl.serve:
        # the service's two worker threads run on both CPUs, which a
        # slice on this thread does not represent: host seconds
        items, wall, _ = run_serve(wl.sequences(), gate, TMP,
                                   seconds=seconds)
        ref_wall = wall
    else:
        items = run_decks(wl, gate, seconds)
        wall = sum(i.host_s for i in items)
        ref_wall = sum(i.ref_s for i in items)
    done = [i for i in items if not i.failed]
    timed = [i for i in items if not i.rejected]
    times = [i.ref_s for i in timed]
    tail_s, tail_pct = tail(times)
    metrics = {
        "points_per_s": (len(done) / ref_wall, "1/s"),
        "sim_cycles_per_s": (sum(i.sim_cycles for i in done) / ref_wall,
                             "1/s"),
        "point_s_p50": (statistics.median(times), "s"),
        "point_s_tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"point_s_tail is p{tail_pct:g} of n={len(times)}"]
    if not wl.serve:
        speeds = [i.speed for i in timed]
        notes += [
            f"host speed factor median {statistics.median(speeds):.4g} "
            f"(min {min(speeds):.4g}, max {max(speeds):.4g})",
            f"at host speed: points_per_s {len(done) / wall:.6g} 1/s, "
            f"point_s_p50 {statistics.median(i.host_s for i in timed):.6g} s",
        ]
    failed = sum(i.failed for i in items)
    notes.append(f"fail_frac {failed / len(items):.4g} ({failed}/{len(items)})")
    if wl.serve:
        # every job is one point: the job metrics are the point metrics
        notes += [
            f"jobs_per_s {metrics['points_per_s'][0]:.6g} 1/s",
            f"job_s_p50 {metrics['point_s_p50'][0]:.6g} s",
            f"job_s_tail {tail_s:.6g} s (p{tail_pct:g} of n={len(times)})",
        ]
    return items, metrics, notes


# ------------------------------------------------------------ traced run
class EngineMix:
    """Which engine each simulator ended on (``network.array_frac``).

    Spies on ``repro.facade.build_simulator``; :meth:`settle` classifies
    the simulators the calling thread built since its last call, after
    each point and each service job.  The array core keeps its mode in
    ``_mode``, which is read here because no public accessor exists.
    """

    def __init__(self, tracer) -> None:
        import repro.facade as facade
        import repro.serve.runner as serve_runner

        self._local = threading.local()
        self._lock = threading.Lock()
        self.array = self.total = 0

        def spy(build):
            def built(*args, **kwargs):
                sim = build(*args, **kwargs)
                self._built().append(sim)
                return sim
            return built

        def settled(fn):
            def run_then_settle(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.settle()
            return run_then_settle

        tracer.replace(facade, "build_simulator", spy)
        tracer.replace(serve_runner, "run_submission", settled)

    def _built(self) -> list:
        if not hasattr(self._local, "sims"):
            self._local.sims = []
        return self._local.sims

    def settle(self, *_) -> None:
        sims = self._built()
        with self._lock:
            self.total += len(sims)
            self.array += sum(getattr(s, "_mode", None) == "array"
                              for s in sims)
        sims.clear()


def traced(wl: Workload, gate, seconds: float) -> tuple[list, dict, list]:
    """The first items of the seed, untraced then traced; returns the
    items of both passes (all gated), the per-layer metrics of the
    traced pass and report-only lines."""
    from drivers import run_points, run_serve
    from trace import LAYERS, Tracer, instrument, layer_self_times

    per_10s = TRACE_ITEMS_PER_10S[wl.name]
    limit = max(1, round(per_10s * seconds / 10))
    warm_up(wl, gate)
    if wl.serve:
        plain, plain_wall, _ = run_serve(wl.sequences(), gate, TMP,
                                         limit=limit)
    else:
        points = wl.first_items()[:limit]
        plain = run_points(points, gate)
        plain_wall = sum(i.host_s for i in plain)
    tracer = Tracer()
    instrument(tracer)
    mix = EngineMix(tracer)
    try:
        # timed as the untraced pass: Σ point time, or the service loop wall
        if wl.serve:
            items, traced_wall, stats = run_serve(
                wl.sequences(), gate, TMP, limit=limit, tracer=tracer)
            cache_stats = stats["cache"]
        else:
            items = run_points(points, gate, tracer=tracer,
                               on_point=mix.settle)
            traced_wall = sum(i.host_s for i in items)
            cache_stats = {}
    finally:
        tracer.unpatch()
    totals = tracer.totals()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{wl.name}-{wl.seed}.jsonl")

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(*names):
        return sum(totals.get(n, [0, 0.0, 0.0])[2] for n in names)

    decides, grants = calls("core.decide"), calls("core.on_hop")
    gets = calls("runplan.cache.get")
    hits = cache_stats.get("hits", 0)
    posts = len(items)
    m = {
        "facade.session_build_s": (total_s("facade.session_build"), "s"),
        "topology.min_hop.calls": (calls("topology.min_hop"), "count"),
        "topology.min_hop.self_s": (self_s("topology.min_hop"), "s"),
        "core.decide.calls": (decides, "count"),
        "core.decide.self_s": (self_s("core.decide"), "s"),
        "core.grants": (grants, "count"),
        "core.decide_per_grant": (decides / grants if grants else 0.0,
                                  "ratio"),
        "network.self_s": (self_s("network.run",
                                  "network.run_until_drained"), "s"),
        "network.sim_cycles": (sum(i.sim_cycles for i in items), "count"),
        "network.array_frac": (mix.array / mix.total if mix.total else 0.0,
                               "frac"),
        "traffic.inject.calls": (calls("traffic.inject"), "count"),
        "traffic.inject.self_s": (self_s("traffic.inject"), "s"),
        "metrics.tap.calls": (calls("metrics.tap"), "count"),
        "metrics.tap.self_s": (self_s("metrics.tap"), "s"),
        "metrics.verify.self_s": (self_s("metrics.verify"), "s"),
        "runplan.execute_point.s": (total_s("runplan.execute_point"), "s"),
        "runplan.overhead_s": (total_s("runplan.execute_points")
                               - total_s("runplan.execute_point"), "s"),
        "runplan.cache.get.calls": (gets, "count"),
        "runplan.cache.hit_frac": (hits / gets if gets else 0.0, "frac"),
        "runplan.cache.get_s": (total_s("runplan.cache.get"), "s"),
        "runplan.cache.put_s": (total_s("runplan.cache.put"), "s"),
        "serve.submit_s": (total_s("serve.submit"), "s"),
        "serve.queue_wait_s": (sum(i.queue_wait_s for i in items), "s"),
        "serve.run_s": (sum(i.run_s for i in items), "s"),
        "serve.executions_per_submit": (
            sum(i.executed for i in items) / posts if wl.serve else 0.0,
            "ratio"),
        "serve.stream_rows": (sum(i.rows for i in items), "count"),
        "serve.rejected": (sum(i.rejected for i in items), "count"),
        "trace.overhead": (traced_wall / plain_wall, "ratio"),
        "trace.coverage": (tracer.covered_s() / traced_wall, "frac"),
    }
    layers = layer_self_times(totals)
    notes = [f"traced items: {len(items)} (untraced wall {plain_wall:.4g} s, "
             f"traced wall {traced_wall:.4g} s)"]
    notes += [f"layer self {layer:<9} {layers[layer]:.6g} s"
              for layer in LAYERS]
    return plain + items, m, notes


# ------------------------------------------------------------------ main
def check_inputs(wl: Workload, ref: dict) -> list[str]:
    """For the default and held-out seed, the generated first deck must
    be the one the reference was made from."""
    import reference

    want = ref["decks"][wl.name].get(str(wl.seed))
    if want is None:
        return []
    got = reference.deck_digest(wl.first_items())
    if got != want:
        return [f"seed {wl.seed} generates deck {got}, reference has {want}: "
                "the workload generator changed"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    use_checkout_source()
    import reference

    ref = reference.load()
    wl = Workload(args.workload, args.seed)
    gate = reference.Gate(wl.name, ref)
    problems = check_inputs(wl, ref)
    run = traced if args.trace else measure
    items, metrics, notes = run(wl, gate, args.seconds)
    problems += [p for i in items for p in i.problems]
    failed = sum(i.failed for i in items)

    print(f"workload {wl.name} seed {wl.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:.6g} {unit}")
    for line in notes:
        print(line)
    for check, n in gate.known.items():
        print(f"KNOWN DEFECT {check} on {n} record(s): "
              f"{reference.KNOWN_DEFECTS[check]}")
    for p in problems[:20]:
        print(f"INCORRECT: {p}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in listed},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
