"""Self-test of the benchmark, at a seconds-long smoke size.

Runs every workload untraced and traced through ``run.main`` with one
cheap point per figure deck and a two-second service loop, and checks
that the last output line names every metric of ``BENCHMARK.json``
with its unit and reads ``correct``.  Then it corrupts one record and
checks that the correctness gate rejects it: directly, and through the
command, which must report ``correct: false`` and exit non-zero.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def _cli(args) -> tuple[int, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(args)
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def main() -> int:
    run.use_checkout_source()
    import drivers
    import reference

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    failures = []

    # smoke size: one cheap point per figure deck, a 2 s service loop;
    # seed 2 is neither the default nor the held-out seed, so the deck
    # digest check (which would see the shortened deck) does not apply
    full_deck = run.Workload.decks
    full_first = run.Workload.first_items
    run.Workload.decks = lambda self: iter([[self.warmup_point]])
    run.Workload.first_items = lambda self: [self.warmup_point]
    try:
        for name in run.WORKLOADS:
            for trace in (0, 1):
                code, result, text = _cli([
                    "--workload", name, "--seed", "2", "--seconds", "2",
                    "--trace", str(trace)])
                listed = spec["per_layer" if trace else "end_to_end"]
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in listed}
                if code != 0 or not result["correct"] or result["failed"]:
                    failures.append(f"{name} trace={trace}: run failed\n{text}")
                if got != want:
                    failures.append(f"{name} trace={trace}: metrics {got} "
                                    f"!= {want}")
                for metric in want:
                    if f"{metric} " not in text or units[metric] not in text:
                        failures.append(f"{name} trace={trace}: report "
                                        f"misses {metric} [{units[metric]}]")
                print(f"ok {name} trace={trace}", file=sys.stderr)

        # a corrupted record must trip the gate
        wl = run.Workload("adaptive_tiny", 1)
        gate = reference.Gate(wl.name)
        point = wl.warmup_point
        record = drivers.execute_points([point])[0]
        if gate.problems(point, record):
            failures.append("gate rejects a correct record")
        bad = dict(record, delivered=record["delivered"] + 1)
        if not gate.problems(point, bad):
            failures.append("gate accepts a corrupted record")
        real = drivers.execute_points
        drivers.execute_points = lambda points: [dict(
            real(points)[0], mean_latency=-1.0)]
        try:
            code, result, _ = _cli(["--workload", "adaptive_tiny", "--seed",
                                    "2", "--seconds", "2", "--trace", "0"])
        finally:
            drivers.execute_points = real
        if code == 0 or result["correct"] or not result["failed"]:
            failures.append("a corrupted record did not fail the command")
        print("ok corrupted record", file=sys.stderr)
    finally:
        run.Workload.decks = full_deck
        run.Workload.first_items = full_first
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
