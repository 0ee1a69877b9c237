"""Measure the baseline: every workload on several seeds, untraced.

Runs ``run.py`` once per (workload, seed) in a fresh interpreter and
writes ``baseline.json``: per workload and end-to-end metric the
median, quartiles, n and spread (interquartile range over median), with
the host facts and the commit measured.  Also prints each spread next
to the metric's bound from ``BENCHMARK.json``.

    python3 perfbench/baseline.py --commit <sha>
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SEEDS = range(1, 11)


#: end-to-end metrics the report prints but BENCHMARK.json does not bound
REPORT_ONLY = ("point_s_p50", "point_s_tail")


def report_metrics(lines) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)`` from the report's ``name value unit`` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            try:
                out[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return out


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median}


def host() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True,
                        help="commit the numbers belong to")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update(dict.fromkeys(REPORT_ONLY))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    out = {"commit": args.commit, "run_seconds": spec["run_seconds"],
           "seeds": [SEEDS[0], SEEDS[-1]], "host": host(), "workloads": {}}
    for name in why:
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if proc.returncode or not result["correct"] or result["failed"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            metrics = report_metrics(lines[:-1])
            metrics.update((k, (v["value"], v["unit"]))
                           for k, v in result["metrics"].items())
            runs.append(metrics)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={metrics[k][0]:.4g}" for k in bounds),
                file=sys.stderr, flush=True)
        summary = {"why": why[name]}
        for metric, bound in bounds.items():
            summary[metric] = summarize([r[metric][0] for r in runs])
            summary[metric]["unit"] = runs[0][metric][1]
            print(f"{name:<18} {metric:<17} median "
                  f"{summary[metric]['median']:.5g} spread "
                  f"{summary[metric]['spread']:.3f} (bound {bound})")
        out["workloads"][name] = summary
    BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
