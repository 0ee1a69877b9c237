"""One cold set-up of a workload, in this fresh interpreter.

Prints the seconds of: ``import repro``, plus a
:class:`~repro.facade.Session` and its first step for every distinct
config of the workload (the array core builds its layout there), plus,
for the service, app start-up and shut-down.  The benchmark's own
imports and input generation are not timed.

    python3 perfbench/setup_probe.py WORKLOAD
"""

from __future__ import annotations

import asyncio
import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


async def _start_stop(workers: int) -> None:
    from repro.serve import ServeSettings, create_app
    from repro.serve.testclient import Client

    async with Client(create_app(ServeSettings(workers=workers))):
        pass


def main(workload: str) -> float:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import repro

    import_s = time.perf_counter() - t0
    import workloads
    from drivers import SERVE_WORKERS

    configs = workloads.setup_configs(workload)
    gc.collect()
    t0 = time.perf_counter()
    for cfg in configs:
        repro.session(cfg, pattern="uniform", load=0.1).run(1)
    if workload == "serve_closed_loop":
        asyncio.run(_start_stop(SERVE_WORKERS))
    return import_s + time.perf_counter() - t0


if __name__ == "__main__":
    print(main(sys.argv[1]))
