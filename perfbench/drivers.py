"""Run the workloads and time them.

``setup`` measures set-up time; ``run_points`` drives the two figure
workloads through :func:`repro.runplan.execute_points`; ``run_serve``
drives the service through :class:`repro.serve.testclient.Client`.
Each returns one :class:`Item` per attempted point or job.  With a
``tracer`` every call is made inside the benchmark's own spans.  The
host's speed is measured between figure points and around set-up
probes (:mod:`hostspeed`), so their times can be read in reference
seconds.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runplan import execute_points
from repro.serve import ServeSettings, create_app
from repro.serve.testclient import Client

import hostspeed

SERVE_WORKERS = 2


@dataclass
class Item:
    """One attempted point or job."""

    host_s: float
    sim_cycles: int = 0
    problems: list = field(default_factory=list)
    #: serve only: an HTTP 429; for a job that was not deduped, its queue
    #: wait, run time and points simulated; rows streamed
    rejected: bool = False
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    executed: int = 0
    rows: int = 0
    #: figure points: host speed factor around the point (:mod:`hostspeed`)
    speed: float = 1.0

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.rejected

    @property
    def ref_s(self) -> float:
        """``host_s`` in reference seconds (at the nominal host speed)."""
        return self.host_s * self.speed


def setup(workload: str, *, reps: int = 5) -> float:
    """Median over ``reps`` fresh interpreters of one cold set-up
    (``setup_probe.py``), in reference seconds: ``import repro``, plus
    a :class:`~repro.facade.Session` and its first step for every config
    of the workload, plus, for the service, app start-up and shut-down.
    The host speed is that of fresh-interpreter imports around each."""
    probe = Path(__file__).with_name("setup_probe.py")
    totals = []
    speed = hostspeed.import_factor()
    for _ in range(reps):
        out = subprocess.run([sys.executable, str(probe), workload],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        after = hostspeed.import_factor()
        totals.append(float(out.stdout.strip().splitlines()[-1])
                      * (speed + after) / 2)
        speed = after
    return statistics.median(totals)


# ------------------------------------------------------------ figure points
def run_points(points, gate, *, tracer=None, on_point=None) -> list[Item]:
    """Execute ``points`` one at a time, each timed on its own.

    GC is collected before and parked during each timed point.
    ``on_point(point)`` runs after each point (outside its timing).
    """
    items: list[Item] = []
    execute = execute_points
    if tracer is not None:
        execute = tracer.wrap("runplan.execute_points", execute, keep=True)
    speed = hostspeed.factor()
    for point in points:
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    record = execute([point])[0]
                else:
                    record = tracer.call("bench.point", execute, ([point],),
                                         ctx=point.key()[:16])[0]
                error = None
            except Exception as e:  # a failed point is a counted failure
                record, error = None, f"{type(e).__name__}: {e}"
            host_s = time.perf_counter() - t0
        finally:
            gc.enable()
        if on_point is not None:
            on_point(point)
        after = hostspeed.factor()
        if error is not None:
            item = Item(host_s, problems=[error])
        else:
            item = Item(host_s, sim_cycles=record["end_cycle"],
                        problems=gate.problems(point, record))
        item.speed = (speed + after) / 2
        speed = after
        items.append(item)
    return items


# ---------------------------------------------------------------- service
def run_serve(sequences, gate, tmp: Path, *, seconds=None, limit=None,
              tracer=None) -> tuple[list[Item], float, dict]:
    """Two closed-loop clients against a fresh service, until ``seconds``
    pass or each client made ``limit`` submissions; returns the items,
    the wall time of the loop and the service's ``/v1/stats``.  The
    result cache lives in a fresh directory under ``tmp`` that is
    removed afterwards."""
    tmp.mkdir(parents=True, exist_ok=True)
    cache_dir = tmp / f"cache-{time.time_ns()}"
    try:
        return asyncio.run(_serve(sequences, gate, cache_dir, seconds,
                                  limit, tracer))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


async def _serve(sequences, gate, cache_dir, seconds, limit, tracer):
    settings = ServeSettings(workers=SERVE_WORKERS, cache_dir=str(cache_dir))
    items: list[Item] = []
    async with Client(create_app(settings)) as client:
        gc.collect()
        start = time.perf_counter()

        async def closed_loop(seq) -> None:
            for n, sub in enumerate(seq):
                if limit is not None and n >= limit:
                    return
                if seconds is not None and time.perf_counter() - start >= seconds:
                    return
                job = _job(client, sub, gate, tracer)
                if tracer is not None:
                    job = tracer.acall("bench.job", job,
                                       ctx=sub.point.key()[:16])
                items.append(await job)

        await asyncio.gather(*(closed_loop(seq) for seq in sequences))
        wall = time.perf_counter() - start
        stats = (await client.get("/v1/stats")).json()
    return items, wall, stats


async def _job(client, sub, gate, tracer) -> Item:
    def span(name, awaitable):
        return awaitable if tracer is None else tracer.acall(name, awaitable)

    t0 = time.perf_counter()
    post = await span("serve.submit", client.post("/v1/jobs", sub.payload()))
    if post.status == 429:
        return Item(time.perf_counter() - t0, rejected=True)
    if post.status != 202:
        return Item(time.perf_counter() - t0,
                    problems=[f"POST /v1/jobs -> {post.status}: {post.text}"])
    job = post.json()["job"]
    stream = await span("serve.stream", client.get(f"/v1/jobs/{job}/stream"))
    status = await span("serve.status", client.get(f"/v1/jobs/{job}"))
    host_s = time.perf_counter() - t0
    body = status.json()
    if body.get("state") != "done":
        return Item(host_s, problems=[
            f"job {job} ended {body.get('state')}: {body.get('error')}"])
    record = body["result"]["records"][0]
    executed = body["result"]["executed_points"]
    fresh = not post.json()["deduped"]
    return Item(
        host_s,
        sim_cycles=record["end_cycle"] if fresh and executed else 0,
        problems=gate.problems(sub.point, record),
        queue_wait_s=body["started_at"] - body["created"] if fresh else 0.0,
        run_s=body["finished_at"] - body["started_at"] if fresh else 0.0,
        executed=executed if fresh else 0,
        rows=len(stream.jsonl()))
