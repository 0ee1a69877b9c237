"""Correctness gate: reference digests and physical-invariant checks.

Every record a run produces is hashed (SHA-256 of
:func:`repro.runplan.canonical_record_json`) and compared with the
digest stored in ``reference.json`` for that point of the workload's
universe; it must also pass every record check of
:mod:`repro.analysis.invariants` (see :data:`KNOWN_DEFECTS` for the
one that fails on the reference itself).  ``reference.json`` also holds the
default and the held-out seed, with a digest of each seed's first deck
so a change to the input generator is caught too.

Regenerate the digests (minutes; every universe point is simulated)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
#: hex characters kept per key and digest (64 bits: collisions are moot
#: over a universe of a few hundred points)
CHARS = 16
DEFAULT_SEED = 1
HELDOUT_SEED = 20131001


def digest(record: dict) -> str:
    from repro.runplan import canonical_record_json

    blob = canonical_record_json(record).encode()
    return hashlib.sha256(blob).hexdigest()[:CHARS]


def point_id(point) -> str:
    return point.key()[:CHARS]


def deck_digest(points) -> str:
    """Digest of a deck's point keys, in order."""
    blob = ",".join(p.key() for p in points).encode()
    return hashlib.sha256(blob).hexdigest()[:CHARS]


def load() -> dict:
    return json.loads(REFERENCE.read_text())


#: invariant checks that fail on the reference records themselves: a
#: standing defect of the program at the commit the reference was made
#: from.  A record byte-identical to its reference has exactly the
#: reference's verdicts, so such a failure is reported (``known``), not
#: counted; any other failing check, and any record that differs from
#: its reference, fails the run.
KNOWN_DEFECTS = {
    "drain_latency": (
        "every full drain record has max_latency = drain_cycles + the last "
        "packet's serialization - 1: latency is stamped at tail-ejection "
        "completion, drain_cycles stops at the tail's grant"),
}


class Gate:
    """Checks records of one workload against the stored reference."""

    def __init__(self, workload: str, reference: dict | None = None) -> None:
        reference = load() if reference is None else reference
        self.digests = reference["digests"][workload]
        #: check name -> records on which a known defect showed
        self.known: dict[str, int] = {}

    def problems(self, point, record: dict) -> list[str]:
        """Why ``record`` is not the right result for ``point`` (empty if it is)."""
        from repro.analysis.invariants import check_record

        out = []
        want = self.digests.get(point_id(point))
        got = digest(record)
        if want is None:
            out.append(f"no reference digest for point {point_id(point)}")
        elif got != want:
            out.append(f"record digest {got} != reference {want} "
                       f"for point {point_id(point)}")
        for c in check_record(record):
            if c.ok:
                continue
            if got == want and c.check in KNOWN_DEFECTS:
                self.known[c.check] = self.known.get(c.check, 0) + 1
            else:
                out.append(f"invariant {c.check} failed: {c.detail}")
        return out


def build(workloads) -> dict[str, dict]:
    """Simulate every universe point of ``workloads``; their digest tables."""
    from repro.runplan import execute_points
    from workloads import universe

    tables = {}
    for name in workloads:
        points = universe(name)
        table = {}
        for i, point in enumerate(points):
            record = execute_points([point])[0]
            table[point_id(point)] = digest(record)
            print(f"{name} {i + 1}/{len(points)}", file=sys.stderr,
                  flush=True)
        tables[name] = dict(sorted(table.items()))
    return tables


def main() -> int:
    from run import WORKLOADS, use_checkout_source

    use_checkout_source()
    from workloads import first_items

    ref = {"digests": build(WORKLOADS), "default_seed": DEFAULT_SEED,
           "heldout_seed": HELDOUT_SEED}
    ref["decks"] = {
        name: {str(seed): deck_digest(first_items(name, seed))
               for seed in (DEFAULT_SEED, HELDOUT_SEED)}
        for name in WORKLOADS}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
