"""The benchmark's metric catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the root of the checkout is the one place metric
names, units, directions and bounds are declared; this module only loads
it and derives the groups the harness fills in.

Every metric names its clock.  ``host_*`` / ``setup_s`` / ``*.busy_s`` are
wall or OS cost on the sandbox and are noisy; ``sim_*`` and every other
per-layer value is virtual time or a count from the seeded kernel and
repeats exactly for a given seed.  Bounds on ``sim_*`` are wide because
the driver also applies them to the spread *across seeds* (different
inputs); at equal seeds those metrics are exact and ``compare.py`` reports
any difference at all.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

END_TO_END_NAMES = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER_NAMES = tuple(m["name"] for m in SPEC["per_layer"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _owners(suffix: str) -> tuple[str, ...]:
    return tuple(name[:-len(suffix)] for name in PER_LAYER_NAMES
                 if name.endswith(suffix))


#: Source packages with their own ``<layer>.busy_s``; every other package
#: (and the interpreter's own library) lands in ``other``.
BUSY_LAYERS = _owners(".busy_s")

#: Layers that can own virtual self time inside an op's span tree.
SELF_LAYERS = _owners(".sim_self_us_per_op")

#: ``env.dso.stats`` fields reported as ``dso.<field>``.
DSO_STATS = ("invocations", "retries", "dedup_hits", "cache_hits",
             "cache_misses", "lease_revocations", "pipelined_ops", "batches",
             "txns_committed", "txns_aborted", "rebalanced_objects")
