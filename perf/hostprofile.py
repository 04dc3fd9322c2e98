"""Host-time attribution: one ``cProfile`` per OS thread, bucketed by layer.

Every simulated thread is a real OS thread, so a profiler on the main
thread alone sees only the kernel loop.  :class:`ThreadProfiler` wraps
``threading.Thread.run`` so each thread profiles itself, then sums
``tottime`` (cProfile's *inline* time) per source package.

Time inside ``_thread.lock.acquire`` is **discarded**: a parked thread
accrues it for as long as it is parked, so summed over threads it
exceeds wall time many times over.  What the handoffs really cost is
the residual ``wall - sum(busy)``: with at most one runnable thread,
any wall time no thread spent executing was spent switching.

cProfile charges its per-call overhead to Python-level calls and none
to native code, so compare ``busy_s`` between commits as shares, never
against the untraced ``host_s``.
"""

from __future__ import annotations

import cProfile
import os
import threading
from collections import defaultdict

#: Bucket for lock waits; reported separately and never summed as busy.
LOCK_WAIT = "lock_wait"

_PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = f"{os.sep}repro{os.sep}"


def bucket_of_path(filename: str, perf_dir: str = _PERF_DIR) -> str:
    """Map a source path to a layer (``src/repro/<package>``) or to one
    of the non-repro buckets ``numpy / pickle / threading / perf /
    python``."""
    if filename.startswith(perf_dir + os.sep):
        return "perf"
    index = filename.rfind(_REPRO_MARK)
    if index >= 0:
        rest = filename[index + len(_REPRO_MARK):]
        head, sep, _tail = rest.partition(os.sep)
        return head if sep else "repro"
    if f"{os.sep}numpy{os.sep}" in filename:
        return "numpy"
    base = os.path.basename(filename)
    if base in ("pickle.py", "copyreg.py", "copy.py"):
        return "pickle"
    if base == "threading.py":
        return "threading"
    return "python"


def bucket_of_builtin(description: str) -> str | None:
    """Bucket for a C function cProfile names by description, or
    ``None`` to charge it to whichever Python function called it."""
    if "_thread.lock" in description or "_thread.RLock" in description:
        return LOCK_WAIT if "acquire" in description else "threading"
    if "pickle" in description:
        return "pickle"
    if "numpy" in description:
        return "numpy"
    return None


def bucket_stats(entries, buckets: dict[str, float]) -> None:
    """Add one profile's ``getstats()`` entries into ``buckets``.

    Python functions are bucketed by file; C functions by description
    or, failing that, by their caller's file (``heappush`` called from
    the kernel is kernel time).
    """
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            continue  # charged through the caller's ``calls`` below
        owner = bucket_of_path(code.co_filename)
        buckets[owner] += entry.inlinetime
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                bucket = bucket_of_builtin(callee.code) or owner
                buckets[bucket] += callee.inlinetime


class ThreadProfiler:
    """Profiles every OS thread started while installed."""

    def __init__(self) -> None:
        self._profiles: list[cProfile.Profile] = []
        self._guard = threading.Lock()
        self._original_run = None
        self._main: cProfile.Profile | None = None

    def install(self) -> None:
        if self._original_run is not None:
            raise RuntimeError("profiler already installed")
        original = self._original_run = threading.Thread.run
        profiler = self

        def run(thread) -> None:
            profile = cProfile.Profile()
            profile.enable()
            try:
                original(thread)
            finally:
                profile.disable()
                with profiler._guard:
                    profiler._profiles.append(profile)

        threading.Thread.run = run
        self._main = cProfile.Profile()
        self._main.enable()

    def uninstall(self) -> None:
        """Stop profiling.  Call after every profiled thread has ended
        (``env.close()``), or its samples are lost."""
        if self._original_run is None:
            return
        self._main.disable()
        self._profiles.append(self._main)
        threading.Thread.run = self._original_run
        self._original_run = None

    @property
    def installed(self) -> bool:
        return self._original_run is not None

    def buckets(self) -> dict[str, float]:
        """Inline seconds per bucket, summed over every thread."""
        totals: dict[str, float] = defaultdict(float)
        with self._guard:
            profiles = list(self._profiles)
        for profile in profiles:
            bucket_stats(profile.getstats(), totals)
        return dict(totals)
