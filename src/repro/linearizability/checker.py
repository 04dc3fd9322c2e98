"""The Wing & Gong linearizability checker, P-compositional.

Searches for a legal linearization: a total order of the history's
operations that (1) respects real-time precedence and (2) produces the
recorded results when replayed against a *sequential specification* of
the object.  Exponential in the worst case — suitable for the small,
highly-concurrent histories the tests generate.

Two scaling levers:

* **P-compositionality** (Herlihy & Wing, Theorem: a history is
  linearizable iff every per-object sub-history is): operations carry
  an optional ``key``, and keyed histories are partitioned and checked
  per object against a fresh model each.  A multi-object history whose
  joint interleaving space exceeds ``max_states`` typically checks in
  a few hundred states per partition — and a violation on any one
  object still fails the whole history.  The budget applies per
  partition.
* **Counterexamples**: :meth:`explain` does not dump the whole sorted
  history on failure; it shrinks the failing partition to a minimal
  unlinearizable *window* (drop any operation and the rest
  linearizes), which is the set of operations a human needs to look
  at.

The sequential specification is any factory of fresh objects whose
methods are called as ``getattr(obj, op.method)(*op.args)``; the
replayed outcome must equal ``op.result`` — a raise counts as
:func:`~repro.linearizability.history.raised` of its error, so it
matches only a recorded raise.  A shared object's server class is its
own specification.
"""

from __future__ import annotations

import pickle
from typing import Callable, Sequence

from repro.linearizability.history import Operation, raised

#: Above this partition size explain() skips window minimisation (each
#: probe is itself a worst-case-exponential check).
_WINDOW_SEARCH_CAP = 48


class LinearizabilityChecker:
    """Checks histories against a sequential model.

    ``partition=True`` (default) splits keyed histories by
    ``Operation.key`` and checks each object independently —
    linearizability is compositional, so the verdict is unchanged
    while the search space collapses from the product of the
    per-object spaces to their sum.  Unkeyed operations
    (``key=None``) form their own partition.
    """

    def __init__(self, model_factory: Callable[[], object],
                 max_states: int = 2_000_000, partition: bool = True):
        self.model_factory = model_factory
        #: Safety valve against exponential blow-up (per partition).
        self.max_states = max_states
        self.partition = partition
        self._explored = 0

    @property
    def states_explored(self) -> int:
        """States visited by the last :meth:`check` (all partitions)."""
        return self._explored

    def check(self, history: Sequence[Operation]) -> bool:
        """True iff ``history`` is linearizable w.r.t. the model."""
        self._explored = 0
        for _key, operations in self._partitions(history):
            if not self._check_one(operations):
                return False
        return True

    def explain(self, history: Sequence[Operation]) -> str:
        """Human-readable verdict, for assertion messages.

        On failure, pinpoints the failing object (keyed histories) and
        a minimal unlinearizable window: removing any single operation
        from the window makes it linearizable, so these are exactly
        the operations whose recorded results conflict.
        """
        self._explored = 0
        for key, operations in self._partitions(history):
            if self._check_one(operations):
                continue
            where = f" for object {key!r}" if key is not None else ""
            lines = [f"linearizable: False{where} "
                     f"({self._explored} states explored)"]
            window = self._minimal_window(operations)
            lines.append(f"minimal unlinearizable window "
                         f"({len(window)} of {len(operations)} ops):")
            lines += [f"  {op}" for op in window]
            if len(window) < len(operations):
                lines.append("full sub-history:")
                lines += [f"  {op}" for op in operations]
            return "\n".join(lines)
        return (f"linearizable: True "
                f"({self._explored} states explored)")

    # -- partitioning -----------------------------------------------------

    def _partitions(self, history: Sequence[Operation]):
        """Per-object sub-histories, each sorted by ``(invoke, id)``.

        Partitions are visited in first-appearance order, so verdicts
        and counterexamples are stable for a fixed history.
        """
        ordered = sorted(history, key=lambda op: (op.invoke, op.op_id))
        if not self.partition:
            yield None, ordered
            return
        groups: dict[str | None, list[Operation]] = {}
        for op in ordered:
            groups.setdefault(op.key, []).append(op)
        yield from groups.items()

    # -- search -------------------------------------------------------------------

    def _check_one(self, operations: list[Operation]) -> bool:
        """Wing & Gong over one (already sorted) sub-history, depth
        first over an explicit stack of ``[model, pending, seen-key,
        next index]`` frames (recursion would overflow on long ones)."""
        self._budget = self._explored + self.max_states
        seen: set[tuple[frozenset[int], bytes]] = set()
        stack: list[list] = []
        model, pending = self.model_factory(), list(operations)
        while pending:
            self._explored += 1
            if self._explored > self._budget:
                raise RuntimeError(
                    f"state budget exceeded ({self.max_states}); "
                    "history too large for exhaustive checking")
            key = (frozenset(op.op_id for op in pending),
                   _fingerprint(model))
            if key not in seen:
                stack.append([model, pending, key, 0])
            while stack and (successor := _advance(stack[-1])) is None:
                seen.add(stack.pop()[2])
            if not stack:
                return False
            model, pending = successor
        return True

    # -- counterexample minimisation ---------------------------------------

    def _linearizable(self, operations: list[Operation]) -> bool:
        """Budgeted probe used by window shrinking; a blown budget
        counts as 'linearizable' so shrinking stays conservative."""
        try:
            return self._check_one(operations)
        except RuntimeError:
            return True

    def _minimal_window(self,
                        operations: list[Operation]) -> list[Operation]:
        """Shrink a failing sub-history to a minimal failing window.

        First the shortest failing prefix (by invoke order), then a
        greedy elimination pass: drop each operation if the remainder
        still fails.  The result is locally minimal — every operation
        in it is necessary for the violation.
        """
        if len(operations) > _WINDOW_SEARCH_CAP:
            return list(operations)
        window = list(operations)
        for length in range(1, len(operations) + 1):
            if not self._linearizable(operations[:length]):
                window = list(operations[:length])
                break
        index = 0
        while index < len(window) and len(window) > 1:
            candidate = window[:index] + window[index + 1:]
            if not self._linearizable(candidate):
                window = candidate
            else:
                index += 1
        return window


def _advance(frame: list) -> tuple[object, list[Operation]] | None:
    """The state after the frame's next minimal operation (from its
    next index on) that the model accepts; ``None`` once none is."""
    model, pending, _key, start = frame
    # Minimal operations: those not preceded by another pending op.
    horizon = min(op.response for op in pending)
    for index in range(start, len(pending)):
        candidate = pending[index]
        if candidate.invoke > horizon:
            break  # sorted by invoke: nothing later can be minimal
        replica = _clone(model)
        try:
            outcome = getattr(replica, candidate.method)(*candidate.args)
        except Exception as error:  # noqa: BLE001 - an outcome
            outcome = raised(error)
        if outcome == candidate.result:
            frame[3] = index + 1
            return replica, pending[:index] + pending[index + 1:]
    return None


def _clone(model: object) -> object:
    return pickle.loads(pickle.dumps(model))


def _fingerprint(model: object) -> bytes:
    return pickle.dumps(model)
