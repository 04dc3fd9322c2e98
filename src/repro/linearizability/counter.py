"""Sequential specification of a shared counter.

:class:`CounterModel` is the Wing & Gong model for histories of an
:class:`repro.AtomicLong` created with value 0: method names and
arguments match the proxy's, so a recorder can log proxy calls as-is.
``add_then_raise`` adds, then raises: its result is the error's count.
"""

from __future__ import annotations


class CounterModel:
    """A counter starting at 0."""

    def __init__(self):
        self.value = 0

    def add_and_get(self, delta: int) -> int:
        self.value += delta
        return self.value

    def add_then_raise(self, delta: int) -> int:
        self.value += delta
        return self.value

    def get(self) -> int:
        return self.value

    def compare_and_set(self, expected: int, update: int) -> bool:
        if self.value == expected:
            self.value = update
            return True
        return False
