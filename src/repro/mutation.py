"""Mutation-test hooks: planted bugs the exploration hunts must catch.

A guarded code path in ``src/`` tests ``"<name>" in PLANTED`` and,
when it holds, switches off one safety mechanism.  Nothing outside
tests ever plants one; ``tests/explore/guarantees.py`` declares each
mutant beside the guarantee it breaks and plants it by name.
"""

#: Mutations currently planted; empty outside mutation tests.
PLANTED: set[str] = set()
