"""The placement directory: where each object lives, and moving it.

Section 4.1: a reference ``(T, k)`` is consistent-hashed over the
current membership view to find the object's replicas; the first is
the *primary*.  This module owns that map and everything that rewrites
it — first-touch creation, view changes (dropping dead replicas,
marking objects lost), the background rebalancer that migrates objects
to their new owners, explicit deletion, and passivation/restore
through stable storage.

Every rewrite that changes *who serves* an object bumps the
placement's ``version``; leases, transaction prepares and in-flight
ops compare versions (or re-check ``replicas[0]`` under the object
lock) to fence themselves against a move they raced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.membership import View
from repro.dso.reference import DsoReference
from repro.dso.server import ServerObject
from repro.errors import (
    NoSuchObjectError,
    ObjectLostError,
    ServiceUnavailableError,
)
from repro.net.network import ship
from repro.simulation.kernel import current_thread
from repro.storage.backend import StorageBackend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dso.layer import DsoLayer


@dataclass
class Placement:
    ref: DsoReference
    replicas: list[str]
    lost: bool = False
    version: int = 0


class PlacementDirectory:
    """``(T, k)`` -> :class:`Placement` for one DSO deployment."""

    def __init__(self, layer: DsoLayer):
        self._layer = layer
        self.ring: ConsistentHashRing | None = None
        self._placements: dict[tuple[str, str], Placement] = {}

    # -- queries ----------------------------------------------------------

    def get(self, ref: DsoReference) -> Placement | None:
        return self._placements.get(ref.ident)

    def live(self, ref: DsoReference) -> Placement | None:
        """The placement if the object exists and was not lost."""
        placement = self._placements.get(ref.ident)
        return None if placement is None or placement.lost else placement

    def lost(self, ref: DsoReference) -> bool:
        placement = self._placements.get(ref.ident)
        return placement is not None and placement.lost

    def lookup(self, ref: DsoReference,
               ctor: tuple | None = None) -> Placement:
        """Locate ``ref``, creating it from ``ctor = (cls, args,
        kwargs)`` on first touch."""
        placement = self._placements.get(ref.ident)
        if placement is not None:
            if placement.lost:
                raise ObjectLostError(
                    f"{ref} was lost in a storage-node failure")
            return placement
        if ctor is None:
            raise NoSuchObjectError(f"{ref} does not exist")
        layer = self._layer
        cls, ctor_args, ctor_kwargs = ctor
        placement = self._place(ref)
        for name in placement.replicas:
            layer.nodes[name].host(ref.ident, cls(
                *layer.shippable(ctor_args), **layer.shippable(ctor_kwargs)))
        layer.stats.creations += 1
        return placement

    def _place(self, ref: DsoReference) -> Placement:
        """Register a fresh placement on the live preference list.

        Callers host the replicas right after, with no suspension
        point in between, so concurrent first-touch creations cannot
        double-create.
        """
        layer = self._layer
        if self.ring is None or not len(self.ring):
            raise ServiceUnavailableError(f"{layer.name}: no storage nodes")
        replicas = [name for name in
                    self.ring.preference_list(ref.ident, ref.rf)
                    if layer.nodes[name].alive]
        if not replicas:
            raise ServiceUnavailableError(f"{layer.name}: no live replica")
        placement = self._placements[ref.ident] = Placement(
            ref=ref, replicas=replicas)
        return placement

    # -- explicit lifecycle -----------------------------------------------

    def delete(self, client: str, ref: DsoReference) -> None:
        """Explicitly remove a shared object (how persistent objects
        die, Section 3.1)."""
        layer = self._layer
        placement = self._placements.pop(ref.ident, None)
        if placement is None:
            raise NoSuchObjectError(f"{ref} does not exist")
        # A later re-creation restarts the placement version at 0, so
        # leased snapshots of the deleted incarnation must go now.
        layer.caches.purge(ref.ident)
        for name in placement.replicas:
            node = layer.nodes.get(name)
            if node is not None and node.alive:
                layer.network.transfer(client, name, ref.ident)
                node.evict(ref.ident)

    def passivate(self, client: str, ref: DsoReference,
                  store: StorageBackend) -> str:
        """Marshal a shared object into stable storage (Section 4.1:
        objects "can be passivated to stable storage using standard
        mechanisms (marshalling)").

        ``store`` is any :class:`~repro.storage.backend.
        StorageBackend` — the S3-like object store, a gp3 block
        volume, or a :class:`~repro.storage.tiering.TieredStore`;
        the backend charges its own write latency and request fee.
        Returns the storage key.  The object stays live in memory;
        passivation is a checkpoint, from which :meth:`restore` can
        re-create the object after the layer lost it.
        """
        layer = self._layer
        primary = layer.live_node(self.lookup(ref).replicas[0])
        container = primary.containers.get(ref.ident)
        if container is None:
            raise NoSuchObjectError(f"{ref} not hosted")
        key = f"__dso__/{ref.type_name}/{ref.key}"
        layer.network.transfer(client, primary.name, ref.ident)
        snapshot = ship(container.instance)
        store.put(key, (type(snapshot), snapshot.__dict__,
                        ship(container.sessions)))
        return key

    def restore(self, client: str, ref: DsoReference,
                store: StorageBackend, key: str | None = None) -> None:
        """Re-create a shared object from a passivated snapshot."""
        if key is None:
            key = f"__dso__/{ref.type_name}/{ref.key}"
        layer = self._layer
        cls, state, sessions = store.get(key)
        instance = cls.__new__(cls)
        instance.__dict__.update(state)
        if self.live(ref) is not None:
            raise ServiceUnavailableError(
                f"{ref} is still live; delete it before restoring")
        self._placements.pop(ref.ident, None)
        placement = self._place(ref)
        # The restored placement starts over at version 0, so version
        # matching cannot fence leases cut before the object was lost.
        layer.caches.purge(ref.ident)
        for name in placement.replicas:
            # Dedup state survives passivation too: a client whose
            # write landed before the snapshot still dedups after the
            # restore.
            layer.nodes[name].host(ref.ident, layer.shippable(instance),
                                   sessions=layer.shippable(sessions))
        layer.stats.creations += 1

    # -- view changes and rebalancing ---------------------------------------

    def on_view(self, view: View) -> None:
        layer = self._layer
        self.ring = (ConsistentHashRing(view.members)
                     if view.members else None)
        for placement in self._placements.values():
            if placement.lost:
                continue
            # Drop only *dead* replicas.  A node that left gracefully
            # is still alive and keeps serving its objects until the
            # background rebalancer migrates them to the new owners.
            survivors = [
                n for n in placement.replicas
                if n in view.members
                or (n in layer.nodes and layer.nodes[n].alive)]
            if survivors != placement.replicas:
                placement.version += 1
            if not survivors:
                placement.lost = True
                placement.replicas = []
                layer.stats.lost_objects += 1
            else:
                placement.replicas = survivors
        if view.members:
            layer.kernel.spawn(self._rebalance, view, daemon=True,
                               name=f"{layer.name}-rebalance-{view.view_id}")

    def _rebalance(self, view: View) -> None:
        """Move objects to their new consistent-hash owners.

        Runs in the background after ``view_change_pause``; each
        object's lock is held only for its own transfer, so foreground
        traffic stalls at most per-object ("service interruption is
        minimal", Section 4.1).  The per-object transfer cost includes
        deliberate throttling, which is what stretches the Fig. 8
        recovery over tens of seconds.
        """
        layer = self._layer
        timings = layer.config.dso
        current_thread().sleep(timings.view_change_pause)
        for ident in sorted(self._placements):
            if layer.membership.view.view_id != view.view_id:
                return  # superseded by a newer view
            placement = self._placements[ident]
            if placement.lost:
                continue
            source = layer.nodes.get(placement.replicas[0])
            container = (source.containers.get(ident)
                         if source is not None else None)
            if container is not None and isinstance(container.instance,
                                                    ServerObject):
                continue  # synchronization objects never migrate
            target = list(self.ring.preference_list(ident,
                                                    placement.ref.rf))
            if target == placement.replicas:
                continue
            if container is None or not source.alive:
                continue
            container.lock.acquire()
            try:
                current_thread().sleep(timings.transfer_per_object)
                if layer.membership.view.view_id != view.view_id:
                    return
                if not source.alive or container.dead:
                    continue
                for name in target:
                    if name not in placement.replicas:
                        # The session table migrates with the object:
                        # a client retrying against the new owner must
                        # still find its cached replies.
                        layer.nodes[name].host(
                            ident, layer.shippable(container.instance),
                            sessions=layer.shippable(container.sessions))
                old_replicas = placement.replicas
                placement.replicas = target
                placement.version += 1
                for name in old_replicas:
                    if name not in target:
                        layer.nodes[name].evict(ident)
                layer.stats.rebalanced_objects += 1
            finally:
                # Guarded, not unconditional: if the source node died
                # mid-transfer its crash handler may have released the
                # parked waiters (and this thread with them), in which
                # case we no longer own the lock and releasing it would
                # raise from a cleanup path.
                if container.lock.held():
                    container.lock.release()
