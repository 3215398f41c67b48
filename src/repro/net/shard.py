"""Shard placement and accounting: the hash ring and the shard ledger.

Sharded fan-in splits the *signal namespace* across N shards by a
stable hash of the signal name (the router itself is
:class:`~repro.net.router.Router`).  This module holds the two pieces
every shard backend shares:

* :class:`HashRing` — deterministic placement.  The same name lands on
  the same shard on every run and every host (a keyed BLAKE2 ring, not
  Python's salted ``hash``);
* :class:`ShardStats` — the per-shard ingest ledger (offered, accepted,
  late-dropped, ...).  A shard whose scopes fall behind shows up as
  late drops *on that shard*, mirroring the paper's Section 4.4 rule:
  data arriving after its display slot is dropped immediately, and the
  drop is counted, not hidden.

Consistent hashing
------------------

Each shard owns ``replicas`` pseudo-random points on a 64-bit circle and
a name belongs to the shard owning the first point clockwise of the
name's hash.  Unlike ``hash mod N``, membership changes are *local*:
adding or removing one shard remaps only the keys that fall into the
changed arcs — about ``1/N`` of the namespace — instead of reshuffling
nearly everything.  That is what makes live shard add/remove affordable
on a live namespace.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.cells import Counter, cell_property

__all__ = [
    "HashRing",
    "ShardStats",
    "shard_of",
]

#: Points per shard on the ring.  Enough that per-shard ownership stays
#: within ~±30% of 1/N (relative sd ≈ 1/sqrt(replicas) ≈ 8.8%), so a
#: single add/remove remaps well under 1.5/N of a random namespace.
DEFAULT_REPLICAS = 128


def _point(key: bytes) -> int:
    """Deterministic 64-bit ring coordinate (process/interpreter stable)."""
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring mapping names to shard ids.

    Each shard id contributes ``replicas`` points at
    ``blake2b(b"shard:<id>#<r>")``; a name lands on the shard owning the
    first point at or clockwise past ``blake2b(name)``.  Lookup is one
    hash plus one binary search over a sorted point array.
    """

    def __init__(
        self, shard_ids: Iterable[int] = (), replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if replicas <= 0:
            raise ValueError(f"replicas must be positive: {replicas}")
        self.replicas = int(replicas)
        self._ids: List[int] = sorted(set(int(i) for i in shard_ids))
        self._build()

    def _build(self) -> None:
        points = [
            (_point(b"shard:%d#%d" % (sid, r)), sid)
            for sid in self._ids
            for r in range(self.replicas)
        ]
        points.sort()
        self._points = np.array([p for p, _ in points], dtype=np.uint64)
        self._owners = np.array([o for _, o in points], dtype=np.int64)

    # -- membership -----------------------------------------------------
    @property
    def shard_ids(self) -> List[int]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._ids

    def add(self, shard_id: int) -> None:
        if shard_id in self._ids:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._ids.append(int(shard_id))
        self._ids.sort()
        self._build()

    def remove(self, shard_id: int) -> None:
        try:
            self._ids.remove(int(shard_id))
        except ValueError:
            raise ValueError(f"shard {shard_id} is not on the ring") from None
        self._build()

    # -- lookup ---------------------------------------------------------
    def locate(self, name: str) -> int:
        """Home shard id for ``name``."""
        if not self._ids:
            raise ValueError("cannot route on an empty ring")
        h = _point(name.encode("utf-8"))
        index = int(np.searchsorted(self._points, np.uint64(h), side="left"))
        if index == len(self._points):
            index = 0  # wrap: past the last point lands on the first
        return int(self._owners[index])


@lru_cache(maxsize=64)
def _default_ring(n_shards: int) -> HashRing:
    return HashRing(range(n_shards))


def shard_of(name: str, n_shards: int) -> int:
    """Stable shard index for a signal name on a fresh N-shard ring."""
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive: {n_shards}")
    return _default_ring(n_shards).locate(name)


class ShardStats:
    """Per-shard ingest accounting (the backpressure counters).

    ``tap_bytes`` and ``wal_bytes`` track the byte cost of the shard's
    durability plumbing: column bytes offered to capture taps and
    written ahead to the shard's WAL, respectively (16 bytes per sample
    — two float64 columns).  They ride the same ledger discipline as
    the sample counters: conserved across shard retirement/migration via
    :meth:`fold`.

    Each field is a façade over a :class:`~repro.core.cells.Counter`
    cell, so the same integers the public accessors expose can be
    mounted into a :class:`~repro.obs.metrics.MetricsRegistry`
    (:meth:`register_metrics`) and published as ``__obs.`` samples —
    one source of truth, zero double counting.  Field access semantics
    are dataclass-like: keyword construction, plain attribute
    read/increment/assign.
    """

    #: Integer counter fields, in declaration order.  ``query_quarantines``
    #: counts continuous queries attached on this shard that died
    #: mid-stream (operator failure, observer failure, manager push
    #: failure): a quarantined query detaches itself, and this counter
    #: is how the loss surfaces in shard/supervisor accounting instead
    #: of vanishing.
    COUNTER_FIELDS: Tuple[str, ...] = (
        "offered",
        "accepted",
        "dropped_late",
        "tap_bytes",
        "wal_bytes",
        "query_quarantines",
    )
    #: Non-counter fields (timestamps and the like): plain attributes,
    #: default ``None``, excluded from :meth:`as_dict`/:meth:`fold`.
    SCALAR_FIELDS: Tuple[str, ...] = ()

    def __init__(self, **fields) -> None:
        self._cells: Dict[str, Counter] = {
            name: Counter(name) for name in self.COUNTER_FIELDS
        }
        for name in self.SCALAR_FIELDS:
            setattr(self, name, None)
        for name, value in fields.items():
            if name not in self.COUNTER_FIELDS and name not in self.SCALAR_FIELDS:
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}"
                )
            setattr(self, name, value)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._install_cell_properties()

    @classmethod
    def _install_cell_properties(cls) -> None:
        for field in cls.COUNTER_FIELDS:
            if not isinstance(getattr(cls, field, None), property):
                setattr(cls, field, cell_property(field))

    def cell(self, field: str) -> Counter:
        """The live counter cell behind ``field`` (for direct bridging)."""
        return self._cells[field]

    def register_metrics(self, registry, prefix: str) -> None:
        """Mount every counter cell into ``registry`` under ``prefix``.

        The mounted cells *are* the accounting cells — a publisher
        walking the registry sees exactly what :meth:`as_dict` reports.
        """
        for field in self.COUNTER_FIELDS:
            registry.mount(prefix + field, self._cells[field])

    def as_dict(self) -> Dict[str, int]:
        """Every integer counter, by field name.

        Generic over :attr:`COUNTER_FIELDS` so subclasses adding
        counters (:class:`~repro.net.host.SupervisionStats`) are
        covered without overriding; non-counter fields (timestamps) are
        skipped.
        """
        return {name: self._cells[name].value for name in self.COUNTER_FIELDS}

    def fold(self, other: "ShardStats") -> None:
        """Fold another ledger's counters into this one (retirement).

        Iterates the *shared* counter fields generically, so a counter
        added to any stats class is conserved by every fold site — a
        hardcoded field list here silently dropped new counters from
        retired totals.
        """
        mine = self._cells
        for name, value in other.as_dict().items():
            cell = mine.get(name)
            if cell is not None:
                cell.value += value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict() and all(
            getattr(self, name) == getattr(other, name)
            for name in self.SCALAR_FIELDS
        )

    def __repr__(self) -> str:
        parts = [f"{name}={self._cells[name].value}" for name in self.COUNTER_FIELDS]
        parts.extend(f"{name}={getattr(self, name)!r}" for name in self.SCALAR_FIELDS)
        return f"{type(self).__name__}({', '.join(parts)})"


ShardStats._install_cell_properties()
