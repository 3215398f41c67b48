"""Distributed gscope — the single-threaded I/O-driven client/server
library of Section 4.4.

Clients use :class:`~repro.net.client.ScopeClient` to connect to a
server built on :class:`~repro.net.server.ScopeServer`.  Clients
asynchronously send BUFFER signal data — by default as binary columnar
frames (contiguous ``float64`` time/value columns, names interned per
connection, checksummed), with the paper's textual tuple format
(Section 3.3) kept as a compatibility mode.  The server receives from
one or more clients, buffers the samples and displays them on one or
more scopes after the user-specified delay.  Data arriving after its
delay slot is dropped immediately — the
:class:`~repro.core.buffer.SampleBuffer` enforces that rule.

Everything is single-threaded and event-driven: both ends attach
:class:`~repro.eventloop.sources.IOWatch` sources to the same main-loop
machinery that drives polling, exactly like the C library rides glib's
``GIOChannel`` watches.  Two transports are provided: an in-memory pair
(deterministic, virtual-clock friendly, can model network latency) and a
real non-blocking socket pair.

For fan-in beyond one scope registry, one
:class:`~repro.net.router.Router` partitions the signal namespace over
a consistent-hash ring (:mod:`repro.net.shard`).  Its shards run on the
router loop, on supervised private loops
(:class:`~repro.net.host.ShardHost`), or in forked worker processes
(:mod:`repro.net.worker`); ``wal_root=`` adds write-ahead logging,
failure detection and byte-identical restart to either backend.

Imports point one way (``tests/test_layering.py`` checks it).  This
package sits above ``query``, ``capture``, ``core`` and ``eventloop``
and imports nothing above it; span hooks and the reserved ``__obs.``
prefix come from core, never from ``repro.obs``.  Inside the package,
``router`` imports ``worker``, which imports ``host``, which imports
``shard``; ``protocol`` and ``transport`` import no other module of
the package.
"""

from repro.net.client import ScopeClient
from repro.net.faults import FaultPlan, FaultyLink, faulty_pair
from repro.net.protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    Frame,
    FrameDecoder,
    FrameKind,
    LineDecoder,
    ProtocolError,
    WireDecoder,
    decode_lines,
    encode_binary_samples,
    encode_control,
    encode_deliver,
    encode_hello,
    encode_name_def,
    encode_query,
    encode_sample,
    encode_samples,
)
from repro.net.client import Subscription
from repro.net.queryservice import QueryMultiplexer, SharedQuery
from repro.net.server import ClientState, ScopeServer
from repro.net.shard import HashRing, ShardStats, shard_of
from repro.net.host import ShardDown, ShardHost, ShardState, SupervisionStats
from repro.net.worker import ShmRing, WorkerDied, WorkerHandle
from repro.net.router import ProcessShardedScopeManager, Router, ShardedScopeManager
from repro.net.transport import (
    LatencyLink,
    MemoryEndpoint,
    SocketEndpoint,
    memory_pair,
    socket_pair,
)

__all__ = [
    "ClientState",
    "FaultPlan",
    "FaultyLink",
    "Frame",
    "FrameDecoder",
    "FrameKind",
    "HashRing",
    "LatencyLink",
    "LineDecoder",
    "MemoryEndpoint",
    "PROTOCOL_VERSION",
    "ProcessShardedScopeManager",
    "ProtocolError",
    "QueryMultiplexer",
    "Router",
    "SUPPORTED_VERSIONS",
    "ScopeClient",
    "ScopeServer",
    "SharedQuery",
    "Subscription",
    "ShardDown",
    "ShardHost",
    "ShardState",
    "ShardStats",
    "ShardedScopeManager",
    "ShmRing",
    "SocketEndpoint",
    "SupervisionStats",
    "WireDecoder",
    "WorkerDied",
    "WorkerHandle",
    "decode_lines",
    "encode_binary_samples",
    "encode_control",
    "encode_deliver",
    "encode_hello",
    "encode_name_def",
    "encode_query",
    "encode_sample",
    "encode_samples",
    "faulty_pair",
    "memory_pair",
    "shard_of",
    "socket_pair",
]
