"""The streaming analysis service: always-on, multi-session fault
detection over a socket.

The paper runs its checker as a batch job over one recorded execution;
the service turns the same pipeline into the always-on monitor shape of
production race detectors: ``repro serve`` listens on a unix socket or
TCP port (one acceptor, the only listener, in front of N worker
processes), any number of clients open *analysis sessions* and stream
RPTR v1 event blocks (live from a running harness case, or from a
recorded ``.rptr`` file), and each session feeds an isolated detector
pipeline whose report — byte-identical to the offline ``repro trace
replay`` — is fetched over the same connection.

Modules
-------
:mod:`~repro.service.protocol`
    Frame format and conversation rules (credit-based backpressure).
:mod:`~repro.service.session`
    Per-client sessions: bounded ingest queue + `repro.api.Session`.
:mod:`~repro.service.server`
    A worker process's share: reader/analysis/housekeeping threads
    over the connections the acceptor hands it, graceful drain.
:mod:`~repro.service.shard`
    The acceptor (the only listener and HELLO reader) + N
    shared-nothing worker processes, consistent-hash session routing,
    supervisor restarts, merged stats.
:mod:`~repro.service.checkpoint`
    Atomic session checkpoints for kill-and-resume (and, sharded, the
    failover unit a restarted worker restores sessions from).
:mod:`~repro.service.client`
    ``repro client`` plumbing: credit ledger, file/live streaming.
:mod:`~repro.service.admin`
    The HTTP admin plane (``--admin-port``): ``/metrics``, ``/healthz``,
    ``/readyz``, ``/sessions``, ``/workers``.

See ``docs/SERVICE.md`` for the protocol walk-through and operational
guide, and ``docs/OBSERVABILITY.md`` for the ``repro_service_*`` metric
catalogue.
"""

from repro.service.admin import AdminServer
from repro.service.checkpoint import Checkpoint, CheckpointStore
from repro.service.client import AnalysisClient, ServiceError, fetch_report
from repro.service.server import AnalysisServer
from repro.service.session import ServiceSession
from repro.service.shard import HashRing, ShardedAnalysisServer

__all__ = [
    "AdminServer",
    "AnalysisClient",
    "AnalysisServer",
    "Checkpoint",
    "CheckpointStore",
    "HashRing",
    "ServiceError",
    "ServiceSession",
    "ShardedAnalysisServer",
    "fetch_report",
]
