"""The streaming analysis server (``repro serve``).

Architecture — the paper's offline checker turned into a long-lived,
multi-tenant service:

* an **accept thread** takes connections on a unix socket or TCP port;
* a **reader thread per connection** parses frames and pushes DATA
  chunks into that session's bounded queue (credit-based backpressure
  keeps the bound honest — see :mod:`repro.service.protocol`);
* a **bounded worker pool** (``workers`` threads) drains session
  queues through per-session detector pipelines
  (:class:`repro.api.Session`).  Sessions are scheduled at chunk
  granularity: a session sits in the run queue at most once
  (schedule-flag pattern), so N workers multiplex any number of
  sessions fairly and a single hot session can never occupy more than
  one worker;
* a **housekeeping thread** closes sessions idle past
  ``idle_timeout`` (checkpointing them first, so an idle-closed
  session is resumable);
* **checkpoints** (``checkpoint_dir``/``checkpoint_every``) make the
  server crash-tolerant: a killed process restarts, the client
  reconnects with its session id, and analysis resumes mid-stream
  byte-for-byte (``docs/SERVICE.md`` walks through the recovery).

Telemetry: every ingest and scheduling edge increments
``repro_service_*`` metrics in a standard
:class:`~repro.telemetry.MetricsRegistry`, so ``repro client stat``
renders the service exactly like ``repro stats`` renders a run.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time

from repro.api import Session
from repro.api.profiles import profile
from repro.service import protocol
from repro.service.checkpoint import CheckpointStore
from repro.service.session import ServiceSession
from repro.telemetry import MetricsRegistry
from repro.telemetry.logs import NULL_LOGGER

__all__ = ["AnalysisServer"]

#: Default per-session queue bound (DATA frames).
DEFAULT_QUEUE_BLOCKS = 8


class AnalysisServer:
    """Multi-session streaming analysis service.

    Exactly one of ``socket_path`` (unix domain socket) or ``host`` +
    ``port`` (TCP; ``port=0`` picks a free one, see :attr:`address`)
    selects the transport.  ``start()`` spawns the threads and returns;
    ``serve_forever()`` blocks until :meth:`shutdown`.

    With ``listen=False`` no endpoint is bound at all: the server only
    ingests connections handed to it via :meth:`adopt_connection` —
    the shape a shard worker process runs in when the acceptor passes
    accepted sockets over SCM_RIGHTS (:mod:`repro.service.shard`).
    """

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        workers: int = 2,
        queue_blocks: int = DEFAULT_QUEUE_BLOCKS,
        idle_timeout: float | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        registry: MetricsRegistry | None = None,
        throttle: float = 0.0,
        listen: bool = True,
        worker_id: str = "w0",
        logger=None,
        flight=None,
        tracer=None,
        trace_out: str | None = None,
    ) -> None:
        if listen:
            if (socket_path is None) == (host is None or port is None):
                raise ValueError("pass either socket_path or host+port")
        elif socket_path is not None or host is not None or port is not None:
            raise ValueError("listen=False takes no endpoint")
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_blocks < 1:
            raise ValueError("queue bound must be >= 1")
        self.socket_path = socket_path
        self.workers = workers
        self.queue_blocks = queue_blocks
        self.idle_timeout = idle_timeout
        self.checkpoints = (
            CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        )
        self.checkpoint_every = checkpoint_every
        self.registry = registry if registry is not None else MetricsRegistry()
        #: The registry's upsert accessors are not thread-safe; every
        #: family/child *creation* from a reader or worker thread takes
        #: this lock (plain increments on existing samples are fine).
        self.registry_lock = threading.Lock()
        #: Per-chunk analysis delay in seconds — operational knob for
        #: soak/backpressure testing (simulates a slow detector).
        self.throttle = throttle
        #: Stable identity of this process in multi-process views
        #: (``/sessions``, per-worker STATS) — ``w<slot>`` in a shard
        #: worker, ``w0`` standalone.
        self.worker_id = worker_id
        #: Structured logger for lifecycle edges; :data:`NULL_LOGGER`
        #: (every call one attribute test) unless the operator asked
        #: for logs, so programmatic embedding stays silent and free.
        self.log = (logger if logger is not None else NULL_LOGGER).bind(
            worker_id=worker_id
        )
        #: Crash flight recorder (ring of recent records + frames);
        #: ``None`` disables frame recording entirely.
        self.flight = flight
        #: Optional tracer + path its Chrome trace is written to at
        #: shutdown — one file per process, merged offline by
        #: ``repro trace merge``.
        self.tracer = tracer
        self.trace_out = trace_out

        self._listener: socket.socket | None = None
        if not listen:
            pass
        elif socket_path is not None:
            if os.path.exists(socket_path):
                os.unlink(socket_path)
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(socket_path)
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
        if self._listener is not None:
            self._listener.listen(64)

        self._sessions: dict[str, ServiceSession] = {}
        self._sessions_lock = threading.Lock()
        #: Ids mid-resume: reserved under ``_sessions_lock`` before the
        #: checkpoint load, so two concurrent HELLO{session: X} frames
        #: cannot both restore X (the loser fails "already active").
        self._resuming: set[str] = set()
        self._next_session = 0
        if self.checkpoints is not None:
            self._next_session = self.checkpoints.max_session_seq()
        self._runq: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._started = False

        self._m_sessions = self.registry.counter(
            "repro_service_sessions_total", help="Sessions ever opened"
        )
        self._m_resumed = self.registry.counter(
            "repro_service_sessions_resumed_total",
            help="Sessions resumed from a checkpoint",
        )
        self._m_active = self.registry.gauge(
            "repro_service_sessions_active",
            help="Sessions currently open",
            # Summed, not last-wins: the sharded acceptor folds one
            # snapshot per worker process into the merged stats view,
            # and concurrent sessions on different workers must add up.
            merge="sum",
        )
        self._m_idle_closed = self.registry.counter(
            "repro_service_idle_closed_total",
            help="Sessions closed by the idle timeout",
        )
        self._m_worker_errors = self.registry.counter(
            "repro_service_worker_errors_total",
            help="Unexpected exceptions caught by the worker loop",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | str | None:
        """Bound endpoint: the socket path, or the ``(host, port)``
        actually bound (useful with ``port=0``); ``None`` when built
        with ``listen=False``."""
        if self.socket_path is not None:
            return self.socket_path
        if self._listener is None:
            return None
        return self._listener.getsockname()

    def start(self) -> None:
        """Spawn accept/worker/housekeeping threads and return."""
        if self._started:
            return
        self._started = True
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        if self._listener is not None:
            t = threading.Thread(
                target=self._accept_loop, name="repro-accept", daemon=True
            )
            t.start()
            self._threads.append(t)
        if self.idle_timeout:
            t = threading.Thread(
                target=self._housekeeping_loop, name="repro-idle", daemon=True
            )
            t.start()
            self._threads.append(t)

    def serve_forever(self) -> None:
        """``start()`` then block until :meth:`shutdown` completes."""
        self.start()
        self._drained.wait()

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service.

        ``drain=True`` (graceful): stop accepting, let workers analyse
        everything already queued, checkpoint unfinished sessions, then
        stop.  ``drain=False`` (kill): drop everything on the floor —
        only periodic checkpoints survive, which is exactly the crash
        the checkpoint tier exists for.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self.log.info("drain_begin" if drain else "stop", drain=drain)
        # Release the endpoint *before* draining: draining can take
        # seconds, and a replacement server started on the same unix
        # path / TCP port must be able to bind immediately — and must
        # never have its freshly-bound socket unlinked by our own
        # post-drain cleanup (the restart race this ordering fixes).
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if drain:
            with self._sessions_lock:
                active = list(self._sessions.values())
            for session in active:
                session.detach()
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._sessions_lock:
                    if not self._sessions:
                        break
                time.sleep(0.01)
        for _ in range(self.workers):
            self._runq.put(None)
        # Readers blocked in recv() wake up when their socket closes.
        for conn in list(self._conns):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self.tracer is not None and self.trace_out:
            try:
                self.tracer.write(self.trace_out)
            except OSError:
                pass  # trace loss must not fail the shutdown
        self.log.info("drain_end" if drain else "stopped")
        self._drained.set()

    # ------------------------------------------------------------------
    # Scheduling (the worker pool)
    # ------------------------------------------------------------------

    def schedule(self, session: ServiceSession) -> None:
        """Put ``session`` on the run queue unless it is already there
        (or being processed — the worker re-checks on exit)."""
        with session.lock:
            if session.scheduled:
                return
            session.scheduled = True
        self._runq.put(session)

    def _worker_loop(self) -> None:
        while True:
            session = self._runq.get()
            if session is None:
                return
            try:
                session.process_batch()
            except Exception:  # last resort: a worker must never die
                import traceback

                self._m_worker_errors.inc()
                if self.log.enabled:
                    self.log.error(
                        "worker_error",
                        session=session.session_id,
                        traceback=traceback.format_exc(),
                    )
                else:  # no log sink configured: stderr beats silence
                    traceback.print_exc()
                self.release(session, drop_checkpoint=False)
            with session.lock:
                if session.queue.empty() or session.closed:
                    session.scheduled = False
                    continue
            # More arrived while we processed: go around again, but
            # through the queue so other sessions get their turn.
            self._runq.put(session)

    def stats_payload(self, *, per_worker: bool = False) -> dict:
        """The STATS response body.

        Plain requests get the registry snapshot.  ``per_worker``
        requests get ``{"merged", "workers"}`` — in this single-process
        server the one "worker" (``w0``) *is* the process, so both
        views coincide; the sharded acceptor answers the same shape
        with one entry per worker process (see
        :mod:`repro.service.shard`).
        """
        with self.registry_lock:
            snapshot = self.registry.snapshot()
        if per_worker:
            return {"merged": snapshot, "workers": {self.worker_id: snapshot}}
        return snapshot

    @property
    def draining(self) -> bool:
        """True once shutdown has begun (the ``/readyz`` signal)."""
        return self._stopping.is_set()

    def sessions_payload(self) -> list[dict]:
        """Introspection of live sessions (the admin ``/sessions`` body).

        One dict per session, sorted by id, every value a plain JSON
        type.  ``worker`` names the owning process so the sharded
        acceptor can concatenate the workers' lists verbatim.
        """
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        return sorted(
            (s.introspect(self.worker_id) for s in sessions),
            key=lambda d: d["session"],
        )

    def workers_payload(self) -> list[dict]:
        """Worker-process introspection — the single-process server *is*
        its one worker; the sharded acceptor overrides this with one
        entry per subprocess."""
        return [
            {
                "worker": self.worker_id,
                "pid": os.getpid(),
                "alive": True,
                "restarts": 0,
                "threads": self.workers,
            }
        ]

    def release(self, session: ServiceSession, *, drop_checkpoint: bool) -> None:
        """Remove a finished/detached session (idempotent)."""
        with self._sessions_lock:
            if session.closed:
                return
            session.closed = True
            self._sessions.pop(session.session_id, None)
            self._m_active.set(len(self._sessions))
        if drop_checkpoint and self.checkpoints is not None:
            self.checkpoints.delete(session.session_id)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown
            if conn.family == socket.AF_INET:
                # Small control/credit frames must not sit in Nagle's
                # buffer — backpressure depends on their latency.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conns.add(conn)
            t = threading.Thread(
                target=self._client_loop, args=(conn,),
                name="repro-reader", daemon=True,
            )
            t.start()

    def adopt_connection(
        self, conn: socket.socket, hello: dict | None = None,
        leftover: bytes = b"",
    ) -> None:
        """Ingest a connection accepted elsewhere (the sharded
        acceptor): spawn its reader thread as if we had accepted it.

        ``hello`` is the already-parsed HELLO body when the acceptor
        consumed that frame to route the connection; ``leftover`` is
        whatever the acceptor's frame reader over-read past it.
        """
        if conn.family == socket.AF_INET:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conns.add(conn)
        self.log.debug(
            "adopt_connection",
            session=(hello or {}).get("assign") or (hello or {}).get("session"),
        )
        t = threading.Thread(
            target=self._client_loop, args=(conn, hello, leftover),
            name="repro-reader", daemon=True,
        )
        t.start()

    def _client_loop(
        self, conn: socket.socket, first_hello: dict | None = None,
        initial: bytes = b"",
    ) -> None:
        """One connection: HELLO → session ingest, or standalone STAT."""
        session: ServiceSession | None = None
        reader = protocol.FrameReader(conn, initial)
        try:
            if first_hello is not None:
                session = self._open_session(conn, first_hello)
                with session.send_lock:
                    protocol.send_json(
                        conn, protocol.WELCOME, session.welcome_payload()
                    )
            while True:
                frame = reader.read()
                if frame is None:
                    break
                ftype, payload = frame
                if self.flight is not None:
                    self.flight.frame(
                        "recv", protocol.frame_name(ftype), len(payload),
                        session=session.session_id if session else None,
                    )
                if ftype == protocol.STAT:
                    snapshot = self.stats_payload(
                        per_worker=bool(
                            protocol.decode_json(payload).get("per_worker")
                        )
                    )
                    with session.send_lock if session else threading.Lock():
                        protocol.send_json(conn, protocol.STATS, snapshot)
                elif ftype == protocol.HELLO:
                    if session is not None:
                        raise protocol.ProtocolError("duplicate HELLO")
                    session = self._open_session(conn, protocol.decode_json(payload))
                    with session.send_lock:
                        protocol.send_json(
                            conn, protocol.WELCOME, session.welcome_payload()
                        )
                elif ftype == protocol.DATA:
                    if session is None:
                        raise protocol.ProtocolError("DATA before HELLO")
                    session.enqueue(payload)
                elif ftype == protocol.FINISH:
                    if session is None:
                        raise protocol.ProtocolError("FINISH before HELLO")
                    session.request_finish()
                else:
                    raise protocol.ProtocolError(
                        f"unexpected {protocol.frame_name(ftype)} frame"
                    )
        except protocol.ProtocolError as exc:
            self.log.warning(
                "protocol_error",
                session=session.session_id if session else None,
                error=str(exc),
            )
            self._send_error(conn, session, str(exc))
        except (ValueError, KeyError) as exc:
            self.log.warning(
                "protocol_error",
                session=session.session_id if session else None,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._send_error(conn, session, f"{type(exc).__name__}: {exc}")
        except OSError:
            pass  # peer vanished; detach below persists progress
        finally:
            self._conns.discard(conn)
            if session is not None and not session.closed:
                session.conn = None
                if not session.finished:
                    self.log.info(
                        "session_detach", session=session.session_id
                    )
                    session.detach()
            try:
                conn.close()
            except OSError:
                pass

    def _send_error(self, conn, session, message: str) -> None:
        lock = session.send_lock if session is not None else threading.Lock()
        try:
            with lock:
                protocol.send_json(conn, protocol.ERROR, {"error": message})
        except OSError:
            pass

    def _open_session(self, conn, hello: dict) -> ServiceSession:
        """Build a fresh session, or resume one from its checkpoint."""
        resume_id = protocol.hello_id(hello, "session")
        if resume_id is not None:
            session = self._resume_session(
                conn, resume_id, trace=hello.get("trace")
            )
            self.log.info(
                "session_resume", session=session.session_id,
                config=session.config, offset=session.api.bytes_fed,
                events=session.api.events_seen, trace=session.trace_id,
            )
        else:
            session = self._fresh_session(conn, hello)
            self.log.info(
                "session_open", session=session.session_id,
                config=session.config, trace=session.trace_id,
            )
        self._m_sessions.inc()
        return session

    def _resume_session(
        self, conn, resume_id: str, *, trace: str | None = None
    ) -> ServiceSession:
        if self.checkpoints is None:
            raise protocol.ProtocolError(
                "cannot resume: server has no checkpoint directory"
            )
        with self._sessions_lock:
            if resume_id in self._sessions or resume_id in self._resuming:
                raise protocol.ProtocolError(
                    f"session {resume_id!r} is already active"
                )
            self._resuming.add(resume_id)
        session = None
        try:
            ckpt = self.checkpoints.load(resume_id)
            if ckpt is None:
                raise protocol.ProtocolError(
                    f"no checkpoint for session {resume_id!r}"
                )
            api_session = Session.restore(ckpt.snapshot)
            session = ServiceSession(
                resume_id, ckpt.config, self, conn,
                queue_blocks=self.queue_blocks, api_session=api_session,
                trace_id=trace,
            )
        finally:
            # Hand the reservation over to the _sessions insert in one
            # lock acquisition — no window where the id is unguarded.
            with self._sessions_lock:
                self._resuming.discard(resume_id)
                if session is not None:
                    self._sessions[resume_id] = session
                    self._m_active.set(len(self._sessions))
        self._m_resumed.inc()
        return session

    def _fresh_session(self, conn, hello: dict) -> ServiceSession:
        config = hello.get("config", "hwlc+dr")
        profile(config)  # validate before allocating anything
        assigned = protocol.hello_id(hello, "assign")
        with self._sessions_lock:
            if assigned is not None:
                # The sharded acceptor owns the id space and routed
                # this connection here by hashing the id it chose; we
                # only guard against an active duplicate and keep our
                # own counter clear of the acceptor's.
                if (
                    assigned in self._sessions
                    or assigned in self._resuming
                ):
                    raise protocol.ProtocolError(
                        f"session {assigned!r} is already active"
                    )
                session_id = assigned
                if assigned.startswith("s") and assigned[1:].isdigit():
                    self._next_session = max(
                        self._next_session, int(assigned[1:])
                    )
            else:
                while True:
                    self._next_session += 1
                    session_id = f"s{self._next_session:04d}"
                    if (
                        session_id not in self._sessions
                        and session_id not in self._resuming
                    ):
                        break
            self._resuming.add(session_id)  # reserve until inserted
        session = None
        try:
            session = ServiceSession(
                session_id, config, self, conn,
                queue_blocks=self.queue_blocks, trace_id=hello.get("trace"),
            )
        finally:
            with self._sessions_lock:
                self._resuming.discard(session_id)
                if session is not None:
                    self._sessions[session_id] = session
                    self._m_active.set(len(self._sessions))
        return session

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def _housekeeping_loop(self) -> None:
        interval = max(min(self.idle_timeout / 4.0, 1.0), 0.05)
        while not self._stopping.wait(interval):
            now = time.monotonic()
            with self._sessions_lock:
                idle = [
                    s
                    for s in self._sessions.values()
                    if not s.finished and s.idle(now, self.idle_timeout)
                ]
            for session in idle:
                self._m_idle_closed.inc()
                self.log.info(
                    "session_idle_close", session=session.session_id,
                    idle_seconds=round(now - session.last_activity, 3),
                )
                conn = session.conn
                session.detach()
                if conn is not None:
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
