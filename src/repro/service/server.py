"""The worker half of the streaming analysis server (``repro serve``).

Architecture — the paper's offline checker turned into a long-lived,
multi-tenant service.  One :class:`AnalysisServer` runs in each worker
process of :mod:`repro.service.shard`; it listens on nothing.  The
acceptor reads each connection's HELLO, picks a fresh session's id and
hands the connection over (:meth:`AnalysisServer.adopt_connection`):

* a **reader thread per connection** opens the session from the
  handed HELLO, then parses DATA and FINISH frames and pushes DATA
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
:class:`~repro.telemetry.MetricsRegistry`; the acceptor merges one
snapshot per worker into what ``repro client stat`` renders.
"""

from __future__ import annotations

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
    """Multi-session streaming analysis, one worker process's share.

    No endpoint is bound: the server ingests only the connections
    handed to it via :meth:`adopt_connection`, as a shard worker does
    when the acceptor passes accepted sockets, unix or TCP, over
    SCM_RIGHTS (:mod:`repro.service.shard`).  ``start()`` spawns the
    threads and returns; the worker's control loop calls
    :meth:`shutdown`.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_blocks: int = DEFAULT_QUEUE_BLOCKS,
        idle_timeout: float | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        registry: MetricsRegistry | None = None,
        throttle: float = 0.0,
        worker_id: str = "w0",
        logger=None,
        flight=None,
        tracer=None,
        trace_out: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_blocks < 1:
            raise ValueError("queue bound must be >= 1")
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
        #: (``/sessions``, per-worker STATS): ``w<slot>``.
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

        self._sessions: dict[str, ServiceSession] = {}
        self._sessions_lock = threading.Lock()
        #: Ids mid-open: reserved under ``_sessions_lock`` before the
        #: session is built (a resume loads its checkpoint first), so
        #: two concurrent HELLO{session: X} frames cannot both restore X
        #: (the loser fails "already active").
        self._opening: set[str] = set()
        self._runq: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._stopping = threading.Event()
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

    def start(self) -> None:
        """Spawn worker/housekeeping threads and return."""
        if self._started:
            return
        self._started = True
        for i in range(self.workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        if self.idle_timeout:
            t = threading.Thread(
                target=self._housekeeping_loop, name="repro-idle", daemon=True
            )
            t.start()
            self._threads.append(t)

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service.

        ``drain=True`` (graceful): let workers analyse everything
        already queued, checkpoint unfinished sessions, then stop.
        ``drain=False`` (kill): drop everything on the floor — only
        periodic checkpoints survive.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self.log.info("drain_begin" if drain else "stop", drain=drain)
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

    def release(self, session: ServiceSession, *, drop_checkpoint: bool) -> None:
        """Remove a finished/detached session (idempotent)."""
        with self._sessions_lock:
            if session.closed:
                return
            session.closed = True
            self._sessions.pop(session.session_id, None)
            self._m_active.set(len(self._sessions))
        with self.registry_lock:
            session.fold_metrics(self.registry)
        if drop_checkpoint and self.checkpoints is not None:
            self.checkpoints.delete(session.session_id)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def adopt_connection(
        self, conn: socket.socket, hello: dict, leftover: bytes = b"",
        assigned: str | None = None,
    ) -> None:
        """Ingest a connection the acceptor accepted and routed here:
        spawn its reader thread.

        ``hello`` is the HELLO body the acceptor consumed to route the
        connection; ``leftover`` is whatever the acceptor's frame reader
        over-read past it.  ``assigned`` is the id the acceptor chose
        for a fresh session (``None`` for a resume, whose id is the
        HELLO's ``session``).
        """
        self._conns.add(conn)
        self.log.debug(
            "adopt_connection", session=assigned or hello.get("session"),
        )
        t = threading.Thread(
            target=self._client_loop, args=(conn, hello, leftover, assigned),
            name="repro-reader", daemon=True,
        )
        t.start()

    def _client_loop(
        self, conn: socket.socket, hello: dict, initial: bytes,
        assigned: str | None,
    ) -> None:
        """One handed-over connection: open its session from the HELLO,
        then ingest DATA frames until FINISH."""
        session: ServiceSession | None = None
        reader = protocol.FrameReader(conn, initial)
        try:
            session = self._open_session(conn, hello, assigned)
            with session.send_lock:
                protocol.send_json(
                    conn, protocol.WELCOME, session.welcome_payload()
                )
            while (frame := reader.read()) is not None:
                ftype, payload = frame
                if self.flight is not None:
                    self.flight.frame(
                        "recv", protocol.frame_name(ftype), len(payload),
                        session=session.session_id,
                    )
                if ftype == protocol.DATA:
                    session.enqueue(payload)
                elif ftype == protocol.FINISH:
                    session.request_finish()
                else:
                    raise protocol.ProtocolError(
                        f"unexpected {protocol.frame_name(ftype)} frame"
                    )
        except (protocol.ProtocolError, ValueError, KeyError) as exc:
            error = (
                str(exc) if isinstance(exc, protocol.ProtocolError)
                else f"{type(exc).__name__}: {exc}"
            )
            self.log.warning(
                "protocol_error",
                session=session.session_id if session else None,
                error=error,
            )
            self._send_error(conn, session, error)
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

    def _open_session(
        self, conn, hello: dict, assigned: str | None
    ) -> ServiceSession:
        """Build a fresh session under the acceptor's ``assigned`` id,
        or resume the HELLO's ``session`` from its checkpoint."""
        trace = protocol.hello_id(hello, "trace")
        resume_id = protocol.hello_id(hello, "session")
        if resume_id is not None:
            if self.checkpoints is None:
                raise protocol.ProtocolError(
                    "cannot resume: server has no checkpoint directory"
                )
            session = self._admit(
                resume_id, lambda: self._restore(conn, resume_id, trace)
            )
            self._m_resumed.inc()
            self.log.info(
                "session_resume", session=session.session_id,
                config=session.config, offset=session.api.bytes_fed,
                events=session.api.events_seen, trace=session.trace_id,
            )
        else:
            if assigned is None:
                raise protocol.ProtocolError("fresh session without an id")
            config = hello.get("config", "hwlc+dr")
            profile(config)  # validate before allocating anything
            session = self._admit(assigned, lambda: ServiceSession(
                assigned, config, self, conn,
                queue_blocks=self.queue_blocks, trace_id=trace,
            ))
            self.log.info(
                "session_open", session=session.session_id,
                config=session.config, trace=session.trace_id,
            )
        self._m_sessions.inc()
        return session

    def _restore(self, conn, session_id: str, trace: str | None) -> ServiceSession:
        ckpt = self.checkpoints.load(session_id)
        if ckpt is None:
            raise protocol.ProtocolError(
                f"no checkpoint for session {session_id!r}"
            )
        return ServiceSession(
            session_id, ckpt.config, self, conn,
            queue_blocks=self.queue_blocks,
            api_session=Session.restore(ckpt.snapshot), trace_id=trace,
        )

    def _admit(self, session_id: str, build) -> ServiceSession:
        """Insert the session ``build()`` makes under ``session_id``,
        unless that id is already open or being opened."""
        with self._sessions_lock:
            if session_id in self._sessions or session_id in self._opening:
                raise protocol.ProtocolError(
                    f"session {session_id!r} is already active"
                )
            self._opening.add(session_id)
        session = None
        try:
            session = build()
        finally:
            # Hand the reservation over to the _sessions insert in one
            # lock acquisition — no window where the id is unguarded.
            with self._sessions_lock:
                self._opening.discard(session_id)
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
