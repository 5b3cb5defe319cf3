"""Sharded analysis service: one acceptor, N shared-nothing workers.

One interpreter's thread pool tops out near a single core no matter
how many clients connect, and per-session lock-set analysis is
shared-nothing, which makes session-level sharding the natural scaling
unit: ``repro serve`` always runs as one acceptor and N worker
processes, and this module is the only way in.

* A lightweight **acceptor** process owns the one listening socket,
  unix or TCP.  It is the only code that reads a HELLO: it bounds a
  silent connection by ``protocol.HELLO_TIMEOUT_S``, picks a fresh
  session's id, and routes the session to one of N **worker
  processes** by consistent hashing on the session id
  (:class:`HashRing`), so a given session always lands on the same
  worker, across reconnects *and* across worker restarts.
* The accepted connection itself is handed to the worker over
  SCM_RIGHTS (``socket.send_fds``), together with the parsed HELLO,
  the session id the acceptor assigned and any bytes the acceptor's
  frame reader over-read; the worker ingests directly from the client
  with the existing credit-based backpressure — the acceptor never
  touches DATA.  Workers listen on nothing, so a session id reaches
  them only over the control channel.
* **Checkpoints are the failover unit**: all workers share one
  checkpoint directory, and the acceptor's **supervisor loop**
  restarts any worker that dies.  A killed worker's resumable
  sessions re-route (same hash slot) to its replacement, which
  restores them from their pickled checkpoints — the PR-5
  cross-process resume path, now exercised automatically.
* ``STAT``, sent before any HELLO, is answered by the acceptor
  itself: it collects each worker's ``repro_service_*`` snapshot over
  the **control pipe** and merges them
  (:func:`repro.telemetry.merge_snapshots`) into the one view ``repro
  client stat`` renders; ``--per-worker`` returns the unmerged
  per-process snapshots alongside.  Once a HELLO is handed over, the
  worker accepts only DATA and FINISH on that connection.

Each worker is a fresh interpreter (spawned via :mod:`subprocess`
running :func:`worker_main`, with the control socketpair passed
through ``pass_fds``) hosting a listener-less
:class:`~repro.service.server.AnalysisServer` — same sessions, same
checkpoints, same metrics, just one process per shard.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time

from repro.service import protocol
from repro.service.checkpoint import CheckpointStore
from repro.telemetry import MetricsRegistry, merge_snapshots
from repro.telemetry.logs import NULL_LOGGER, dump_flight_spool

__all__ = ["HashRing", "ShardedAnalysisServer"]

#: Virtual nodes per worker slot on the hash ring.  Enough that the
#: per-slot share of the key space is within a few percent of 1/N and
#: that adding a worker remaps ≈1/(N+1) of the sessions, not a lobe.
DEFAULT_REPLICAS = 64

# ----------------------------------------------------------------------
# Control protocol (acceptor ⇄ worker, over a unix socketpair)
# ----------------------------------------------------------------------

#: Worker → acceptor, once at startup: ``{"pid"}``.
OP_READY = 0x41
#: Acceptor → worker: a routed connection.  The payload carries the
#: HELLO, the assigned id of a fresh session and the acceptor's
#: over-read bytes; the connection's fd rides the frame header as
#: SCM_RIGHTS ancillary data.
OP_CONN = 0x42
#: Acceptor → worker: send your metrics snapshot (reply: OP_STATS).
OP_STAT = 0x43
OP_STATS = 0x44
#: Acceptor → worker: shut down (``{"drain": bool, "timeout": s}``).
OP_SHUTDOWN = 0x45
#: Acceptor ⇄ worker: session introspection round-trip.  The acceptor
#: sends an empty request; the worker replies with the same op carrying
#: its ``sessions_payload()`` JSON (the admin ``/sessions`` feed).
OP_SESSIONS = 0x46

_CTRL_HEADER = struct.Struct("!BI")
#: Each OP_CONN frame carries exactly one fd on its header, but one
#: recv may span several queued frames — size the ancillary buffer so
#: no fd is ever truncated away (fds pair with frames in FIFO order).
_MAX_FDS = 32


def _ctrl_send(sock: socket.socket, op: int, payload: bytes, fd: int | None = None) -> None:
    """Write one control frame; ``fd`` rides the header as ancillary."""
    header = _CTRL_HEADER.pack(op, len(payload))
    if fd is None:
        sock.sendall(header)
    else:
        sent = socket.send_fds(sock, [header], [fd])
        # The 5-byte header fits any socket buffer; a partial send here
        # would desynchronise the channel, so treat it as fatal.
        if sent != len(header):
            raise OSError("short control send")
    if payload:
        sock.sendall(payload)


class _ControlChannel:
    """Buffered reader for control frames, collecting passed fds."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._buf = bytearray()
        self._fds: list[int] = []

    def _fill(self, need: int) -> bool:
        while len(self._buf) < need:
            data, fds, _flags, _addr = socket.recv_fds(
                self.sock, 65536, _MAX_FDS
            )
            if not data and not fds:
                return False
            self._fds.extend(fds)
            self._buf += data
        return True

    def read(self) -> tuple[int, bytes, int | None] | None:
        """Next ``(op, payload, fd)``; ``None`` on clean EOF."""
        if not self._fill(_CTRL_HEADER.size):
            if self._buf:
                raise OSError("control channel closed mid-frame")
            return None
        op, length = _CTRL_HEADER.unpack_from(bytes(self._buf[:_CTRL_HEADER.size]))
        if not self._fill(_CTRL_HEADER.size + length):
            raise OSError("control channel closed mid-frame")
        payload = bytes(self._buf[_CTRL_HEADER.size:_CTRL_HEADER.size + length])
        del self._buf[:_CTRL_HEADER.size + length]
        fd = self._fds.pop(0) if self._fds else None
        return op, payload, fd


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------


class HashRing:
    """Consistent-hash router: session id → worker slot.

    Classic ring with virtual nodes, hashed with md5 so the mapping is
    deterministic across processes and runs (Python's builtin ``hash``
    is salted per process).  Properties the service leans on:

    * **stability** — the same session id maps to the same slot for a
      fixed worker count, in every process, forever: a resuming client
      always reaches the worker that can see its checkpoint, and a
      restarted worker inherits exactly its predecessor's sessions;
    * **minimal disruption** — changing the worker count N remaps only
      ≈1/N of the id space (virtual nodes interleave the slots), so a
      scaled fleet re-routes a slice, not the world.
    """

    def __init__(self, slots: int, replicas: int = DEFAULT_REPLICAS) -> None:
        if slots < 1:
            raise ValueError("need at least one slot")
        if replicas < 1:
            raise ValueError("need at least one replica per slot")
        self.slots = slots
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for slot in range(slots):
            for replica in range(replicas):
                point = self._hash(f"worker-{slot}-{replica}")
                points.append((point, slot))
        points.sort()
        self._points = points
        self._hashes = [p for p, _ in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.md5(key.encode("utf-8")).digest()[:8], "big"
        )

    def slot(self, session_id: str) -> int:
        """The worker slot owning ``session_id``."""
        from bisect import bisect_right

        point = self._hash(session_id)
        i = bisect_right(self._hashes, point)
        if i == len(self._points):
            i = 0  # wrap around the ring
        return self._points[i][1]


# ----------------------------------------------------------------------
# Worker handles (acceptor side)
# ----------------------------------------------------------------------


class _WorkerHandle:
    """One live worker process: subprocess + control channel."""

    __slots__ = ("slot", "proc", "ctrl", "channel", "pid", "lock", "dead")

    def __init__(self, slot: int, proc: subprocess.Popen,
                 ctrl: socket.socket) -> None:
        self.slot = slot
        self.proc = proc
        self.ctrl = ctrl
        self.channel = _ControlChannel(ctrl)
        self.pid = proc.pid
        #: Serialises control-channel request/response pairs (STAT) and
        #: handover sends, so frames from concurrent acceptor threads
        #: never interleave on the socketpair.
        self.lock = threading.Lock()
        self.dead = False

    def close(self) -> None:
        try:
            self.ctrl.close()
        except OSError:
            pass


class ShardedAnalysisServer:
    """The acceptor: listener + router + supervisor + stats merger, and
    the only code that reads a HELLO, answers STAT, bounds a silent
    connection and picks a fresh session's id.

    Same constructor vocabulary as
    :class:`~repro.service.server.AnalysisServer`, with ``workers``
    now meaning shared-nothing worker *processes* and ``threads`` the
    analysis thread pool inside each worker.  ``start()`` spawns the
    workers and the accept/supervisor threads; ``shutdown(drain=True)``
    releases the endpoint first, then drains every worker.
    """

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        host: str | None = None,
        port: int | None = None,
        workers: int = 2,
        threads: int = 2,
        queue_blocks: int = 8,
        idle_timeout: float | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        throttle: float = 0.0,
        registry: MetricsRegistry | None = None,
        replicas: int = DEFAULT_REPLICAS,
        logger=None,
        log_file: str | None = None,
        log_level: str | None = None,
        trace_dir: str | None = None,
    ) -> None:
        if (socket_path is None) == (host is None or port is None):
            raise ValueError("pass either socket_path or host+port")
        if workers < 1:
            raise ValueError("need at least one worker process")
        self.socket_path = socket_path
        self.workers = workers
        self.threads = threads
        self.queue_blocks = queue_blocks
        self.idle_timeout = idle_timeout
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.throttle = throttle
        self.ring = HashRing(workers, replicas)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry_lock = threading.Lock()
        #: Structured logger for the acceptor's own edges (route,
        #: handover, supervisor); workers get their own via
        #: ``log_file``/``log_level``, forwarded on their command line
        #: (a subprocess cannot share a Python logger object).
        self.log = (logger if logger is not None else NULL_LOGGER).bind(
            worker_id="acceptor"
        )
        self.log_file = log_file
        self.log_level = log_level
        #: Directory each worker writes its Chrome trace into at
        #: shutdown (``trace-w<slot>-<pid>.json``), merged offline by
        #: ``repro trace merge``.
        self.trace_dir = trace_dir

        if socket_path is not None:
            if os.path.exists(socket_path):
                os.unlink(socket_path)
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(socket_path)
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
        self._listener.listen(128)

        #: Fresh-session counter — the acceptor owns the id space so
        #: ids are unique across workers; seeded past any resumable
        #: checkpoint a prior incarnation (of any worker) left behind.
        self._next_session = 0
        if checkpoint_dir:
            self._next_session = CheckpointStore(checkpoint_dir).max_session_seq()
        self._id_lock = threading.Lock()

        self._slots: list[_WorkerHandle | None] = [None] * workers
        self._slots_lock = threading.Lock()
        #: Per-slot supervisor restart counts (the ``/workers`` view).
        self._restarts: dict[int, int] = {s: 0 for s in range(workers)}
        self._conns: set[socket.socket] = set()
        self._supervisor = threading.Thread(
            target=self._supervisor_loop, name="repro-shard-supervisor",
            daemon=True,
        )
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._started = False

        self._m_workers = self.registry.gauge(
            "repro_service_workers",
            help="Worker processes currently alive",
            merge="last",
        )
        self._m_routed = self.registry.counter(
            "repro_service_routed_sessions_total",
            help="Sessions routed to a worker by the acceptor",
        )
        self._m_restarts = self.registry.counter(
            "repro_service_worker_restarts_total",
            help="Worker processes restarted by the supervisor",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int] | str:
        if self.socket_path is not None:
            return self.socket_path
        return self._listener.getsockname()

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for slot in range(self.workers):
            self._slots[slot] = self._spawn_worker(slot)
        self._m_workers.set(self.workers)
        threading.Thread(
            target=self._accept_loop, name="repro-shard-accept", daemon=True
        ).start()
        self._supervisor.start()

    def serve_forever(self) -> None:
        self.start()
        self._drained.wait()

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service: release the endpoint *first* (a restart on
        the same path/port must never race the drain), then drain or
        kill the workers."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        self.log.info("drain_begin" if drain else "stop", drain=drain)
        try:
            self._listener.close()
        except OSError:
            pass
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        # A restart the supervisor has begun lands in its slot before
        # the slots are read, or its worker would outlive the drain.
        if self._supervisor.is_alive():
            self._supervisor.join(timeout)
        with self._slots_lock:
            handles = [h for h in self._slots if h is not None]
        for handle in handles:
            if drain:
                try:
                    with handle.lock:
                        _ctrl_send(
                            handle.ctrl, OP_SHUTDOWN,
                            json.dumps(
                                {"drain": True, "timeout": timeout}
                            ).encode("utf-8"),
                        )
                except OSError:
                    pass
            else:
                handle.proc.kill()
        deadline = time.monotonic() + timeout
        for handle in handles:
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                handle.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.proc.kill()
                handle.proc.wait(timeout=5.0)
            handle.close()
        for conn in list(self._conns):
            try:
                conn.close()
            except OSError:
                pass
        self._m_workers.set(0)
        self.log.info("drain_end" if drain else "stopped")
        self._drained.set()

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------

    def _spawn_worker(self, slot: int) -> _WorkerHandle:
        parent, child = socket.socketpair()
        # ``-c`` rather than ``-m``: the package __init__ imports this
        # module, and runpy would warn about re-executing a module
        # already in sys.modules.
        cmd = [
            sys.executable, "-c",
            "from repro.service.shard import worker_main; "
            "raise SystemExit(worker_main())",
            "--slot", str(slot),
            "--control-fd", str(child.fileno()),
            "--threads", str(self.threads),
            "--queue-blocks", str(self.queue_blocks),
        ]
        if self.idle_timeout:
            cmd += ["--idle-timeout", str(self.idle_timeout)]
        if self.checkpoint_dir:
            cmd += ["--checkpoint-dir", self.checkpoint_dir]
        if self.checkpoint_every:
            cmd += ["--checkpoint-every", str(self.checkpoint_every)]
        if self.throttle:
            cmd += ["--throttle", str(self.throttle)]
        if self.log_file:
            cmd += ["--log-file", self.log_file]
        if self.log_level:
            cmd += ["--log-level", self.log_level]
        if self.trace_dir:
            cmd += ["--trace-dir", self.trace_dir]
        # The worker re-imports repro in a fresh interpreter: make sure
        # the package we are running from is importable there even when
        # the parent was launched with a transient sys.path tweak.
        import repro

        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(cmd, pass_fds=(child.fileno(),), env=env)
        child.close()
        handle = _WorkerHandle(slot, proc, parent)
        # Block until READY: the worker is ingesting; routing to a
        # half-started worker would drop frames.
        parent.settimeout(60.0)
        try:
            frame = handle.channel.read()
        except (OSError, socket.timeout) as exc:
            proc.kill()
            raise RuntimeError(f"shard worker {slot} failed to start") from exc
        finally:
            parent.settimeout(None)
        if frame is None or frame[0] != OP_READY:
            proc.kill()
            raise RuntimeError(f"shard worker {slot} failed to start")
        self.log.info("worker_spawn", slot=slot, worker_pid=proc.pid)
        return handle

    def _condemn(self, handle: _WorkerHandle) -> None:
        """Mark a worker unusable after a control-channel failure and
        make sure its process is actually dead, so the supervisor's
        poll sees it and spawns the replacement."""
        handle.dead = True
        try:
            handle.proc.kill()
        except OSError:
            pass

    def _live_handle(self, slot: int, wait: float = 10.0) -> _WorkerHandle:
        """The slot's current worker, waiting out a supervisor restart
        window if the previous incarnation just died."""
        deadline = time.monotonic() + wait
        while True:
            with self._slots_lock:
                handle = self._slots[slot]
            if handle is not None and not handle.dead:
                return handle
            if time.monotonic() > deadline or self._stopping.is_set():
                raise protocol.ProtocolError(
                    f"worker {slot} is unavailable"
                )
            time.sleep(0.05)

    def _supervisor_loop(self) -> None:
        """Restart dead workers in place.  The replacement occupies the
        same hash slot, so every session the casualty owned re-routes
        to the new process and resumes from its checkpoint."""
        while not self._stopping.wait(0.1):
            for slot in range(self.workers):
                with self._slots_lock:
                    handle = self._slots[slot]
                if handle is None or handle.proc.poll() is None:
                    continue
                if self._stopping.is_set():
                    return
                handle.dead = True
                handle.close()
                self._m_restarts.inc()
                self._restarts[slot] = self._restarts.get(slot, 0) + 1
                self.log.warning(
                    "worker_exit", slot=slot, worker_pid=handle.pid,
                    returncode=handle.proc.returncode,
                )
                # Post-mortem first, spawn second: the casualty's flight
                # spool must be renamed away before its replacement
                # starts a fresh one under the same name.
                if self.checkpoint_dir:
                    dump = dump_flight_spool(self.checkpoint_dir, f"w{slot}")
                    if dump is not None:
                        self.log.warning(
                            "flight_dump", slot=slot, path=dump,
                        )
                try:
                    replacement = self._spawn_worker(slot)
                except RuntimeError:
                    self.log.error("worker_respawn_failed", slot=slot)
                    continue  # retry on the next sweep
                with self._slots_lock:
                    self._slots[slot] = replacement

    # ------------------------------------------------------------------
    # Accept + route
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            if conn.family == socket.AF_INET:
                # Small control/credit frames must not sit in Nagle's
                # buffer — backpressure depends on their latency.  The
                # option belongs to the socket, so it survives the
                # handover to the worker.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conns.add(conn)
            t = threading.Thread(
                target=self._handshake, args=(conn,),
                name="repro-shard-handshake", daemon=True,
            )
            t.start()

    def _handshake(self, conn: socket.socket) -> None:
        """Read frames until the connection declares itself: STAT
        requests are answered in place, the first HELLO routes the
        session and ends the acceptor's involvement."""
        reader = protocol.FrameReader(conn)
        try:
            conn.settimeout(protocol.HELLO_TIMEOUT_S)
            while True:
                frame = reader.read()
                if frame is None:
                    break
                ftype, payload = frame
                if ftype == protocol.STAT:
                    per_worker = bool(
                        protocol.decode_json(payload).get("per_worker")
                    )
                    protocol.send_json(
                        conn, protocol.STATS,
                        self.stats_payload(per_worker=per_worker),
                    )
                elif ftype == protocol.HELLO:
                    self._route(conn, protocol.decode_json(payload), reader)
                    return
                else:
                    raise protocol.ProtocolError(
                        f"unexpected {protocol.frame_name(ftype)} frame"
                    )
        except protocol.ProtocolError as exc:
            self._send_error(conn, str(exc))
        except (ValueError, KeyError) as exc:
            self._send_error(conn, f"{type(exc).__name__}: {exc}")
        except TimeoutError:
            self._send_error(conn, f"no HELLO within {protocol.HELLO_TIMEOUT_S:g} s")
        except OSError:
            pass
        finally:
            self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _send_error(self, conn: socket.socket, message: str) -> None:
        try:
            protocol.send_json(conn, protocol.ERROR, {"error": message})
        except OSError:
            pass

    def _assign_id(self) -> str:
        with self._id_lock:
            self._next_session += 1
            return f"s{self._next_session:04d}"

    def _route(self, conn: socket.socket, hello: dict,
               reader: protocol.FrameReader) -> None:
        """Consistent-hash the session id and hand the connection over."""
        trace = protocol.hello_id(hello, "trace")
        session_id = protocol.hello_id(hello, "session")
        assigned = None
        if session_id is None:
            # Fresh session: the acceptor assigns the id (so it can
            # route before any worker is involved) and validates the
            # config early — a bad name fails here, not in a worker.
            from repro.api.profiles import profile

            profile(hello.get("config", "hwlc+dr"))
            session_id = assigned = self._assign_id()
        # Session-scoped trace id: the client's own, or one minted here
        # (the one process that sees every session).  It rides the
        # forwarded HELLO to the owning worker.
        if trace is None:
            trace = f"{session_id}-{os.urandom(4).hex()}"
            hello = {**hello, "trace": trace}
        slot = self.ring.slot(session_id)
        handle = self._live_handle(slot)
        self._m_routed.inc()
        self.log.info(
            "route", session=session_id, slot=slot,
            worker_pid=handle.pid, trace=trace,
        )
        # A timeout makes the socket non-blocking, and that flag belongs
        # to the file description the worker's duplicate shares: the
        # worker's blocking reads would fail with BlockingIOError.
        conn.settimeout(None)
        self._handover(handle, conn, hello, assigned, reader.leftover())
        self._conns.discard(conn)
        try:
            conn.close()  # the worker owns its own duplicate from here on
        except OSError:
            pass

    def _handover(self, handle: _WorkerHandle, conn: socket.socket,
                  hello: dict, assigned: str | None,
                  leftover: bytes) -> None:
        """Pass the accepted connection to a worker over SCM_RIGHTS,
        retrying across a supervisor restart if the worker just died."""
        payload = json.dumps({
            "hello": hello,
            "assign": assigned,
            "leftover": base64.b64encode(leftover).decode("ascii"),
        }).encode("utf-8")
        deadline = time.monotonic() + 10.0
        while True:
            try:
                with handle.lock:
                    _ctrl_send(handle.ctrl, OP_CONN, payload, fd=conn.fileno())
                return
            except OSError:
                self._condemn(handle)
                if time.monotonic() > deadline:
                    raise protocol.ProtocolError(
                        f"worker {handle.slot} is unavailable"
                    )
                handle = self._live_handle(handle.slot)

    # ------------------------------------------------------------------
    # Stats merge (the control pipe's other job)
    # ------------------------------------------------------------------

    def _ask_workers(self, request: int, reply: int) -> dict:
        """Send ``request`` to each live worker and return its JSON
        ``reply``, keyed ``w<slot>``.

        A worker mid-restart simply drops out of this round — its
        counters are process-local and died with it; the sessions
        themselves survive in checkpoints, not in metrics.
        """
        replies: dict = {}
        with self._slots_lock:
            handles = [h for h in self._slots if h is not None and not h.dead]
        for handle in handles:
            try:
                with handle.lock:
                    handle.ctrl.settimeout(10.0)
                    try:
                        _ctrl_send(handle.ctrl, request, b"")
                        frame = handle.channel.read()
                    finally:
                        handle.ctrl.settimeout(None)
            except OSError:
                self._condemn(handle)
                continue
            if frame is not None and frame[0] == reply:
                replies[f"w{handle.slot}"] = json.loads(frame[1])
        return replies

    def stats_payload(self, *, per_worker: bool = False) -> dict:
        """Merged service metrics; with ``per_worker``, also the raw
        per-process snapshots the merge was built from."""
        with self.registry_lock:
            acceptor = self.registry.snapshot()
        workers = self._ask_workers(OP_STAT, OP_STATS)
        merged = merge_snapshots([acceptor, *workers.values()])
        if per_worker:
            return {"merged": merged, "workers": workers}
        return merged

    # ------------------------------------------------------------------
    # Admin-plane introspection
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once shutdown has begun (the ``/readyz`` signal)."""
        return self._stopping.is_set()

    def sessions_payload(self) -> list[dict]:
        """Every live session across all workers (the ``/sessions``
        body): each entry already names its owning worker."""
        sessions: list[dict] = []
        for entries in self._ask_workers(OP_SESSIONS, OP_SESSIONS).values():
            sessions.extend(entries)
        return sorted(sessions, key=lambda d: d["session"])

    def workers_payload(self) -> list[dict]:
        """Per-worker-process view (the ``/workers`` body)."""
        out: list[dict] = []
        with self._slots_lock:
            slots = list(self._slots)
        for slot, handle in enumerate(slots):
            entry = {
                "worker": f"w{slot}",
                "slot": slot,
                "restarts": self._restarts.get(slot, 0),
                "threads": self.threads,
            }
            if handle is None:
                entry.update(pid=None, alive=False)
            else:
                entry.update(
                    pid=handle.pid,
                    alive=not handle.dead and handle.proc.poll() is None,
                )
            out.append(entry)
        return out


# ----------------------------------------------------------------------
# Worker entry point (``python -m repro.service.shard``)
# ----------------------------------------------------------------------


def worker_main(argv: list[str] | None = None) -> int:
    """Run one shard worker: a listener-less
    :class:`~repro.service.server.AnalysisServer` driven by the
    acceptor's control channel."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="internal: one worker process of `repro serve`",
    )
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--control-fd", type=int, required=True)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--queue-blocks", type=int, default=8)
    parser.add_argument("--idle-timeout", type=float, default=None)
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--checkpoint-every", type=int, default=0)
    parser.add_argument("--throttle", type=float, default=0.0)
    parser.add_argument("--log-file", default=None)
    parser.add_argument("--log-level", default=None)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    # The acceptor owns this process's lifecycle.  A terminal Ctrl-C
    # (SIGINT to the whole foreground process group) or a group-wide
    # SIGTERM must not kill workers out from under the acceptor's
    # drain — shutdown arrives as OP_SHUTDOWN (or control-channel EOF),
    # and the supervisor escalates to SIGKILL for stragglers.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    from repro.service.server import AnalysisServer
    from repro.telemetry.logs import (
        FlightRecorder,
        StructuredLogger,
        flight_spool_path,
    )
    from repro.telemetry.tracing import Tracer

    worker_id = f"w{args.slot}"
    # The flight recorder needs a durable home; the checkpoint dir is
    # the one directory every worker already shares with the acceptor.
    flight = None
    if args.checkpoint_dir:
        flight = FlightRecorder(
            spool_path=flight_spool_path(args.checkpoint_dir, worker_id)
        )
    stream = None
    if args.log_file:
        try:
            stream = open(args.log_file, "a", encoding="utf-8")
        except OSError:
            stream = None
    logger = None
    if stream is not None or flight is not None:
        logger = StructuredLogger(
            stream, level=args.log_level or "info", ring=flight
        )
    tracer = None
    trace_out = None
    if args.trace_dir:
        tracer = Tracer(pid=os.getpid(), process_name=worker_id)
        trace_out = os.path.join(
            args.trace_dir, f"trace-{worker_id}-{os.getpid()}.json"
        )

    ctrl = socket.socket(fileno=args.control_fd)
    server = AnalysisServer(
        workers=args.threads,
        queue_blocks=args.queue_blocks,
        idle_timeout=args.idle_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        throttle=args.throttle,
        worker_id=worker_id,
        logger=logger,
        flight=flight,
        tracer=tracer,
        trace_out=trace_out,
    )
    server.start()
    server.log.info("worker_ready", slot=args.slot)
    _ctrl_send(
        ctrl, OP_READY, json.dumps({"pid": os.getpid()}).encode("utf-8")
    )

    channel = _ControlChannel(ctrl)
    while True:
        try:
            frame = channel.read()
        except OSError:
            frame = None
        if frame is None:
            # Acceptor vanished (crash/kill): persist what we can and
            # go down with it.
            server.shutdown(drain=True, timeout=10.0)
            if flight is not None:
                flight.close(delete=True)
            return 0
        op, payload, fd = frame
        if op == OP_CONN:
            if fd is None:
                continue  # fd lost in transit; the client will retry
            body = json.loads(payload)
            conn = socket.socket(fileno=fd)
            server.adopt_connection(
                conn,
                hello=body["hello"],
                leftover=base64.b64decode(body.get("leftover", "")),
                assigned=body.get("assign"),
            )
        elif op == OP_STAT:
            with server.registry_lock:
                snapshot = server.registry.snapshot()
            _ctrl_send(
                ctrl, OP_STATS,
                json.dumps(snapshot, separators=(",", ":")).encode("utf-8"),
            )
        elif op == OP_SESSIONS:
            _ctrl_send(
                ctrl, OP_SESSIONS,
                json.dumps(
                    server.sessions_payload(), separators=(",", ":")
                ).encode("utf-8"),
            )
        elif op == OP_SHUTDOWN:
            body = json.loads(payload) if payload else {}
            server.shutdown(
                drain=bool(body.get("drain", True)),
                timeout=float(body.get("timeout", 30.0)),
            )
            # Clean exit: remove the spool so no stale post-mortem
            # survives a healthy drain (a surviving spool *means* crash).
            if flight is not None:
                flight.close(delete=True)
            return 0
        # Unknown ops are ignored: a newer acceptor may speak a
        # superset; the worker must never die over it.


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(worker_main())
