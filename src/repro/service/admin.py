"""The HTTP admin plane (``repro serve --admin-port``).

A dependency-free (stdlib :mod:`http.server`) operations listener
owned by the acceptor process.  It answers the questions an operator
asks a long-lived analysis service — *is it up, is it draining, what
is it analysing, who owns what* — without touching the analysis wire
protocol:

``GET /metrics``
    Prometheus text exposition of the **live merged** snapshot: the
    sharded acceptor folds one registry snapshot per worker process
    (fetched over the control pipes via ``OP_STAT``) with its own
    through :func:`repro.telemetry.merge_snapshots`, exactly what
    ``repro client stat`` renders.  Scrape it.
``GET /metrics.json``
    The same snapshot as the JSON document
    (:mod:`repro.telemetry.schema` validates it — CI does).
``GET /healthz``
    Liveness: 200 with ``{"status": "ok", "pid", "uptime_seconds"}``
    as long as the process can answer at all.
``GET /readyz``
    Readiness: 200 ``{"status": "ready"}`` normally, 503
    ``{"status": "draining"}`` once shutdown/drain has begun — the
    signal a load balancer needs to stop sending new sessions.
``GET /sessions``
    JSON introspection of every live session: state, events and bytes
    ingested, queue depth, outstanding credits, events since the last
    checkpoint, trace id, owning worker.
``GET /workers``
    Per-worker-process view: slot, pid, liveness, restart count,
    analysis threads.

The ``ops`` object is the acceptor
(:class:`~repro.service.shard.ShardedAnalysisServer`); the plane reads
its ``stats_payload()``, ``sessions_payload()``, ``workers_payload()``
and ``draining``.  The admin listener runs request
handling on daemon threads (``ThreadingHTTPServer``) so a slow scrape
never blocks the analysis plane, and binds loopback by default — it
is an *operations* surface, not a public one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.telemetry import to_json, to_prometheus
from repro.telemetry.logs import NULL_LOGGER

__all__ = ["AdminServer"]

#: Routes served (path → one-line description); ``/`` and 404 bodies
#: list them so the endpoint is self-describing.
ROUTES = {
    "/metrics": "Prometheus text exposition (merged across workers)",
    "/metrics.json": "merged metrics snapshot as JSON",
    "/healthz": "liveness probe",
    "/readyz": "readiness probe (503 while draining)",
    "/sessions": "live sessions with owning worker",
    "/workers": "worker processes (pid, slot, restarts)",
}


class AdminServer:
    """HTTP admin listener wrapping a running acceptor."""

    def __init__(
        self,
        ops,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        logger=None,
    ) -> None:
        self.ops = ops
        self.log = logger if logger is not None else NULL_LOGGER
        self._started_at = time.time()
        admin = self

        class Handler(BaseHTTPRequestHandler):
            # Request handling must never write to stderr (the service
            # may share it with structured logs).
            def log_message(self, format, *args):  # noqa: A002
                admin.log.debug(
                    "admin_request", path=self.path,
                    client=self.client_address[0],
                )

            def do_GET(self):  # noqa: N802
                try:
                    status, ctype, body = admin._route(self.path)
                except Exception as exc:  # pragma: no cover - last resort
                    admin.log.error(
                        "admin_error", path=self.path,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    status, ctype, body = (
                        500,
                        "application/json",
                        json.dumps({"error": str(exc)}) + "\n",
                    )
                data = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                try:
                    self.wfile.write(data)
                except OSError:
                    pass  # probe hung up early; nothing to clean up

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (useful with ``port=0``)."""
        return self._httpd.server_address[:2]

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-admin",
            daemon=True,
        )
        self._thread.start()
        self.log.info(
            "admin_listen", host=self.address[0], port=self.address[1]
        )

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, path: str) -> tuple[int, str, str]:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            snapshot = self.ops.stats_payload()
            return 200, "text/plain; version=0.0.4", to_prometheus(snapshot)
        if path == "/metrics.json":
            return 200, "application/json", to_json(self.ops.stats_payload())
        if path == "/healthz":
            body = {
                "status": "ok",
                "pid": os.getpid(),
                "uptime_seconds": round(time.time() - self._started_at, 3),
            }
            return 200, "application/json", json.dumps(body) + "\n"
        if path == "/readyz":
            if self.ops.draining:
                return (
                    503,
                    "application/json",
                    json.dumps({"status": "draining"}) + "\n",
                )
            return 200, "application/json", json.dumps({"status": "ready"}) + "\n"
        if path == "/sessions":
            body = {"sessions": self.ops.sessions_payload()}
            return 200, "application/json", json.dumps(body, indent=1) + "\n"
        if path == "/workers":
            body = {"workers": self.ops.workers_payload()}
            return 200, "application/json", json.dumps(body, indent=1) + "\n"
        if path == "/":
            return 200, "application/json", json.dumps({"routes": ROUTES}, indent=1) + "\n"
        return (
            404,
            "application/json",
            json.dumps({"error": f"no route {path!r}", "routes": sorted(ROUTES)})
            + "\n",
        )
