"""The SIP proxy server — the application under test (§3.3).

A guest program reproducing the architecture the paper describes: a
signalling server that accepts SIP requests, runs them through
transaction state machines, consults a domain-data service and a
registrar, logs, keeps statistics, and answers.  Concurrency comes in
the two flavours the paper discusses:

* ``thread-per-request`` (§3.3): "for each request a new thread is
  created.  This fits well into the thread-segment improvement ..."
* ``thread-pool`` (§4.2.3): "it is planned to utilize patterns that use
  thread pools ... this leads to the problem that the race detection
  algorithm will report more false positives" (Figure 11).

Everything shared lives in guest memory, so the detectors see the same
access patterns Helgrind saw on the real 500 kLOC binary: COW-string
header handling (hardware-lock FPs), polymorphic transaction objects
deleted outside the table lock (destructor FPs), queue hand-offs
(ownership FPs), and — switchable through :mod:`repro.sip.bugs` — the
§4.1 true positives.

The server registers oracle claims (:class:`repro.oracle.GroundTruth`)
for every intentionally-racy-looking range it creates, which is what
lets the experiment harness regenerate the paper's Figure 5 triage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cxx.allocator import AllocStrategy, CxxAllocator
from repro.cxx.containers import CxxMap
from repro.cxx.libc import LibC
from repro.cxx.object_model import CxxObject, delete_object, new_object
from repro.cxx.string import CowString
from repro.errors import SipParseError
from repro.oracle import GroundTruth, WarningCategory
from repro.sip.bugs import ALL_BUG_IDS, DEFAULT_BUGS
from repro.sip.message import METHODS, SipMessage
from repro.sip.parser import parse_message, serialize_message
from repro.sip.transaction import (
    AUTH_STATE,
    CONTACT_LIST,
    DIALOG_STATE,
    HEADER_TABLE,
    SDP_BODY,
    VIA_LIST,
    TransactionContext,
    TransactionError,
    TransactionState,
    build_transaction_classes,
    invite_event,
    non_invite_event,
    transaction_class_for,
)

__all__ = ["ProxyConfig", "ProxyResult", "SipProxy"]

_SRC = "proxy.cpp"

#: Source-line bases per handler, so every handler's accesses carry
#: stable, distinct coordinates (the proxy's "500 kLOC" of distinct
#: sites, condensed).
_HANDLER_LINES = {
    "INVITE": 200,
    "ACK": 260,
    "BYE": 300,
    "CANCEL": 340,
    "REGISTER": 380,
    "OPTIONS": 440,
    "SUBSCRIBE": 480,
    "NOTIFY": 520,
    "INFO": 560,
}


@dataclass(frozen=True, slots=True)
class ProxyConfig:
    """Deployment-time configuration of the proxy.

    ``instrumented`` is the §3.3 build switch: delete sites emit
    ``HG_DESTRUCT`` (the DR improvement's input).  ``force_new_allocator``
    models the ``GLIBCPP_FORCE_NEW`` environment setting the paper says
    must be made "prior to calling Helgrind"; the evaluation runs use it
    so that allocator-reuse noise does not pollute the Figure 6 counts.
    """

    mode: str = "thread-per-request"  # or "thread-pool"
    pool_size: int = 3
    max_threads: int = 64
    bugs: frozenset[str] = DEFAULT_BUGS
    instrumented: bool = False
    force_new_allocator: bool = True
    announce_pool_reuse: bool = False
    domains: tuple[str, ...] = (
        "example.com",
        "biloxi.example.com",
        "atlanta.example.com",
    )
    #: Flusher iterations (the background statistics thread).
    flusher_rounds: int = 3
    #: Transaction-reaper sweeps (0 = no reaper).  Each sweep fires the
    #: RFC 3261 timeout event on every still-live transaction, answering
    #: abandoned dialogs with 408 and destroying them — the cleanup
    #: thread a real proxy runs so lost clients cannot leak state.
    reaper_rounds: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("thread-per-request", "thread-pool"):
            raise ValueError(f"unknown dispatch mode {self.mode!r}")
        unknown = set(self.bugs) - ALL_BUG_IDS
        if unknown:
            raise ValueError(f"unknown bug ids {sorted(unknown)}")

    def has_bug(self, bug_id: str) -> bool:
        return bug_id in self.bugs

    @classmethod
    def fixed(cls, **overrides) -> "ProxyConfig":
        """A proxy with every §4.1 bug repaired."""
        return cls(bugs=frozenset(), **overrides)


@dataclass(slots=True)
class ProxyResult:
    """Observable outcome of one proxy run."""

    responses: list[SipMessage] = field(default_factory=list)
    #: Application-level misbehaviours observed (wrong config read,
    #: destroyed-data read, lock timeout) — the paper's
    #: "non-deterministic failures when run with multiple threads".
    failures: list[str] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)
    handled: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    def responses_for(self, call_id: str) -> list[SipMessage]:
        return [r for r in self.responses if r.call_id == call_id]


class _AppMutex:
    """The application's home-grown lock wrapper (§4.1's first bug).

    Real purpose: application-level deadlock detection — ``lock()``
    spins with ``trylock`` for a bounded number of attempts and reports
    a timeout before falling back to a blocking acquire ("Deadlocks on
    Mutex locks are detected by the application using a timeout while
    trying to acquire a lock inside the lock-function", §3.3).

    The bug: the watchdog bookkeeping (who waits for this lock since
    when) lives in two shared guest words written *without* protection.
    """

    SPIN_LIMIT = 60

    def __init__(self, api, name: str, proxy: "SipProxy") -> None:
        self.mutex = api.mutex(name)
        self.name = name
        self.proxy = proxy
        self.buggy = proxy.config.has_bug("deadlock-detector")
        if self.buggy:
            self.book = api.malloc(2, tag=f"lockwatch.{name}")
            api.store(self.book, -1)  # waiter tid
            api.store(self.book + 1, 0)  # wait-start tick
            if proxy.truth is not None:
                proxy.truth.claim(
                    self.book,
                    2,
                    WarningCategory.TRUE_RACE,
                    note=f"deadlock-watchdog bookkeeping for {name}",
                    bug_id="deadlock-detector",
                )

    def lock(self, api) -> None:
        with api.frame("AppMutex::lock", "appmutex.cpp", 31):
            if api.trylock(self.mutex):
                return  # fast path: uncontended, no watchdog involved
            if self.buggy:
                # Unprotected bookkeeping writes: the §4.1 race.  Only
                # contended acquisitions are recorded (that is all the
                # watchdog cares about).
                api.store(self.book, api.tid)
                api.store(self.book + 1, api.vm.clock)
            # ``trylock`` then ``yield_`` while the mutex is held: a
            # failed trylock traps once and the yield once more.
            if api.spin(lambda: not self.mutex.held, tries=self.SPIN_LIMIT, traps=2):
                api.trylock(self.mutex)  # free since the test: nothing ran between
                return
            # Watchdog fired: report, then block for real.
            self.proxy._record_failure(
                f"lock timeout on {self.name} (thread {api.tid})"
            )
            api.lock(self.mutex)

    def unlock(self, api) -> None:
        with api.frame("AppMutex::unlock", "appmutex.cpp", 58):
            if self.buggy:
                api.store(self.book, -1)
            api.unlock(self.mutex)


class SipProxy:
    """The server.  Entry point: :meth:`main` (run it on a VM).

    One instance describes one deployment; it may be run once.
    """

    def __init__(self, config: ProxyConfig | None = None, *, truth: GroundTruth | None = None) -> None:
        self.config = config or ProxyConfig()
        self.truth = truth
        self.result = ProxyResult()
        #: Host-side dialog pacing state (no guest memory involved).
        self._sent: dict[str, int] = {}
        self._processed: dict[str, int] = {}
        #: Host-side reaper shutdown flag (polled, no guest events).
        self._stop_reaper = False
        # Guest state, populated in main():
        self._alloc: CxxAllocator | None = None
        self._libc: LibC | None = None

    # ------------------------------------------------------------------
    # Guest entry point
    # ------------------------------------------------------------------

    def main(self, api, wire_messages: list[str]) -> ProxyResult:
        """Boot the proxy, serve ``wire_messages``, shut down."""
        config = self.config
        with api.frame("main", _SRC, 30):
            self._alloc = CxxAllocator(
                api,
                strategy=(
                    AllocStrategy.FORCE_NEW
                    if config.force_new_allocator
                    else AllocStrategy.POOL
                ),
                truth=self.truth,
                announce=config.announce_pool_reuse,
            )
            self._libc = LibC(truth=self.truth, bug_id="unsafe-localtime")
            self._classes = build_transaction_classes(
                TransactionContext(
                    allocator=self._alloc,
                    annotate=config.instrumented,
                    truth=self.truth,
                )
            )
            self._boot(api)
            self._spawn_latent(api)
            if config.mode == "thread-per-request":
                self._serve_thread_per_request(api, wire_messages)
            else:
                self._serve_thread_pool(api, wire_messages)
            self._join_latent(api)
            self._shutdown(api)
        return self.result

    # ------------------------------------------------------------------
    # Boot / shutdown
    # ------------------------------------------------------------------

    def _boot(self, api) -> None:
        config = self.config
        with api.frame("ServerBoot::run", _SRC, 50):
            self._table_lock = _AppMutex(api, "transaction-table", self)
            self._domain_lock = _AppMutex(api, "domain-data", self)
            self._registrar_lock = _AppMutex(api, "registrar", self)
            self._stats_lock = _AppMutex(api, "statistics", self)

            # --- statistics block -----------------------------------
            # Layout: [0..8] per-method counters, [9] total, [10] errors,
            # [11] flusher-enabled flag, [12] flush interval,
            # [13] shutdown flag, [14] destroyed sentinel.
            api.at(62)
            self._stats = api.malloc(15, tag="statistics")
            for i in range(15):
                api.store(self._stats + i, 0)  # the BSS zero-fill
            self._method_slot = {m: i for i, m in enumerate(METHODS)}
            if config.has_bug("shutdown-order") and self.truth is not None:
                # Claimed at boot so that the finer-grained counter and
                # config claims registered later take precedence on the
                # words they cover (the oracle resolves newest-first).
                self.truth.claim(
                    self._stats,
                    15,
                    WarningCategory.TRUE_RACE,
                    note="statistics destroyed before the flusher terminated",
                    bug_id="shutdown-order",
                )

            # --- init-order bug (§4.1.1) ----------------------------
            # Buggy: spawn the flusher *before* storing the real
            # configuration; fixed: configure first.
            def configure(at_line: int) -> None:
                api.at(at_line)
                api.store(self._stats + 11, 1)  # enabled
                api.store(self._stats + 12, 5)  # interval

            if config.has_bug("init-order"):
                if self.truth is not None:
                    self.truth.claim(
                        self._stats + 11,
                        2,
                        WarningCategory.TRUE_RACE,
                        note="flusher config written after the flusher started",
                        bug_id="init-order",
                    )
                self._flusher = api.spawn(self._flusher_main, name="stats-flusher")
                configure(74)
            else:
                configure(70)
                self._flusher = api.spawn(self._flusher_main, name="stats-flusher")

            # --- domain data (Figure 7's subject) --------------------
            api.at(80)
            self._domain_map = CxxMap(api, self._alloc)
            self._domain_objects: dict[str, CxxObject] = {}
            self._banner = CowString.create(
                api, "reliable-sip-proxy/1.0", self._alloc, truth=self.truth
            )
            for i, domain in enumerate(config.domains):
                api.at(82)
                name_str = CowString.create(api, domain, self._alloc, truth=self.truth)
                obj = new_object(
                    api,
                    _DOMAIN_DATA,
                    self._alloc,
                    init={
                        "name_rep": name_str.rep,
                        "max_calls": 100,
                        "active_calls": 0,
                        "policy": "allow",
                    },
                )
                self._domain_objects[domain] = obj
                self._domain_map.set(api, domain, obj)
            self._claim_domain_map(api)

            # --- registrar & transaction table ------------------------
            api.at(90)
            self._registrar = CxxMap(api, self._alloc)
            self._bindings: dict[str, CxxObject] = {}
            api.at(92)
            self._transactions = CxxMap(api, self._alloc)
            self._txn_objects: dict[str, CxxObject] = {}
            self._reaper = None
            if config.reaper_rounds > 0:
                self._reaper = api.spawn(self._reaper_main, name="txn-reaper")

    def _shutdown(self, api) -> None:
        config = self.config
        with api.frame("ServerShutdown::run", _SRC, 600):
            if self._reaper is not None:
                self._stop_reaper = True
                api.join(self._reaper)
                # Final deterministic expiry pass: every dialog still in
                # the table after the last request is abandoned by now.
                with api.frame("TransactionReaper::final", _SRC, 668):
                    self._sweep_transactions(api)
            # Final statistics snapshot *before* teardown (untraced
            # peek: host-side reporting, not guest behaviour).
            vm = api.vm
            self.result.stats = {
                method: vm.memory.peek(self._stats + slot) or 0
                for method, slot in self._method_slot.items()
            }
            self.result.stats["total"] = vm.memory.peek(self._stats + 9) or 0
            self.result.stats["errors"] = vm.memory.peek(self._stats + 10) or 0
            if config.has_bug("shutdown-order"):
                # §4.1.1: destroy the statistics while the flusher may
                # still be reading them, then join.  (The oracle claim
                # for this bug is registered at boot.)
                self._destroy_stats(api)
                self._signal_flusher_stop(api)
                api.join(self._flusher)
            else:
                self._signal_flusher_stop(api)
                api.join(self._flusher)
                self._destroy_stats(api)

    def _destroy_stats(self, api) -> None:
        """The 'destructor' of the statistics structure: it scribbles
        over the block (vptr-style) rather than VM-freeing it, so a
        late reader observes garbage instead of crashing the process —
        the non-deterministic failure mode the paper describes."""
        with api.frame("Statistics::~Statistics", _SRC, 620):
            for i in range(15):
                api.store(self._stats + i, "<destroyed>")

    def _signal_flusher_stop(self, api) -> None:
        self._stats_lock.lock(api)
        value = api.load(self._stats + 13)
        api.store(self._stats + 13, 1 if isinstance(value, int) else value)
        self._stats_lock.unlock(api)

    # ------------------------------------------------------------------
    # The statistics flusher thread
    # ------------------------------------------------------------------

    def _flusher_main(self, api) -> None:
        config = self.config
        with api.frame("StatsFlusher::run", _SRC, 130):
            for _ in range(config.flusher_rounds):
                api.at(133)
                enabled = api.load(self._stats + 11)  # the racy config read
                interval = api.load(self._stats + 12)
                if enabled == "<destroyed>" or interval == "<destroyed>":
                    self._record_failure("flusher read destroyed statistics")
                    return
                if enabled == 0:
                    # Saw the pre-initialisation value: the init-order
                    # fault manifesting under this schedule.
                    self._record_failure("flusher saw uninitialised config")
                api.at(140)
                self._stats_lock.lock(api)
                total = api.load(self._stats + 9)
                stop = api.load(self._stats + 13)
                self._stats_lock.unlock(api)
                if total == "<destroyed>":
                    self._record_failure("flusher read destroyed statistics")
                    return
                if stop == 1:
                    return
                api.sleep(max(1, interval if isinstance(interval, int) else 1))

    # ------------------------------------------------------------------
    # The transaction reaper (timeout sweeps)
    # ------------------------------------------------------------------

    def _reaper_main(self, api) -> None:
        """Periodically expire live transactions (RFC 3261 timers).

        Runs until shutdown raises the (host-side) stop flag, bounded by
        ``reaper_rounds`` sweeps per run as a budget backstop.
        """
        with api.frame("TransactionReaper::run", _SRC, 660):
            for _ in range(self.config.reaper_rounds):
                if self._stop_reaper:
                    return
                api.sleep(25)
                self._sweep_transactions(api)

    def _sweep_transactions(self, api) -> None:
        """One expiry sweep: snapshot under the lock (taking a reference
        on every live transaction), fire ``timeout`` on each, release —
        whoever drops the last reference of a newly-terminated
        transaction destroys it, like any handler."""
        api.at(663)
        self._table_lock.lock(api)
        snapshot = list(self._txn_objects.items())
        for _key, obj in snapshot:
            obj.set(api, "refs", obj.get(api, "refs") + 1)
        self._table_lock.unlock(api)
        for key, obj in snapshot:
            self._expire_one(api, key, obj)

    def _expire_one(self, api, key: str, obj) -> None:
        with api.frame("TransactionReaper::expire", _SRC, 672):
            invite = obj.cls.name == "InviteTransaction"
            new_state, status = self._step_state(
                api, obj, "timeout", invite=invite, line=675
            )
            if new_state is TransactionState.TERMINATED:
                if status:  # e.g. 408 Request Timeout for the lost caller
                    self._bump_stat(api, slot=10, site=677)
                    self._record_failure(f"transaction {key} expired ({status})")
                self._mark_zombie(api, key, obj, 679)
            self._release_transaction(api, obj, 681)

    # ------------------------------------------------------------------
    # Latent maintenance routines (the predictive tier's subjects)
    # ------------------------------------------------------------------
    #
    # Both routines pace themselves through *host-side* flags polled via
    # ``api.spin`` — the same trick ``_pace_dialog`` uses — so the
    # dangerous interleaving is out of reach of every schedule the VM
    # can pick, yet no happens-before edge exists that would let a live
    # detector excuse (or a predictive one miss) the fault.

    def _spawn_latent(self, api) -> None:
        config = self.config
        self._latent_threads = []
        self._latent_flags: dict[str, bool] = {}
        self._latent_probe = None
        if config.has_bug("latent-lock-order"):
            api.at(700)
            self._latent_threads.append(
                api.spawn(self._latent_audit_main, name="registrar-audit")
            )
            self._latent_threads.append(
                api.spawn(self._latent_refresh_main, name="domain-refresh")
            )
        if config.has_bug("latent-unguarded-write"):
            api.at(752)
            self._latent_probe = api.malloc(1, tag="latent.stats-probe")
            if self.truth is not None:
                self.truth.claim(
                    self._latent_probe,
                    1,
                    WarningCategory.TRUE_RACE,
                    note="probe word warmed up without the statistics lock",
                    bug_id="latent-unguarded-write",
                )
            self._latent_threads.append(
                api.spawn(self._latent_writer_main, name="probe-warmup")
            )
            self._latent_threads.append(
                api.spawn(self._latent_reader_main, name="probe-poll")
            )

    def _join_latent(self, api) -> None:
        for handle in self._latent_threads:
            api.join(handle)
        self._latent_threads = []

    def _latent_audit_main(self, api) -> None:
        """Maintenance audit: registrar -> domain (the hierarchy order)."""
        with api.frame("RegistrarAudit::run", _SRC, 710):
            self._registrar_lock.lock(api)
            api.at(712)
            self._domain_lock.lock(api)
            self._domain_lock.unlock(api)
            self._registrar_lock.unlock(api)
        # Host-side publication: the refresher is paced to run only
        # after the audit is done, so the inverted acquisition order
        # can never collide live.
        self._latent_flags["audit-done"] = True

    def _latent_refresh_main(self, api) -> None:
        """Domain refresh: takes the domain lock, then delegates the
        registrar sync to a helper thread *while still holding it* —
        the inversion's second half lives in the helper."""
        api.spin(lambda: self._latent_flags.get("audit-done"))
        with api.frame("DomainRefresh::run", _SRC, 720):
            self._domain_lock.lock(api)
            api.at(722)
            helper = api.spawn(self._latent_refresh_helper, name="refresh-helper")
            api.join(helper)
            self._domain_lock.unlock(api)

    def _latent_refresh_helper(self, api) -> None:
        """Runs under the parent's (inherited) domain lock: acquiring
        the registrar lock here completes the domain -> registrar edge
        in another thread, invisible to any per-thread lock graph."""
        with api.frame("DomainRefresh::syncRegistrar", _SRC, 730):
            self._registrar_lock.lock(api)
            self._registrar_lock.unlock(api)

    def _latent_writer_main(self, api) -> None:
        """Warm-up store without the statistics lock — the classic
        Eraser EXCLUSIVE-state blind spot: the word's first toucher."""
        with api.frame("StatsProbe::warmup", _SRC, 760):
            api.at(762)
            api.store(self._latent_probe, 1)
        self._latent_flags["probe-ready"] = True

    def _latent_reader_main(self, api) -> None:
        """Disciplined reader: polls the probe under the statistics
        lock, paced (host-side) to run only after the warm-up."""
        api.spin(lambda: self._latent_flags.get("probe-ready"))
        with api.frame("StatsProbe::poll", _SRC, 770):
            self._stats_lock.lock(api)
            api.at(772)
            api.load(self._latent_probe)
            self._stats_lock.unlock(api)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _serve_thread_per_request(self, api, wire_messages: list[str]) -> None:
        """§3.3's pattern: one worker thread per incoming request.

        Messages of the same dialog are paced the way SIPp paces them:
        the next request is not sent until the previous one of that
        Call-ID has been answered.  The wait is a host-level poll (no
        guest events), so it orders the workers *in time* without
        creating any happens-before edge a detector could see — the
        protocol-level ordering of §4.4 that the lock-set algorithm is
        blind to.
        """
        active: list = []
        with api.frame("AcceptLoop::run", _SRC, 150):
            for seq, wire in enumerate(wire_messages):
                self._pace_dialog(api, wire)
                api.at(153)
                worker = api.spawn(self._worker_main, wire, seq, name=f"req-{seq}")
                active.append(worker)
                if len(active) >= self.config.max_threads:
                    # The paper: exceeding the maximum number of threads
                    # would make the application fail; we shed load by
                    # joining the oldest worker.
                    api.join(active.pop(0))
            for worker in active:
                api.join(worker)

    def _pace_dialog(self, api, wire: str) -> None:
        """Wait until the dialog's previous message has been processed."""
        try:
            call_id = parse_message(wire).call_id
        except SipParseError:
            return
        already_sent = self._sent.get(call_id, 0)
        if already_sent:
            api.spin(lambda: self._processed.get(call_id, 0) >= already_sent)
        self._sent[call_id] = already_sent + 1

    def _serve_thread_pool(self, api, wire_messages: list[str]) -> None:
        """§4.2.3's pattern: a fixed pool consuming a job queue.

        Each job is a guest-memory buffer the acceptor fills and the
        worker drains — the Figure 11 hand-off the lock-set algorithm
        cannot see."""
        config = self.config
        queue = api.queue(name="job-queue")
        workers = [
            api.spawn(self._pool_worker, queue, name=f"pool-{i}")
            for i in range(config.pool_size)
        ]
        with api.frame("AcceptLoop::run", _SRC, 170):
            for seq, wire in enumerate(wire_messages):
                self._pace_dialog(api, wire)
                api.at(173)
                job = api.malloc(2, tag="job")
                api.store(job, wire)
                api.store(job + 1, seq)
                if self.truth is not None:
                    self.truth.claim(
                        job,
                        2,
                        WarningCategory.FP_OWNERSHIP,
                        note="job buffer handed to the pool through the queue",
                    )
                api.put(queue, job)
            for _ in workers:
                api.put(queue, None)
            for worker in workers:
                api.join(worker)

    def _pool_worker(self, api, queue) -> None:
        with api.frame("PoolWorker::run", _SRC, 185):
            while True:
                job = api.get(queue)
                if job is None:
                    return
                api.at(189)
                wire = api.load(job)
                seq = api.load(job + 1)
                api.store(job + 1, -1)  # mark the job claimed/in-progress
                self._handle_wire(api, wire, seq)
                self._alloc_free_job(api, job)

    def _alloc_free_job(self, api, job: int) -> None:
        api.at(195)
        api.free(job)

    def _worker_main(self, api, wire: str, seq: int) -> None:
        with api.frame("RequestWorker::run", _SRC, 160):
            self._handle_wire(api, wire, seq)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _handle_wire(self, api, wire: str, seq: int) -> None:
        try:
            message = parse_message(wire)
        except SipParseError as exc:
            self.result.parse_errors.append(str(exc))
            self._bump_stat(api, slot=10, site=205)
            return
        try:
            if not message.is_request:
                return  # a proxy forwards responses; out of scope here
            handler = self._handlers().get(message.method)
            if handler is None:
                self._send(api, SipMessage.response_to(message, 405), site=208)
                self._bump_stat(api, slot=10, site=209)
                return
            if message.max_forwards <= 0:
                self._send(api, SipMessage.response_to(message, 483), site=212)
                return
            self._log_request(api, message, seq)
            self._check_domain(api, message)
            handler(api, message)
            self._bump_method_stat(api, message.method)
            self.result.handled += 1
        finally:
            # Host-side completion marker for the accept loop's pacing.
            self._processed[message.call_id] = (
                self._processed.get(message.call_id, 0) + 1
            )

    def _handlers(self):
        return {
            "INVITE": self._handle_invite,
            "ACK": self._handle_ack,
            "BYE": self._handle_bye,
            "CANCEL": self._handle_cancel,
            "REGISTER": self._handle_register,
            "OPTIONS": self._handle_options,
            "SUBSCRIBE": self._handle_subscribe,
            "NOTIFY": self._handle_notify,
            "INFO": self._handle_info,
        }

    # -- common services -------------------------------------------------

    def _log_request(self, api, message: SipMessage, seq: int) -> None:
        """Timestamped request logging — §4.1.3's unsafe localtime."""
        line = 105  # one logging helper in the source
        with api.frame("RequestLog::stamp", _SRC, line):
            if self.config.has_bug("unsafe-localtime"):
                buf = self._libc.localtime(api, 1_100_000_000 + seq)
                api.load(buf + 2)  # hour, for the log line
            else:
                buf = api.malloc(6, tag="tm.local")
                self._libc.localtime_r(api, 1_100_000_000 + seq, buf)
                api.load(buf + 2)
                api.free(buf)

    def _check_domain(self, api, message: SipMessage) -> None:
        """Consult the domain-data service — Figure 7's subject."""
        line = 110  # one policy-check helper in the source
        with api.frame("DomainPolicy::check", _SRC, line):
            domain = message.domain
            if self.config.has_bug("return-reference"):
                # getDomainData(): lock, return the *reference*, unlock.
                domain_map = self._get_domain_data_buggy(api)
                # ... and the caller now uses the map unprotected:
                obj = domain_map.get(api, domain)
                if obj is not None:
                    self._touch_domain(api, obj, line)
                self._claim_domain_map(api)
            else:
                self._domain_lock.lock(api)
                obj = self._domain_map.get(api, domain)
                if obj is not None:
                    self._touch_domain(api, obj, line)
                self._domain_lock.unlock(api)

    def _get_domain_data_buggy(self, api) -> CxxMap:
        """Figure 7, verbatim: the guard is taken and dropped, the
        protected structure escapes by reference."""
        with api.frame("ServerModulesManagerImpl::getDomainData", _SRC, 590):
            self._domain_lock.lock(api)  # MutexPtr mut(m_pMutex); // Guard
            self._domain_lock.unlock(api)
            return self._domain_map  # return m_DomainData;

    def _touch_domain(self, api, obj: CxxObject, line: int) -> None:
        api.at(line)
        name = CowString.from_rep(obj.get(api, "name_rep"), self._alloc, self.truth)
        copy = name.copy(api)  # shared-rep copy: the Figure 8 pattern
        copy.dispose(api)
        active = obj.get(api, "active_calls")
        obj.set(api, "active_calls", active + 1 if isinstance(active, int) else 1)

    def _claim_domain_map(self, api) -> None:
        """Oracle: under the return-reference bug, warnings inside the
        domain map's storage are the Figure 7 true positive."""
        if self.truth is None or not self.config.has_bug("return-reference"):
            return
        buf, cap = self._domain_map.storage_peek(api.vm)
        if cap:
            self.truth.claim(
                buf,
                cap,
                WarningCategory.TRUE_RACE,
                note="domain-data map used through an escaped reference (Fig 7)",
                bug_id="return-reference",
            )
        for obj in self._domain_objects.values():
            self.truth.claim(
                obj.addr,
                obj.cls.size,
                WarningCategory.TRUE_RACE,
                note="DomainData object reached through the escaped map",
                bug_id="return-reference",
            )

    def _bump_method_stat(self, api, method: str) -> None:
        # Each handler's source has its own counter-bump statement (the
        # per-method line); the grand total is bumped by one shared line.
        slot = self._method_slot.get(method, 10)
        self._bump_stat(api, slot=slot, site=_HANDLER_LINES.get(method, 560) + 3)
        self._bump_stat(api, slot=9, site=701)  # total

    def _bump_stat(self, api, *, slot: int, site: int) -> None:
        """Statistics increment — unlocked under the §4.1 stats bug."""
        with api.frame("Statistics::bump", _SRC, site):
            addr = self._stats + slot
            if self.config.has_bug("unlocked-stats"):
                if self.truth is not None and not getattr(self, "_stats_claimed", False):
                    self.truth.claim(
                        self._stats,
                        11,
                        WarningCategory.TRUE_RACE,
                        note="statistics counters incremented without the lock",
                        bug_id="unlocked-stats",
                    )
                    self._stats_claimed = True
                value = api.load(addr)
                api.store(addr, value + 1 if isinstance(value, int) else 1)
            else:
                self._stats_lock.lock(api)
                value = api.load(addr)
                api.store(addr, value + 1 if isinstance(value, int) else 1)
                self._stats_lock.unlock(api)

    def _send(self, api, response: SipMessage, *, site: int) -> None:
        """Serialise and 'transmit' a response (collects it host-side).

        Builds the Server header by copying the shared banner string —
        one Figure 8 string copy per response, at a per-handler site.
        """
        with api.frame("Transport::send", _SRC, 640):
            api.at(640)  # one transmit routine; `site` names the caller
            banner_copy = self._banner.copy(api)
            banner_copy.dispose(api)
            stamped = response.with_header("Server", "reliable-sip-proxy/1.0")
            serialize_message(stamped)
            self.result.responses.append(stamped)

    # -- transaction-table plumbing ----------------------------------------
    #
    # Lifetime protocol: finders take a reference under the table lock;
    # the terminating handler marks the object zombie; whoever drops the
    # last reference destroys the object *outside* the lock.  Destroying
    # outside the lock while unjoined peer workers are still running is
    # realistic — and exactly what produces the §4.2.1 destructor
    # warnings when the build is not instrumented.

    def _find_transaction(self, api, key: str, line: int) -> CxxObject | None:
        """Look the key up and take a reference (release when done)."""
        with api.frame("TransactionTable::find", _SRC, line):
            self._table_lock.lock(api)
            obj = self._transactions.get(api, key)
            if obj is not None:
                obj.set(api, "refs", obj.get(api, "refs") + 1)
            self._table_lock.unlock(api)
            if obj is not None:
                obj.vcall(api, "describe")  # virtual call: vptr read
            return obj

    def _insert_transaction(self, api, key: str, obj: CxxObject, line: int) -> None:
        """Publish a fresh transaction (creator already holds refs=1)."""
        with api.frame("TransactionTable::insert", _SRC, line):
            self._table_lock.lock(api)
            self._transactions.set(api, key, obj)
            self._txn_objects[key] = obj
            self._table_lock.unlock(api)

    def _mark_zombie(self, api, key: str, obj: CxxObject, line: int) -> None:
        """Unpublish: future finds miss; destruction waits for releases."""
        with api.frame("TransactionTable::erase", _SRC, line):
            self._table_lock.lock(api)
            self._txn_objects.pop(key, None)
            self._transactions.set(api, key, None)
            obj.set(api, "zombie", 1)
            self._table_lock.unlock(api)

    def _release_transaction(self, api, obj: CxxObject, line: int) -> None:
        """Drop one reference; the last holder of a zombie destroys it."""
        with api.frame("TransactionTable::release", _SRC, line):
            self._table_lock.lock(api)
            refs = obj.get(api, "refs") - 1
            obj.set(api, "refs", refs)
            must_delete = refs == 0 and obj.get(api, "zombie") == 1
            self._table_lock.unlock(api)
        if must_delete:
            with api.frame("TransactionTable::destroy", _SRC, line + 2):
                delete_object(
                    api,
                    obj,
                    self._alloc,
                    annotate=self.config.instrumented,
                    truth=self.truth,
                )

    def _new_transaction(self, api, message: SipMessage, line: int) -> CxxObject:
        """Build the transaction and its owned parts (headers, dialog
        state, body) — the object tree the destructor later cascades
        through."""
        with api.frame("TransactionFactory::create", _SRC, line):
            cls = transaction_class_for(message.method, self._classes)
            key_str = CowString.create(
                api, message.transaction_key, self._alloc, truth=self.truth
            )
            number, _ = message.cseq
            api.at(line + 1)
            hdr_table = new_object(
                api,
                HEADER_TABLE,
                self._alloc,
                init={
                    "count": 3,
                    "via": message.header("Via") or "",
                    "callid": message.call_id,
                    "cseq_hdr": message.header("CSeq") or "",
                },
            )
            api.at(line + 2)
            via_list = new_object(
                api,
                VIA_LIST,
                self._alloc,
                init={"count": 1, "top_via": message.header("Via") or ""},
            )
            api.at(line + 3)
            contact_list = new_object(
                api,
                CONTACT_LIST,
                self._alloc,
                init={"count": 1, "primary": message.header("Contact") or ""},
            )
            api.at(line + 4)
            dlg_state = new_object(
                api,
                DIALOG_STATE,
                self._alloc,
                init={"phase": "early", "route": message.request_uri, "remote_tag": ""},
            )
            api.at(line + 5)
            body_obj = new_object(
                api,
                SDP_BODY,
                self._alloc,
                init={"length": len(message.body), "media": message.body},
            )
            api.at(line + 6)
            auth_state = new_object(
                api,
                AUTH_STATE,
                self._alloc,
                init={"realm": message.domain, "nonce": 0},
            )
            api.at(line + 7)
            obj = new_object(
                api,
                cls,
                self._alloc,
                init={
                    "key": key_str.rep,
                    "state": TransactionState.TRYING.value,
                    "cseq": number,
                    "events": 0,
                    "branch": message.header("Via") or "",
                    "refs": 1,  # the creator's reference
                    "zombie": 0,
                    "hdr_table": hdr_table,
                    "via_list": via_list,
                    "contact_list": contact_list,
                    "dlg_state": dlg_state,
                    "body_obj": body_obj,
                    "auth_state": auth_state,
                },
            )
            return obj

    def _step_state(self, api, obj: CxxObject, event: str, *, invite: bool, line: int):
        """Drive the FSM stored in the guest object.

        Transaction state is table-lock-protected (the proxy's real
        locking discipline — "synchronization is already done by
        locks", §3.3), so the only warnings transactions produce are
        the deliberate header/destructor and string-refcount patterns.
        """
        api.at(line)
        self._table_lock.lock(api)
        try:
            state = TransactionState(obj.get(api, "state"))
            machine = invite_event if invite else non_invite_event
            try:
                new_state, status = machine(state, event)
            except TransactionError:
                return state, None  # protocol violation: ignore, stay put
            obj.set(api, "state", new_state.value)
            obj.set(api, "events", obj.get(api, "events") + 1)
            return new_state, status
        finally:
            self._table_lock.unlock(api)

    # ------------------------------------------------------------------
    # Method handlers (one distinct code site per SIP method)
    # ------------------------------------------------------------------

    def _handle_invite(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["INVITE"]
        with api.frame("InviteHandler::process", _SRC, base):
            key = message.transaction_key
            obj = self._find_transaction(api, key, base + 5)
            if obj is not None:
                # Retransmission of an in-flight INVITE.
                _, status = self._step_state(
                    api, obj, "retransmit", invite=True, line=base + 8
                )
                if status:
                    self._send(api, SipMessage.response_to(message, status), site=base + 9)
                self._release_transaction(api, obj, base + 30)
                return
            self._lookup_callee(api, message, base + 10)
            obj = self._new_transaction(api, message, base + 12)
            obj.set(api, "sdp", message.body)
            obj.set(api, "ringing", 0)
            self._insert_transaction(api, key, obj, base + 14)
            _, status = self._step_state(api, obj, "invite", invite=True, line=base + 16)
            if status:
                self._send(api, SipMessage.response_to(message, status), site=base + 17)
            # Callee "rings" then answers: provisional + final.
            _, status = self._step_state(
                api, obj, "provisional", invite=True, line=base + 20
            )
            if status:
                self._table_lock.lock(api)
                obj.set(api, "ringing", 1)
                self._table_lock.unlock(api)
                self._send(api, SipMessage.response_to(message, status), site=base + 21)
            _, status = self._step_state(api, obj, "final", invite=True, line=base + 24)
            if status:
                self._send(api, SipMessage.response_to(message, status), site=base + 25)
            self._release_transaction(api, obj, base + 32)

    def _lookup_callee(self, api, message: SipMessage, line: int) -> None:
        """Location-service lookup: read the callee's registration.

        Reads the shared binding through a virtual call (vptr read) and
        copies its contact string — the accesses that later make the
        re-registration delete in :meth:`_handle_register` a §4.2.1
        warning site and the contact copy a Figure 8 site.
        """
        with api.frame("LocationService::lookup", _SRC, line):
            self._registrar_lock.lock(api)
            binding = self._registrar.get(api, message.to_uri)
            if binding is not None:
                binding.set(api, "refs", binding.get(api, "refs") + 1)
            self._registrar_lock.unlock(api)
            if binding is None:
                return
            binding.vcall(api, "touch")
            contact = CowString.from_rep(
                binding.get(api, "contact"), self._alloc, self.truth
            )
            copy = contact.copy(api)
            copy.dispose(api)
            self._release_binding(api, binding, line + 4)

    def _release_binding(self, api, binding: CxxObject, line: int) -> None:
        """Registrar analogue of :meth:`_release_transaction`."""
        with api.frame("LocationService::release", _SRC, line):
            self._registrar_lock.lock(api)
            refs = binding.get(api, "refs") - 1
            binding.set(api, "refs", refs)
            must_delete = refs == 0 and binding.get(api, "zombie") == 1
            self._registrar_lock.unlock(api)
        if must_delete:
            with api.frame("Registrar::expire", _SRC, line + 2):
                delete_object(
                    api,
                    binding,
                    self._alloc,
                    annotate=self.config.instrumented,
                    truth=self.truth,
                )

    def _handle_ack(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["ACK"]
        with api.frame("AckHandler::process", _SRC, base):
            obj = self._find_transaction(api, message.transaction_key, base + 4)
            if obj is None:
                return  # stray ACK: absorbed silently (RFC behaviour)
            self._step_state(api, obj, "ack", invite=True, line=base + 7)
            self._release_transaction(api, obj, base + 9)

    def _handle_bye(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["BYE"]
        with api.frame("ByeHandler::process", _SRC, base):
            invite_key = f"{message.call_id}/INVITE"
            dialog = self._find_transaction(api, invite_key, base + 4)
            if dialog is None:
                self._send(api, SipMessage.response_to(message, 481), site=base + 6)
                return
            # Copy the stored dialog key string (shared rep!) into the
            # log line — the Figure 8 cross-thread string copy.
            api.at(base + 8)
            key_string = CowString.from_rep(
                dialog.get(api, "key"), self._alloc, self.truth
            )
            copy = key_string.copy(api)
            copy.dispose(api)
            self._step_state(api, dialog, "bye", invite=True, line=base + 10)
            self._send(api, SipMessage.response_to(message, 200), site=base + 12)
            # Dialog over: tear the INVITE transaction down.
            self._mark_zombie(api, invite_key, dialog, base + 14)
            self._release_transaction(api, dialog, base + 16)

    def _handle_cancel(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["CANCEL"]
        with api.frame("CancelHandler::process", _SRC, base):
            key = message.transaction_key
            obj = self._find_transaction(api, key, base + 4)
            if obj is None:
                self._send(api, SipMessage.response_to(message, 481), site=base + 6)
                return
            _, status = self._step_state(api, obj, "cancel", invite=True, line=base + 8)
            self._send(api, SipMessage.response_to(message, 200), site=base + 10)
            if status:
                self._send(api, SipMessage.response_to(message, status), site=base + 11)
            self._mark_zombie(api, key, obj, base + 13)
            self._release_transaction(api, obj, base + 15)

    def _handle_register(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["REGISTER"]
        with api.frame("Registrar::process", _SRC, base):
            user = message.from_uri
            contact = message.header("Contact") or message.from_uri
            api.at(base + 4)
            contact_str = CowString.create(api, contact, self._alloc, truth=self.truth)
            binding = new_object(
                api,
                self._classes["binding"],
                self._alloc,
                init={
                    "user": user,
                    "aor": message.to_uri,
                    "contact": contact_str.rep,
                    "expires": 3600,
                    "refs": 0,
                    "zombie": 0,
                },
            )
            self._registrar_lock.lock(api)
            self._registrar.set(api, user, binding)
            old = self._bindings.get(user)
            self._bindings[user] = binding
            delete_old = False
            if old is not None:
                old.set(api, "zombie", 1)
                delete_old = old.get(api, "refs") == 0
            self._registrar_lock.unlock(api)
            if delete_old:
                # Re-registration: delete the superseded binding outside
                # the lock — another §4.2.1 destructor site.
                with api.frame("Registrar::expire", _SRC, base + 10):
                    delete_object(
                        api,
                        old,
                        self._alloc,
                        annotate=self.config.instrumented,
                        truth=self.truth,
                    )
            self._send(api, SipMessage.response_to(message, 200), site=base + 14)

    def _handle_options(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["OPTIONS"]
        with api.frame("OptionsHandler::process", _SRC, base):
            api.at(base + 4)
            allowed = ", ".join(METHODS)
            response = SipMessage.response_to(message, 200).with_header("Allow", allowed)
            self._send(api, response, site=base + 6)

    def _handle_subscribe(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["SUBSCRIBE"]
        with api.frame("SubscribeHandler::process", _SRC, base):
            key = message.transaction_key
            obj = self._find_transaction(api, key, base + 4)
            if obj is None:
                obj = self._new_transaction(api, message, base + 6)
                self._insert_transaction(api, key, obj, base + 8)
                self._step_state(api, obj, "request", invite=False, line=base + 10)
            _, status = self._step_state(api, obj, "final", invite=False, line=base + 12)
            self._send(api, SipMessage.response_to(message, 202), site=base + 14)
            self._release_transaction(api, obj, base + 16)

    def _handle_notify(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["NOTIFY"]
        with api.frame("NotifyHandler::process", _SRC, base):
            sub_key = f"{message.call_id}/SUBSCRIBE"
            obj = self._find_transaction(api, sub_key, base + 4)
            if obj is None:
                self._send(api, SipMessage.response_to(message, 481), site=base + 6)
                return
            self._send(api, SipMessage.response_to(message, 200), site=base + 8)
            self._mark_zombie(api, sub_key, obj, base + 10)
            self._release_transaction(api, obj, base + 12)

    def _handle_info(self, api, message: SipMessage) -> None:
        base = _HANDLER_LINES["INFO"]
        with api.frame("InfoHandler::process", _SRC, base):
            obj = self._find_transaction(
                api, f"{message.call_id}/INVITE", base + 4
            )
            status = 200 if obj is not None else 481
            self._send(api, SipMessage.response_to(message, status), site=base + 6)
            if obj is not None:
                self._release_transaction(api, obj, base + 8)

    # ------------------------------------------------------------------

    def _record_failure(self, text: str) -> None:
        self.result.failures.append(text)


# The domain-data record (Figure 7's m_DomainData values).
from repro.cxx.object_model import CxxClass as _CxxClass  # noqa: E402

_DOMAIN_DATA = _CxxClass(
    name="DomainData",
    base=_CxxClass(name="ConfigRecord", fields=("policy",), file="domain.cpp", line=10),
    fields=("name_rep", "max_calls", "active_calls"),
    file="domain.cpp",
    line=42,
)
