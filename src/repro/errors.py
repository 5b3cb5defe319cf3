"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting genuine programming errors (``TypeError`` etc.) propagate.

The hierarchy is intentionally shallow and mirrors the package layout:

* :class:`ReproError` — root.

  * :class:`VMError` — faults raised by the cooperative virtual machine
    (:mod:`repro.runtime.vm`): guest crashes, scheduling faults, step-limit
    exhaustion.

    * :class:`GuestFault` — the guest program performed an illegal
      operation (wild address, double free, unlocking a lock it does not
      hold, ...).  This models a SIGSEGV/abort of the simulated binary.
    * :class:`DeadlockError` — no guest thread is runnable but some are
      blocked; the simulated process is wedged.  Raised by the VM itself,
      independent of the (advisory) deadlock *detector* in
      :mod:`repro.detectors.deadlock`.
    * :class:`StepLimitExceeded` — the run hit its configured step budget;
      usually indicates a livelock in the guest program or a test with a
      too-small budget.

  * :class:`InstrumentError` — faults of the MiniCxx front-end
    (:mod:`repro.instrument`).

    * :class:`LexError` / :class:`ParseError` — source-level syntax
      problems, carrying ``line``/``column`` positions.
    * :class:`CompileError` — semantic problems found while lowering the
      AST to an executable guest program.

  * :class:`SuppressionSyntaxError` — malformed suppression file
    (:mod:`repro.detectors.suppressions`).
  * :class:`SipParseError` — malformed SIP message on the simulated wire
    (:mod:`repro.sip.parser`).
  * :class:`WorkloadError` — invalid experiment / workload configuration.
  * :class:`ServiceError` — the analysis service answered a client with
    an ERROR frame, or hung up mid-call (:mod:`repro.service.client`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "VMError",
    "GuestFault",
    "DeadlockError",
    "StepLimitExceeded",
    "InstrumentError",
    "LexError",
    "ParseError",
    "CompileError",
    "SuppressionSyntaxError",
    "SipParseError",
    "WorkloadError",
    "ServiceError",
]


class ReproError(Exception):
    """Root of the library's exception hierarchy."""


class VMError(ReproError):
    """A fault raised by the cooperative virtual machine."""


class GuestFault(VMError):
    """The guest program performed an illegal operation.

    This is the moral equivalent of the simulated binary receiving
    SIGSEGV or calling ``abort()``: a wild load/store, a double free, an
    unlock of a mutex the thread does not hold, and so on.  The offending
    thread and a human-readable reason are attached.
    """

    def __init__(self, reason: str, *, tid: int | None = None) -> None:
        self.reason = reason
        self.tid = tid
        where = f" (thread {tid})" if tid is not None else ""
        super().__init__(f"guest fault{where}: {reason}")


class DeadlockError(VMError):
    """The simulated process is wedged: threads blocked, none runnable.

    The VM raises this when it can prove no further progress is possible.
    ``blocked`` lists the thread ids that were blocked at the time along
    with a short description of what each was waiting for.
    """

    def __init__(self, blocked: list[tuple[int, str]]) -> None:
        self.blocked = list(blocked)
        detail = ", ".join(f"t{tid} waiting on {what}" for tid, what in self.blocked)
        super().__init__(f"deadlock: no runnable thread ({detail})")


class StepLimitExceeded(VMError):
    """The run exhausted its step budget before all threads finished."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        super().__init__(f"VM step limit of {limit} exceeded (livelock or budget too small)")


class InstrumentError(ReproError):
    """A fault of the MiniCxx instrumentation front-end."""


class _Positioned(InstrumentError):
    """Shared implementation for errors that carry a source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class LexError(_Positioned):
    """The MiniCxx lexer hit an unrecognisable character sequence."""


class ParseError(_Positioned):
    """The MiniCxx parser could not derive the input."""


class CompileError(InstrumentError):
    """Semantic error while lowering a MiniCxx AST to a guest program."""


class SuppressionSyntaxError(ReproError):
    """A suppression file could not be parsed."""


class SipParseError(ReproError):
    """A SIP message on the simulated wire was malformed."""


class WorkloadError(ReproError):
    """An experiment or workload was configured inconsistently."""


class ServiceError(ReproError):
    """The server replied with an ERROR frame (or hung up mid-call)."""
