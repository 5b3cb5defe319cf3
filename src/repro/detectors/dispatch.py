"""Per-event-type handler dispatch — the detectors' fast-path ABI.

The original detector ABI is a single ``handle(event, vm)`` method that
every event is pushed through; each detector then runs an ``isinstance``
cascade (~15 branches in :class:`~repro.detectors.helgrind
.HelgrindDetector`) to find the code that cares.  With millions of
events per run (§4.5 measures a 20-30× slowdown under analysis) those
branches *are* the hot path.

The dispatch-table ABI replaces the cascade with registration:

* A detector subclasses :class:`EventDispatcher` and marks its handler
  methods with :func:`handles`::

      class MyDetector(EventDispatcher):
          @handles(MemoryAccess)
          def _on_access(self, event, vm): ...

          @handles(LockAcquire, LockRelease)
          def _on_lock(self, event, vm): ...

* The VM asks each registered hook ``handler_for(event_type)`` the
  first time it emits an event of that type and caches the resulting
  tuple of bound methods (:meth:`repro.runtime.vm.VM._build_routes`).
  A ``None`` answer means *this detector never wants this event type*
  — the VM skips it entirely, so e.g. a pure lock-order detector costs
  nothing on the memory-access fire-hose.

* ``handle(event, vm)`` is still provided (routed through the same
  table) for feeding a detector by hand; hooks that only define
  ``handle`` (e.g. :class:`~repro.runtime.trace.TraceRecorder`) are
  subscribed to every event type, preserving the original ABI.

Event types are *final* (every event is a direct, ``frozen`` subclass
of :class:`~repro.runtime.events.Event`), so exact-type routing on
``type(event)`` is equivalent to the ``isinstance`` chains it replaces.

Detectors whose interest depends on run-time configuration (e.g.
Helgrind's ``queue_hb`` switch) or that wrap inner engines (hybrid,
RaceTrack, Atomizer) override :meth:`EventDispatcher.handler_for`;
:func:`combine_handlers` builds the fan-out closures they need.
"""

from __future__ import annotations

from typing import Callable, ClassVar

__all__ = ["handles", "EventDispatcher", "combine_handlers"]

#: Signature of a bound event handler: ``fn(event, vm) -> None``.
Handler = Callable[[object, object], None]


def handles(*event_types: type):
    """Mark a method as the handler for the given event types.

    Stacking and multi-type registration are both supported; the
    containing class must inherit :class:`EventDispatcher` for the
    registration to take effect.
    """

    def decorate(fn):
        registered = getattr(fn, "_handles_event_types", ())
        fn._handles_event_types = registered + tuple(event_types)
        return fn

    return decorate


def combine_handlers(*handlers: Handler | None) -> Handler | None:
    """Compose handlers into one ``fn(event, vm)`` (``None``s dropped).

    Used by composite detectors to chain their own bookkeeping with an
    inner engine's handler for the same event type.  Returns ``None``
    when nothing is interested (the VM then skips the type), the single
    handler unwrapped when only one is (no indirection on the hot
    path), or a fan-out closure otherwise.
    """
    fns = tuple(fn for fn in handlers if fn is not None)
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0]

    def fanout(event, vm, _fns=fns) -> None:
        for fn in _fns:
            fn(event, vm)

    return fanout


class EventDispatcher:
    """Mixin implementing the dispatch-table detector ABI.

    Subclasses register handlers with :func:`handles`; the mixin derives
    a per-*class* ``{event type: method name}`` table (inherited
    handlers included, subclass overrides win) and exposes it through
    :meth:`handler_for` / :meth:`handle`.
    """

    #: event type -> method name, computed per class at definition time.
    _DISPATCH_NAMES: ClassVar[dict[type, str]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table: dict[type, str] = {}
        for base in reversed(cls.__mro__):
            for name, member in vars(base).items():
                for etype in getattr(member, "_handles_event_types", ()):
                    table[etype] = name
        cls._DISPATCH_NAMES = table

    def handler_for(self, event_type: type) -> Handler | None:
        """The bound handler for ``event_type`` (``None`` = not interested).

        The VM calls this once per event type per run and caches the
        answer, so overriding it (for config-dependent subscriptions or
        inner-engine composition) adds no per-event cost.
        """
        name = self._DISPATCH_NAMES.get(event_type)
        if name is None:
            return None
        return getattr(self, name)

    def handle(self, event, vm) -> None:
        """Legacy single-entry ABI, routed through the dispatch table.

        Kept for feeding detectors by hand (tests).  The VM, trace
        replay and sessions resolve :meth:`handler_for` once per event
        type instead, so no detector caches a route: a composite's
        fan-out closures never end up in its pickled state.
        """
        fn = self.handler_for(event.__class__)
        if fn is not None:
            fn(event, vm)

    def finalize(self) -> None:
        """End-of-stream hook, idempotent.

        The on-the-fly detectors are complete after their last event,
        so this is a no-op; the predictive tier
        (:class:`repro.detectors.predict.PredictiveDetector`) overrides
        it to run its offline post-pass and emit predicted findings.
        Callers that may hold any detector (the CLI, the harness, the
        service, sharded replay) call it unconditionally once the
        event stream is known to be finished.
        """
