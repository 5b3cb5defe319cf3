"""The Eraser candidate-lock-set algorithm with the Figure 1 state machine.

This module implements the per-word shadow state of the paper's §2.3.2:

* The raw Eraser rule — ``C(v) := C(v) ∩ locks_held(t)``, warn on empty —
  refined with read/write lock modes (reads check locks held in *any*
  mode, writes check locks held in *write* mode),
* the Figure 1 state machine (NEW → EXCLUSIVE → SHARED / SHARED-MODIFIED)
  that forgives single-owner initialisation and read-only sharing, and
* the VisualThreads thread-segment transfer rule (§2.3.2 "Thread
  Segments"): EXCLUSIVE data touched by a *later* (happens-after)
  segment changes owner instead of going shared.

Both refinements are individually switchable so experiment E10 can
ablate them (``use_states`` / ``segment_transfer``).

The class is policy-free about what "locks are held" means: callers pass
the effective lock-sets per access, which is where the paper's hardware
bus-lock modelling (HWLC) plugs in — see
:class:`repro.detectors.helgrind.HelgrindDetector`.

Shadow-memory representation
----------------------------
Valgrind keeps shadow state in a two-level map: an address's high bits
select a *SecMap* page, the low bits an entry inside it, and untouched
pages all alias one distinguished read-only page so idle address space
costs nothing.  This module does the same in Python terms:

* :class:`LocksetMachine` stores shadow words in ``_pages``, a dict from
  page index (``addr >> _PAGE_BITS``) to a flat ``list`` of
  :data:`_PAGE_SIZE` **packed ints**.  A missing page *is* the
  distinguished all-NEW page; the first store to it copies a zero page
  in (copy-on-write, counted in ``page_copies``).
* Each shadow word is one int packing ``(state, lockset_id, owner)``:
  state code in bits 0–2, ``lockset_id + 1`` in bits 3–30 (28 bits,
  guarded in :meth:`LocksetTable.id_of`), ``owner + 1`` from bit 31 up
  (owner ids are unbounded segment ids; Python's long ints absorb
  them).  ``packed == 0`` ⇔ a pristine NEW word, so zero pages encode
  "never touched" exactly.
* State transitions are integer arithmetic — mask, or, shift — instead
  of attribute mutation on per-word heap objects, and whole-block
  transitions (:meth:`on_alloc` / :meth:`on_free` /
  :meth:`make_exclusive`, the paper's §3.1 ``VALGRIND_HG_DESTRUCT``
  reset) run in O(pages): full pages are dropped or filled wholesale,
  only the two boundary pages are edited word-by-word.

:class:`ShadowWord` survives as a *view* object for off-hot-path
callers (reports, the hybrid detector's un-latching, tests): it reads
and writes the packed word behind familiar ``.state`` / ``.lockset``
attributes.
"""

from __future__ import annotations

import enum

from repro.detectors.segments import SegmentGraph

__all__ = [
    "WordState",
    "ShadowWord",
    "LocksetMachine",
    "LocksetOutcome",
    "LocksetTable",
    "LOCKSETS",
    "EMPTY_ID",
    "NO_LOCKSET",
    "PAGE_SIZE",
]


class WordState(enum.Enum):
    """Figure 1's states for one shadow word."""

    NEW = "new"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"            # read-only sharing ("shared RO")
    SHARED_MODIFIED = "shared-modified"
    #: A race was already reported here; stop tracking to avoid
    #: cascading duplicate reports (Helgrind does the same).
    RACY = "racy"


# ----------------------------------------------------------------------
# Packed shadow-word layout (see module docstring)
# ----------------------------------------------------------------------

#: Page size in words; 2**10 matches Valgrind's order of magnitude for
#: SecMap granularity while keeping a copied page (a 1024-slot list of
#: small ints) cheap to materialise.
_PAGE_BITS = 10
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1
#: Public alias (docs, tests, benchmarks).
PAGE_SIZE = _PAGE_SIZE

# Field layout of one packed shadow word.
_ST_MASK = 0b111
_LS_SHIFT = 3
_LS_BITS = 28
_LS_MASK = (1 << _LS_BITS) - 1
_LS_FIELD = _LS_MASK << _LS_SHIFT
_OWNER_SHIFT = _LS_SHIFT + _LS_BITS  # == 31
#: Keep only the low (state + lockset) fields.
_LOW = (1 << _OWNER_SHIFT) - 1
#: Keep everything *except* state + lockset (i.e. the owner bits).
_KEEP_OWNER = ~(_ST_MASK | _LS_FIELD)
#: Largest lockset id that fits the 28-bit field (ids are stored +1).
_LS_ID_LIMIT = _LS_MASK - 1

# State codes (three bits).  NEW must be 0 so that packed == 0 is a
# pristine word.
_NEW = 0
_EXCLUSIVE = 1
_SHARED = 2
_SHARED_MOD = 3
_RACY = 4

_STATE_OF_CODE = (
    WordState.NEW,
    WordState.EXCLUSIVE,
    WordState.SHARED,
    WordState.SHARED_MODIFIED,
    WordState.RACY,
)
_CODE_OF_STATE = {state: code for code, state in enumerate(_STATE_OF_CODE)}

#: The distinguished all-NEW page.  Never mutated; ``_ZERO_PAGE[:]`` is
#: the copy-on-write copy, ``_ZERO_PAGE[lo:hi]`` the range-reset source.
_ZERO_PAGE = [0] * _PAGE_SIZE

#: Transition-memo capacity.  The key space a real guest exercises is
#: tiny (distinct ``(word low bits, is_write, held-set id)`` triples),
#: so the cap only guards pathological id churn; on overflow the table
#: is cleared wholesale (an *eviction* in the telemetry) rather than
#: tracked per-entry.
_MEMO_CAP = 65536

class LocksetTable:
    """Interning of lock-sets as small integer ids (Eraser's "lockset
    indexes" optimisation).

    Eraser observed that a program only ever materialises a small number
    of *distinct* lock-sets, so it represents each candidate set C(v) by
    a small integer index into a table of sets and memoizes pairwise
    intersections — the per-access work drops from a set intersection to
    a dictionary lookup on a pair of ints.  We reproduce that here:

    * :meth:`id_of` interns a frozenset and returns its id (stable for
      the lifetime of the process; the empty set is always
      :data:`EMPTY_ID` ``== 0``, so "is the candidate set empty?" is an
      integer comparison).
    * :meth:`intersect` intersects two ids with a symmetric memo cache,
      computing the underlying ``frozenset &`` at most once per
      unordered id pair.

    The table is append-only and process-wide (:data:`LOCKSETS`), like
    Valgrind's ExeContext table: guest programs hold a bounded number of
    distinct lock combinations while the access stream is unbounded.
    Ids double as the 28-bit lockset field of packed shadow words, so
    :meth:`id_of` guards the field width (a program would need ~268M
    distinct lock-sets to hit it).
    """

    __slots__ = (
        "_sets", "_ids", "_isect", "_with", "_without",
        "_intern_hits", "_intern_misses", "_isect_hits", "_isect_misses",
        "_with_hits", "_with_misses", "_wo_hits", "_wo_misses",
    )

    #: Memo operations tallied by :meth:`stats`.
    _OPS = ("intern", "intersect", "with", "without")

    def __init__(self) -> None:
        empty: frozenset[int] = frozenset()
        #: id → members, append-only.
        self._sets: list[frozenset[int]] = [empty]
        #: members → id.
        self._ids: dict[frozenset[int], int] = {empty: 0}
        #: memoized intersections keyed by (min_id, max_id).
        self._isect: dict[tuple[int, int], int] = {}
        #: memoized single-lock add/remove keyed by (set_id, lock_id) —
        #: the lock acquire/release path updates held-set ids through
        #: these without ever materialising a frozenset.
        self._with: dict[tuple[int, int], int] = {}
        self._without: dict[tuple[int, int], int] = {}
        #: Per-operation memo effectiveness.  Plain int *slots*, not a
        #: dict: these bump on the per-access hot path, and a slotted
        #: attribute add is the cheapest counter Python has.  Read by
        #: the telemetry layer via :meth:`stats`; ``intersect`` hits
        #: include the ``a == b`` / empty-set shortcuts — they answer
        #: without touching a frozenset, which is what the hit rate is
        #: measuring.
        self._intern_hits = 0
        self._intern_misses = 0
        self._isect_hits = 0
        self._isect_misses = 0
        self._with_hits = 0
        self._with_misses = 0
        self._wo_hits = 0
        self._wo_misses = 0

    def id_of(self, locks) -> int:
        """Intern ``locks`` (any iterable of lock ids) and return its id."""
        s = locks if type(locks) is frozenset else frozenset(locks)
        sid = self._ids.get(s)
        if sid is None:
            sid = len(self._sets)
            if sid > _LS_ID_LIMIT:  # pragma: no cover - 268M distinct sets
                raise OverflowError(
                    "lock-set table exceeded the packed shadow-word field "
                    f"({_LS_BITS} bits, {_LS_ID_LIMIT + 1} ids)"
                )
            self._sets.append(s)
            self._ids[s] = sid
            self._intern_misses += 1
        else:
            self._intern_hits += 1
        return sid

    def members(self, sid: int) -> frozenset[int]:
        """The frozenset a lock-set id stands for."""
        return self._sets[sid]

    def dump(self) -> list[frozenset[int]]:
        """Every interned set, in id order.

        Checkpoints embed this so lock-set ids can be re-interned in
        another process (ids are positions in *this* process's table
        and mean nothing elsewhere).
        """
        return self._sets[:]

    def intersect(self, a: int, b: int) -> int:
        """Id of ``members(a) & members(b)`` (memoized, symmetric)."""
        if a == b:
            self._isect_hits += 1
            return a
        if a == EMPTY_ID or b == EMPTY_ID:
            self._isect_hits += 1
            return EMPTY_ID
        key = (a, b) if a < b else (b, a)
        cached = self._isect.get(key)
        if cached is None:
            self._isect_misses += 1
            cached = self.id_of(self._sets[a] & self._sets[b])
            self._isect[key] = cached
        else:
            self._isect_hits += 1
        return cached

    def with_lock(self, sid: int, lock_id: int) -> int:
        """Id of ``members(sid) | {lock_id}`` (memoized).

        One dict hit in the steady state — lock acquisition walks the
        held-set id forward without building a set.
        """
        key = (sid, lock_id)
        cached = self._with.get(key)
        if cached is None:
            self._with_misses += 1
            members = self._sets[sid]
            cached = sid if lock_id in members else self.id_of(members | {lock_id})
            self._with[key] = cached
        else:
            self._with_hits += 1
        return cached

    def without_lock(self, sid: int, lock_id: int) -> int:
        """Id of ``members(sid) - {lock_id}`` (memoized)."""
        key = (sid, lock_id)
        cached = self._without.get(key)
        if cached is None:
            self._wo_misses += 1
            members = self._sets[sid]
            cached = self.id_of(members - {lock_id}) if lock_id in members else sid
            self._without[key] = cached
        else:
            self._wo_hits += 1
        return cached

    def stats(self) -> dict[str, int]:
        """Interning/memo effectiveness (telemetry input).

        Keys: ``size`` plus ``{op}_hits`` / ``{op}_misses`` for each of
        ``intern``, ``intersect``, ``with``, ``without``.
        """
        return {
            "size": len(self._sets),
            "intern_hits": self._intern_hits,
            "intern_misses": self._intern_misses,
            "intersect_hits": self._isect_hits,
            "intersect_misses": self._isect_misses,
            "with_hits": self._with_hits,
            "with_misses": self._with_misses,
            "without_hits": self._wo_hits,
            "without_misses": self._wo_misses,
        }

    def __len__(self) -> int:
        """Number of distinct lock-sets interned so far."""
        return len(self._sets)

    @property
    def intersections_memoized(self) -> int:
        """Size of the intersection memo (introspection for tests)."""
        return len(self._isect)


#: Id of the empty lock-set — ``lockset_id == EMPTY_ID`` ⇔ "no common lock".
EMPTY_ID = 0

#: Sentinel id for "candidate set not initialised yet" (Eraser's delayed
#: lock-set initialisation; distinct from *empty*).
NO_LOCKSET = -1

#: The process-wide lock-set table (one per process, like ExeContexts).
LOCKSETS = LocksetTable()


class ShadowWord:
    """A mutable *view* of one packed shadow word.

    ``owner`` is a thread-segment id while EXCLUSIVE (or a thread id
    when segment transfer is disabled — the ablated configuration).
    ``lockset_id`` is the *interned id* of the candidate set C(v) in
    :data:`LOCKSETS`; :data:`NO_LOCKSET` until initialised, which
    implements Eraser's *delayed lock-set initialisation* — the root of
    the §4.3 false negatives.  The :attr:`lockset` property materialises
    the frozenset for callers off the hot path.  ``last_access`` is the
    optional conflict history ``(tid, was_write, stack)`` maintained
    when the machine runs with ``access_history``.

    The view holds ``(machine, addr)`` and translates attribute access
    into packed-int reads/writes, so off-hot-path callers (the hybrid
    detector's RACY un-latching, report rendering, tests) keep the
    object API while the hot path never allocates one of these.
    """

    __slots__ = ("_machine", "_addr")

    def __init__(self, machine: "LocksetMachine", addr: int) -> None:
        self._machine = machine
        self._addr = addr

    # -- packed fields -------------------------------------------------

    @property
    def state(self) -> WordState:
        return _STATE_OF_CODE[self._machine._peek(self._addr) & _ST_MASK]

    @state.setter
    def state(self, value: WordState) -> None:
        machine = self._machine
        packed = machine._peek(self._addr)
        machine._poke(self._addr, (packed & ~_ST_MASK) | _CODE_OF_STATE[value])

    @property
    def owner(self) -> int:
        return (self._machine._peek(self._addr) >> _OWNER_SHIFT) - 1

    @owner.setter
    def owner(self, value: int) -> None:
        machine = self._machine
        packed = machine._peek(self._addr)
        machine._poke(self._addr, (packed & _LOW) | ((value + 1) << _OWNER_SHIFT))

    @property
    def lockset_id(self) -> int:
        return ((self._machine._peek(self._addr) >> _LS_SHIFT) & _LS_MASK) - 1

    @lockset_id.setter
    def lockset_id(self, value: int) -> None:
        machine = self._machine
        packed = machine._peek(self._addr)
        machine._poke(
            self._addr, (packed & ~_LS_FIELD) | ((value + 1) << _LS_SHIFT)
        )

    @property
    def lockset(self) -> frozenset[int] | None:
        """The candidate set as a frozenset (``None`` = uninitialised)."""
        sid = self.lockset_id
        return None if sid == NO_LOCKSET else LOCKSETS.members(sid)

    @lockset.setter
    def lockset(self, value: frozenset[int] | None) -> None:
        self.lockset_id = NO_LOCKSET if value is None else LOCKSETS.id_of(value)

    # -- access history (side table; only populated when the machine
    # -- runs with ``access_history``) ---------------------------------

    @property
    def last_access(self) -> tuple | None:
        entry = self._machine._history.get(self._addr)
        return entry[0] if entry is not None else None

    @last_access.setter
    def last_access(self, value: tuple | None) -> None:
        self._machine._history_entry(self._addr)[0] = value

    @property
    def last_other(self) -> tuple | None:
        """The most recent access by a thread *other* than
        ``last_access``'s, so a warning can always show the other side
        of the conflict even when the racing thread's own accesses are
        the freshest."""
        entry = self._machine._history.get(self._addr)
        return entry[1] if entry is not None else None

    @last_other.setter
    def last_other(self, value: tuple | None) -> None:
        self._machine._history_entry(self._addr)[1] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShadowWord(state={self.state.value!r}, owner={self.owner}, "
            f"lockset={self.lockset!r})"
        )


class LocksetOutcome:
    """Result of feeding one access through the machine.

    Stores interned lock-set ids; the :attr:`prev_lockset` /
    :attr:`lockset` properties materialise frozensets lazily, so the hot
    path (which only reads :attr:`race`) never touches a set object.
    """

    __slots__ = ("race", "prev_state", "prev_lockset_id", "lockset_id")

    def __init__(
        self,
        race: bool,
        prev_state: WordState,
        prev_lockset_id: int,
        lockset_id: int,
    ) -> None:
        #: True if this access makes the candidate set empty in a state
        #: where Eraser reports ("issue warning").
        self.race = race
        #: State before the access (for the "Previous state:" report line).
        self.prev_state = prev_state
        #: Interned id of the candidate set before the access.
        self.prev_lockset_id = prev_lockset_id
        #: Interned id of the candidate set after the access.
        self.lockset_id = lockset_id

    @property
    def prev_lockset(self) -> frozenset[int] | None:
        """Candidate lock-set before the access (None = uninitialised)."""
        sid = self.prev_lockset_id
        return None if sid == NO_LOCKSET else LOCKSETS.members(sid)

    @property
    def lockset(self) -> frozenset[int] | None:
        """Candidate lock-set after the access."""
        sid = self.lockset_id
        return None if sid == NO_LOCKSET else LOCKSETS.members(sid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocksetOutcome(race={self.race}, prev_state={self.prev_state.value!r}, "
            f"prev_lockset={self.prev_lockset!r}, lockset={self.lockset!r})"
        )


class LocksetMachine:
    """Shadow-memory state machine over guest words (paged + packed).

    Parameters
    ----------
    segments:
        The thread-segment graph used for EXCLUSIVE ownership transfer.
    use_states:
        Figure 1 machine on/off.  Off = the "basic algorithm" of §2.3.2:
        the candidate set is initialised at the *first* access and every
        empty intersection warns — many more false positives (E10).
    segment_transfer:
        VisualThreads rule on/off.  Off = ownership is per *thread*;
        any second thread moves the word to a shared state.
    """

    def __init__(
        self,
        segments: SegmentGraph,
        *,
        use_states: bool = True,
        segment_transfer: bool = True,
        once_per_word: bool = True,
        transition_cache: bool = True,
    ) -> None:
        self.segments = segments
        #: Direct reference to the graph's tid → seg_id mirror: the
        #: owner lookup on the access hot path is one dict ``get``
        #: (falling back to :meth:`SegmentGraph.current` only for a
        #: thread the graph has never seen).
        self._seg_ids = segments.current_ids
        self.use_states = use_states
        self.segment_transfer = segment_transfer
        #: True = Eraser's "report the next write access that results in
        #: an empty lock-set" (one report per word, then RACY).  False =
        #: Helgrind's behaviour on a large application: every
        #: empty-lock-set access keeps reporting, and the report layer
        #: deduplicates by call stack — this is what lets one racy word
        #: produce warnings at many distinct program locations, the way
        #: the paper's location counts reach the hundreds.
        self.once_per_word = once_per_word
        #: Keep the last access (tid, was_write, stack) per word so that
        #: warnings can show the *other* side of the conflict, the way
        #: later Helgrind versions do with --history-level.  Off by
        #: default: it stores a stack per shadow word.
        self.access_history = False
        #: Two-level shadow map: page index → list of packed words.
        #: A *missing* page is the shared all-NEW page.
        self._pages: dict[int, list[int]] = {}
        #: addr → ``[last_access, last_other]`` (only when history is on).
        self._history: dict[int, list] = {}
        # Shadow-engine counters (read by :meth:`shadow_stats`).
        self._page_copies = 0
        self._range_ops = 0
        self._range_pages = 0
        #: ``(prev WordState, new WordState) -> count`` when transition
        #: tracking is on (the telemetry layer's Figure-5-style matrix);
        #: ``None`` — and zero per-access cost — otherwise.
        self.transition_counts: dict[tuple[WordState, WordState], int] | None = None
        #: Memoized SHARED/SHARED_MOD transition function (see
        #: :meth:`access_check`).  ``None`` = caching disabled — the
        #: machine then runs the branch cascade verbatim.  The EXCLUSIVE
        #: and NEW paths are never memoized: their result depends on the
        #: owner token and the segment graph's happens-before relation,
        #: which the key cannot capture soundly.
        self.transition_cache = transition_cache
        self._memo: dict[int, int] | None = {} if transition_cache else None
        self._memo_hits = 0
        self._memo_misses = 0
        self._memo_evictions = 0

    # ------------------------------------------------------------------
    # Pickling (session checkpoints)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Packed words embed :data:`LOCKSETS` ids — positions in the
        *process-global* table.  Ship the id → members mapping alongside
        so another process can re-intern and remap on restore.  The
        transition memo is dropped (its keys and values embed this
        process's lockset ids); a restored machine just re-warms it."""
        state = self.__dict__.copy()
        state["_lockset_dump"] = LOCKSETS.dump()
        if state.get("_memo") is not None:
            state["_memo"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        dumped = state.pop("_lockset_dump")
        self.__dict__.update(state)
        remap = [LOCKSETS.id_of(s) for s in dumped]
        if remap == list(range(len(remap))):
            return  # same-process restore (or fresh table): ids unchanged
        for page in self._pages.values():
            for i, packed in enumerate(page):
                field = (packed >> _LS_SHIFT) & _LS_MASK
                if field:  # 0 = NO_LOCKSET (uninitialised candidate set)
                    new_id = remap[field - 1]
                    page[i] = (packed & ~_LS_FIELD) | ((new_id + 1) << _LS_SHIFT)

    # ------------------------------------------------------------------
    # Shard merge (intra-trace parallel replay)
    # ------------------------------------------------------------------

    def dump_pages(self) -> dict:
        """Portable dump of the packed shadow pages.

        Packed words embed :data:`LOCKSETS` ids, which are positions in
        this *process's* append-only table; the dump ships the id →
        members mapping alongside (exactly like pickling does) so
        :meth:`merge_pages` in another process can re-intern and remap.
        """
        return {
            "locksets": LOCKSETS.dump(),
            "pages": {pi: list(page) for pi, page in self._pages.items()},
        }

    def merge_pages(self, dump: dict) -> None:
        """Graft another machine's dumped pages into this one.

        The sharded replay driver's merge: each shard owns a disjoint
        set of shadow pages (the partition is *by* page), so merging is
        page-dict union plus a lockset-id remap through this process's
        :data:`LOCKSETS` table.  Overlapping pages mean the caller's
        partition was not a partition — refused loudly rather than
        silently last-writer-wins.
        """
        remap = [LOCKSETS.id_of(s) for s in dump["locksets"]]
        identity = remap == list(range(len(remap)))
        for pi, page in dump["pages"].items():
            if pi in self._pages:
                raise ValueError(
                    f"shadow page {pi} present in two shards; "
                    "shard pages must be disjoint"
                )
            if identity:
                self._pages[pi] = list(page)
                continue
            out = list(page)
            for i, packed in enumerate(out):
                field = (packed >> _LS_SHIFT) & _LS_MASK
                if field:
                    new_id = remap[field - 1]
                    out[i] = (packed & ~_LS_FIELD) | ((new_id + 1) << _LS_SHIFT)
            self._pages[pi] = out

    # ------------------------------------------------------------------
    # Packed-word plumbing (used by the ShadowWord view; the access
    # paths inline the same logic)
    # ------------------------------------------------------------------

    def _peek(self, addr: int) -> int:
        """Packed word at ``addr`` without materialising a page."""
        page = self._pages.get(addr >> _PAGE_BITS)
        return page[addr & _PAGE_MASK] if page is not None else 0

    def _poke(self, addr: int, packed: int) -> None:
        """Store a packed word (copy-on-write page materialisation)."""
        pages = self._pages
        pi = addr >> _PAGE_BITS
        page = pages.get(pi)
        if page is None:
            if packed == 0:
                return  # storing NEW into the all-NEW page: no-op
            page = _ZERO_PAGE[:]
            pages[pi] = page
            self._page_copies += 1
        page[addr & _PAGE_MASK] = packed

    def _history_entry(self, addr: int) -> list:
        entry = self._history.get(addr)
        if entry is None:
            entry = [None, None]
            self._history[addr] = entry
        return entry

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def enable_transition_tracking(self) -> None:
        """Start recording the state-transition matrix.

        Implemented by shadowing :meth:`access_check` with a counting
        wrapper *on this instance*, so the untracked machine keeps the
        fast path untouched (no per-access ``if``).  :meth:`access` runs
        through :meth:`access_check` too, so one wrapper sees every
        access.
        """
        if self.transition_counts is None:
            self.transition_counts = {}
            self.access_check = self._traced_access_check

    def _traced_access_check(
        self, addr: int, tid: int, is_write: bool, locks_any, locks_write
    ) -> "LocksetOutcome | None":
        # Peek-count-peek around the real hot path, so instrumented runs
        # keep the memoized machine (and its hit/miss counters) live.
        prev_state = _STATE_OF_CODE[self._peek(addr) & _ST_MASK]
        outcome = LocksetMachine.access_check(
            self, addr, tid, is_write, locks_any, locks_write
        )
        new_state = _STATE_OF_CODE[self._peek(addr) & _ST_MASK]
        counts = self.transition_counts
        key = (prev_state, new_state)
        counts[key] = counts.get(key, 0) + 1
        return outcome

    def state_distribution(self) -> dict[WordState, int]:
        """Tracked shadow words by current state (Figure-5 material)."""
        dist: dict[WordState, int] = {}
        for page in self._pages.values():
            for packed in page:
                if packed:
                    state = _STATE_OF_CODE[packed & _ST_MASK]
                    dist[state] = dist.get(state, 0) + 1
        return dist

    def shadow_stats(self) -> dict[str, int]:
        """Paged-engine counters (telemetry input).

        ``pages`` is the number of materialised (copied) pages alive
        now; ``page_copies`` the total copy-on-write materialisations;
        ``range_ops`` / ``range_pages`` tally the O(pages) block
        transitions (alloc/free/``HG_DESTRUCT``) and how many pages
        they visited.
        """
        return {
            "pages": len(self._pages),
            "page_copies": self._page_copies,
            "range_ops": self._range_ops,
            "range_pages": self._range_pages,
        }

    def transition_cache_stats(self) -> dict[str, int]:
        """Transition-memo counters (telemetry input).

        ``hits``/``misses`` count :meth:`access_check` SHARED/SHARED_MOD
        steps answered from / inserted into the memo; ``evictions``
        counts whole-table clears on overflow (see ``_MEMO_CAP``).
        ``size`` is the live entry count.  All zero when the cache is
        disabled.
        """
        return {
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "evictions": self._memo_evictions,
            "size": len(self._memo) if self._memo is not None else 0,
        }

    # ------------------------------------------------------------------
    # Shadow-memory lifecycle (range transitions, O(pages))
    # ------------------------------------------------------------------

    def _range_reset(self, addr: int, size: int) -> None:
        """Return ``[addr, addr+size)`` to NEW in O(pages touched).

        Fully covered pages revert to the shared all-NEW page by being
        *dropped* from the map (one dict pop); the at-most-two boundary
        pages get a slice assignment of zeros.
        """
        if size <= 0:
            return
        self._range_ops += 1
        pages = self._pages
        end = addr + size
        first_pi = addr >> _PAGE_BITS
        last_pi = (end - 1) >> _PAGE_BITS
        self._range_pages += last_pi - first_pi + 1
        for pi in range(first_pi, last_pi + 1):
            p_start = pi << _PAGE_BITS
            lo = addr - p_start if addr > p_start else 0
            hi = end - p_start if end - p_start < _PAGE_SIZE else _PAGE_SIZE
            if lo == 0 and hi == _PAGE_SIZE:
                pages.pop(pi, None)
            else:
                page = pages.get(pi)
                if page is not None:
                    page[lo:hi] = _ZERO_PAGE[lo:hi]
        if self._history:
            hist = self._history
            for a in [a for a in hist if addr <= a < end]:
                del hist[a]

    def on_alloc(self, addr: int, size: int) -> None:
        """Fresh allocation: all words (re)enter NEW."""
        self._range_reset(addr, size)

    def on_free(self, addr: int, size: int) -> None:
        """Freed at VM level: stop tracking (memcheck's jurisdiction)."""
        self._range_reset(addr, size)

    def make_exclusive(self, addr: int, size: int, owner: int) -> None:
        """Force words to EXCLUSIVE(owner) — the HG_DESTRUCT semantics.

        "mark deleted memory for the race detection as exclusively owned
        by the running thread. That way, accesses by other threads during
        destruction are still detected." (§3.1)

        O(pages): fully covered pages are *replaced* wholesale with a
        constant-filled page; boundary pages get a slice assignment.
        """
        if size <= 0:
            return
        self._range_ops += 1
        packed = _EXCLUSIVE | ((owner + 1) << _OWNER_SHIFT)
        pages = self._pages
        end = addr + size
        first_pi = addr >> _PAGE_BITS
        last_pi = (end - 1) >> _PAGE_BITS
        self._range_pages += last_pi - first_pi + 1
        for pi in range(first_pi, last_pi + 1):
            p_start = pi << _PAGE_BITS
            lo = addr - p_start if addr > p_start else 0
            hi = end - p_start if end - p_start < _PAGE_SIZE else _PAGE_SIZE
            if lo == 0 and hi == _PAGE_SIZE:
                if pi not in pages:
                    self._page_copies += 1
                pages[pi] = [packed] * _PAGE_SIZE
            else:
                page = pages.get(pi)
                if page is None:
                    page = _ZERO_PAGE[:]
                    pages[pi] = page
                    self._page_copies += 1
                page[lo:hi] = [packed] * (hi - lo)

    def word(self, addr: int) -> ShadowWord:
        """A view of the shadow word at ``addr`` (NEW until touched)."""
        return ShadowWord(self, addr)

    def state_of(self, addr: int) -> WordState:
        page = self._pages.get(addr >> _PAGE_BITS)
        if page is None:
            return WordState.NEW
        return _STATE_OF_CODE[page[addr & _PAGE_MASK] & _ST_MASK]

    # ------------------------------------------------------------------
    # The access rule
    # ------------------------------------------------------------------

    def access(
        self,
        addr: int,
        tid: int,
        is_write: bool,
        locks_any,
        locks_write,
    ) -> LocksetOutcome:
        """Feed one access through the machine and describe the step.

        An outcome view over :meth:`access_check`, the one body of the
        access rule: a race comes back as :meth:`access_check`'s own
        outcome; otherwise the packed word is peeked before and after
        to fill in the previous state and candidate-set ids (NEW and
        EXCLUSIVE words carry none, so single-owner steps report
        :data:`NO_LOCKSET` on both sides).

        ``locks_any`` / ``locks_write`` are the *effective* lock-sets of
        the accessing thread for this access — including any virtual
        locks the caller's hardware model injects (the bus lock) — as
        frozensets or as interned :data:`LOCKSETS` ids.
        """
        if type(locks_any) is not int:
            locks_any = LOCKSETS.id_of(locks_any)
        if type(locks_write) is not int:
            locks_write = LOCKSETS.id_of(locks_write)
        before = self._peek(addr)
        outcome = self.access_check(addr, tid, is_write, locks_any, locks_write)
        if outcome is not None:
            return outcome
        after = self._peek(addr)
        return LocksetOutcome(
            False,
            _STATE_OF_CODE[before & _ST_MASK],
            ((before >> _LS_SHIFT) & _LS_MASK) - 1,
            ((after >> _LS_SHIFT) & _LS_MASK) - 1,
        )

    def access_check(
        self,
        addr: int,
        tid: int,
        is_write: bool,
        locks_any: int,
        locks_write: int,
    ) -> LocksetOutcome | None:
        """The Figure 1 access rule: ``None`` unless the access races.

        The only body of the state machine; :meth:`access` is an outcome
        view over it.  The overwhelmingly common non-race outcome
        allocates nothing — no :class:`LocksetOutcome` per access.
        ``locks_any`` / ``locks_write`` must already be interned ids
        (the Helgrind detector precomputes them).
        """
        pages = self._pages
        pi = addr >> _PAGE_BITS
        page = pages.get(pi)
        if page is None:
            page = _ZERO_PAGE[:]
            pages[pi] = page
            self._page_copies += 1
        slot = addr & _PAGE_MASK
        packed = page[slot]

        if not self.use_states:
            outcome = self._raw_access(
                page, slot, packed, is_write, locks_any, locks_write
            )
            return outcome if outcome.race else None

        code = packed & _ST_MASK
        if code == _EXCLUSIVE:
            if self.segment_transfer:
                owner = self._seg_ids.get(tid)
                if owner is None:
                    owner = self.segments.current(tid).seg_id
            else:
                owner = tid
            cur_owner = (packed >> _OWNER_SHIFT) - 1
            if cur_owner == owner:
                return None
            if self._transfers(cur_owner, tid, owner):
                page[slot] = (packed & _LOW) | ((owner + 1) << _OWNER_SHIFT)
                return None
            if is_write:
                new_id = locks_write
                if new_id == EMPTY_ID:
                    new_code = _RACY if self.once_per_word else _SHARED_MOD
                    page[slot] = (packed & _KEEP_OWNER) | new_code | (
                        (new_id + 1) << _LS_SHIFT
                    )
                    prev_id = ((packed >> _LS_SHIFT) & _LS_MASK) - 1
                    return LocksetOutcome(
                        True, WordState.EXCLUSIVE, prev_id, new_id
                    )
                new_code = _SHARED_MOD
            else:
                new_id = locks_any
                new_code = _SHARED
            page[slot] = (
                (packed & _KEEP_OWNER) | new_code | ((new_id + 1) << _LS_SHIFT)
            )
            return None

        if code == _SHARED_MOD or code == _SHARED:
            # The SHARED/SHARED_MOD step is a *pure* function of the
            # word's low bits (state + candidate-set id), the access
            # direction and the effective held-set id: lockset ids are
            # interned in the append-only process-global LOCKSETS table
            # and intersection is deterministic, so a memoized result
            # never needs invalidation.  Key and value are single ints
            # (key: low | is_write | held; value: new_low | race bit).
            held = locks_write if is_write else locks_any
            low = packed & _LOW
            memo = self._memo
            if memo is not None:
                key = (((low << 1) | is_write) << _LS_BITS) | held
                value = memo.get(key)
                if value is not None:
                    self._memo_hits += 1
                    new_low = value >> 1
                    if new_low != low:
                        page[slot] = (packed & _KEEP_OWNER) | new_low
                    if value & 1:
                        return LocksetOutcome(
                            True,
                            _STATE_OF_CODE[code],
                            ((low >> _LS_SHIFT) & _LS_MASK) - 1,
                            ((new_low >> _LS_SHIFT) & _LS_MASK) - 1,
                        )
                    return None
            prev_id = ((low >> _LS_SHIFT) & _LS_MASK) - 1
            new_id = LOCKSETS.intersect(prev_id, held)
            if code == _SHARED and not is_write:
                race = False
                new_code = _SHARED  # read-only sharing never warns
            else:
                race = new_id == EMPTY_ID
                new_code = _RACY if race and self.once_per_word else _SHARED_MOD
            new_low = new_code | ((new_id + 1) << _LS_SHIFT)
            if new_low != low:
                page[slot] = (packed & _KEEP_OWNER) | new_low
            if memo is not None:
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                    self._memo_evictions += 1
                self._memo_misses += 1
                memo[key] = (new_low << 1) | race
            if race:
                return LocksetOutcome(True, _STATE_OF_CODE[code], prev_id, new_id)
            return None

        if code == _NEW:
            if self.segment_transfer:
                owner = self._seg_ids.get(tid)
                if owner is None:
                    owner = self.segments.current(tid).seg_id
            else:
                owner = tid
            page[slot] = (
                (packed & _LS_FIELD) | _EXCLUSIVE | ((owner + 1) << _OWNER_SHIFT)
            )
            return None

        return None  # RACY: stopped tracking

    def _raw_access(
        self, page, slot, packed, is_write, locks_any, locks_write
    ) -> LocksetOutcome:
        """§2.3.2's basic algorithm: no states, immediate checking."""
        code = packed & _ST_MASK
        prev_id = ((packed >> _LS_SHIFT) & _LS_MASK) - 1
        if code == _RACY:
            return LocksetOutcome(False, WordState.RACY, prev_id, prev_id)
        held = locks_write if is_write else locks_any
        new_id = held if prev_id == NO_LOCKSET else LOCKSETS.intersect(prev_id, held)
        race = new_id == EMPTY_ID
        if race and self.once_per_word:
            new_code = _RACY
        else:
            new_code = _SHARED_MOD if is_write else _SHARED
        page[slot] = (
            (packed & _KEEP_OWNER) | new_code | ((new_id + 1) << _LS_SHIFT)
        )
        return LocksetOutcome(race, _STATE_OF_CODE[code], prev_id, new_id)

    # ------------------------------------------------------------------

    def _transfers(self, cur_owner: int, tid: int, owner: int) -> bool:
        """Does this access keep the word EXCLUSIVE (new owner token)?

        With segment transfer, a later segment of the owning thread, or
        any segment the owner happens-before, takes over ownership (the
        VisualThreads rule).  Callers have already excluded the
        ``cur_owner == owner`` fast case.
        """
        if not self.segment_transfer:
            return False
        owner_seg = self.segments.segment(cur_owner)
        if owner_seg.tid == tid:
            return True  # same thread, later segment: trivially ordered
        return self.segments.happens_before(cur_owner, owner)

    @property
    def tracked_words(self) -> int:
        """Number of shadow words not in the pristine NEW state."""
        return sum(
            _PAGE_SIZE - page.count(0) for page in self._pages.values()
        )
