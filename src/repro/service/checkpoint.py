"""Durable session checkpoints: kill the server, keep the analysis.

A checkpoint is the :meth:`repro.api.Session.snapshot` pickle — shadow
engine, lock-set tables, report, decoder interning tables, buffered
partial record — wrapped with resume metadata (configuration name,
resume offset, event count).  The store writes atomically (temp file +
``os.replace``), so a checkpoint directory never contains a torn file
even if the server dies mid-write; a resumed session continues
byte-for-byte from ``offset`` (see ``docs/SERVICE.md``).

A file is a 12-byte header — payload length and CRC-32 — followed by
the pickle.  :meth:`CheckpointStore.load` checks both before it
unpickles anything, so a truncated or bit-flipped file (or one written
by another layout) is a ``ValueError("corrupt checkpoint …")``, which a
resuming client receives as an ERROR frame.

Checkpoints are per-session files named ``<session_id>.ckpt`` so a
restarted server can enumerate what is resumable without deserialising
anything.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path

__all__ = ["Checkpoint", "CheckpointStore"]

#: Store layout version (bump on incompatible payload changes).
#: Version 2: the pickle follows a length + CRC-32 header.
CHECKPOINT_VERSION = 2

#: File header: payload length, payload CRC-32.
_HEADER = struct.Struct("!QI")

_SUFFIX = ".ckpt"


class Checkpoint:
    """One saved session: resume metadata + the session snapshot blob."""

    __slots__ = ("session_id", "config", "offset", "events", "snapshot")

    def __init__(self, session_id, config, offset, events, snapshot) -> None:
        self.session_id = session_id
        self.config = config
        #: Resume offset: total encoded bytes the session had accepted
        #: (``Session.bytes_fed``); the client continues streaming from
        #: this byte of its source.
        self.offset = offset
        self.events = events
        #: ``repro.api.Session.snapshot()`` pickle.
        self.snapshot = snapshot


class CheckpointStore:
    """Atomic file-per-session checkpoint directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, session_id: str) -> Path:
        if not session_id or "/" in session_id or session_id.startswith("."):
            raise ValueError(f"bad session id {session_id!r}")
        return self.root / f"{session_id}{_SUFFIX}"

    def save(self, checkpoint: Checkpoint) -> Path:
        """Write atomically; a reader never sees a partial file."""
        path = self._path(checkpoint.session_id)
        payload = pickle.dumps(
            {
                "version": CHECKPOINT_VERSION,
                "session_id": checkpoint.session_id,
                "config": checkpoint.config,
                "offset": checkpoint.offset,
                "events": checkpoint.events,
                "snapshot": checkpoint.snapshot,
            }
        )
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(
            _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        )
        os.replace(tmp, path)
        return path

    def load(self, session_id: str) -> Checkpoint | None:
        """Read one checkpoint; ``None`` if the session has none.

        A file whose header, checksum or pickle does not hold raises
        ``ValueError("corrupt checkpoint …")``.
        """
        path = self._path(session_id)
        if not path.exists():
            return None
        raw = path.read_bytes()
        if len(raw) < _HEADER.size:
            raise ValueError(
                f"corrupt checkpoint {path}: {len(raw)} bytes, shorter "
                "than its header"
            )
        length, crc = _HEADER.unpack_from(raw)
        payload = raw[_HEADER.size:]
        if len(payload) != length:
            raise ValueError(
                f"corrupt checkpoint {path}: header says {length} payload "
                f"bytes, file holds {len(payload)}"
            )
        if zlib.crc32(payload) != crc:
            raise ValueError(f"corrupt checkpoint {path}: checksum mismatch")
        try:
            data = pickle.loads(payload)
        except Exception as exc:
            raise ValueError(
                f"corrupt checkpoint {path}: {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"corrupt checkpoint {path}: holds a "
                f"{type(data).__name__}, not a dict"
            )
        if data.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {data.get('version')!r} "
                f"in {path}"
            )
        return Checkpoint(
            data["session_id"],
            data["config"],
            data["offset"],
            data["events"],
            data["snapshot"],
        )

    def delete(self, session_id: str) -> None:
        """Drop a finished session's checkpoint (idempotent)."""
        try:
            self._path(session_id).unlink()
        except FileNotFoundError:
            pass

    def session_ids(self) -> list[str]:
        """Resumable session ids, sorted (directory listing only)."""
        return sorted(p.stem for p in self.root.glob(f"*{_SUFFIX}"))

    def max_session_seq(self) -> int:
        """The highest numeric ``sNNNN`` sequence present in the store.

        Fresh ids must start past this: checkpoints outlive the process
        (and, in sharded mode, are shared by every worker), so a new
        incarnation's counter colliding with a resumable id would
        overwrite — then delete — the other client's checkpoint file.
        """
        best = 0
        for sid in self.session_ids():
            if sid.startswith("s") and sid[1:].isdigit():
                best = max(best, int(sid[1:]))
        return best
