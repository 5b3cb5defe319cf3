"""Valgrind-style suppression files.

Helgrind users silence known false positives (or warnings in unmodifiable
third-party code) with *suppression files* (§2.3.1): each entry names a
report kind and a call-stack pattern; warnings whose stack matches are
dropped before reaching the log.

The syntax here is a faithful subset of Valgrind's::

    {
       stringtest-rep-grab            # entry name (free text)
       possible-data-race             # warning kind
       fun:_M_grab                    # innermost frame function pattern
       fun:string::string*            # next frame outward (glob allowed)
       ...                            # skip any number of frames
       fun:main
    }

``fun:`` matches the frame's function name, ``file:`` its file; both use
``fnmatch`` globs.  A literal ``...`` line matches zero or more frames
(Valgrind's frame-ellipsis).  An entry matches when its pattern lines can
be aligned with the warning's stack from the innermost frame outward;
trailing unmatched stack frames are allowed (patterns are prefixes),
again following Valgrind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

from repro.errors import SuppressionSyntaxError

__all__ = ["SuppressionEntry", "Suppressions"]


@dataclass(slots=True)
class SuppressionEntry:
    """One parsed suppression block."""

    name: str
    kind: str
    #: Pattern lines: ("fun"|"file", glob) or ("ellipsis", "").
    patterns: list[tuple[str, str]] = field(default_factory=list)
    #: How many warnings this entry has eaten (Valgrind's -v statistic).
    hits: int = 0

    def matches(self, warning) -> bool:
        if warning.kind != self.kind:
            return False
        return self._match_frames(0, 0, warning.stack)

    def _match_frames(self, pi: int, fi: int, stack) -> bool:
        """Backtracking alignment of pattern lines against stack frames."""
        if pi == len(self.patterns):
            return True  # all pattern lines consumed: prefix match
        what, glob = self.patterns[pi]
        if what == "ellipsis":
            # Try consuming 0..remaining frames.
            for skip in range(len(stack) - fi + 1):
                if self._match_frames(pi + 1, fi + skip, stack):
                    return True
            return False
        if fi >= len(stack):
            return False
        frame = stack[fi]
        subject = frame.function if what == "fun" else frame.file
        if not fnmatchcase(subject, glob):
            return False
        return self._match_frames(pi + 1, fi + 1, stack)


class Suppressions:
    """A parsed suppression file: an ordered collection of entries."""

    def __init__(self, entries: list[SuppressionEntry] | None = None) -> None:
        self.entries = entries or []

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Suppressions":
        entries: list[SuppressionEntry] = []
        lines = text.splitlines()
        i = 0
        while i < len(lines):
            line = _strip(lines[i])
            i += 1
            if not line:
                continue
            if line != "{":
                raise SuppressionSyntaxError(
                    f"expected '{{' to open a suppression entry, got {line!r}"
                )
            body: list[str] = []
            while i < len(lines):
                line = _strip(lines[i])
                i += 1
                if line == "}":
                    break
                if line:
                    body.append(line)
            else:
                raise SuppressionSyntaxError("unterminated suppression entry")
            if len(body) < 2:
                raise SuppressionSyntaxError(
                    "suppression entry needs at least a name and a kind"
                )
            name, kind, *pattern_lines = body
            patterns: list[tuple[str, str]] = []
            for pline in pattern_lines:
                if pline == "...":
                    patterns.append(("ellipsis", ""))
                elif pline.startswith("fun:"):
                    patterns.append(("fun", pline[4:]))
                elif pline.startswith("file:"):
                    patterns.append(("file", pline[5:]))
                else:
                    raise SuppressionSyntaxError(
                        f"unknown pattern line {pline!r} "
                        "(expected 'fun:', 'file:' or '...')"
                    )
            entries.append(SuppressionEntry(name=name, kind=kind, patterns=patterns))
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "Suppressions":
        return cls.parse(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def matches(self, warning) -> SuppressionEntry | None:
        """The first entry that suppresses ``warning`` (its hit is
        recorded), or ``None``."""
        for entry in self.entries:
            if entry.matches(warning):
                entry.hits += 1
                return entry
        return None

    def __len__(self) -> int:
        return len(self.entries)

    def format_stats(self) -> str:
        """Per-entry hit counts (Valgrind's ``-v`` suppression summary)."""
        return "\n".join(f"{e.hits:6d}  {e.name}" for e in self.entries)


def _strip(line: str) -> str:
    """Remove comments and whitespace."""
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()
