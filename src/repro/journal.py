"""Write-ahead journal for the multi-tenant selection service.

:mod:`repro.service` mutates shared state (binder, churn cursor, queues)
only inside dispatcher batches, applied in a canonical order that is
bit-identical across runs and interleave seeds.  That discipline makes
crash recovery almost free: journal each batch *before* applying it, and
a resumed run can replay the journal op-for-op into the exact pre-crash
state, then keep serving.  The proof obligation (tested in
``tests/test_service_chaos.py``) is that a killed-and-resumed run ends
bit-identical to an uninterrupted same-seed run.

File format v2 — JSON Lines, one checksummed record per line:

``{"kind": "header", "version": 2, "inputs": "<sha256>", "crc": "<16 hex>"}``
    First line.  ``inputs`` digests everything that determines the
    batch sequence (platform, churn, requests, service config, fault
    spec) *except* the interleave seed, which provably does not affect
    batch contents.  ``--resume`` refuses a journal whose digest does
    not match the current invocation: replaying ops against different
    inputs would silently corrupt state.

``{"kind": "batch", "i": N, "t": <virtual s>, "ops": [[kind, tenant, rid], ...], "sha": "<state digest>", "crc": "<16 hex>"}``
    One dispatcher batch.  ``sha`` is the digest of shared state as the
    batch is *about to apply* (write-ahead: the record is durable before
    any op mutates state); replay verifies it per batch, so any
    divergence is caught at the first bad batch, not at the end.

Every record additionally carries ``crc`` — the first 16 hex chars of
sha256 over the record's canonical encoding *without* the ``crc`` field
— so a bit flip anywhere in the file is detected on load, not replayed
into state.  v1 journals (no ``crc``) are refused with a version
diagnostic; delete and re-run, or keep the old binary to replay them.

Durability: each record is written and flushed (``flush`` + ``fsync``)
before the batch mutates state — write-ahead in the WAL sense.  A
process killed mid-write leaves at most one torn final line;
:func:`load` tolerates exactly that (the torn tail is truncated on
resume) and treats any earlier corruption as a hard error naming the
offending line and batch record.  Writes route through the disk-fault
hook in :mod:`repro.durability` so the chaos suite can tear, flip, and
power-cut journal appends.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import IO, Any

from repro import durability

__all__ = ["Journal", "JournalError", "JOURNAL_VERSION"]

JOURNAL_VERSION = 2

#: Per-record checksum field.  Batch records already use ``sha`` for the
#: shared-state digest, so the line-level checksum gets its own name.
_CRC_KEY = "crc"


class JournalError(RuntimeError):
    """A journal could not be read, verified, or matched to this run."""


def _dumps(record: dict[str, Any]) -> str:
    # Canonical encoding: sorted keys, no whitespace — byte-stable so the
    # divergence check below can compare records, not re-parsed dicts.
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _crc(record: dict[str, Any]) -> str:
    # 16 hex chars of the durability layer's canonical-encoding sha256
    # (over the record sans crc field): plenty to catch disk corruption,
    # short enough to keep lines lean.
    return durability.payload_digest(record)[:16]


def _frame(record: dict[str, Any]) -> str:
    """Canonical line for ``record`` with its checksum folded in."""
    return _dumps({**record, _CRC_KEY: _crc(record)})


@dataclass
class LoadedJournal:
    """A parsed journal: header inputs digest + clean batch records."""

    inputs: str
    batches: list[dict[str, Any]]
    clean_bytes: int  #: byte offset after the last intact record


def load(path: str) -> LoadedJournal:
    """Parse ``path``, tolerating a single torn (partial) final line.

    Raises :class:`JournalError` for a missing/empty file, a bad header,
    or corruption anywhere except the final line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path!r}: {exc}") from None
    if not raw:
        raise JournalError(f"journal {path!r} is empty")

    lines = raw.split(b"\n")
    # A well-formed journal ends in a newline, so the final split element
    # is empty; anything else is the torn tail of an interrupted write.
    torn = lines.pop() if lines and lines[-1] != b"" else b""
    if lines and lines[-1] == b"":
        lines.pop()

    records: list[dict[str, Any]] = []
    offset = 0
    for lineno, line in enumerate(lines, start=1):
        where = f"line {lineno}" if lineno == 1 else f"line {lineno} (batch record {lineno - 2})"
        try:
            rec = json.loads(line)
        except ValueError:
            if lineno == len(lines) and not torn:
                # Corrupt final complete-looking line: still the torn
                # tail case (e.g. killed after newline of a partial rec).
                break
            raise JournalError(
                f"journal {path!r} corrupt at {where}: unparseable record"
            ) from None
        stored = rec.pop(_CRC_KEY, None) if isinstance(rec, dict) else None
        if not isinstance(rec, dict) or stored != _crc(rec):
            if (
                isinstance(rec, dict)
                and rec.get("kind") == "header"
                and rec.get("version") != JOURNAL_VERSION
            ):
                raise JournalError(
                    f"journal {path!r} has version {rec.get('version')!r}, "
                    f"expected {JOURNAL_VERSION} (records are checksummed "
                    f"from v2 on; re-run without --resume to start fresh)"
                )
            if lineno == len(lines) and not torn:
                # A corrupt final line is indistinguishable from a torn
                # write that happened to end at a newline — tolerate it.
                break
            raise JournalError(
                f"journal {path!r} corrupt at {where}: checksum mismatch "
                f"(stored {stored!r}) — refusing to replay damaged state"
            ) from None
        records.append(rec)
        offset += len(line) + 1
    del torn

    if not records or records[0].get("kind") != "header":
        raise JournalError(f"journal {path!r} has no header record")
    header = records[0]
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path!r} has version {header.get('version')!r}, "
            f"expected {JOURNAL_VERSION}"
        )
    batches = []
    for rec in records[1:]:
        if rec.get("kind") != "batch":
            raise JournalError(
                f"journal {path!r} has unexpected record kind {rec.get('kind')!r}"
            )
        batches.append(rec)
    for i, rec in enumerate(batches):
        if rec.get("i") != i:
            raise JournalError(
                f"journal {path!r} batch sequence broken at index {i}"
            )
    return LoadedJournal(
        inputs=str(header.get("inputs", "")), batches=batches, clean_bytes=offset
    )


@dataclass
class Journal:
    """Write-ahead journal writer, optionally seeded from a prior run.

    Create with :meth:`create` for a fresh journal or :meth:`resume` to
    verify-and-continue an existing one.  During replay the service
    calls :meth:`append` for each batch; while ``replaying`` is true the
    record is checked against the journal instead of written, and the
    first mismatch raises :class:`JournalError` — a resumed run must
    reproduce the journaled prefix exactly before it may extend it.
    """

    path: str
    inputs: str
    batches: list[dict[str, Any]] = field(default_factory=list)
    _fh: IO[bytes] | None = None
    _replay_index: int = 0

    @classmethod
    def create(cls, path: str, inputs: str) -> "Journal":
        fh = open(path, "wb")
        j = cls(path=path, inputs=inputs, _fh=fh)
        j._write({"kind": "header", "version": JOURNAL_VERSION, "inputs": inputs})
        return j

    @classmethod
    def resume(cls, path: str, inputs: str) -> "Journal":
        loaded = load(path)
        if loaded.inputs != inputs:
            raise JournalError(
                f"journal {path!r} was written for different inputs "
                f"({loaded.inputs[:12]}… vs {inputs[:12]}…); refusing to replay"
            )
        # Truncate the torn tail so appended records start on a clean
        # boundary, then reopen for append.
        with open(path, "r+b") as fh:
            fh.truncate(loaded.clean_bytes)
        return cls(
            path=path,
            inputs=inputs,
            batches=loaded.batches,
            _fh=open(path, "ab"),
        )

    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        return self._replay_index < len(self.batches)

    @property
    def replay_batches(self) -> int:
        return len(self.batches)

    def append(self, record: dict[str, Any]) -> None:
        """Write-ahead one batch record (or verify it during replay)."""
        if self._replay_index < len(self.batches):
            expected = self.batches[self._replay_index]
            if _dumps(expected) != _dumps(record):
                raise JournalError(
                    f"resume divergence at batch {record.get('i')}: "
                    f"journal has {_dumps(expected)!r}, replay produced "
                    f"{_dumps(record)!r}"
                )
            self._replay_index += 1
            return
        self._write(record)

    def _write(self, record: dict[str, Any]) -> None:
        assert self._fh is not None
        data = _frame(record).encode("utf-8") + b"\n"
        inj = durability.active_injector()
        if inj is not None:
            inj.begin_write(self.path)
            data = inj.mutate(self.path, data)
            inj.check_write(self.path)
        self._fh.write(data)
        self._fh.flush()
        if inj is None or inj.fsync_ok():
            os.fsync(self._fh.fileno())
        if inj is not None:
            inj.fire_commit_crash(self.path)

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def inputs_digest(parts: list[str]) -> str:
    """Digest of the run inputs that determine the batch sequence."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()
