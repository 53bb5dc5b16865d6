"""The single sanctioned atomic-persistence API for shared on-disk artifacts.

Several processes share rendezvous files: the engine result cache
(``run_many`` workers and concurrent sweeps race the same content hash),
the compiled kernels' builds, and the ``REPRO_RUN_LOG`` metrics log.
Every guarantee the repo sells — parse-clean artifacts after a SIGKILL,
identical cache bytes whichever racing writer wins, whole log records
from concurrent appenders — reduces to two idioms:

* **replace**: write the full payload to a uniquely named temporary in
  the destination directory, flush, ``fsync``, then ``os.replace`` it
  over the target.  POSIX rename is atomic within a filesystem, so a
  reader (or a crash) sees either the old complete content or the new
  complete content, never a prefix.
* **append**: open with ``O_APPEND`` and emit each record as a *single*
  ``os.write`` of one complete line.  The kernel serializes ``O_APPEND``
  writes, so concurrent appenders cannot interleave partial records the
  way buffered ``open(path, "a")`` writes can.

This module is the one place those idioms are allowed to live: the
IO001 lint rule (:mod:`repro.analysis.lint`) flags any raw
``os.replace``/``os.rename`` and any append-mode ``open()`` outside
this file, exactly as DET002 allowlists :mod:`repro.util.hostclock`
for the host clock.  Keeping the idiom in one audited helper is what
makes the contract checkable.

Durability note: ``os.replace`` guarantees atomicity; making the new
*name* survive a power failure would additionally need an fsync of the
directory.  The artifacts here are all reconstructible (caches, kernel
builds, observability logs), so we match the repo's long-standing
choice: file contents are fsync'd, directory entries are not.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

#: Process-local uniquifier so two writers in one process (threads, or a
#: re-entrant caller) never share a temporary name.  Cross-process
#: uniqueness comes from the pid component.
_counter = itertools.count()


def _tmp_path(target: Path) -> Path:
    """A uniquely named sibling of ``target`` for the replace idiom.

    The temporary must live in the destination directory: ``os.replace``
    is only atomic within one filesystem.
    """
    return target.with_name(
        f".{target.name}.{os.getpid()}.{next(_counter)}.tmp"
    )


def write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    """Atomically replace ``path`` with ``payload`` (tmp + fsync + rename)."""
    target = Path(path)
    tmp = _tmp_path(target)
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        # Never leave a half-written temporary behind: the artifact
        # either transitions atomically or not at all.
        try:
            os.unlink(tmp)
        # the tmp may never have been created, or the rename already won
        # repro-lint: disable=EXC002 best-effort failure cleanup
        except OSError:
            pass
        raise


def write_text(path: str | os.PathLike, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    write_bytes(path, text.encode("utf-8"))


def write_json(path: str | os.PathLike, obj, indent: int | None = 1) -> None:
    """Atomically replace ``path`` with deterministic JSON.

    Keys are always sorted so that two processes serializing the same
    object race with *identical bytes* — whichever writer's rename wins,
    the artifact content is the same.
    """
    text = json.dumps(obj, sort_keys=True, indent=indent) + "\n"
    write_bytes(path, text.encode("utf-8"))


def append_line(path: str | os.PathLike, line: str) -> None:
    """Append one complete line as a single ``O_APPEND`` write.

    ``line`` must not contain interior newlines; the trailing newline is
    added here so the record on disk is exactly one write — concurrent
    appenders from other processes cannot tear it.
    """
    if "\n" in line:
        raise ValueError("append_line takes one record without newlines")
    append_records(path, [line])


def append_records(path: str | os.PathLike, lines: list[str]) -> None:
    """Append records to a shared log, one ``O_APPEND`` write per record.

    Each element becomes one line; each line is emitted with a single
    ``os.write`` so a reader (or a concurrent appender) never observes a
    partial record.  A batch is *not* atomic as a whole — records from
    other processes may interleave between lines — but every individual
    line parses.
    """
    fd = os.open(
        os.fspath(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    try:
        for line in lines:
            if "\n" in line:
                raise ValueError(
                    "append_records takes records without interior newlines"
                )
            payload = (line + "\n").encode("utf-8")
            written = os.write(fd, payload)
            if written != len(payload):
                # A short write on a regular O_APPEND file is effectively
                # impossible on local filesystems; if it ever happens the
                # log is torn and hiding that would defeat the contract.
                raise OSError(
                    f"short O_APPEND write to {path}: "
                    f"{written}/{len(payload)} bytes"
                )
    finally:
        os.close(fd)


def append_jsonl(path: str | os.PathLike, records: list) -> None:
    """Append JSON records to a shared log, one atomic line each."""
    append_records(
        path,
        [json.dumps(record, sort_keys=True) for record in records],
    )
