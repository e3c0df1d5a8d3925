"""Content-addressed result cache for command outputs.

Each entry is a small JSON envelope stored under a key derived from the
canonical form of the inputs: the toolchain (the version plus a digest
of the package's own sources and data files), the operation id, and the
full request payload (document contents and flags, never file paths).
Writes go to a temp file in the same directory and are renamed into
place, so concurrent runs sharing a cache directory can never observe a
half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path


def _source_digest() -> str:
    """SHA-256 over the names and bytes of the package sources and data."""
    package = Path(__file__).resolve().parent
    files = sorted(package.glob("*.py")) + sorted(package.glob("data/*.json"))
    digest = hashlib.sha256()
    for path in files:
        name = path.relative_to(package).as_posix().encode()
        data = path.read_bytes()
        for part in (name, data):
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
    return digest.hexdigest()


# Part of every key and every entry: a change to any source or data file
# makes all older entries misses.
TOOLCHAIN = "dslice/0.1.0+" + _source_digest()[:16]

ENV_CACHE_DIR = "DSLICE_CACHE_DIR"

__all__ = [
    "ENV_CACHE_DIR",
    "TOOLCHAIN",
    "cache_dir",
    "cache_key",
    "load_entry",
    "store_entry",
]


def cache_dir() -> Path:
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "dslice"


def cache_key(operation: str, payload) -> str:
    """Stable digest of the operation and its canonicalized inputs."""
    blob = json.dumps(
        {"toolchain": TOOLCHAIN, "operation": operation, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def load_entry(key: str, directory: Path | None = None):
    """The stored envelope, or None on a miss or an unreadable entry."""
    path = (directory or cache_dir()) / f"{key}.json"
    try:
        entry = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(entry, dict) or entry.get("toolchain") != TOOLCHAIN:
        return None
    if not isinstance(entry.get("result"), str):
        return None
    return entry


def store_entry(
    key: str,
    operation: str,
    result: str,
    exit_code: int,
    directory: Path | None = None,
) -> None:
    base = directory or cache_dir()
    base.mkdir(parents=True, exist_ok=True)
    entry = {
        "input": key,
        "operation": operation,
        "result": result,
        "exit": exit_code,
        "toolchain": TOOLCHAIN,
    }
    blob = json.dumps(entry, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
        os.replace(tmp, base / f"{key}.json")
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
