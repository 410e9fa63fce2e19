"""Content-addressed disk cache for computed characters.

Entries are JSON files named by the SHA-256 of the cache key (rank, lambda
tuple, method, format version). A hit deserializes to a character equal to
the recomputation, so rendering from cache is byte-identical. Unreadable or
mismatched entries, a stored character of another rank among them, are misses
with a warning on stderr; the format version bumps whenever the serialized
schema changes. No CLI path reads or writes it; it stays for the
benchmark's cache probe.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

from .characters import GradedCharacter, character_from_json, character_to_json

CACHE_FORMAT_VERSION = 1


def cache_key(rank: int, lam: Sequence[int], method: str) -> str:
    payload = json.dumps(
        {
            "rank": rank,
            "lambda": list(lam),
            "method": method,
            "version": CACHE_FORMAT_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _entry_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def cache_lookup(
    cache_dir: str, rank: int, lam: Sequence[int], method: str
) -> Optional[GradedCharacter]:
    """Return the cached character for the key, or None on any miss."""
    path = _entry_path(cache_dir, cache_key(rank, lam, method))
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("entry is not a JSON object")
        if obj.get("version") != CACHE_FORMAT_VERSION:
            print(f"warning: stale cache entry ignored: {path}", file=sys.stderr)
            return None
        ch = None
        if obj.get("key") == {"rank": rank, "lambda": list(lam), "method": method}:
            ch = character_from_json(obj.get("character"))
        if ch is None or ch.rank != rank:
            print(f"warning: cache key mismatch ignored: {path}", file=sys.stderr)
            return None
        return ch
    except (OSError, ValueError) as exc:
        print(f"warning: corrupt cache entry ignored: {path} ({exc})",
              file=sys.stderr)
        return None


def cache_store(
    cache_dir: str, rank: int, lam: Sequence[int], method: str,
    ch: GradedCharacter,
) -> str:
    """Write the character under its content address; returns the path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _entry_path(cache_dir, cache_key(rank, lam, method))
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "key": {"rank": rank, "lambda": list(lam), "method": method},
        "character": character_to_json(ch),
    }
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
