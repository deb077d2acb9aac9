"""Seed fan-out and small filesystem helpers shared across the package."""
from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_UNSAFE_IN_NAME = re.compile(r"[^A-Za-z0-9._-]+")


@lru_cache(maxsize=65536)
def _string_word(part: str) -> int:
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_entropy(*path: int | str) -> list[int]:
    """Map a label path to SeedSequence entropy words.

    String labels are hashed so unrelated labels cannot collide with
    small integers; integers pass through masked to 64 bits.
    """
    words: list[int] = []
    for part in path:
        if isinstance(part, (int, np.integer)):
            words.append(int(part) & _MASK64)
        else:
            words.append(_string_word(str(part)))
    return words


def substream(*path: int | str) -> np.random.Generator:
    """Deterministic child generator for a (seed, labels...) path.

    Distinct paths give statistically independent streams; the same path
    gives the same stream on every run and platform.
    """
    return np.random.default_rng(np.random.SeedSequence(seed_entropy(*path)))


def seed_int(*path: int | str) -> int:
    """Collapse a label path to a single 64-bit seed."""
    joined = b"\x1f".join(str(w).encode() for w in seed_entropy(*path))
    digest = hashlib.sha256(joined).digest()
    return int.from_bytes(digest[:8], "little")


def safe_name(name: str) -> str:
    """A file or directory name for an id or model name: each run of
    characters other than ASCII letters, digits, ``.``, ``_`` and ``-``
    becomes ``_``."""
    return _UNSAFE_IN_NAME.sub("_", name)


def json_objects(path: str | Path):
    """Yield (line number, object) for each non-blank line of a JSONL file.

    A line that is not valid JSON, or not a JSON object, raises a
    ``ValueError`` naming the file and the line.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {line_no}: expected a JSON object")
            yield line_no, obj


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see partial content."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value
