"""Seed fan-out and small filesystem helpers shared across the package."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import tempfile
from collections.abc import Iterator
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_SHIFT = np.uint32(16)


class _SeededWords(np.random.bit_generator.ISeedSequence):
    """Serves ``PCG64`` the 4 uint64 seed words its ``SeedSequence`` would
    have generated, computed beforehand."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve PCG64 only")
        return self.words


def _uint32_words(path) -> list[int]:
    """A path's entropy as the uint32 words SeedSequence splits it into: one
    word below 2**32 (0 included), else the low word, then the high one."""
    words: list[int] = []
    for word in seed_entropy(*path):
        words.append(word & _MASK32)
        if word > _MASK32:
            words.append(word >> 32)
    return words


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, uint64)`` for each column ``e`` of
    a (words, rows) uint32 array, in uint32 arithmetic that wraps as numpy's
    C code does. The hash constants depend only on the word count, so every
    row steps through the same ones."""
    length, rows = entropy.shape
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> _SHIFT)

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    const = _INIT_B
    state = np.empty((rows, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> _SHIFT)
    # word pairs read as little-endian uint64, as generate_state does
    return state.astype("<u4").view("<u8").astype(np.uint64)


def substreams(paths) -> Iterator[np.random.Generator]:
    """``substream(*path)`` for each path, bit for bit, seeded in one batch.

    The seed words of all paths are computed together, grouped by their
    number of 32-bit entropy words; each generator is built only when the
    iterator reaches it, so a pending path costs 32 bytes.
    """
    entropy = [_uint32_words(path) for path in paths]
    words = np.empty((len(entropy), 4), dtype=np.uint64)
    by_length: dict[int, list[int]] = {}
    for row, path_words in enumerate(entropy):
        by_length.setdefault(len(path_words), []).append(row)
    for rows in by_length.values():
        words[rows] = _seed_words(np.array([entropy[row] for row in rows], dtype=np.uint32).T)
    return (np.random.Generator(np.random.PCG64(_SeededWords(row))) for row in words)


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


def write_csv(path: str | Path, header, rows) -> None:
    """A header line, then one line per row, each ending in a bare newline:
    the format of every CSV file refscore writes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value
