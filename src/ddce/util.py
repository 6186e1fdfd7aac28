"""Small shared helpers: stable hashing, seeded stream derivation, atomic
writes, JSON/JSONL reading and writing, CSV text."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

import numpy as np

from .errors import DdceError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of ``text``.

    Chosen as the package-wide stable string hash: published constants,
    platform independent, so hashed features and derived seeds are
    reproducible across runs and machines.
    """
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def substream(seed: int, *keys: int | str) -> np.random.Generator:
    """Derive an independent random stream from a master seed and a key path.

    String keys are folded through :func:`fnv1a64` so callers can label
    streams readably, e.g. ``substream(seed, "split", k)``.
    """
    entropy = [int(seed) & _MASK64]
    for key in keys:
        if isinstance(key, str):
            entropy.append(fnv1a64(key))
        else:
            entropy.append(int(key) & _MASK64)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *keys: int | str) -> int:
    """Fold a master seed and key path into a single reproducible integer seed."""
    return int(substream(seed, *keys).integers(0, 2**63))


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (for nonnegative x: up)."""
    return int(math.floor(x + 0.5))


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a temp file and rename, never in place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file, newlines translated to LF."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DdceError(f"{path}: not valid UTF-8: {exc}") from exc


def parse_json(text: str, where: str):
    """``json.loads``, raising DdceError naming ``where`` on malformed or
    too deeply nested input."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DdceError(f"{where}: invalid JSON: {exc}") from exc


def read_jsonl(path: str) -> list[tuple[int, object]]:
    """(line number, parsed value) for each non-blank line of a JSONL file.
    A string that decodes to a lone surrogate (an unpaired ``\\ud800``
    escape) is an error naming its line: no UTF-8 output could hold it."""
    rows = []
    for n, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            value = parse_json(line.strip(), f"{path}:{n}")
            # Only a \u escape can decode to a surrogate in text read as UTF-8.
            if "\\u" in line and not utf8_encodable(json.dumps(value, ensure_ascii=False)):
                raise DdceError(f"{path}:{n}: string holds a lone surrogate")
            rows.append((n, value))
    return rows


def utf8_encodable(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8, i.e. holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def write_jsonl(path: str, objs) -> None:
    """Write one JSON value per line, UTF-8 with LF endings, atomically."""
    # One encoder for the file: json.dumps with a keyword builds one per call.
    encode = json.JSONEncoder(ensure_ascii=False).encode
    atomic_write_text(path, "".join(encode(o) + "\n" for o in objs))


def csv_text(header: list[str], rows) -> str:
    """CSV text with LF line endings: the header line, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
