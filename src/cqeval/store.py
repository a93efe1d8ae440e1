"""Line-delimited JSON stores with a one-line header.

Used for the records each pipeline stage hands to the next.  Writes go
through a temp file and an atomic rename so a crash never leaves a
half-written store behind.  The run journal is different: it is
append-only and headerless, and lives in the runner module.  Both read
their lines through ``decode_lines``, so a line that is not JSON, or not
a record of its kind, is a :class:`cqeval.Error` naming its file and line.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import tempfile
import typing
from enum import Enum
from pathlib import Path

from . import Error, read_text
from .wordnet import SynsetId

SCHEMA_VERSION = 1


def write_ldjson(path: str | Path, store_name: str, records) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"store": store_name, "schema_version": SCHEMA_VERSION},
                                sort_keys=True) + "\n")
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path


def is_json(text) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def decode_lines(path: Path, lines, first: int, decode=None) -> list:
    """The JSON value of each non-blank line of ``lines``, the first of
    which is line ``first`` of ``path``, turned into an object by ``decode``
    if given.  A line that is not JSON, or that ``decode`` rejects, raises
    an Error naming its file and line."""
    out = []
    for i, line in enumerate(lines, start=first):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            out.append(rec if decode is None else decode(rec))
        except (LookupError, TypeError, ValueError, AttributeError, Error) as e:
            detail = f"no field {e}" if isinstance(e, KeyError) else e
            raise Error(f"bad record: {detail}", i).at(path) from None
    return out


def read_ldjson(path: str | Path, store_name: str, decode=None) -> list:
    """The records of a store, each turned into an object by ``decode`` if
    given, after its header is checked."""
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines:
        raise Error("empty store file").at(path)
    # the header must be an object; a blank one names no store
    [header] = decode_lines(path, lines[:1], 1, dict) or [{}]
    if header.get("store") != store_name:
        raise Error(f"expected a {store_name!r} store, found {header.get('store')!r}").at(path)
    if header.get("schema_version") != SCHEMA_VERSION:
        raise Error(f"unsupported schema version {header.get('schema_version')!r}").at(path)
    return decode_lines(path, lines[1:], 2, decode)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def record_codec(cls):
    """``(encode, decode)`` between instances of the dataclass ``cls`` and
    store records.  A record has one key per field; a synset id is stored
    as its key and an enum member as its value.  ``decode`` converts the
    record it is given in place, and raises ValueError on a record with
    other keys or an unknown enum value."""
    hints = typing.get_type_hints(cls)
    fields = hints.keys()
    getters, typers = [], []
    for name, hint in hints.items():
        if hint is SynsetId:
            getters.append((name, operator.attrgetter(f"{name}.key")))
            typers.append((name, SynsetId.from_key))
        elif isinstance(hint, type) and issubclass(hint, Enum):
            getters.append((name, operator.attrgetter(f"{name}.value")))
            # a dict lookup: calling the enum costs more per record
            typers.append((name, {m.value: m for m in hint}.__getitem__))
        else:
            getters.append((name, operator.attrgetter(name)))

    def encode(obj) -> dict:
        return {name: get(obj) for name, get in getters}

    def decode(rec: dict):
        if rec.keys() != fields:
            raise ValueError(f"fields {sorted(rec)}, expected {sorted(fields)}")
        for name, typed in typers:
            try:
                rec[name] = typed(rec[name])
            except KeyError:  # the enum lookup
                raise ValueError(f"{name} {rec[name]!r} is not a {hints[name].__name__}") from None
        return cls(**rec)

    return encode, decode
