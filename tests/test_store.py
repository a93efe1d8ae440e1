"""Header-checked ldjson stores."""

import hashlib
import json

import pytest

from cqeval import Error
from cqeval.store import read_ldjson, sha256_file, write_ldjson


def test_round_trip(tmp_path):
    records = [{"id": "a", "n": 1}, {"id": "b", "n": 2}]
    path = write_ldjson(tmp_path / "sub" / "things.ldjson", "things", records)
    assert path.exists()
    assert read_ldjson(path, "things") == records


def test_header_line_shape(tmp_path):
    path = write_ldjson(tmp_path / "s.ldjson", "corpus", [])
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(first) == {"store": "corpus", "schema_version": 1}


def test_wrong_store_name_rejected(tmp_path):
    path = write_ldjson(tmp_path / "s.ldjson", "corpus", [{"id": "a"}])
    with pytest.raises(Error, match="s.ldjson: expected a 'synsets' store, found 'corpus'"):
        read_ldjson(path, "synsets")


def test_unsupported_schema_version(tmp_path):
    path = tmp_path / "s.ldjson"
    path.write_text('{"store": "corpus", "schema_version": 99}\n', encoding="utf-8")
    with pytest.raises(Error, match="s.ldjson: unsupported schema version 99"):
        read_ldjson(path, "corpus")


def test_bad_record_names_its_line(tmp_path):
    path = tmp_path / "s.ldjson"
    path.write_text(
        '{"store": "corpus", "schema_version": 1}\n{"ok": 1}\nnot json\n',
        encoding="utf-8",
    )
    with pytest.raises(Error, match=":3: bad record"):
        read_ldjson(path, "corpus")


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "s.ldjson"
    path.write_text("", encoding="utf-8")
    with pytest.raises(Error, match="s.ldjson: empty store file"):
        read_ldjson(path, "corpus")


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "s.ldjson"
    path.write_text(
        '{"store": "corpus", "schema_version": 1}\n\n{"id": "a"}\n\n',
        encoding="utf-8",
    )
    assert read_ldjson(path, "corpus") == [{"id": "a"}]


def test_write_leaves_no_temp_files(tmp_path):
    write_ldjson(tmp_path / "s.ldjson", "corpus", [{"id": "a"}])
    write_ldjson(tmp_path / "s.ldjson", "corpus", [{"id": "b"}])  # overwrite in place
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["s.ldjson"]
    assert read_ldjson(tmp_path / "s.ldjson", "corpus") == [{"id": "b"}]


def test_failed_write_cleans_up(tmp_path):
    def bad_records():
        yield {"id": "a"}
        raise RuntimeError("source blew up")

    with pytest.raises(RuntimeError):
        write_ldjson(tmp_path / "s.ldjson", "corpus", bad_records())
    assert list(tmp_path.iterdir()) == []


def test_sha256_file(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"competency")
    assert sha256_file(path) == hashlib.sha256(b"competency").hexdigest()


def test_record_codec_round_trips_synset_ids_and_enums():
    from cqeval.coremap import PropagatedEntry
    from cqeval.store import record_codec
    from cqeval.wordnet import MappingRelation, SynsetId

    encode, decode = record_codec(PropagatedEntry)
    entry = PropagatedEntry(SynsetId.from_key("n:00300505"), "Cooking",
                            MappingRelation.SUBSUMPTION, "Frying", 1)
    rec = encode(entry)
    assert rec == {"synset": "n:00300505", "term": "Cooking", "relation": "+",
                   "origin_term": "Frying", "depth": 1}
    assert decode(json.loads(json.dumps(rec))) == entry
