"""Property-based fuzzing of the input readers. A mutated JSONL row or EMB1
file either runs or ends in exit 2 with exactly one ``error:`` line; a
mutated config object either builds a PipelineConfig or raises DdceError.
Never a traceback. Examples are derandomized so the suite stays
deterministic."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddce.cli import main
from ddce.embed import EmbeddingMatrix, save_embeddings
from ddce.errors import DdceError
from ddce.pipeline import PipelineConfig, config_from_dict, to_dict

FUZZ = settings(max_examples=50, derandomize=True, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6,
)

TRUTH = [
    {"id": "a", "text": "book a flight", "intent": "flight"},
    {"id": "b", "text": "book a train", "intent": "flight"},
    {"id": "c", "text": "play a song", "intent": "music"},
    {"id": "d", "text": "what is love", "intent": None, "outlier": True},
]
PRED = [
    {"id": "a", "cluster": 0},
    {"id": "b", "cluster": 0},
    {"id": "c", "cluster": 1},
    {"id": "d", "cluster": -1},
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(*argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one CLI call; a warning counts as a
    stderr line, since the command line prints it there."""
    err = io.StringIO()
    with (contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def assert_clean_exit(code: int, err: list[str]) -> None:
    assert code == 0 or (code == 2 and len(err) == 1 and err[0].startswith("error:")), (code, err)


@st.composite
def mutated_rows(draw, rows):
    """``rows`` with one to three rows changed: a key set to any JSON value
    or deleted, the row replaced by any JSON value, or the line replaced by
    raw bytes (possibly not UTF-8)."""
    rows = [dict(r) for r in rows]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["set", "delete", "replace", "bytes"]))
        if kind in ("set", "delete") and isinstance(rows[i], dict):
            key = draw(st.sampled_from(["id", "text", "intent", "outlier", "cluster"]))
            if kind == "set":
                rows[i][key] = draw(JSON_VALUES)
            else:
                rows[i].pop(key, None)
        elif kind == "bytes":
            rows[i] = draw(st.binary(max_size=12))
        else:
            rows[i] = draw(JSON_VALUES)
    return rows


def _jsonl_bytes(rows) -> bytes:
    return b"\n".join(r if isinstance(r, bytes) else json.dumps(r).encode() for r in rows) + b"\n"


@FUZZ
@given(files=(mutated_rows(TRUTH).map(lambda rows: (rows, PRED))
              | mutated_rows(PRED).map(lambda rows: (TRUTH, rows))))
def test_evaluate_mutated_jsonl(workdir, files):
    truth_path, pred_path = workdir / "truth.jsonl", workdir / "pred.jsonl"
    truth_path.write_bytes(_jsonl_bytes(files[0]))
    pred_path.write_bytes(_jsonl_bytes(files[1]))
    assert_clean_exit(*run_cli("evaluate", "--truth", truth_path, "--pred", pred_path))


@pytest.fixture(scope="module")
def emb1_blob(workdir) -> bytes:
    """A valid EMB1 file: three tight blobs of three rows each."""
    rng = np.random.default_rng(0)
    data = np.repeat(np.eye(3), 3, axis=0) + 0.01 * rng.normal(size=(9, 3))
    path = workdir / "clean.emb1"
    save_embeddings(EmbeddingMatrix(data=data, row_ids=[f"r{i}" for i in range(9)]), str(path))
    return path.read_bytes()


@FUZZ
@given(edits=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=4),
       cut=st.none() | st.integers(0, 200))
def test_cluster_mutated_emb1(workdir, emb1_blob, edits, cut):
    blob = bytearray(emb1_blob)
    for pos, byte in edits:
        blob[pos % len(blob)] = byte
    path = workdir / "fuzz.emb1"
    path.write_bytes(bytes(blob if cut is None else blob[:cut]))
    assert_clean_exit(*run_cli("cluster", "--embeddings", path, "--max-eps", "0.5",
                               "--xi", "0.1", "--min-samples", "2", "--out", workdir / "out"))


def _paths(obj, prefix=()):
    """Every key/index path into a JSON tree, the root included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_config(draw):
    """The default config object with one to three nodes replaced by any
    JSON value, deleted, or given an extra key or element."""
    obj = to_dict(PipelineConfig())
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        kind = draw(st.sampled_from(["set", "delete", "add"]))
        if not path:
            obj = draw(JSON_VALUES) if kind == "set" else obj
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if kind == "set":
            parent[path[-1]] = draw(JSON_VALUES)
        elif kind == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=4))] = draw(JSON_VALUES)
        else:
            parent.append(draw(JSON_VALUES))
    return obj


@FUZZ
@given(obj=mutated_config())
def test_config_from_dict_mutated(obj):
    try:
        cfg = config_from_dict(obj)
    except DdceError:
        return
    assert isinstance(cfg, PipelineConfig)
