"""A memory-mode store entry stores what the op changed: a delta over its parent.

Layers under test:

* the codec (:func:`repro.core.cache.encode` / :func:`~repro.core.cache.decode`):
  one rule for every column — unchanged columns are not stored, a changed
  one is stored whole as its own blob (equal cells of another type, sign or
  key order are changes; copies that share objects differently are not),
  row positions are the caller's (stored as none when the row count is
  kept; none given makes a self-contained entry), a stored ``dict`` column
  pickles each key once without its cells being edited, and a payload of
  another shape or over another parent decodes as a miss;
* positions from the engine: two rows alike in every scalar cell keep
  their own parent row, np=2 writes np=1's entries byte for byte, and a
  quarantined row's position is skipped at np=2;
* soundness: adversarial test-local ops — a mapper writing a new ``meta``,
  a filter that writes ``meta``, one row becoming two, a row-subsetting
  selector, equal values of another type — export the same bytes and the
  same final fingerprint cold and warm;
* determinism: two runs under different ``PYTHONHASHSEED`` leave the same
  entry files, byte for byte;
* the resume chain: a crash resumes by replaying the recorded keys, a
  truncated entry inside the chain is recomputed, and a cache directory of
  whole-dataset entries is all misses once, then all hits;
* observability: ``cache.bytes_written`` is the growth of the store, a
  web-cleaning recipe's cache holds fewer than 3 input-sizes, and each
  filter's entry holds the stats it wrote and no ``meta``.
"""

import json
import math
import operator
import os
import pickle
import random
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.core.base_op import Filter, Mapper
from repro.core.cache import CacheManager, RunStore, decode, encode
from repro.core.checkpoint import CheckpointManager
from repro.core.dataset import NestedDataset
from repro.core.errors import OpExecutionError
from repro.core.executor import Executor
from repro.core.registry import OPERATORS
from repro.core.sample import Fields
from repro.testing import FaultPlan
from repro.tools.dataflow.effects import effect_signature

from tests.test_store import entry_files, forbid, forbid_everything
from tests.test_streaming import write_jsonl

SRC = Path(__file__).resolve().parent.parent / "src"

#: the op list of the ``web-short-persist-cold`` benchmark workload
WEB_CLEAN = [
    {"fix_unicode_mapper": {}},
    {"whitespace_normalization_mapper": {}},
    {"lowercase_mapper": {}},
    {"text_length_filter": {"min_len": 40}},
    {"whitespace_ratio_filter": {"min_ratio": 0.01, "max_ratio": 0.5}},
    {"digit_ratio_filter": {"max_ratio": 0.3}},
    {"special_characters_filter": {"max_ratio": 0.4}},
    {"character_repetition_filter": {"rep_len": 8, "max_ratio": 0.6}},
    {"words_num_filter": {"min_num": 10}},
    {"word_repetition_filter": {"rep_len": 5, "max_ratio": 0.6}},
    {"stopwords_filter": {"min_ratio": 0.0}},
    {"flagged_words_filter": {"max_ratio": 1.0}},
    {"document_deduplicator": {}},
]

_WORDS = (
    "the of and a to in is was it for with as on be at by this that from river "
    "village engine record garden letter market window bridge harvest journey "
    "teacher compass library signal mountain recipe station archive carry build "
    "follow gather measure notice open paint reach quiet bright narrow ancient"
).split()


def web_rows(count: int, seed: int = 7) -> list[dict]:
    """Short web text: clean prose, link boilerplate, gibberish, tiny rows, duplicates."""
    rng = random.Random(seed)

    def sentence() -> str:
        return " ".join(rng.choices(_WORDS, k=rng.randint(6, 16))).capitalize() + "."

    rows = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.5:
            text = " ".join(sentence() for _ in range(rng.randint(1, 3)))
        elif roll < 0.8:
            text = sentence() + f" Visit https://Site{index}.example.com/Page?id={index} NOW." * 3
        elif roll < 0.9:
            text = "".join(rng.choices("qwrtypsdfghjkl#$%&*@!{}[]<>|", k=rng.randint(60, 200)))
        else:
            text = sentence()
        rows.append({"id": index, "text": text, "meta": {"source": "fixture"}})
    rows += [dict(rows[rng.randrange(count)], id=count + n) for n in range(count // 10)]
    return rows


@pytest.fixture(scope="module")
def web_input(tmp_path_factory):
    return write_jsonl(tmp_path_factory.mktemp("web") / "in.jsonl", web_rows(400))


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
def rows_dataset(rows):
    return NestedDataset.from_list([dict(row, meta=dict(row["meta"])) for row in rows])


def replay(parent, child, positions=None):
    payload = encode(parent, child, positions)
    return payload, decode(parent, payload)


class Label(str):
    """A ``str`` subclass: equal to a plain string, but of another type."""


def stored(payload):
    """An entry's stored columns, unpickled."""
    return {name: pickle.loads(blob) for name, blob in payload["stored"].items()}


def exact(dataset):
    """Every cell with its type, a dict's key order and a float's sign (``repr``)."""
    return repr(dataset.to_dict())


class TestCodec:
    ROWS = [{"text": f"row {n}", "n": n, "meta": {"k": n, "src": "web"}} for n in range(10)]

    def test_an_unchanged_dataset_stores_no_column(self):
        parent = rows_dataset(self.ROWS)
        child = NestedDataset(parent.to_dict(), fingerprint="child")
        payload, decoded = replay(parent, child)
        assert payload["stored"] == {}
        assert payload["positions"] is None
        assert decoded == child and decoded.fingerprint == "child"
        # an op that kept the row count keeps the rows in place: no positions stored
        assert encode(parent, child, range(len(child))) == payload

    def test_a_changed_column_is_stored_an_unchanged_one_is_not(self):
        parent = rows_dataset(self.ROWS)
        columns = parent.to_dict()
        columns["text"] = [text.upper() if n < 2 else text for n, text in enumerate(columns["text"])]
        child = NestedDataset(columns, fingerprint="child")
        payload, decoded = replay(parent, child)
        assert stored(payload) == {"text": columns["text"]}
        assert decoded == child

    def test_equal_values_of_another_type_or_sign_are_changes(self):
        parent = NestedDataset({"x": [1, 0.0, True, "a", b"a", None, 7]})
        child = NestedDataset({"x": [1.0, -0.0, 1, "a", b"a", None, 7]}, fingerprint="child")
        payload, decoded = replay(parent, child)
        assert stored(payload) == {"x": child["x"]}
        assert [type(value) for value in decoded["x"]] == [
            float, float, int, str, bytes, type(None), int
        ]
        assert str(decoded["x"][1]) == "-0.0"

    def test_a_parent_column_of_other_cell_types_is_no_base(self):
        parent = NestedDataset({"x": [Label("a"), Label("b")]})
        child = NestedDataset({"x": ["a", "b"]}, fingerprint="child")
        payload, decoded = replay(parent, child)
        assert stored(payload) == {"x": ["a", "b"]}
        assert [type(value) for value in decoded["x"]] == [str, str]

    def test_a_changed_dict_column_is_stored_whole(self):
        parent = rows_dataset(self.ROWS)
        child = NestedDataset(parent.to_dict(), fingerprint="child")
        child._columns["meta"] = [dict(meta, k=meta["k"] + 100) for meta in parent["meta"]]
        payload, decoded = replay(parent, child)
        assert stored(payload) == {"meta": child._columns["meta"]}
        assert decoded["meta"][0] == {"k": 100, "src": "web"}
        assert parent["meta"][0] == {"k": 0, "src": "web"}

    def test_the_given_positions_are_stored(self):
        parent = rows_dataset(self.ROWS)
        child = parent.select([7, 2, 2, 9])
        child._fingerprint = "child"
        payload, decoded = replay(parent, child, [7, 2, 2, 9])
        assert payload["positions"] == [7, 2, 2, 9]
        assert payload["stored"] == {}
        assert decoded == child

    def test_a_pickled_copy_at_its_positions_stores_no_column(self):
        # a pool worker hands back copies: no object of the parent is in the child
        parent = rows_dataset(self.ROWS)
        child = pickle.loads(pickle.dumps(parent.select([9, 4, 0])))
        child._fingerprint = "child"
        payload, decoded = replay(parent, child, [9, 4, 0])
        assert payload["positions"] == [9, 4, 0]
        # the copied ``meta`` cells pickle to the parent's bytes at those rows
        assert payload["stored"] == {}
        assert decoded == child

    def test_rows_with_equal_values_keep_their_own_positions(self):
        parent = NestedDataset({"text": ["a", "b", "a"], "meta": [{"k": 0}, {"k": 1}, {"k": 2}]})
        child = parent.select([0, 1])
        child._fingerprint = "child"
        payload, decoded = replay(parent, child, [0, 1])
        assert payload["positions"] == [0, 1] and payload["stored"] == {}
        assert decoded == child and decoded["meta"] == [{"k": 0}, {"k": 1}]
        # wrong positions cost bytes, never exactness: ``meta`` is then stored
        payload, decoded = replay(parent, child, [2, 1])
        assert stored(payload) == {"meta": [{"k": 0}, {"k": 1}]}
        assert decoded == child

    def test_a_stored_dict_column_pickles_each_key_once(self):
        # one key string object per row, as ``json.loads`` line by line makes them
        cells = [json.loads(json.dumps({"source": "web", "n": n})) for n in range(50)]
        keys = [[id(key) for key in cell] for cell in cells]
        child = NestedDataset({"meta": cells}, fingerprint="child")
        payload, decoded = replay(None, child)
        blob = payload["stored"]["meta"]
        assert blob.count(b"source") == 1 and decoded["meta"] == cells
        # the copies are the pickle's: the dataset's cells are left as they were
        assert all(map(operator.is_, child._columns["meta"], cells))
        assert [[id(key) for key in cell] for cell in cells] == keys

    def test_no_mapping_stores_a_self_contained_entry(self):
        parent = NestedDataset({"text": ["a", "b", "c"]})
        child = NestedDataset({"text": ["a", "z"]}, fingerprint="child")
        payload, decoded = replay(parent, child)
        assert payload["parent_rows"] is None and stored(payload) == {"text": ["a", "z"]}
        assert decode(None, payload) == child == decoded

    def test_dropped_columns_are_named(self):
        parent = rows_dataset(self.ROWS)
        child = parent.remove_columns("n")
        payload, decoded = replay(parent, child)
        assert payload["dropped"] == ["n"] and decoded == child

    def test_a_projection_unpickles_only_the_columns_it_picks(self, monkeypatch):
        child = rows_dataset(self.ROWS).add_column("tags", [{"k": [n]} for n in range(10)])
        payload = encode(None, child)
        assert set(payload["stored"]) == {"text", "n", "meta", "tags"}
        unpickled = []
        loads = pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda data: unpickled.append(data) or loads(data))
        # a column left out is never read: unpickling it would miss
        payload["stored"]["meta"] = payload["stored"]["tags"] = None
        kept = {"text", "n"}
        text = decode(None, payload, lambda names: [name for name in names if name in kept])
        assert text.column_names == ["text", "n"] and text.fingerprint == child.fingerprint
        assert unpickled == [payload["stored"]["text"], payload["stored"]["n"]]
        # a projection that picks nothing still carries the entry's row count
        assert len(decode(None, payload, lambda names: ["absent"])) == len(self.ROWS)
        assert len(unpickled) == 3

    @pytest.mark.parametrize(
        "payload",
        [None, NestedDataset({"text": ["a"]}), {"format": 0}, {"format": 1}, [1, 2],
         {"format": 3}],
    )
    def test_anything_else_decodes_as_a_miss(self, payload):
        assert decode(NestedDataset({"text": ["a"]}), payload) is None

    def test_a_delta_over_another_parent_is_a_miss(self):
        parent = rows_dataset(self.ROWS)
        payload, _ = replay(parent, parent.select([1, 2]), [1, 2])
        assert decode(rows_dataset(self.ROWS[:5]), payload) is None
        assert decode(None, payload) is None


class TestOneColumnRule:
    """Every column is stored or not by one rule — identity, then equality, then
    pickled bytes where numbers or non-scalar cells are involved — and
    round-trips exactly: the same cells, key order and cell types, through a
    pickled entry."""

    @staticmethod
    def round_trip(parent, child, positions=None):
        payload = pickle.loads(pickle.dumps(encode(parent, child, positions)))  # as the store reads it back
        decoded = decode(parent, payload)
        assert exact(decoded) == exact(child)
        return payload

    def test_retyped_and_signed_cells_and_nan_are_changes(self):
        nan = math.nan
        stats = ("__stats__.a", "__stats__.z", "__stats__.q", "__stats__.s")
        parent = NestedDataset(dict(zip(stats, ([1], [0.0], [nan], [nan]))))
        child = NestedDataset(dict(zip(stats, ([1.0], [-0.0], [float("nan")], [nan]))))
        payload = self.round_trip(parent, child)
        # the NaN that is the same object is unchanged; a new NaN is a change
        assert set(payload["stored"]) == {"__stats__.a", "__stats__.z", "__stats__.q"}
        grandchild = NestedDataset(dict(zip(stats, ([True], [-0.0], [0.0], [nan]))))
        payload = self.round_trip(child, grandchild)
        assert set(payload["stored"]) == {"__stats__.a", "__stats__.q"}

    def test_all_empty_dicts_and_zero_rows(self):
        parent = NestedDataset({"text": ["x", "y"], "meta": [{}, {}]})
        payload = self.round_trip(parent, NestedDataset({"text": ["x", "y"], "meta": [{}, {}]}))
        assert payload["stored"] == {}
        dropped = self.round_trip(parent, NestedDataset({"text": ["y"], "meta": [{}]}), [1])
        assert dropped["positions"] == [1] and dropped["stored"] == {}
        empty = NestedDataset({"text": [], "meta": []})
        assert self.round_trip(parent, empty, [])["parent_rows"] == 2
        self.round_trip(empty, empty)
        assert exact(decode(None, encode(None, empty))) == exact(empty)

    @pytest.mark.parametrize(
        "cells",
        [
            [{"a": 0, "b": 2}, {"b": 2, "a": 0}],
            [{"a": 0}, {"b": 0}],
            [{"a": 0}, {}],
            [{"a": 0}, {"a": 0, "b": 2}],
            [{}, {"a": 0}],
            [{"a": 0}, {"a": [0]}],
            [OrderedDict(a=0), OrderedDict(a=0)],
            [{0: "int key"}, {0: "int key"}],
            [{"a": 0}, {"a": 0.0}],
            [{"a": 0}, {"a": False}],
        ],
        ids=["key-orders-differ", "keys-differ", "a-key-missing", "a-key-added",
             "a-key-added-to-empty", "nested-value", "dict-subclass", "non-str-key",
             "equal-float-value", "equal-bool-value"],
    )
    def test_a_dict_column_that_differs_is_stored_whole(self, cells):
        parent = NestedDataset({"meta": [{"a": 0}, {"a": 0}]})
        child = NestedDataset({"meta": cells})
        payload = self.round_trip(parent, child)
        assert set(payload["stored"]) == {"meta"}
        assert list(map(type, decode(parent, payload)["meta"])) == list(map(type, cells))

    def test_equal_key_orders_that_differ_are_changes(self):
        parent = NestedDataset({"meta": [{"a": 1, "b": 2}]})
        child = NestedDataset({"meta": [{"b": 2, "a": 1}]})  # equal as dicts
        payload = self.round_trip(parent, child)
        assert set(payload["stored"]) == {"meta"}

    def test_copies_that_share_objects_differently_are_unchanged(self):
        # a pool round trip copies cells and splits what they shared across
        # chunks: each cell still pickles to the bytes it had
        shared = {"source": "web", "tags": ["a"]}
        parent = NestedDataset({"text": ["x", "y", "z"], "meta": [shared, shared, shared]})
        child = NestedDataset({"text": ["x", "y", "z"],
                               "meta": [pickle.loads(pickle.dumps(shared)) for _ in range(3)]})
        assert self.round_trip(parent, child)["stored"] == {}


# ----------------------------------------------------------------------
# Soundness: adversarial test-local ops, cold vs warm
# ----------------------------------------------------------------------
class MetaStampMapper(Mapper):
    """Counts its visits inside a new ``meta`` dict."""

    _name = "meta_stamp_mapper"

    def process(self, sample):
        sample[Fields.meta] = dict(sample[Fields.meta], visits=sample[Fields.meta].get("visits", 0) + 1)
        return sample


class MetaStampFilter(Filter):
    """Writes a length stat and a new ``meta`` with a flag; drops every third length."""

    _name = "meta_stamp_filter"

    def compute_stats(self, sample, context=False):
        sample[Fields.stats]["chars"] = len(sample[Fields.text])
        sample[Fields.meta] = dict(sample[Fields.meta], filtered=True)
        return sample

    def process(self, sample):
        return sample[Fields.stats]["chars"] % 3 != 0


class SplitHalvesMapper(Mapper):
    """One row becomes two halves, each with a new ``meta`` naming its half."""

    _name = "split_halves_mapper"

    def process_batched(self, samples):
        out = {key: [] for key in samples}
        for row, text in enumerate(samples[Fields.text]):
            for key, values in samples.items():
                out[key] += [values[row], values[row]]
            middle = len(text) // 2
            out[Fields.text][-2:] = [text[:middle], text[middle:]]
            meta = samples[Fields.meta][row]
            out[Fields.meta][-2:] = [dict(meta, half=0), dict(meta, half=1)]
        return out


class RetypeMapper(Mapper):
    """Rewrites ``n`` (top level and in a new ``meta``) as an equal value of another type."""

    _name = "retype_mapper"
    CASTS = {"float": float, "negate": lambda value: -value, "bool": bool}

    def __init__(self, to: str = "float", **kwargs):
        super().__init__(**kwargs)
        self.to = to

    def process(self, sample):
        cast = self.CASTS[self.to]
        sample["n"] = cast(sample["n"])
        sample[Fields.meta] = dict(sample[Fields.meta], n=cast(sample[Fields.meta]["n"]))
        return sample


LOCAL_OPS = (MetaStampMapper, MetaStampFilter, SplitHalvesMapper, RetypeMapper)

ADVERSARIAL = {
    "meta-mapper": [{"meta_stamp_mapper": {}}, {"meta_stamp_mapper": {}}],
    "filter-writing-meta": [{"meta_stamp_filter": {}}, {"meta_stamp_mapper": {}}],
    "one-row-to-two": [{"split_halves_mapper": {}}, {"meta_stamp_mapper": {}}],
    "row-subset-selector": [
        {"meta_stamp_filter": {}},
        {"topk_specified_field_selector": {"field_key": "__stats__.chars", "topk": 25}},
        {"meta_stamp_mapper": {}},
    ],
    # 1 -> 1.0 -> -1.0 -> True -> 1.0: the last op changes types only
    "equal-values-of-another-type": [
        {"retype_mapper": {"to": "float"}},
        {"retype_mapper": {"to": "negate"}},
        {"retype_mapper": {"to": "bool"}},
        {"retype_mapper": {"to": "float"}},
    ],
}


@pytest.fixture
def local_ops(monkeypatch):
    for cls in LOCAL_OPS:
        monkeypatch.setitem(OPERATORS.modules, cls._name, cls)


@pytest.fixture(scope="module")
def adversarial_input(tmp_path_factory):
    # a third of the rows hold 1, the rest 0: retyping changes some cells of
    # ``n`` and keeps others, in type and value
    rows = [
        {"text": f"document {n} " + "word " * (n % 17), "n": int(n % 3 == 0),
         "meta": {"n": int(n % 3 == 0)}}
        for n in range(60)
    ]
    return write_jsonl(tmp_path_factory.mktemp("adversarial") / "in.jsonl", rows)


def run_recipe(tmp_path, tag, input_path, process, work="work", prepare=None, **options):
    """One memory-mode run; returns (export bytes, output dataset, executor)."""
    executor = Executor({
        "dataset_path": str(input_path),
        "export_path": str(tmp_path / f"{tag}.jsonl"),
        "work_dir": str(tmp_path / work),
        "process": process,
        "keep_stats_in_export": True,
        **options,
    })
    if prepare is not None:
        prepare(executor)
    output = executor.run()
    return (tmp_path / f"{tag}.jsonl").read_bytes(), output, executor


@pytest.mark.usefixtures("local_ops")
@pytest.mark.parametrize("recipe", sorted(ADVERSARIAL))
def test_adversarial_ops_replay_exactly(tmp_path, adversarial_input, recipe):
    process = ADVERSARIAL[recipe]
    reference, _, _ = run_recipe(tmp_path, "reference", adversarial_input, process,
                                 work="plain")
    cold, cold_output, first = run_recipe(tmp_path, "cold", adversarial_input, process,
                                          use_cache=True)
    # every entry is a delta over its parent, but for the op whose output
    # rows all differ from their parent rows (one row split into halves)
    self_contained = [
        path for path in entry_files(first.store.cache_dir)
        if pickle.loads(path.read_bytes())["parent_rows"] is None
    ]
    assert len(self_contained) == (recipe == "one-row-to-two")
    warm, warm_output, executor = run_recipe(
        tmp_path, "warm", adversarial_input, process, use_cache=True, prepare=forbid_everything
    )
    report = executor.last_report
    assert report["cache"]["hits"] == len(process)
    assert all(op["calls"] == 0 for op in report["ops"])
    assert cold == warm == reference
    assert cold_output.fingerprint == warm_output.fingerprint
    if "meta_stamp_filter" in str(process):  # its per-row compute_stats writes ``meta``
        assert all(json.loads(line)["meta"]["filtered"] for line in reference.splitlines())


@pytest.mark.parametrize("fusion", [False, True], ids=["unfused", "fused"])
def test_a_pooled_run_stores_deltas(tmp_path, web_input, fusion):
    # at np > 1 every op's output comes back from a worker as pickled copies
    options = {"use_cache": True, "op_fusion": fusion, "np": 2}
    reference, _, _ = run_recipe(tmp_path, "reference", web_input, WEB_CLEAN, work="plain",
                                 op_fusion=fusion)
    cold, _, first = run_recipe(tmp_path, "cold", web_input, WEB_CLEAN, **options)
    files = entry_files(first.store.cache_dir)
    payloads = [pickle.loads(path.read_bytes()) for path in files]
    assert len(payloads) == len(first.ops)
    assert all(payload["parent_rows"] is not None for payload in payloads)
    # an op that dropped rows says which parent row each output row is
    dropped = [payload for payload in payloads if payload["rows"] < payload["parent_rows"]]
    assert dropped and all(payload["positions"] is not None for payload in dropped)
    assert first.store.total_bytes() < 2.5 * web_input.stat().st_size
    # the serial run writes the same entries, byte for byte
    _, _, serial = run_recipe(tmp_path, "serial", web_input, WEB_CLEAN, work="serial",
                              **dict(options, np=1))
    entries = {path.name: path.read_bytes() for path in files}
    assert entries == {path.name: path.read_bytes()
                       for path in entry_files(serial.store.cache_dir)}
    warm, _, executor = run_recipe(tmp_path, "warm", web_input, WEB_CLEAN,
                                   prepare=forbid_everything, **options)
    assert executor.last_report["cache"]["hits"] == len(first.ops)
    assert cold == warm == reference


def test_rows_with_equal_scalar_cells_keep_their_own_parent_row(tmp_path):
    # two rows alike in every scalar cell, told apart only by ``meta``: the
    # deduplicator keeps the first, so its entry has nothing of ``meta`` to store
    rows = [{"id": 0, "text": "the same words in both rows", "meta": {"copy": n}} for n in (0, 1)]
    rows.append({"id": 1, "text": "another row of words", "meta": {"copy": 0}})
    input_path = write_jsonl(tmp_path / "in.jsonl", rows)
    process = [{"document_deduplicator": {}}]
    reference, _, _ = run_recipe(tmp_path, "reference", input_path, process, work="plain")
    cold, _, executor = run_recipe(tmp_path, "cold", input_path, process, use_cache=True)
    (path,) = entry_files(executor.store.cache_dir)
    payload = pickle.loads(path.read_bytes())
    assert "meta" not in payload["stored"]
    assert payload["positions"] == [0, 2]
    assert cold == reference
    assert [json.loads(line)["meta"] for line in cold.splitlines()] == [{"copy": 0}] * 2


def test_positions_skip_a_quarantined_row_at_np2(tmp_path, marked_input):
    held = []  # (input, output) of every op the run computed, in order

    def prepare(executor):
        crash_at_marker(executor)
        run_segments = executor._run_segments

        def recording(ops, dataset):
            output, positions = run_segments(ops, dataset)
            held.append((dataset, output))
            return output, positions

        executor._run_segments = recording

    options = {"use_cache": True, "use_checkpoint": True, "op_fusion": False, "np": 2,
               "on_error": "quarantine"}
    _, output, executor = run_recipe(tmp_path, "faulted", marked_input, WEB_CLEAN,
                                     prepare=prepare, **options)
    assert executor.last_report["faults"]["quarantined_rows"] == 1
    assert MARKER not in " ".join(output["text"])
    chain = executor.checkpoint.read_state()["keys"]
    assert len(chain) == len(held) == len(WEB_CLEAN)
    current, faulted = held[0][0], 0
    for key, (parent, child) in zip(chain, held):
        payload = executor._stores.get(key)
        # each entry replays, onto what the entries before it replay to, the dataset the run held
        current = decode(current, payload)
        assert exact(current) == exact(child) and current.fingerprint == child.fingerprint
        if payload["rows"] == payload["parent_rows"]:
            continue
        # a row-dropping entry names the parent row of each kept row, by its ``id``
        ids = parent["id"]
        assert payload["positions"] == [ids.index(row_id) for row_id in child["id"]]
        if -1 in ids and -1 not in child["id"]:  # the poison row entered this op, none came out
            faulted += 1
            assert ids.index(-1) not in payload["positions"]
    assert faulted == 1 and any(key.endswith("#faulted") for key in chain)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
RUN_SCRIPT = """
import json, sys
from repro.core.executor import Executor
Executor(json.loads(sys.argv[1])).run()
"""


def test_entries_are_identical_across_hash_seeds(tmp_path, web_input):
    entries = []
    for seed in ("0", "4242"):
        config = {
            "dataset_path": str(web_input),
            "work_dir": str(tmp_path / f"work-{seed}"),
            "process": WEB_CLEAN,
            "op_fusion": True,
            "use_cache": True,
            "use_checkpoint": True,
        }
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c", RUN_SCRIPT, json.dumps(config)], env=env, check=True
        )
        entries.append(
            {path.name: path.read_bytes() for path in entry_files(tmp_path / f"work-{seed}" / "cache")}
        )
    assert len(entries[0]) == 10  # one per fused op
    assert entries[0] == entries[1]


# ----------------------------------------------------------------------
# The resume chain
# ----------------------------------------------------------------------
CRASH_OP = "digit_ratio_filter"
MARKER = "velociraptor"


def crash_at_marker(executor):
    FaultPlan().inject(CRASH_OP, match=MARKER).install(executor.ops)


@pytest.fixture(scope="module")
def marked_input(tmp_path_factory):
    rows = web_rows(300, seed=11)
    rows.insert(150, {"id": -1, "text": f"The quiet {MARKER} walked through the ancient "
                      "library and read every page of the garden record.",
                      "meta": {"source": "fixture"}})
    return write_jsonl(tmp_path_factory.mktemp("marked") / "in.jsonl", rows)


class TestResumeChain:
    OPTIONS = {"use_cache": True, "use_checkpoint": True, "op_fusion": False}

    def crashed(self, tmp_path, input_path):
        reference, _, plain = run_recipe(tmp_path, "reference", input_path, WEB_CLEAN,
                                         work="plain", op_fusion=False)
        with pytest.raises(OpExecutionError, match=CRASH_OP):
            run_recipe(tmp_path, "crashed", input_path, WEB_CLEAN, prepare=crash_at_marker,
                       **self.OPTIONS)
        names = [op.name for op in plain.ops]
        return reference, names[: names.index(CRASH_OP)]

    def test_a_crash_resumes_by_replaying_the_recorded_chain(self, tmp_path, marked_input):
        reference, done = self.crashed(tmp_path, marked_input)
        state = CheckpointManager(tmp_path / "work" / "checkpoint").read_state()
        assert state["op_index"] == len(done) == len(state["keys"])
        resumed, _, executor = run_recipe(tmp_path, "resumed", marked_input, WEB_CLEAN,
                                          prepare=forbid(done), **self.OPTIONS)
        assert resumed == reference
        report = executor.last_report
        # replayed entries are progress, not cache lookups
        assert report["cache"]["hits"] == 0
        assert report["cache"]["misses"] == len(WEB_CLEAN) - len(done)

    def test_a_truncated_entry_inside_the_chain_is_recomputed(self, tmp_path, marked_input):
        reference, done = self.crashed(tmp_path, marked_input)
        state = CheckpointManager(tmp_path / "work" / "checkpoint").read_state()
        store = CacheManager(tmp_path / "work" / "cache")
        broken = 1
        path = store._path_for(state["keys"][broken])
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        resumed, _, executor = run_recipe(tmp_path, "resumed", marked_input, WEB_CLEAN,
                                          prepare=forbid(done[:broken]), **self.OPTIONS)
        assert resumed == reference
        calls = {op["name"]: (op["calls"], op["cached_calls"]) for op in executor.last_report["ops"]}
        assert calls[done[broken]] == (1, 0)
        # the entries after the broken one still fit the recomputed dataset
        assert all(calls[name] == (0, 1) for name in done[broken + 1:])

    def test_a_cache_of_whole_dataset_entries_misses_once_then_hits(self, tmp_path, marked_input):
        reference, output, first = run_recipe(tmp_path, "first", marked_input, WEB_CLEAN,
                                               **self.OPTIONS)
        store, keys = first.store, first.checkpoint.read_state()["keys"]
        # rewrite every entry as the whole pickled dataset an older store held
        dataset = first._load_input(None)
        for key in keys:
            dataset = decode(dataset, store.get(key))
            store.put(key, dataset)
        assert dataset == output
        (first.checkpoint.checkpoint_dir / first.checkpoint.STATE_FILE).unlink()

        cache_only = {"use_cache": True, "op_fusion": False}
        again, _, second = run_recipe(tmp_path, "again", marked_input, WEB_CLEAN, **cache_only)
        assert second.last_report["cache"]["hits"] == 0
        assert second.last_report["cache"]["misses"] == len(WEB_CLEAN)
        warm, _, third = run_recipe(tmp_path, "warm", marked_input, WEB_CLEAN,
                                    prepare=forbid_everything, **cache_only)
        assert third.last_report["cache"]["hits"] == len(WEB_CLEAN)
        assert again == warm == reference

    def test_a_faulted_entry_goes_when_the_state_moves_to_another_run(self, tmp_path,
                                                                       marked_input):
        options = {**self.OPTIONS, "on_error": "skip"}
        run_recipe(tmp_path, "faulted", marked_input, WEB_CLEAN, prepare=crash_at_marker,
                   **options)
        # a faulted entry lives in the run's own store, never in the cache
        cache = tmp_path / "work" / "cache"
        store = CacheManager(tmp_path / "work" / "checkpoint")
        state = CheckpointManager(tmp_path / "work" / "checkpoint").read_state()
        faulted = [key for key in state["keys"] if key.endswith("#faulted")]
        assert len(faulted) == 1 and store.has(faulted[0])
        assert not CacheManager(cache).has(faulted[0])
        assert len(entry_files(cache)) == len(WEB_CLEAN) - 1
        # the same run again keeps its fault-shaped progress
        run_recipe(tmp_path, "again", marked_input, WEB_CLEAN, prepare=forbid_everything,
                   **options)
        assert store.has(faulted[0])
        # an edited recipe, now fault-free, replaces the state: nothing points
        # at the faulted entry any more
        edited = [*WEB_CLEAN[:-1], {"document_deduplicator": {"lowercase": True}}]
        run_recipe(tmp_path, "edited", marked_input, edited, **options)
        assert not store.has(faulted[0])
        assert entry_files(tmp_path / "work" / "checkpoint") == []


@pytest.mark.parametrize("persistence", [
    {"use_checkpoint": True},
    {"use_cache": True, "use_checkpoint": True},
], ids=["checkpoint", "both"])
def test_the_own_store_holds_exactly_the_chain(tmp_path, persistence):
    """After every run — cold, crashed, resumed, over an edited input, faulted —
    the checkpoint directory's entry files are the ones its state's keys place
    there: nothing orphaned, nothing missing."""
    options = {**persistence, "op_fusion": False}
    work = tmp_path / "work"
    own = CacheManager(work / "checkpoint")
    stores = RunStore(CacheManager(work / "cache") if "use_cache" in persistence else None, own)

    def assert_own_store_is_the_chain():
        keys = CheckpointManager(work / "checkpoint").read_state()["keys"]
        named = sorted(own._path_for(key) for key in keys if stores.place(key) is own)
        assert entry_files(work / "checkpoint") == named
        return named

    rows = web_rows(300, seed=11)
    path = write_jsonl(tmp_path / "in.jsonl", rows)
    run_recipe(tmp_path, "cold", path, WEB_CLEAN, **options)
    assert_own_store_is_the_chain()

    marked = [{**row, "text": f"{MARKER} {row['text']}"} if row["id"] == 150 else row
              for row in rows]
    write_jsonl(path, marked)
    with pytest.raises(OpExecutionError, match=CRASH_OP):
        run_recipe(tmp_path, "crashed", path, WEB_CLEAN, prepare=crash_at_marker, **options)
    assert_own_store_is_the_chain()
    resumed, _, _ = run_recipe(tmp_path, "resumed", path, WEB_CLEAN, **options)
    assert_own_store_is_the_chain()
    assert resumed == run_recipe(tmp_path, "plain", path, WEB_CLEAN, work="plain")[0]

    write_jsonl(path, [{**row, "text": row["text"].upper()} for row in marked])
    run_recipe(tmp_path, "edited", path, WEB_CLEAN, **options)
    assert_own_store_is_the_chain()

    # a lenient run's fault-shaped entries live in the own store whatever the options
    write_jsonl(path, marked[::-1])
    run_recipe(tmp_path, "faulted", path, WEB_CLEAN, prepare=crash_at_marker,
               on_error="skip", **options)
    assert assert_own_store_is_the_chain()


def test_selectors_keeping_the_same_first_rows_share_no_cache_key(tmp_path):
    """Two top-k selectors over other fields keep the same first 64 rows and
    differ after them: the op after each must not read the other's entry.
    A Selector's output fingerprint digested only those 64 positions, so the
    second run replayed the first run's lowercased rows."""
    # top 100 by ``a``: rows 0-99; by ``b``: rows 0-63 and 100-135
    rows = [
        {"text": f"Row {index} Of The Corpus", "meta": {
            "a": 1000 - index if index < 100 else index,
            "b": 1000 - index if index < 64 or 100 <= index < 136 else index - 900,
        }}
        for index in range(200)
    ]
    input_path = write_jsonl(tmp_path / "in.jsonl", rows)
    exports = {}
    for field_key in ("meta.a", "meta.b"):
        process = [
            {"topk_specified_field_selector": {"field_key": field_key, "topk": 100}},
            {"lowercase_mapper": {}},
        ]
        cold, _, _ = run_recipe(tmp_path, f"cold-{field_key}", input_path, process,
                                work=f"work-{field_key}", use_cache=True)
        shared, _, _ = run_recipe(tmp_path, f"shared-{field_key}", input_path, process,
                                  work="shared", use_cache=True)
        assert shared == cold
        exports[field_key] = cold
    assert exports["meta.a"] != exports["meta.b"]


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestBytesWritten:
    def test_bytes_written_is_the_growth_of_the_store(self, tmp_path, web_input):
        _, _, executor = run_recipe(tmp_path, "out", web_input, WEB_CLEAN, use_cache=True,
                                    op_fusion=True)
        report = executor.last_report
        written = report["cache"]["bytes_written"]
        assert written == executor.store.total_bytes() > 0
        assert f"bytes_written={written}" in report.render()

        # a warm run writes nothing
        _, _, warm = run_recipe(tmp_path, "warm", web_input, WEB_CLEAN, use_cache=True,
                                op_fusion=True)
        assert warm.last_report["cache"]["bytes_written"] == 0

    def test_checkpoint_only_writes_deltas_within_one_copy(self, tmp_path):
        """Checkpoint-only writes less than every op output encoded whole, and
        its store never holds more than the largest entry written so far at an
        op boundary (sampled before each write and at the end, as the
        Appendix A.2 ablation samples it)."""
        path = write_jsonl(tmp_path / "in.jsonl", web_rows(1500, seed=5))
        _, _, chained = run_recipe(tmp_path, "chained", path, WEB_CLEAN, work="chained",
                                   use_cache=True, use_checkpoint=True, op_fusion=False)
        dataset, whole = chained._load_input(None), 0
        for key in chained.checkpoint.read_state()["keys"]:
            dataset = decode(dataset, chained.store.get(key))
            whole += len(pickle.dumps(encode(None, dataset), pickle.HIGHEST_PROTOCOL))

        executor = Executor({
            "dataset_path": str(path),
            "work_dir": str(tmp_path / "work"),
            "process": WEB_CLEAN,
            "use_checkpoint": True,
            "op_fusion": False,
        })
        store, put = executor.store, executor.store.put
        boundaries, largest = [], [0]

        def watched_put(key, payload):
            boundaries.append((store.total_bytes(), largest[-1]))
            written = put(key, payload)
            largest.append(max(largest[-1], written.stat().st_size))
            return written

        store.put = watched_put
        output = executor.run()
        boundaries.append((store.total_bytes(), largest[-1]))

        assert output == dataset
        assert len(boundaries) == len(WEB_CLEAN) + 1
        # the chain restarted at a whole entry, then grew by deltas again
        assert 1 < len(executor.checkpoint.read_state()["keys"]) < len(WEB_CLEAN)
        assert executor.last_report["cache"]["bytes_written"] < whole
        assert all(held <= bound for held, bound in boundaries), boundaries

    def test_a_web_cleaning_cache_holds_under_three_input_sizes(self, tmp_path, web_input):
        _, _, executor = run_recipe(tmp_path, "out", web_input, WEB_CLEAN, use_cache=True,
                                    use_checkpoint=True, op_fusion=True)
        input_bytes = web_input.stat().st_size
        assert executor.store.total_bytes() < 3 * input_bytes

    def test_a_filter_entry_holds_the_stats_it_wrote_and_no_meta(self, tmp_path, web_input):
        _, _, executor = run_recipe(tmp_path, "out", web_input, WEB_CLEAN, use_cache=True,
                                    use_checkpoint=True, op_fusion=False)
        chain = executor.checkpoint.read_state()["keys"]
        payloads = [executor.store.get(key) for key in chain]
        assert len(payloads) == len(WEB_CLEAN)
        filters = 0
        for step, payload in zip(WEB_CLEAN, payloads):
            (name,) = step
            # no entry re-stores an unchanged ``meta``, and none holds a stats dict
            assert "meta" not in payload["stored"] and "__stats__" not in payload["columns"]
            wrote = {name for name in payload["stored"] if name.startswith("__stats__.")}
            if name.endswith("_filter"):
                filters += 1
                assert wrote == {field for field in effect_signature(name).writes
                                 if field.startswith("__stats__.")}, name
            else:
                assert not wrote, name
        assert filters >= 3
