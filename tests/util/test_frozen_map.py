"""Tests for the frozen canonical map (repro.util.serialization.FrozenMap).

A frozen map renders its canonical bytes once and every later encode
splices them, so the properties that matter are: the spliced bytes equal
a fresh encode of the plain value, nothing can change the content behind
the stored bytes, and to every other consumer it is just a dict.
"""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import SerializationTypeError
from repro.util.serialization import (
    FrozenList,
    FrozenMap,
    canonical_bytes,
    canonical_decode,
    canonical_encode,
    freeze,
)
from repro.wire import CompactCodec

from tests.util.test_serialization import values

maps = st.dictionaries(st.text(max_size=10), values, max_size=5)

SAMPLE = {"b": [1, {"x": 2.5}], "a": {"c": b"raw", "d": (None, {"e": "s"})}}


class TestCanonicalBytes:
    @given(values)
    def test_freeze_preserves_encoding(self, value):
        assert canonical_encode(freeze(value)) == canonical_encode(value)

    @given(maps)
    def test_stored_bytes_are_the_encoding(self, value):
        frozen = FrozenMap(value)
        assert canonical_bytes(frozen) == canonical_encode(value)
        assert canonical_bytes(frozen) is canonical_bytes(frozen)  # never re-rendered

    @given(maps, maps)
    def test_nested_frozen_map_splices_identically(self, inner, outer):
        plain = dict(outer, inner=inner)
        spliced = dict(outer, inner=FrozenMap(inner))
        assert canonical_encode(spliced) == canonical_encode(plain)

    def test_rejects_non_str_keys(self):
        with pytest.raises(SerializationTypeError):
            FrozenMap({1: "x"})

    def test_sha1_is_stable(self):
        frozen = FrozenMap(SAMPLE)
        assert frozen.sha1() is frozen.sha1()
        assert frozen.sha1() == FrozenMap(SAMPLE).sha1()


class TestReadOnly:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.__setitem__("a", 1),
            lambda m: m.__delitem__("a"),
            lambda m: m.__ior__({"z": 1}),
            lambda m: m.clear(),
            lambda m: m.pop("a"),
            lambda m: m.popitem(),
            lambda m: m.setdefault("z", 1),
            lambda m: m.update(z=1),
        ],
        ids=["setitem", "delitem", "ior", "clear", "pop", "popitem",
             "setdefault", "update"],
    )
    def test_every_map_mutator_raises(self, mutate):
        frozen = FrozenMap(SAMPLE)
        with pytest.raises(SerializationTypeError):
            mutate(frozen)
        assert frozen == SAMPLE
        assert canonical_bytes(frozen) == canonical_encode(SAMPLE)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lst: lst.__setitem__(0, 9),
            lambda lst: lst.__delitem__(0),
            lambda lst: lst.__iadd__([9]),
            lambda lst: lst.__imul__(2),
            lambda lst: lst.append(9),
            lambda lst: lst.clear(),
            lambda lst: lst.extend([9]),
            lambda lst: lst.insert(0, 9),
            lambda lst: lst.pop(),
            lambda lst: lst.remove(1),
            lambda lst: lst.reverse(),
            lambda lst: lst.sort(),
        ],
        ids=["setitem", "delitem", "iadd", "imul", "append", "clear", "extend",
             "insert", "pop", "remove", "reverse", "sort"],
    )
    def test_every_nested_list_mutator_raises(self, mutate):
        frozen = FrozenMap(SAMPLE)
        with pytest.raises(SerializationTypeError):
            mutate(frozen["b"])
        assert frozen == SAMPLE

    def test_nested_values_are_frozen(self):
        frozen = FrozenMap(SAMPLE)
        assert type(frozen["a"]) is FrozenMap
        assert type(frozen["b"]) is FrozenList
        assert type(frozen["b"][1]) is FrozenMap
        assert type(frozen["a"]["d"]) is tuple
        assert type(frozen["a"]["d"][1]) is FrozenMap
        with pytest.raises(SerializationTypeError):
            frozen["a"]["d"][1]["e"] = "changed"

    def test_source_is_not_aliased(self):
        source = {"inner": {"k": 1}}
        frozen = FrozenMap(source)
        source["inner"]["k"] = 2
        assert frozen == {"inner": {"k": 1}}
        assert canonical_bytes(frozen) == canonical_encode({"inner": {"k": 1}})

    def test_freeze_returns_frozen_values_unchanged(self):
        frozen = FrozenMap(SAMPLE)
        assert freeze(frozen) is frozen
        assert freeze(frozen["b"]) is frozen["b"]


class TestDictBehaviour:
    @given(maps)
    def test_equal_to_the_plain_dict(self, value):
        frozen = FrozenMap(value)
        assert frozen == value and value == frozen
        assert isinstance(frozen, dict)

    def test_copies_are_plain_and_mutable(self):
        frozen = FrozenMap(SAMPLE)
        for copied in (dict(frozen), frozen.copy(), frozen | {}):
            assert type(copied) is dict and copied == SAMPLE
            copied["z"] = 1

    def test_copy_and_pickle_stay_frozen(self):
        frozen = FrozenMap(SAMPLE)
        for clone in (copy.copy(frozen), copy.deepcopy(frozen),
                      pickle.loads(pickle.dumps(frozen))):
            assert type(clone) is FrozenMap
            assert clone == frozen and canonical_bytes(clone) == canonical_bytes(frozen)

    @given(maps)
    def test_canonical_round_trip(self, value):
        assert canonical_decode(canonical_bytes(FrozenMap(value))) == canonical_decode(
            canonical_encode(value)
        )

    @given(maps)
    def test_compact_codec_round_trip(self, value):
        codec = CompactCodec()
        frozen = FrozenMap(value)
        encoded = codec.encode(frozen)
        assert encoded == codec.encode(value)
        assert canonical_encode(codec.decode(encoded)) == canonical_bytes(frozen)
