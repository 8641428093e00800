"""Serialization round trips and document dispatch."""

from __future__ import annotations

import json
import time

import pytest

from flab.cli import main
from flab.errors import InvalidInput
from flab.io import (
    document_to_object,
    dumps_canonical,
    elem_from_data,
    elem_to_data,
    module_from_dict,
    module_to_dict,
    object_to_document,
    paired_from_dict,
    paired_to_dict,
    ring_from_dict,
    ring_to_dict,
)
from flab.modules import FLModule
from flab.pairing import PairedFLModule
from flab.rings import PRIME_TRIAL_BOUND, make_field, make_ring
from flab.simples import SimpleSpec, all_embeddings
from flab.testing import canon2 as make_canon2
from flab.testing import pcanon2 as make_pcanon2


RINGS = [
    make_field(5),
    make_field(25),
    make_ring("witt", 5, 1, 2),
    make_ring("witt", 7, 2, 2),
    make_ring("dual_numbers", 5, 1, 3),
    make_ring("dual_numbers", 3, 2, 2),
]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r.family}-{r.p}-{r.f}-{r.level}")
def test_ring_round_trip(ring):
    doc = ring_to_dict(ring)
    assert ring_from_dict(doc) == ring
    assert ring_from_dict(json.loads(dumps_canonical(doc))) == ring


def test_ring_from_dict_rejects_wrong_minimal_poly():
    doc = ring_to_dict(make_field(25))
    doc["minimal_poly"] = [1, 1, 1]
    with pytest.raises(InvalidInput):
        ring_from_dict(doc)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"{r.family}-{r.p}-{r.f}-{r.level}")
def test_elem_round_trip(ring):
    seen = 0
    for x in ring.elements():
        data = elem_to_data(x)
        json.dumps(data)
        assert elem_from_data(ring, data) == x
        seen += 1
        if seen >= 30:
            break


def test_module_round_trip(canon2):
    assert module_from_dict(module_to_dict(canon2)) == canon2


def test_module_round_trip_dual_numbers():
    ring = make_ring("dual_numbers", 5, 2, 2)
    module = make_canon2(ring)
    assert module_from_dict(module_to_dict(module)) == module


def test_paired_round_trip(pcanon2):
    assert paired_from_dict(paired_to_dict(pcanon2)) == pcanon2


def test_canonical_bytes_are_stable(pcanon2):
    text = dumps_canonical(paired_to_dict(pcanon2))
    doc = json.loads(text)
    assert dumps_canonical(doc) == text
    obj = document_to_object(doc)
    assert dumps_canonical(object_to_document(obj)) == text


def test_document_dispatch(canon2, pcanon2):
    assert isinstance(document_to_object(module_to_dict(canon2)), FLModule)
    assert isinstance(document_to_object(paired_to_dict(pcanon2)), PairedFLModule)
    with pytest.raises(InvalidInput):
        document_to_object([1, 2, 3])


def test_witt_degree_must_match_block_count(canon2):
    doc = module_to_dict(canon2)
    doc["witt_degree"] = 2
    with pytest.raises(InvalidInput):
        module_from_dict(doc)


def test_structural_junk_raises_native_errors(canon2):
    doc = module_to_dict(canon2)
    del doc["blocks"]
    with pytest.raises(KeyError):
        module_from_dict(doc)
    doc = module_to_dict(canon2)
    doc["blocks"][0]["phi"][0][0] = "x"
    with pytest.raises((TypeError, ValueError)):
        module_from_dict(doc)


def test_pcanon2_document_shape(pcanon2):
    doc = paired_to_dict(pcanon2)
    assert doc["ring"] == {
        "family": "witt",
        "p": 5,
        "f": 1,
        "level": 1,
        "minimal_poly": [0, 1],
    }
    assert doc["rank"] == 2
    assert doc["bounds"] == [0, 1]
    assert doc["blocks"][0]["weights"] == [0, 1]
    assert doc["blocks"][0]["phi"] == [[[1], [0]], [[0], [1]]]
    assert doc["pairing"]["epsilon"] == -1
    assert doc["pairing"]["L"] == {"s": [1], "c": [[1]]}
    assert doc["pairing"]["gram"] == [[[[0], [1]], [[4], [0]]]]


def test_f2_module_documents_round_trip():
    # tensor-simples --embeddings writes its sources over F_2
    embeddings = all_embeddings(SimpleSpec(1, (0,)), SimpleSpec(1, (0,)), 2)
    assert embeddings
    for emb in embeddings:
        text = dumps_canonical(module_to_dict(emb.source))
        back = document_to_object(json.loads(text))
        assert back == emb.source
        assert back.ring == make_field(2)
        assert dumps_canonical(object_to_document(back)) == text


def test_f2_stays_rejected_outside_module_documents(pcanon2):
    odd_only = "p odd required for unit square roots and pairing normalization"
    f2 = ring_to_dict(make_field(2))
    with pytest.raises(InvalidInput, match=odd_only):
        ring_from_dict(f2)
    doc = paired_to_dict(pcanon2)
    doc["ring"] = f2
    with pytest.raises(InvalidInput, match=odd_only):
        document_to_object(doc)
    for family, level in (("witt", 2), ("dual_numbers", 1)):
        module_doc = module_to_dict(make_canon2())
        module_doc["ring"] = dict(f2, family=family, level=level)
        with pytest.raises(InvalidInput, match=odd_only):
            document_to_object(module_doc)


def test_huge_prime_fails_fast_through_the_cli(tmp_path, capsys):
    # a flag and a document both reach the prime-power split; exit code 1
    huge = 2**61 - 1
    verdict = (
        f"InvalidInput {huge} has no prime factor up to the trial-division "
        f"bound {PRIME_TRIAL_BOUND}"
    )
    doc = module_to_dict(make_canon2())
    doc["ring"]["p"] = huge
    path = tmp_path / "huge.json"
    path.write_text(dumps_canonical(doc), encoding="utf-8")
    for argv in (
        ["tensor-simples", "--h", "1", "--i", "0", "--h2", "1", "--i2", "0",
         "--q", str(huge), "--embeddings"],
        ["validate", str(path)],
    ):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert verdict in capsys.readouterr().err
