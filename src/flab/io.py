"""Canonical JSON serialization for rings, modules, and pairings.

Documents use sorted keys and compact separators so that emit(parse(file))
is byte-identical on canonically formatted files.  Field layout:

    ring      {"family", "p", "f", "level", "minimal_poly"}  (poly low-to-high)
    module    {"ring", "witt_degree", "rank", "bounds", "blocks"}
              with blocks = [{"weights": [...], "phi": [[entry, ...], ...]}]
    pairing   optional extra key {"epsilon", "L": {"s", "c"}, "gram"}

Matrix entries are coefficient vectors: a length-f integer vector for Witt
rings, a length-level vector of such vectors for dual numbers.

A declared rank, or a phi or gram row count or row length, above MAX_RANK
is refused before the entries of that matrix are read.  The numbers of
blocks, of twisting entries and of Gram matrices are checked before any
of them is read.
"""

from __future__ import annotations

import json

from .errors import InvalidInput
from .linalg import Matrix
from .modules import FLBlock, FLModule, check_block_count
from .pairing import LData, PairedFLModule, check_pairing_counts, check_twist_lengths
from .rings import MAX_DEGREE, _check_bounded, make_field, make_ring

# flab tangent on a random symplectic module over F_101 takes 0.17 s at rank
# 16, 0.46 s at rank 24 and 0.87 s at rank 32, whole process (medians of 5
# runs, shared 2-vCPU host, CPython 3.11.7); validate, normalize and lift
# take 0.18, 0.23 and 0.23 s at rank 32 (medians of 5)
MAX_RANK = 32


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# rings and elements


def ring_to_dict(ring):
    return {
        "family": ring.family,
        "p": ring.p,
        "f": ring.f,
        "level": ring.level,
        "minimal_poly": list(ring.minimal_poly),
    }


def ring_from_dict(doc):
    ring = make_ring(doc["family"], int(doc["p"]), int(doc["f"]), int(doc["level"]))
    return _check_minimal_poly(ring, doc)


def _module_ring_from_dict(doc):
    # module documents also hold F_{2^f}: the simple-module embeddings are
    # written over any finite field (make_field), pairings never are
    family, p, f, level = doc["family"], int(doc["p"]), int(doc["f"]), int(doc["level"])
    if family == "witt" and p == 2 and f >= 1 and level == 1:
        _check_bounded("f", f, MAX_DEGREE)  # before 2**f is formed
        return _check_minimal_poly(make_field(p**f), doc)
    return ring_from_dict(doc)


def _check_minimal_poly(ring, doc):
    stated = [int(c) for c in doc["minimal_poly"]]
    if stated != list(ring.minimal_poly):
        raise InvalidInput(
            f"minimal polynomial {stated} is not the canonical one "
            f"{list(ring.minimal_poly)}"
        )
    return ring


def elem_to_data(x):
    return _data_to_doc(x.ring, x.data)


def _data_to_doc(ring, data):
    if ring.family == "witt":
        return list(data)
    return [list(part) for part in data]


def elem_from_data(ring, doc):
    if ring.family == "witt":
        data = tuple(int(c) for c in doc)
    else:
        data = tuple(tuple(int(c) for c in part) for part in doc)
    return ring.elem(data)


def matrix_to_rows(mat):
    return [[_data_to_doc(mat.ring, x) for x in row] for row in mat._raw]


def _check_rank(name, value):
    if value > MAX_RANK:  # smaller sizes, 0 included, keep their own errors
        _check_bounded(name, value, MAX_RANK)


def matrix_from_rows(ring, doc, ncols):
    if isinstance(doc, list):
        _check_rank("row count", len(doc))
        for row in doc:
            if isinstance(row, list):
                _check_rank("row length", len(row))
    rows = [[elem_from_data(ring, entry) for entry in row] for row in doc]
    return Matrix(ring, rows, ncols=ncols)


# ---------------------------------------------------------------------------
# modules and pairings


def module_to_dict(module):
    return {
        "ring": ring_to_dict(module.ring),
        "witt_degree": module.witt_degree,
        "rank": module.rank,
        "bounds": list(module.bounds),
        "blocks": [
            {"weights": list(blk.weights), "phi": matrix_to_rows(blk.phi)}
            for blk in module.blocks
        ],
    }


def module_from_dict(doc):
    return _module_from_dict(doc, _module_ring_from_dict(doc["ring"]))


def _module_from_dict(doc, ring):
    rank = int(doc["rank"])
    _check_rank("rank", rank)
    bounds = (int(doc["bounds"][0]), int(doc["bounds"][1]))
    block_docs = doc["blocks"]
    if len(block_docs) != int(doc["witt_degree"]):
        raise InvalidInput("witt_degree does not match the number of blocks")
    check_block_count(ring, len(block_docs))
    blocks = [
        FLBlock(
            tuple(int(w) for w in blk["weights"]),
            matrix_from_rows(ring, blk["phi"], rank),
        )
        for blk in block_docs
    ]
    return FLModule(ring, bounds, blocks)


def paired_to_dict(paired):
    doc = module_to_dict(paired.module)
    doc["pairing"] = {
        "epsilon": paired.L.epsilon,
        "L": {
            "s": list(paired.L.s),
            "c": [elem_to_data(c) for c in paired.L.c],
        },
        "gram": [matrix_to_rows(g) for g in paired.gram],
    }
    return doc


def paired_from_dict(doc):
    module = _module_from_dict(doc, ring_from_dict(doc["ring"]))
    pdoc = doc["pairing"]
    ring = module.ring
    s_doc, c_doc, gram_doc = pdoc["L"]["s"], pdoc["L"]["c"], pdoc["gram"]
    check_twist_lengths(len(s_doc), len(c_doc))
    check_pairing_counts(module.witt_degree, len(s_doc), len(gram_doc))
    L = LData(
        int(pdoc["epsilon"]),
        tuple(int(s) for s in s_doc),
        tuple(elem_from_data(ring, c) for c in c_doc),
    )
    gram = tuple(matrix_from_rows(ring, rows, module.rank) for rows in gram_doc)
    return PairedFLModule(module, L, gram)


def document_to_object(doc):
    """Dispatch a parsed JSON document to a module or a paired module."""
    if not isinstance(doc, dict):
        raise InvalidInput("top-level document must be a JSON object")
    if "pairing" in doc:
        return paired_from_dict(doc)
    return module_from_dict(doc)


def object_to_document(obj):
    if isinstance(obj, PairedFLModule):
        return paired_to_dict(obj)
    return module_to_dict(obj)


def load_path(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
