"""Exit-code contract and subcommand behavior of the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import flab
from flab.cli import main
from flab.io import (
    MAX_RANK,
    document_to_object,
    dumps_canonical,
    matrix_to_rows,
    module_to_dict,
    object_to_document,
    paired_to_dict,
)
from flab.linalg import Matrix
from flab.modules import FLBlock, FLModule, validate
from flab.pairing import LData, PairedFLModule, standard_gram, validate_pairing
from flab.rings import make_field
from flab.testing import canon2, pcanon2


@pytest.fixture
def pcanon2_path(tmp_path):
    path = tmp_path / "pcanon2.json"
    path.write_text(dumps_canonical(paired_to_dict(pcanon2())), encoding="utf-8")
    return str(path)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc), encoding="utf-8")
    return str(path)


def test_validate_paired_file(pcanon2_path, capsys):
    assert main(["validate", pcanon2_path]) == 0
    assert capsys.readouterr().out == ""


def test_validate_plain_module(tmp_path):
    path = write_doc(tmp_path, "m.json", module_to_dict(canon2()))
    assert main(["validate", path]) == 0


def test_validate_singular_phi(tmp_path, capsys):
    ring = make_field(5)
    module = canon2()
    doc = module_to_dict(module)
    doc["blocks"][0]["phi"] = matrix_to_rows(Matrix(ring, [[ring.one, ring.zero], [ring.one, ring.zero]]))
    path = write_doc(tmp_path, "singular.json", doc)
    assert main(["validate", path]) == 1
    assert "SingularPhi block 0" in capsys.readouterr().err


def test_truncated_json_is_a_parse_error(tmp_path, capsys):
    text = dumps_canonical(module_to_dict(canon2()))
    path = tmp_path / "broken.json"
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "JSONDecodeError" in capsys.readouterr().err


def test_missing_key_is_a_parse_error(tmp_path):
    doc = module_to_dict(canon2())
    del doc["rank"]
    path = write_doc(tmp_path, "nokey.json", doc)
    assert main(["validate", path]) == 2


def test_missing_file_is_a_parse_error(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_bad_flag_value_exits_2(capsys):
    assert main(["tensor-simples", "--h", "2", "--i", "zero", "--h2", "1", "--i2", "0"]) == 2
    capsys.readouterr()


def test_lift_tower_chain(pcanon2_path, capsys):
    assert main(["lift", pcanon2_path, "--tower-depth", "3"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert isinstance(docs, list) and len(docs) == 3
    for level, doc in enumerate(docs, start=1):
        stage = document_to_object(doc)
        validate(stage.module)
        validate_pairing(stage)
        assert stage.module.ring.family == "witt"
        assert stage.module.ring.level == level


def test_lift_single_stage_dual_numbers(pcanon2_path, capsys):
    assert main(["lift", pcanon2_path, "--tower-depth", "2", "--family", "dual"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 2
    top = document_to_object(docs[1])
    assert top.module.ring.family == "dual_numbers"
    assert top.module.ring.level == 2


def test_lift_defaults_to_one_stage(pcanon2_path, capsys):
    assert main(["lift", pcanon2_path]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lift_validates_the_input_pairing_once(monkeypatch, pcanon2_path, capsys, depth):
    calls = []

    def counting(paired):
        calls.append(paired)
        return validate_pairing(paired)

    for module in (flab.cli, flab.lifting, flab.pairing):
        monkeypatch.setattr(module, "validate_pairing", counting)
    assert main(["lift", pcanon2_path, "--tower-depth", str(depth)]) == 0
    docs = json.loads(capsys.readouterr().out)
    # the input, then the printed top stage: its normal form at depth 1, else
    # the last lift, whose check certifies the levels below it
    assert len(calls) == 2
    assert calls[0] == pcanon2()
    assert paired_to_dict(calls[-1]) == docs[-1]


def test_lift_needs_a_pairing(tmp_path, capsys):
    path = write_doc(tmp_path, "plain.json", module_to_dict(canon2()))
    assert main(["lift", path]) == 1
    assert "InvalidInput" in capsys.readouterr().err


def test_lift_rejects_repeated_weights(tmp_path, capsys):
    ring = make_field(5)
    module = FLModule(ring, (1, 1), [FLBlock((1, 1), Matrix.identity(ring, 2))])
    paired = PairedFLModule(
        module, LData(-1, (2,), (ring.one,)), (standard_gram(ring, 2, -1),)
    )
    path = write_doc(tmp_path, "repeated.json", paired_to_dict(paired))
    assert main(["lift", path]) == 1
    assert "MultiplicityNotFree" in capsys.readouterr().err


def test_tangent_report(pcanon2_path, capsys):
    assert main(["tangent", pcanon2_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["formula_check"] is True
    assert doc["dim_tangent"] - doc["dim_end_mf_pairing"] == 1


def test_tensor_simples_decomposition(capsys):
    code = main(["tensor-simples", "--h", "2", "--i", "0,1", "--h2", "2", "--i2", "1,0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_rank"] == 4
    by_s = {sm["s"]: sm for sm in doc["summands"]}
    assert by_s[0]["copies"] == 2
    assert by_s[0]["summand_h"] == 1
    assert by_s[0]["summand_i"] == [1]


def test_tensor_simples_embeddings(capsys):
    code = main(
        ["tensor-simples", "--h", "2", "--i", "0,1", "--h2", "2", "--i2", "1,0",
         "--q", "5", "--embeddings"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    embs = doc["embeddings"]
    assert len(embs) == 3
    assert sorted((e["s"], e["copy"]) for e in embs) == [(0, 0), (0, 1), (1, 0)]
    for emb in embs:
        assert len(emb["matrix"]) == 4
        document_to_object(emb["source"])


def test_tensor_simples_embeddings_need_q(capsys):
    code = main(
        ["tensor-simples", "--h", "2", "--i", "0,1", "--h2", "2", "--i2", "1,0",
         "--embeddings"]
    )
    assert code == 1
    assert "InvalidInput" in capsys.readouterr().err


def test_feasibility_accepts_the_good_case(capsys):
    code = main(
        ["feasibility", "--group", "gsp", "--m", "4", "--p", "19",
         "--degree", "1", "--h0", "4"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accept"] is True
    assert set(doc["checks"]) == {"very_good", "prime_bounds", "oddness"}


def test_feasibility_rejects_small_prime_with_wide_weights(capsys):
    code = main(
        ["feasibility", "--group", "gsp", "--m", "4", "--p", "5",
         "--weights", "[[0,1,2,3]]"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accept"] is False
    assert doc["checks"]["fl_hypotheses"]["accept"] is False


@pytest.mark.parametrize("m", [4000, 10**6])
def test_feasibility_huge_group_fails_fast(m, capsys):
    start = time.perf_counter()
    code = main(
        ["feasibility", "--group", "gsp", "--m", str(m), "--h0", "4", "--degree", "1",
         "--p", "101"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    bound = (m // 2) ** 2
    assert out.err == f"InvalidInput h0 = 4 is below the involution lower bound {bound}\n"


def test_feasibility_refuses_a_p_that_is_not_prime(capsys):
    code = main(
        ["feasibility", "--group", "gsp", "--m", "4", "--p", "21", "--degree", "1",
         "--h0", "4"]
    )
    assert code == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "InvalidInput p = 21 is not prime\n")


def test_feasibility_bad_weights_json_exits_2(capsys):
    code = main(["feasibility", "--group", "gsp", "--m", "4", "--weights", "[[0,1"])
    assert code == 2
    capsys.readouterr()


def test_normalize_emits_standard_gram(tmp_path, capsys):
    import random

    from flab.testing import random_paired_module

    ring = make_field(5)
    paired = random_paired_module(random.Random(7), ring, 4, -1)
    path = write_doc(tmp_path, "scrambled.json", paired_to_dict(paired))
    assert main(["normalize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    norm = document_to_object(doc)
    validate(norm.module)
    validate_pairing(norm)
    assert norm.gram[0] == standard_gram(ring, 4, -1)
    assert doc == json.loads(dumps_canonical(object_to_document(norm)))


def test_output_flag_writes_a_file(pcanon2_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--output", str(out), "tangent", pcanon2_path]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["formula_check"] is True


def test_quiet_suppresses_stdout(pcanon2_path, capsys):
    assert main(["--quiet", "tangent", pcanon2_path]) == 0
    assert capsys.readouterr().out == ""


def test_seed_flag_is_accepted(pcanon2_path):
    assert main(["--seed", "11", "validate", pcanon2_path]) == 0


def test_round_trip_byte_identity_through_files(pcanon2_path, tmp_path, capsys):
    text = open(pcanon2_path, encoding="utf-8").read()
    obj = document_to_object(json.loads(text))
    assert dumps_canonical(object_to_document(obj)) == text


def test_parser_built_once_matches_fresh_parsers(pcanon2_path, tmp_path, capsys):
    from flab.cli import _build_parser

    singular = module_to_dict(canon2())
    singular["blocks"][0]["phi"] = [[[1], [0]], [[1], [0]]]
    sequence = [
        ["validate", pcanon2_path],
        ["tensor-simples", "--h", "2", "--i", "zero", "--h2", "1", "--i2", "0"],
        ["lift", pcanon2_path, "--tower-depth", "2", "--family", "dual"],
        ["validate", write_doc(tmp_path, "singular.json", singular)],
        ["--no-such-flag"],
        ["feasibility", "--group", "gsp", "--m", "4", "--p", "19"],
        ["normalize", pcanon2_path],
        ["lift", "--help"],
        ["tangent", pcanon2_path],
    ]

    def run(fresh):
        outcomes = []
        for argv in sequence:
            if fresh:
                _build_parser.cache_clear()
            outcomes.append((main(list(argv)), *capsys.readouterr()))
        return outcomes

    _build_parser.cache_clear()
    cached = run(fresh=False)
    assert _build_parser.cache_info().misses == 1
    assert run(fresh=True) == cached
    assert [code for code, _, _ in cached] == [0, 2, 0, 1, 2, 0, 0, 0, 0]
    assert cached[3][2] == "SingularPhi block 0\n"


def test_huge_degree_or_level_in_a_document_exits_1(tmp_path, capsys):
    for key, value, verdict in (
        ("f", 10**6, "InvalidInput f = 1000000 exceeds the bound 32\n"),
        ("level", 10**7, "InvalidInput level = 10000000 exceeds the bound 256\n"),
    ):
        doc = module_to_dict(canon2())
        doc["ring"][key] = value
        assert main(["validate", write_doc(tmp_path, f"{key}.json", doc)]) == 1
        assert capsys.readouterr().err == verdict
    # F_{2^f} documents take the make_field path, which must not form 2^f first
    doc = module_to_dict(canon2())
    doc["ring"].update(p=2, f=10**12)
    assert main(["validate", write_doc(tmp_path, "f2.json", doc)]) == 1
    assert capsys.readouterr().err == f"InvalidInput f = {10**12} exceeds the bound 32\n"
    assert main(["tensor-simples", "--h", "1", "--i", "0", "--h2", "1", "--i2", "0",
                 "--q", str(3**33), "--embeddings"]) == 1
    assert capsys.readouterr().err == "InvalidInput f = 33 exceeds the bound 32\n"


def test_huge_q_with_embeddings_exits_1_quickly():
    # q - 1 for q = 1048573^32 keeps a cofactor beyond the square of the
    # trial-division bound, which the generator search used to divide on
    q = 1048573**32
    argv = ["tensor-simples", "--h", "2", "--i", "0,1", "--h2", "2", "--i2", "0,1",
            "--q", str(q), "--embeddings"]
    src = os.path.dirname(os.path.dirname(flab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "flab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("InvalidInput ")
    assert proc.stderr.endswith(" has no prime factor up to the trial-division bound 1048576\n")
    assert elapsed < 5, elapsed


def _standard_paired_doc(rank):
    """A valid rank-r document: weights 0, ..., r - 1 over F_101, identity Φ
    and the standard orthogonal pairing with s = r - 1."""
    ring = make_field(101)
    module = FLModule(ring, (0, rank - 1), [FLBlock(tuple(range(rank)), Matrix.identity(ring, rank))])
    gram = standard_gram(ring, rank, 1)
    return paired_to_dict(PairedFLModule(module, LData(1, (rank - 1,), (ring.one,)), (gram,)))


def _rank_edited(edit):
    doc = paired_to_dict(pcanon2())
    edit(doc)
    return doc


def _oversized_docs():
    """name -> (document, stderr of every file subcommand)."""
    over = MAX_RANK + 1
    zero_rows = [[[0], [0]]] * over
    return {
        "rank_over": (
            _standard_paired_doc(over),
            f"InvalidInput rank = {over} exceeds the bound {MAX_RANK}\n",
        ),
        "rank_huge": (
            _rank_edited(lambda d: d.update(rank=10**6)),
            f"InvalidInput rank = 1000000 exceeds the bound {MAX_RANK}\n",
        ),
        "phi_rows": (
            _rank_edited(lambda d: d["blocks"][0].update(phi=zero_rows)),
            f"InvalidInput row count = {over} exceeds the bound {MAX_RANK}\n",
        ),
        "phi_row_length": (
            _rank_edited(lambda d: d["blocks"][0].update(phi=[[[0]] * over] * 2)),
            f"InvalidInput row length = {over} exceeds the bound {MAX_RANK}\n",
        ),
        "gram_rows": (
            _rank_edited(lambda d: d["pairing"].update(gram=[zero_rows])),
            f"InvalidInput row count = {over} exceeds the bound {MAX_RANK}\n",
        ),
        # malformed at exactly the bound: the errors of the unbounded parser
        "rank_at_bound": (
            _rank_edited(lambda d: d.update(rank=MAX_RANK)),
            "InvalidInput ncols does not match row length\n",
        ),
        "phi_rows_at_bound": (
            _rank_edited(lambda d: d["blocks"][0].update(phi=[[[0], [0]]] * MAX_RANK)),
            "InvalidInput phi must be square\n",
        ),
    }


@pytest.mark.parametrize("command", ["validate", "lift", "tangent", "normalize"])
def test_oversized_documents_exit_1_quickly(tmp_path, capsys, command):
    for name, (doc, err) in _oversized_docs().items():
        path = write_doc(tmp_path, f"{name}.json", doc)
        start = time.perf_counter()
        code = main([command, path])
        elapsed = time.perf_counter() - start
        assert (name, code) == (name, 1)
        assert elapsed < 1.0, (name, elapsed)
        assert capsys.readouterr() == ("", err), name


def _many_blocks_docs():
    """name -> (subcommand, document, stderr) for 50,000 blocks or Gram matrices."""
    many = 50_000
    plain = module_to_dict(canon2())
    paired = paired_to_dict(pcanon2())
    pairing = paired["pairing"]
    return {
        "blocks": (
            "validate",
            dict(plain, blocks=plain["blocks"] * many),
            "InvalidInput witt_degree does not match the number of blocks\n",
        ),
        "blocks_and_witt_degree": (
            "validate",
            dict(plain, blocks=plain["blocks"] * many, witt_degree=many),
            f"InvalidInput block count {many} does not divide the ring degree f = 1\n",
        ),
        "gram": (
            "tangent",
            dict(paired, pairing=dict(pairing, gram=pairing["gram"] * many)),
            "InvalidInput one Gram matrix per block required\n",
        ),
        "twist": (
            "tangent",
            dict(paired, pairing=dict(pairing, L={"s": [1] * many, "c": pairing["L"]["c"] * many})),
            "InvalidInput twisting datum has the wrong number of blocks\n",
        ),
        "twist_units": (
            "tangent",
            dict(paired, pairing=dict(pairing, L=dict(pairing["L"], c=pairing["L"]["c"] * many))),
            "InvalidInput s and c must be equal-length nonempty tuples\n",
        ),
    }


def test_many_blocks_exit_1_quickly(tmp_path, capsys):
    # the counts are compared before any block, unit or Gram matrix is read
    for name, (command, doc, err) in _many_blocks_docs().items():
        path = write_doc(tmp_path, f"{name}.json", doc)
        start = time.perf_counter()
        code = main([command, path])
        elapsed = time.perf_counter() - start
        assert (name, code) == (name, 1)
        assert elapsed < 1.0, (name, elapsed)
        assert capsys.readouterr() == ("", err), name


def _broken_inputs(tmp_path):
    """The broken inputs of this file, plus broken pairings: name -> path."""
    plain = module_to_dict(canon2())
    paired = paired_to_dict(pcanon2())

    def edited(doc, edit):
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return doc

    def singular(doc):
        doc["blocks"][0]["phi"] = [[[1], [0]], [[1], [0]]]

    docs = {
        "plain_module": plain,
        "singular_phi": edited(plain, singular),
        "missing_key": edited(plain, lambda d: d.pop("rank")),
        "huge_f": edited(plain, lambda d: d["ring"].update(f=10**6)),
        "huge_level": edited(plain, lambda d: d["ring"].update(level=10**7)),
        "huge_f_over_f2": edited(plain, lambda d: d["ring"].update(p=2, f=10**12)),
        "paired_singular_phi": edited(paired, singular),
        "paired_missing_key": edited(paired, lambda d: d["pairing"].pop("gram")),
        "paired_huge_level": edited(paired, lambda d: d["ring"].update(level=10**7)),
        "repeated_weights": edited(
            paired,
            lambda d: d.update(
                bounds=[1, 1], blocks=[dict(d["blocks"][0], weights=[1, 1])]
            )
            or d["pairing"]["L"].update(s=[2]),
        ),
        "wrong_symmetry": edited(paired, lambda d: d["pairing"].update(epsilon=1)),
        "wrong_twist": edited(paired, lambda d: d["pairing"]["L"].update(c=[[2]])),
        "wide_gram": edited(paired, lambda d: d["pairing"]["L"].update(s=[0])),
        "singular_gram": edited(
            paired, lambda d: d["pairing"].update(gram=[[[[0], [0]], [[0], [0]]]])
        ),
        "short_bounds": edited(paired, lambda d: d.update(bounds=[0])),
        "long_bounds": edited(paired, lambda d: d.update(bounds=[0, 1, 9])),
    }
    paths = {name: write_doc(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    text = dumps_canonical(paired)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[: len(text) // 2], encoding="utf-8")
    paths["truncated_json"] = str(truncated)
    paths["missing_file"] = str(tmp_path / "absent.json")
    return paths


# exit code and stderr of tangent, normalize and lift on each broken input, the
# same for all three, recorded when tangent and normalize still validated the
# whole file before the command ran (the temporary directory reads <tmp>);
# stdout was empty every time
BROKEN_INPUT_OUTCOMES = {
    "plain_module": (1, "InvalidInput this command needs a module file with a pairing block\n"),
    "singular_phi": (1, "SingularPhi block 0\n"),
    "missing_key": (2, "KeyError 'rank'\n"),
    "huge_f": (1, "InvalidInput f = 1000000 exceeds the bound 32\n"),
    "huge_level": (1, "InvalidInput level = 10000000 exceeds the bound 256\n"),
    "huge_f_over_f2": (1, "InvalidInput f = 1000000000000 exceeds the bound 32\n"),
    "paired_singular_phi": (1, "SingularPhi block 0\n"),
    "paired_missing_key": (2, "KeyError 'gram'\n"),
    "paired_huge_level": (1, "InvalidInput level = 10000000 exceeds the bound 256\n"),
    "repeated_weights": (1, "MultiplicityNotFree block 0 has repeated weights\n"),
    "wrong_symmetry": (1, "SymmetryViolation block 0 entry (2, 1)\n"),
    "wrong_twist": (1, "PhiIncompatible block 0\n"),
    "wide_gram": (1, "FiltrationViolation block 0 entry (1, 2): weights 0+1 exceed s = 0\n"),
    "singular_gram": (1, "NotPerfect block 0\n"),
    "short_bounds": (2, "ValueError bounds must be a list of two integers\n"),
    "long_bounds": (2, "ValueError bounds must be a list of two integers\n"),
    "truncated_json": (
        2,
        "JSONDecodeError Unterminated string starting at: line 1 column 122 (char 121)\n",
    ),
    "missing_file": (
        2,
        "FileNotFoundError [Errno 2] No such file or directory: '<tmp>/absent.json'\n",
    ),
}


@pytest.mark.parametrize("command", ["tangent", "normalize", "lift"])
def test_broken_input_errors_are_unchanged(tmp_path, capsys, command):
    outcomes = {}
    for name, path in _broken_inputs(tmp_path).items():
        code = main([command, path])
        out, err = capsys.readouterr()
        assert out == ""
        outcomes[name] = (code, err.replace(str(tmp_path), "<tmp>"))
    assert outcomes == BROKEN_INPUT_OUTCOMES
