"""The four seeded workloads: inputs, the timed call, and the oracle.

A workload builds a list of ops from a random.Random.  One op is one
user-level call into flab (Op.call, the only timed part), a canonical form
of its result (Op.canon, hashed into the output fingerprint) and an
independent oracle (Op.oracle, which raises Mismatch on a wrong result).
Calls go through module attributes such as tangent.tangent_report so that
the trace wrappers, which replace those attributes, see them.

Each list is interleaved over its input classes, so every whole pass has
the same mix.  Op.key names the caches an op fills (rings, field
generators); set-up warms each key once before timing.  README.md says
why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import itertools
import json
import os
from collections import Counter
from math import gcd, lcm

import flab.cli as cli
import flab.gf as gf
import flab.lifting as lifting
import flab.modules as modules
import flab.pairing as pairing
import flab.simples as simples
import flab.tangent as tangent
from flab.feasibility import GroupType, root_data
from flab.io import (
    document_to_object,
    dumps_canonical,
    matrix_to_rows,
    module_to_dict,
    object_to_document,
    paired_to_dict,
)
from flab.pairing import LData, reduce_paired, standard_gram, validate_pairing
from flab.rings import make_field, make_ring, make_small_surjection
from flab.testing import random_fl_module, random_paired_module

# Passed to every subfield search, so an inherited FLAB_SIZE_GUARD cannot
# change which searches run or how large their fields get.
GF_SIZE_GUARD = 2**24

TOWER_DEPTH = 3


class Mismatch(Exception):
    """An op result failed its oracle."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Op:
    __slots__ = ("key", "call", "canon", "oracle")

    def __init__(self, key, call, canon, oracle):
        self.key = key
        self.call = call
        self.canon = canon
        self.oracle = oracle


# ---------------------------------------------------------------------------
# shared inputs


# (rank, epsilon, pairing weight s, low weight): the shape grid of
# acceptance criterion 01; the weight spread must stay within (p-2)/2.
def _shapes(p):
    shapes = [(2, -1, 1, 0), (2, 1, 1, 0)]
    if p >= 7:
        shapes.append((3, 1, 2, 0))
    if p >= 11:
        shapes.extend([(4, -1, 3, 0), (4, 1, 3, 0)])
    return shapes


GRID = [
    (p, fprime, shape)
    for p in (5, 7, 11, 13)
    for fprime in (1, 2)
    for shape in _shapes(p)
]


def _paired(rng, p, fprime, shape):
    r, eps, s, lo = shape
    ring = make_field(p**fprime)
    return random_paired_module(rng, ring, r, eps, witt_degree=fprime, s=s, weight_lo=lo)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _min_period(values):
    n = len(values)
    return next(d for d in range(1, n + 1) if n % d == 0 and values == values[:d] * (n // d))


def _random_spec(rng, h, wmax):
    while True:
        i = tuple(rng.randint(0, wmax) for _ in range(h))
        if _min_period(i) == h:
            return simples.SimpleSpec(h, i)


def _smallest_q(a, b):
    """Smallest prime q over which every summand copy embeds: the tensor
    weight interval fits in q - 2 and every copy count divides q - 1."""
    period = lcm(a.h, b.h)
    copies = 1
    for s in range(gcd(a.h, b.h)):
        weights = tuple(a.i[r % a.h] + b.i[(s + r) % b.h] for r in range(period))
        copies = lcm(copies, period // _min_period(weights))
    q = max(2, max(a.i) - min(a.i) + max(b.i) - min(b.i) + 2)
    while not (_is_prime(q) and (q - 1) % copies == 0):
        q += 1
    return q


def _full_rank_mod(rows, q):
    """Rank test by Gaussian elimination over Z/q on plain integers."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] % q), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], q - 2, q)
        for i in range(col + 1, n):
            c = rows[i][col] * inv % q
            if c:
                rows[i] = [(x - c * y) % q for x, y in zip(rows[i], rows[col])]
    return True


def _elem(x):
    return list(x.data)


# ---------------------------------------------------------------------------
# tangent_grid


def _tangent_oracle(paired, fprime, r, eps):
    g = GroupType("GSp" if eps == -1 else "GO", r)
    npos = root_data(g).num_pos_roots
    size = paired.module.ring.size

    def oracle(rep, doc):
        expect(rep.dim_tangent - rep.dim_end_mf_pairing == fprime * npos, "dimension identity")
        expect(rep.formula_check is True, "formula_check flag")
        # on the smallest shapes, count deformation classes by brute force
        # (acceptance criterion 09)
        if size <= 7 and r == 2:
            count = tangent.deformation_count(paired, enumerate_check=True)
            expect(count == size**rep.dim_tangent, "brute-force deformation count")

    return oracle


def tangent_grid(rng, workdir):
    ops = []
    for _ in range(3):
        for p, fprime, shape in GRID:
            paired = _paired(rng, p, fprime, shape)
            ops.append(
                Op(
                    (p, fprime),
                    lambda paired=paired: tangent.tangent_report(paired),
                    lambda rep: rep.as_dict(),
                    _tangent_oracle(paired, fprime, shape[0], shape[1]),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# lift_towers


def _tower_oracle(p, f, family):
    def oracle(chain, doc):
        expect(len(chain) == TOWER_DEPTH, "tower depth")
        for level, stage in enumerate(chain, start=1):
            expect(stage.module.ring == make_ring(family, p, f, level), f"ring of stage {level}")
            modules.validate(stage.module)
            validate_pairing(stage)
            if level > 1:
                surj = make_small_surjection(stage.module.ring)
                expect(reduce_paired(stage, surj) == chain[level - 2], f"stage {level} reduction")

    return oracle


# (family, p, f, level, rank, epsilon): pairings drawn directly over chain
# rings, as in acceptance criterion 08; odd ranks need unit square roots
_NORMALIZE_CASES = [
    ("witt", 5, 1, 2, 3, 1),
    ("dual_numbers", 5, 1, 3, 4, 1),
    ("witt", 7, 1, 3, 2, -1),
    ("dual_numbers", 7, 1, 2, 3, 1),
    ("witt", 7, 1, 3, 3, 1),
    ("dual_numbers", 5, 1, 3, 2, -1),
]


def _normalize_oracle(paired):
    def oracle(norm, doc):
        ring = paired.module.ring
        std = standard_gram(ring, paired.module.rank, paired.L.epsilon)
        for tau, omega in enumerate(norm.omega):
            expect(norm.pairing.gram[tau] == omega * std, "standard form")
            C = norm.change_of_basis[tau]
            expect(C.transpose() * paired.gram[tau] * C == omega * std, "congruence")
            if paired.module.rank % 2:
                expect(omega == ring.lift_from(ring.residue(omega)), "unit-reduced omega")

    return oracle


def _normalize_canon(norm):
    return {
        "pairing": paired_to_dict(norm.pairing),
        "omega": [_elem(w) for w in norm.omega],
        "change_of_basis": [matrix_to_rows(C) for C in norm.change_of_basis],
    }


def lift_towers(rng, workdir):
    ops = []
    for n, (p, fprime, shape) in enumerate(GRID * 2):
        paired = _paired(rng, p, fprime, shape)
        for family in ("witt", "dual_numbers"):
            ops.append(
                Op(
                    (p, fprime, family),
                    lambda paired=paired, family=family: lifting.lift_tower(
                        paired, TOWER_DEPTH, family=family
                    ),
                    lambda chain: [paired_to_dict(stage) for stage in chain],
                    _tower_oracle(p, fprime, family),
                )
            )
        if n % 5 == 4:
            family, p, f, level, rank, eps = _NORMALIZE_CASES[n // 5 % len(_NORMALIZE_CASES)]
            paired = random_paired_module(rng, make_ring(family, p, f, level), rank, eps)
            ops.append(
                Op(
                    (family, p, f, level),
                    lambda paired=paired: pairing.normalize_standard(paired, unit_reduce=True),
                    _normalize_canon,
                    _normalize_oracle(paired),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# module_algebra


def _simples_call(a, b, q):
    dec = simples.tensor_decompose(a, b)
    embs = simples.all_embeddings(a, b, q)
    pairs = []
    if q**dec.lcm <= GF_SIZE_GUARD:
        for period in sorted({sm.period for sm in dec.summands}):
            pairs.append(
                (period, gf.find_nonvanishing_pair(q, a.h, b.h, period, size_guard=GF_SIZE_GUARD))
            )
    return dec, embs, pairs


def _simples_canon(result):
    dec, embs, pairs = result
    return {
        "decomposition": dec.as_dict(),
        "embeddings": [
            [e.s, e.copy, module_to_dict(e.source), matrix_to_rows(e.matrix)] for e in embs
        ],
        "pairs": [[period, _elem(z), _elem(z2)] for period, (z, z2) in pairs],
    }


def _simples_oracle(a, b, q):
    def oracle(result, doc):
        dec, embs, pairs = result
        period = lcm(a.h, b.h)
        expect(dec.total_rank == a.h * b.h, "total rank h*h'")
        expect(sum(sm.copies * sm.period for sm in dec.summands) == a.h * b.h, "summand ranks")
        sums = sorted(
            a.i[r % a.h] + b.i[(s + r) % b.h] for s in range(gcd(a.h, b.h)) for r in range(period)
        )
        expect(sums == sorted(w for sm in dec.summands for w in sm.weights), "weight multiset")
        for sm in dec.summands:
            expect(sm.period == _min_period(tuple(sm.weights)), "summand period")
        copies = Counter(e.s for e in embs)
        expect(copies == Counter({sm.s: sm.copies for sm in dec.summands}), "one embedding per copy")
        cols = [list(col) for e in embs for col in zip(*e.matrix.rows)]
        expect(len(cols) == a.h * b.h, "change of basis is square")
        ints = [[x.data[0] for x in col] for col in cols]
        expect(_full_rank_mod(ints, q), "change of basis invertible")
        for period_s, (z, z2) in pairs:
            value = gf.p_polynomial_value(z * z2, q, period_s, period // period_s)
            expect(bool(value), "nonvanishing product")
            expect(gf.q_power_frobenius(z, q, a.h) == z, "zeta in F_{q^h}")
            expect(gf.q_power_frobenius(z2, q, b.h) == z2, "zeta2 in F_{q^h2}")

    return oracle


def _dual_call(module, L):
    d = modules.dual(module, L)
    dd = modules.dual(d, L)
    return d, dd, modules.hom_mf(dd, module)


def _dual_canon(result):
    d, dd, space = result
    return {
        "dual": module_to_dict(d),
        "double_dual": module_to_dict(dd),
        "hom": [[matrix_to_rows(m) for m in maps] for maps in space.basis],
    }


def _dual_oracle(module, L):
    def oracle(result, doc):
        d, dd, space = result
        for tau, blk in enumerate(module.blocks):
            want = sorted(L.s[tau] - w for w in blk.weights)
            expect(sorted(d.blocks[tau].weights) == want, "dual weights")
        ring = module.ring
        elems = list(ring.elements())
        combos = itertools.islice(itertools.product(elems, repeat=len(space.basis)), 1, 20000)
        for coeffs in combos:
            maps = [None] * module.witt_degree
            for c, basis_maps in zip(coeffs, space.basis):
                for tau, m in enumerate(basis_maps):
                    maps[tau] = c * m if maps[tau] is None else maps[tau] + c * m
            if all(m.is_invertible() for m in maps):
                expect(modules.is_morphism(maps, dd, module), "isomorphism is a morphism")
                return
        raise Mismatch("no invertible morphism from the double dual")

    return oracle


# (field size, blocks, rank) of the random modules; F_25 with two blocks
# and rank 4 is the heaviest hom_mf system and sets the tail
_DUAL_CASES = [(q, 1, r) for q in (5, 7, 11, 25) for r in (2, 3, 4)] + [(25, 2, r) for r in (2, 3, 4)]


def module_algebra(rng, workdir):
    ops = []
    for idx in range(320):
        a = _random_spec(rng, 1 + idx % 4, 3)
        b = _random_spec(rng, 1 + idx // 4 % 4, 3)
        q = _smallest_q(a, b)
        ops.append(
            Op(
                ("simples", q, lcm(a.h, b.h)),
                lambda a=a, b=b, q=q: _simples_call(a, b, q),
                _simples_canon,
                _simples_oracle(a, b, q),
            )
        )
        if idx >= 300:
            continue
        size, fprime, rank = _DUAL_CASES[idx % len(_DUAL_CASES)]
        ring = make_field(size)
        module = random_fl_module(
            rng, ring, rank, witt_degree=fprime, weight_range=(0, 3), distinct_weights=True
        )
        L = LData(1, (4,) * fprime, (ring.random_unit(rng),) * fprime)
        ops.append(
            Op(
                ("dual", size, fprime),
                lambda module=module, L=L: _dual_call(module, L),
                _dual_canon,
                _dual_oracle(module, L),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# cli_docs


class _CliRun:
    """Runs flab.cli.main in-process with stderr captured; the report goes
    to the --output file, which canon reads and removes."""

    def __init__(self, argv, out_path):
        self.argv = argv
        self.out_path = out_path

    def call(self):
        err = _stdio.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, err.getvalue()

    def canon(self, result):
        code, err = result
        text = None
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as handle:
                text = handle.read()
            os.remove(self.out_path)
        return {"code": code, "stderr": err, "output": text}


def _roundtrip_doc(doc):
    return object_to_document(document_to_object(doc))


def _cli_oracle(kind, expected_error=None):
    def oracle(result, doc):
        text = doc["output"]
        if expected_error is not None:
            expect(doc["code"] == 1, f"exit 1 expected, got {doc['code']}")
            expect(doc["stderr"].startswith(expected_error + " "), f"{expected_error} expected")
            expect(text is None, "no report on error")
            return
        expect(doc["code"] == 0, f"exit 0 expected, got {doc['code']}: {doc['stderr']}")
        expect(doc["stderr"] == "", "quiet stderr")
        if kind == "validate":
            expect(text is None, "validate writes no report")
            return
        parsed = json.loads(text)
        if kind == "lift":
            expect(len(parsed) == TOWER_DEPTH, "tower depth")
            parsed = [_roundtrip_doc(stage) for stage in parsed]
        elif kind == "normalize":
            parsed = _roundtrip_doc(parsed)
        elif kind == "tensor-simples":
            for emb in parsed["embeddings"]:
                # io reads only the odd-characteristic rings of make_ring, so
                # sources over F_2 are checked at the text level alone
                if emb["source"]["ring"]["p"] != 2:
                    expect(_roundtrip_doc(emb["source"]) == emb["source"], "embedding source")
        expect(dumps_canonical(parsed) == text, "byte-identical round trip")

    return oracle


def _corrupt(doc, kind):
    """Break a valid paired-module document; return the expected error."""
    if kind == "symmetry":
        # (1, r) sits on the anti-diagonal: inside the filtration, so the
        # first axiom to fail is ε-symmetry
        entry = doc["pairing"]["gram"][0][0][-1]
        entry[0] = (entry[0] + 1) % doc["ring"]["p"]
        return "SymmetryViolation"
    phi = doc["blocks"][0]["phi"]
    phi[1] = [list(x) for x in phi[0]]
    return "SingularPhi"


_CLI_SHAPES = [
    (p, fprime, shape)
    for p, fprime, shape in GRID
    if shape[0] == 2 or (shape[0] == 3 and fprime == 1)
]

_FEAS = [
    ("gsp", 4, 19, 1, [4], None),
    ("gsp", 4, 17, None, None, None),
    ("gsp", 6, 23, 2, [9, 9], [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6]]),
    ("go", 6, 19, None, None, None),
    ("go", 5, 29, 1, [4], [[0, 1, 2, 3, 4]]),
    ("gsp", 4, 5, None, None, [[0, 1, 2, 3]]),
    ("go", 8, 31, 3, [12, 12], None),
    ("gsp", 2, 3, 1, [1], [[0, 1]]),
]


def cli_docs(rng, workdir):
    out = os.path.join(workdir, "out.json")
    ops = []

    def add(argv, key, kind, expected_error=None):
        run = _CliRun(["--output", out] + argv, out)
        ops.append(Op(key, run.call, run.canon, _cli_oracle(kind, expected_error)))

    files = []
    for n in range(32):
        p, fprime, shape = _CLI_SHAPES[(n * 5) % len(_CLI_SHAPES)]
        doc = paired_to_dict(_paired(rng, p, fprime, shape))
        expected_error = None
        if n % 4 == 3:
            expected_error = _corrupt(doc, rng.choice(("symmetry", "singular")))
        path = os.path.join(workdir, f"module-{n:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_canonical(doc))
        files.append((path, (p, fprime), expected_error))

    feas = list(_FEAS)
    rng.shuffle(feas)
    for n, (path, key, err) in enumerate(files):
        add(["validate", path], ("validate",) + key, "validate", err)
        add(["tangent", path], ("tangent",) + key, "tangent", err)
        add(["normalize", path], ("normalize",) + key, "normalize", err)
        for family in ("witt", "dual"):
            argv = ["lift", path, "--family", family, "--tower-depth", str(TOWER_DEPTH)]
            add(argv, ("lift", family) + key, "lift", err)
        if n % 2 == 0:
            a = _random_spec(rng, 1 + n // 2 % 4, 3)
            b = _random_spec(rng, 1 + n // 8, 3)
            q = _smallest_q(a, b)
            argv = [
                "tensor-simples", "--h", str(a.h), "--i", ",".join(map(str, a.i)),
                "--h2", str(b.h), "--i2", ",".join(map(str, b.i)),
                "--q", str(q), "--embeddings",
            ]
            add(argv, ("tensor-simples", q), "tensor-simples")
        else:
            group, m, p, degree, h0, weights = feas[n // 2 % len(feas)]
            argv = ["feasibility", "--group", group, "--m", str(m), "--p", str(p)]
            if degree is not None:
                argv += ["--degree", str(degree), "--h0", ",".join(map(str, h0))]
            if weights is not None:
                argv += ["--weights", json.dumps(weights)]
            add(argv, ("feasibility",), "feasibility")
    return ops


WORKLOADS = {
    "tangent_grid": tangent_grid,
    "lift_towers": lift_towers,
    "module_algebra": module_algebra,
    "cli_docs": cli_docs,
}
