"""Command-line interface.

Subcommands: validate, lift, tangent, tensor-simples, feasibility, normalize.
Exit codes: 0 success, 1 domain error (printed as "ErrorName detail"),
2 malformed input (bad JSON, missing keys, unusable flag values).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import lru_cache

from .errors import FlabError, InvalidInput
from .feasibility import GroupType, feasibility_report
from .io import (
    dumps_canonical,
    document_to_object,
    load_path,
    matrix_to_rows,
    module_to_dict,
    object_to_document,
    paired_to_dict,
)
from .lifting import lift_tower
from .modules import validate
from .pairing import PairedFLModule, normalize_standard, validate_pairing
from .simples import SimpleSpec, all_embeddings, tensor_decompose
from .tangent import tangent_report


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


@lru_cache(maxsize=None)
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="flab",
        description="Exact arithmetic for filtered semilinear modules with pairings.",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed the global RNG")
    parser.add_argument(
        "--output", default="-", help="write the report to this path instead of stdout"
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress report output on stdout (exit code still reflects the result)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check every axiom of a module file")
    p_val.add_argument("path")

    p_lift = sub.add_parser("lift", help="lift a residue-field pairing up a ring tower")
    p_lift.add_argument("path")
    p_lift.add_argument("--tower-depth", type=int, default=1, dest="tower_depth")
    p_lift.add_argument("--family", choices=("witt", "dual"), default="witt")

    p_tan = sub.add_parser("tangent", help="tangent-space dimensions of a paired module")
    p_tan.add_argument("path")

    p_ten = sub.add_parser("tensor-simples", help="decompose a tensor of simple modules")
    p_ten.add_argument("--h", type=int, required=True)
    p_ten.add_argument("--i", type=_int_list, required=True)
    p_ten.add_argument("--h2", type=int, required=True)
    p_ten.add_argument("--i2", type=_int_list, required=True)
    p_ten.add_argument("--q", type=int, default=None)
    p_ten.add_argument(
        "--embeddings",
        action="store_true",
        help="include explicit embedding matrices over F_q (requires --q)",
    )

    p_feas = sub.add_parser("feasibility", help="global feasibility checks for a group")
    p_feas.add_argument("--group", choices=("gsp", "go"), required=True)
    p_feas.add_argument("--m", type=int, required=True)
    p_feas.add_argument("--p", type=int, default=None)
    p_feas.add_argument("--degree", type=int, default=None)
    p_feas.add_argument("--h0", type=_int_list, default=None)
    p_feas.add_argument("--weights", default=None, help="JSON list of per-block weight lists")

    p_norm = sub.add_parser("normalize", help="rewrite a pairing in its standard form")
    p_norm.add_argument("path")

    return parser


def _write(args, text):
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif not args.quiet:
        sys.stdout.write(text)


def _load_validated(path):
    # the one input check; library results are checked where they are made
    obj = document_to_object(load_path(path))
    if isinstance(obj, PairedFLModule):
        validate(obj.module)
        validate_pairing(obj)
    else:
        validate(obj)
    return obj


def _load_paired(path):
    """The paired module of a file, left for the library command to check.

    A document without a pairing is validated before it is refused, so its
    errors are those of _load_validated.
    """
    obj = document_to_object(load_path(path))
    if not isinstance(obj, PairedFLModule):
        validate(obj)
    return _require_paired(obj)


def _require_paired(obj):
    if not isinstance(obj, PairedFLModule):
        raise InvalidInput("this command needs a module file with a pairing block")
    return obj


def _cmd_validate(args):
    _load_validated(args.path)
    return 0


def _cmd_lift(args):
    paired = _load_paired(args.path)
    # lift_tower validates the pairing of its input and of its top stage
    validate(paired.module)
    family = "dual_numbers" if args.family == "dual" else "witt"
    chain = lift_tower(paired, args.tower_depth, family=family)
    _write(args, dumps_canonical([paired_to_dict(stage) for stage in chain]))
    return 0


def _cmd_tangent(args):
    # tangent_report validates the module, then the pairing
    report = tangent_report(_load_paired(args.path))
    _write(args, dumps_canonical(report.as_dict()))
    return 0


def _cmd_tensor_simples(args):
    a = SimpleSpec(args.h, tuple(args.i))
    b = SimpleSpec(args.h2, tuple(args.i2))
    doc = tensor_decompose(a, b).as_dict()
    if args.embeddings:
        if args.q is None:
            raise InvalidInput("--embeddings needs --q to fix the coefficient field")
        doc["embeddings"] = [
            {
                "s": emb.s,
                "copy": emb.copy,
                "source": module_to_dict(emb.source),
                "matrix": matrix_to_rows(emb.matrix),
            }
            for emb in all_embeddings(a, b, args.q)
        ]
    _write(args, dumps_canonical(doc))
    return 0


def _cmd_feasibility(args):
    group = GroupType("GSp" if args.group == "gsp" else "GO", args.m)
    weights = None
    if args.weights is not None:
        weights = json.loads(args.weights)
        if not isinstance(weights, list) or not all(isinstance(w, list) for w in weights):
            raise ValueError("--weights must be a JSON list of lists")
        weights = [[int(w) for w in block] for block in weights]
    report = feasibility_report(
        group, p=args.p, degree=args.degree, h0=args.h0, weights=weights
    )
    _write(args, dumps_canonical(report.as_dict()))
    return 0


def _cmd_normalize(args):
    paired = _load_paired(args.path)
    # normalize_standard validates the pairing
    validate(paired.module)
    result = normalize_standard(paired)
    _write(args, dumps_canonical(object_to_document(result.pairing)))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "lift": _cmd_lift,
    "tangent": _cmd_tangent,
    "tensor-simples": _cmd_tensor_simples,
    "feasibility": _cmd_feasibility,
    "normalize": _cmd_normalize,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.seed is not None:
        random.seed(args.seed)
    try:
        return _COMMANDS[args.command](args)
    except FlabError as exc:
        print(f"{type(exc).__name__} {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__} {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
