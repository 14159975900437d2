"""Command-line front door: parse JSON inputs, dispatch to the library, emit
a machine-readable report on stdout.

Each command reads its JSON values through ``_json_arg``, which records
every input in the call's ``inputs`` dict, and returns its ``result`` dict;
``main`` writes the one envelope, on success or failure.  Only ``verify``
(whose envelope adds ``seed``) and ``example --member`` (a bare
representation) write their own output and return their exit code.

The report is byte-identical for identical inputs and seed: no timestamps,
sorted keys, pinned version string.  Exit codes: 0 success, 1 I/O or parse
trouble, 2 domain errors (precondition failures), 3 a failed internal
consistency check.  No mathematical logic lives here.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__, acceptance, formats, hecke, homext, invariants, kacmoody
from .bundles import EXAMPLE_NAMES, get_bundle
from .errors import DomainError, FormatError, InternalCheckError, UnknownExampleError
from .quiver import ZetaParam, cb_extend_dim, cb_transform, chi, d_of, dim_bigM
from .rep import cb_apply, is_flat, moment_map
from .stability import is_stable, stabilizer_trivial


def _json_arg(inputs: dict[str, dict], label: str, value: str | Path):
    """A CLI value that is either a path, '-' for stdin, or inline JSON; a
    ``Path`` is a path.  Its source and sha256 go to ``inputs[label]``."""
    payload, inputs[label] = formats.read_input(label, value)
    return payload


def _load_rep(inputs: dict[str, dict], label: str, value: str):
    """A representation.  A quiver it names by path is read as the input
    ``<label>.quiver``: a relative path inside a regular file resolves
    against that file's directory, and inside a pipe, a FIFO, stdin or an
    inline value against the working directory."""
    obj = _json_arg(inputs, label, value)
    if isinstance(obj, dict) and isinstance(obj.get("quiver"), str):
        path = inputs[label].get("path")
        base = Path(path).parent if path and Path(path).is_file() else Path()
        obj = {**obj, "quiver": _json_arg(inputs, f"{label}.quiver", base / obj["quiver"])}
    return formats.rep_from_json(obj)


def _load_vectors(inputs: dict[str, dict], quiver: str, **vectors: str | None):
    """The quiver and, in the order given, each labelled dimension vector
    over it; None for a vector whose value is None."""
    q = formats.quiver_from_json(_json_arg(inputs, "quiver", quiver))
    return q, *(
        None if value is None else formats.dimvec_from_json(q, _json_arg(inputs, label, value))
        for label, value in vectors.items()
    )


def _zeta_for(rep, inputs: dict[str, dict], value: str) -> ZetaParam:
    if value == "pos":
        return ZetaParam.constant(rep.dq, 1)
    if value == "neg":
        return ZetaParam.constant(rep.dq, -1)
    return formats.zeta_from_json(rep.dq.base, _json_arg(inputs, "zeta", value))


def _write_json(obj, stream) -> None:
    """The one JSON form the CLI writes: sorted keys, two-space indent and a
    trailing newline, encoded while it is written."""
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit(command: str, **fields) -> int:
    """Stream the report envelope: command and version plus ``inputs`` and
    ``result`` (and ``seed``) on success, or ``error`` on failure, to stdout.
    Returns the success exit code."""
    _write_json({"command": command, "version": __version__, **fields}, sys.stdout)
    return 0


def _cmd_check_moment(args, inputs) -> dict:
    mu = moment_map(_load_rep(inputs, "rep", args.rep))
    return {
        "flat": mu.is_zero,
        "moment": {i: formats.matrix_to_json(m) for i, m in sorted(mu.blocks.items())},
    }


def _cmd_hom_ext(args, inputs) -> dict:
    x1 = _load_rep(inputs, "rep1", args.rep1)
    x2 = _load_rep(inputs, "rep2", args.rep2)
    return homext.hom_ext_report(x1, x2)


def _cmd_stability(args, inputs) -> dict:
    x = _load_rep(inputs, "rep", args.rep)
    verdict = is_stable(x, _zeta_for(x, inputs, args.zeta))
    return {
        "verdict": verdict.verdict,
        "witness_dims": verdict.witness.dims() if verdict.witness else None,
        "stabilizer_trivial": stabilizer_trivial(x),
    }


def _cmd_dim(args, inputs) -> dict:
    q, v, w = _load_vectors(inputs, args.quiver, dimV=args.dim_v, dimW=args.dim_w)
    return {"dim_bigM": dim_bigM(q, v, w), "d": d_of(q, v, w)}


def _cmd_chi(args, inputs) -> dict:
    q, *vectors = _load_vectors(inputs, args.quiver, v1=args.v1, w1=args.w1, v2=args.v2, w2=args.w2)
    return {"chi": chi(q, *vectors)}


def _cmd_invariants(args, inputs) -> dict:
    x = _load_rep(inputs, "rep", args.rep)
    bound = args.max_length if args.max_length is not None else invariants.default_degree_bound(x)
    fingerprint = invariants.pi_fingerprint(x, bound)
    return {
        "max_length": bound,
        "fingerprint": formats.fingerprint_to_json(fingerprint),
        "all_zero": invariants.fingerprint_is_zero(fingerprint),
    }


def _cmd_reduce(args, inputs) -> dict:
    x = _load_rep(inputs, "rep", args.rep)
    red = hecke.reduce_i(x, args.vertex)
    classes = hecke.recovery_classes(x, args.vertex, red)
    layout = hecke.class_layout(red.reduced, args.vertex)
    return {
        "r": red.r,
        "dimV_reduced": red.reduced.dim_v.as_dict(),
        "reduced": formats.rep_to_json(red.reduced),
        "inclusion": {i: formats.matrix_to_json(m) for i, m in sorted(red.inclusion.items())},
        "recovery_classes": formats.classes_to_json(layout, args.vertex, classes),
    }


def _cmd_extend(args, inputs) -> dict:
    x = _load_rep(inputs, "rep", args.rep)
    payload = _json_arg(inputs, "classes", args.classes)
    layout = hecke.class_layout(x, args.vertex)
    classes = formats.classes_from_json(payload, layout, args.vertex)
    extended = hecke.extend_i(x, args.vertex, classes)
    return {
        "extended": formats.rep_to_json(extended),
        "dimV": extended.dim_v.as_dict(),
        "flat": is_flat(extended),
        "stable": is_stable(extended, ZetaParam.constant(extended.dq, 1)).stable,
    }


def _cmd_weight_mult(args, inputs) -> dict:
    q, v, w = _load_vectors(inputs, args.quiver, dimV=args.dim_v, dimW=args.dim_w)
    multiplicity, cutoff = kacmoody.weight_multiplicity(q, v, w)
    return {
        "multiplicity": multiplicity,
        "weight": {"highest": w.as_dict(), "drop": v.as_dict()},
        "finite_type": cutoff is None,
        "cutoff": cutoff,
    }


def _cmd_cb_transform(args, inputs) -> dict:
    if args.rep:
        given = {"--quiver": args.quiver, "--dim-w": args.dim_w, "--dim-v": args.dim_v}
        ignored = [flag for flag, value in given.items() if value is not None]
        if ignored:
            raise FormatError(f"cb-transform --rep takes no {', '.join(ignored)}")
        transformed = cb_apply(_load_rep(inputs, "rep", args.rep))
        return {
            "quiver": formats.quiver_to_json(transformed.dq.base),
            "infinity": transformed.dq.vertices[-1],
            "rep": formats.rep_to_json(transformed),
            "flat": is_flat(transformed),
        }
    if not args.quiver or not args.dim_w:
        raise FormatError("cb-transform needs --rep, or --quiver together with --dim-w")
    q, w, v = _load_vectors(inputs, args.quiver, dimW=args.dim_w, dimV=args.dim_v or None)
    q2, inf = cb_transform(q, w)
    result = {"quiver": formats.quiver_to_json(q2), "infinity": inf}
    if v is not None:
        result["dimV_extended"] = cb_extend_dim(v, q2, inf).as_dict()
    return result


def _cmd_example(args, inputs) -> dict | int:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.k is not None:
        params["k"] = args.k
    if args.member is not None and args.out is not None:
        raise FormatError("example takes --member or --out, not both")
    bundle = get_bundle(args.name, **params)
    payload = formats.bundle_to_json(bundle)
    if args.member:
        if args.member not in bundle.reps:
            raise UnknownExampleError(
                f"bundle {args.name!r} has no member {args.member!r}; "
                f"members: {sorted(bundle.reps)}"
            )
        _write_json(formats.rep_to_json(bundle.reps[args.member]), sys.stdout)
        return 0
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        files = {"quiver.json": payload["quiver"]}
        files.update((f"rep_{name}.json", rep) for name, rep in payload["reps"].items())
        for name, obj in files.items():
            with (outdir / name).open("w") as stream:
                _write_json(obj, stream)
        return {"bundle": args.name, "written": sorted(files)}
    return payload


def _cmd_verify(args, inputs) -> int:
    seed = args.seed if args.seed is not None else acceptance.DEFAULT_SEED
    numbers: set[int] = set()
    for suite in args.suites or ["all"]:
        if suite not in acceptance.SUITES:
            raise FormatError(
                f"unknown suite {suite!r}; choices: {', '.join(sorted(acceptance.SUITES))}"
            )
        numbers.update(acceptance.SUITES[suite])
    if args.n is not None and not numbers == set(acceptance.SUITES["an"]):
        raise FormatError("--n only applies to the 'an' suite")
    results = acceptance.run_suites(seed, tuple(numbers), an_n=args.n)
    for r in results:
        print(r.line(), file=sys.stderr)
    payload = {
        "criteria": [dataclasses.asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(args.command, inputs=inputs, result=payload, seed=seed)
    return 0 if payload["all_passed"] else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later
    ``main`` call in the process: argparse makes a help formatter per
    argument, which costs more than a small command's own work."""
    parser = argparse.ArgumentParser(
        prog="quivex",
        description="Exact computations with framed representations of preprojective algebras.",
    )
    parser.add_argument("--version", action="version", version=f"quivex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-moment", help="evaluate the moment map of a representation")
    p.add_argument("--rep", required=True, help="representation JSON (path, '-', or inline)")
    p.set_defaults(func=_cmd_check_moment)

    p = sub.add_parser("hom-ext", help="Hom/Ext^1 data of a pair of representations")
    p.add_argument("--rep1", required=True)
    p.add_argument("--rep2", required=True)
    p.set_defaults(func=_cmd_hom_ext)

    p = sub.add_parser("stability", help="sign-definite stability verdict")
    p.add_argument("--rep", required=True)
    p.add_argument("--zeta", required=True, help="'pos', 'neg', or a zeta JSON (path/inline)")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("dim", help="ambient and moduli dimension counts")
    p.add_argument("--quiver", required=True)
    p.add_argument("--dim-v", required=True)
    p.add_argument("--dim-w", required=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("chi", help="Euler characteristic of the pair complex")
    p.add_argument("--quiver", required=True)
    p.add_argument("--v1", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--v2", required=True)
    p.add_argument("--w2", required=True)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("invariants", help="cycle-trace and framed-path fingerprint")
    p.add_argument("--rep", required=True)
    p.add_argument("--max-length", type=int, default=None)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("reduce", help="strip the simple module at a vertex")
    p.add_argument("--rep", required=True)
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("extend", help="extend by cocycle classes at a vertex")
    p.add_argument("--rep", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--classes", required=True, help="cocycle file (path/inline)")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("weight-mult", help="Kac-Moody weight multiplicity oracle")
    p.add_argument("--quiver", required=True)
    p.add_argument("--dim-v", required=True)
    p.add_argument("--dim-w", required=True)
    p.set_defaults(func=_cmd_weight_mult)

    p = sub.add_parser("cb-transform", help="one-extra-vertex framing rewrite")
    p.add_argument("--quiver")
    p.add_argument("--dim-w")
    p.add_argument("--dim-v")
    p.add_argument("--rep", help="rewrite a full representation instead")
    p.set_defaults(func=_cmd_cb_transform)

    p = sub.add_parser("example", help="emit a named example bundle")
    p.add_argument("name", choices=sorted(EXAMPLE_NAMES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--member", default=None, help="emit a single member as a bare rep JSON")
    p.add_argument("--out", default=None, help="write the bundle files into a directory")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument(
        "suites",
        nargs="*",
        metavar="SUITE",
        help=f"suites to run (default: all); choices: {', '.join(sorted(acceptance.SUITES))}",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="restrict the 'an' suite to one n")
    p.set_defaults(func=_cmd_verify)

    return parser


_EXIT_CODES = {FormatError: 1, OSError: 1, DomainError: 2, InternalCheckError: 3}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs: dict[str, dict] = {}
    try:
        try:
            code = args.func(args, inputs)
            if isinstance(code, dict):
                code = _emit(args.command, inputs=inputs, result=code)
        except tuple(_EXIT_CODES) as exc:
            _emit(args.command, error={"type": type(exc).__name__, "message": str(exc)})
            code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # nobody reads stdout, so no report can reach them; send what is still
        # buffered to devnull, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
