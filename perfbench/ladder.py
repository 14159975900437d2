"""Workload ``ladder``: fibers larger than the acceptance corpus reaches.

Four pools of three flat samples each (forward, reverse, crystal-built; the
crystal sampler gets up to CRYSTAL_ATTEMPTS seeded attempts and then a
one-sided fallback, as in ``build_corpus``):

* A3 with v = (2, 3, 2), w = (2, 1, 2)
* D4 with v = (2, 4, 2, 2), w = (1, 2, 1, 1)
* the E6 minimal-resolution setup
* the framing rewrite of the D4 setup (affine D4) at 2 delta, unframed

It has few, large complexes, (28, 76, 28) on D4 and (32, 64, 32) on affine
D4, so assembly and elimination dominate; it calls no ``kacmoody`` code.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

CRYSTAL_ATTEMPTS = 40
# Ordered sample pairs whose complexes are built: the crystal-built point
# against a one-sided one, both ways round, and against itself.
PAIRS = ((0, 2), (2, 0), (2, 2))
EXT1_PAIR = (0, 2)
FINGERPRINT_BOUND = 10
# The fingerprint check recomputes the entries up to this length after a
# base change; a fingerprint is invariant under GL(V).
CHECK_BOUND = 6
CLI_POOL = "D4"
CLI_VERTEX = "2"


def _pool_specs(qx):
    DimVector = qx.DimVector
    a3 = qx.ade_minimal_resolution_setup("A3")[0]
    d4, d4_v, d4_w = qx.ade_minimal_resolution_setup("D4")
    e6 = qx.ade_minimal_resolution_setup("E6")
    affine, infinity = qx.cb_transform(d4, d4_w)
    delta = qx.cb_extend_dim(d4_v, affine, infinity)
    return [
        (
            "A3",
            a3,
            DimVector.of(a3, {"1": 2, "2": 3, "3": 2}),
            DimVector.of(a3, {"1": 2, "2": 1, "3": 2}),
        ),
        (
            "D4",
            d4,
            DimVector.of(d4, {"1": 2, "2": 4, "3": 2, "4": 2}),
            DimVector.of(d4, {"1": 1, "2": 2, "3": 1, "4": 1}),
        ),
        ("E6",) + e6,
        ("affine_D4", affine, delta + delta, DimVector.zero(affine)),
    ]


def _unipotent(qx, rng: random.Random, n: int):
    rows = [[1 if r == c else rng.randint(-2, 2) if c > r else 0 for c in range(n)] for r in range(n)]
    return qx.RatMatrix.from_rows(rows, cols=n)


def _sample_pool(qx, tracer, dq, v, w, seeds) -> tuple[list, list[str], int]:
    with tracer.span("rep.sample"):
        forward = qx.sample_flat(dq, v, w, next(seeds), half="forward")
    with tracer.span("rep.sample"):
        reverse = qx.sample_flat(dq, v, w, next(seeds), half="reverse")
    crystal, attempts = None, 0
    while crystal is None and attempts < CRYSTAL_ATTEMPTS:
        attempts += 1
        with tracer.span("rep.sample"):
            crystal = qx.sample_flat_crystal(dq, v, w, next(seeds))
    tracer.count("rep.crystal_attempts", attempts)
    if crystal is not None:
        tracer.count("rep.crystal_hits")
        return [forward, reverse, crystal], ["forward", "reverse", "crystal"], attempts
    with tracer.span("rep.sample"):
        fallback = qx.sample_flat(dq, v, w, next(seeds), half="forward")
    return [forward, reverse, fallback], ["forward", "reverse", "forward"], attempts


def setup(qx, seed: int, tracer) -> dict:
    pools = []
    for index, (name, q, v, w) in enumerate(_pool_specs(qx)):
        dq = qx.double(q)
        base = seed * 1000 + 100 * index
        samples, kinds, attempts = _sample_pool(qx, tracer, dq, v, w, itertools.count(base))
        rng = random.Random(base + 99)
        pools.append(
            {
                "name": name,
                "dq": dq,
                "samples": samples,
                "kinds": kinds,
                "crystal_attempts": attempts,
                "zeta": (qx.ZetaParam.constant(dq, 1), qx.ZetaParam.constant(dq, -1)),
                "base_change": {i: _unipotent(qx, rng, v[i]) for i in dq.vertices},
            }
        )
    cli_pool = next(p for p in pools if p["name"] == CLI_POOL)
    cli = {k: json.dumps(qx.formats.rep_to_json(cli_pool["samples"][k])) for k in EXT1_PAIR}
    return {"pools": pools, "cli": cli}


# ------------------------------------------------------------ operations


def _complex(qx, tracer, x, y):
    with tracer.span("homext.assemble"):
        c = qx.build_complex(x, y)
    ends, middle, _ = c.dims
    tracer.count("homext.assemble_calls")
    tracer.count("homext.cells", 2 * ends * middle)
    with tracer.span("homext.eliminate"):
        return c, c.hom_dim(), c.ext1_dim(), c.cohom_dim()


def _rref_ranks(qx, tracer, c) -> tuple[int, int]:
    with tracer.span("ratmat.rref"):
        _, pivots_alpha = qx.ratmat.rref(c.alpha)
        _, pivots_beta = qx.ratmat.rref(c.beta)
    tracer.count("ratmat.rref_cells", c.alpha.rows * c.alpha.cols + c.beta.rows * c.beta.cols)
    return len(pivots_alpha), len(pivots_beta)


def _stability(qx, tracer, x, zeta_pos, zeta_neg) -> tuple[bool, bool]:
    with tracer.span("stability.verdict"):
        verdicts = qx.is_stable(x, zeta_pos).stable, qx.is_stable(x, zeta_neg).stable
    tracer.count("stability.verdicts", 2)
    return verdicts


def _fingerprint(qx, tracer, x, bound: int):
    with tracer.span("invariants.fingerprint"):
        entries = qx.pi_fingerprint(x, bound)
    tracer.count("invariants.entries", len(entries))
    return entries


def _walk_length(label) -> int:
    # ("cycle", *word) or ("path", origin, word, target, row, col)
    return len(label) - 1 if label[0] == "cycle" else len(label[2])


def _round_trip(qx, tracer, x, vertex):
    with tracer.span("hecke.reduce"):
        reduction = qx.reduce_i(x, vertex)
        classes = qx.recovery_classes(x, vertex, reduction)
    with tracer.span("hecke.extend"):
        rebuilt = qx.extend_i(reduction.reduced, vertex, classes)
    with tracer.span("hecke.isomorphic"):
        isomorphic = qx.are_isomorphic(rebuilt, x)
    tracer.count("hecke.round_trips")
    return reduction, rebuilt, isomorphic


def _cli(qx, argv: list[str]) -> tuple[int, str]:
    """``quivex ARGV`` in this process, with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qx.cli.main(argv)
    return code, out.getvalue()


def _cli_extend(qx, reduce_output: str, vertex: str) -> tuple[int, str]:
    reduced = json.loads(reduce_output)["result"]
    argv = [
        "extend",
        "--rep", json.dumps(reduced["reduced"]),
        "--vertex", vertex,
        "--classes", json.dumps(reduced["recovery_classes"]),
    ]
    return _cli(qx, argv)


def _cli_result(op, key: str, output) -> dict | None:
    """The ``result`` of a CLI report, or None (and the operation rejected)
    when the command exited with an error."""
    if output is None:
        return None
    code, text = output
    op.reject(key, code == 0, f"exit {code}: {text}")
    return json.loads(text)["result"] if code == 0 else None


# ---------------------------------------------------------------- passes


def _pool_pass(qx, pool: dict, op, tracer) -> dict:
    name, xs = pool["name"], pool["samples"]
    base = pool["dq"].base
    complexes = {}
    for a, b in PAIRS:
        key = f"{name}.complex[{a},{b}]"
        out = op(key, _complex, qx, tracer, xs[a], xs[b])
        if out is None:
            continue
        complexes[a, b] = out
        c, hom, _, cohom = out
        key = f"{name}.rref[{a},{b}]"
        ranks = op(key, _rref_ranks, qx, tracer, c)
        if ranks is not None:
            ends = c.dims[0]
            op.reject(key, ranks == (ends - hom, ends - cohom), f"ranks {ranks} vs hom {hom}, cohom {cohom}")

    for (a, b), (c, hom, ext1, cohom) in complexes.items():
        key = f"{name}.complex[{a},{b}]"
        op.reject(key, (c.beta @ c.alpha).is_zero, "beta . alpha != 0")
        if (b, a) in complexes:
            _, hom_t, ext1_t, _ = complexes[b, a]
            op.reject(key, cohom == hom_t, f"cohom {cohom} != hom of the transposed pair {hom_t}")
            op.reject(key, ext1 == ext1_t, f"ext1 {ext1} != ext1 of the transposed pair {ext1_t}")
        x, y = xs[a], xs[b]
        chi = qx.chi(base, x.dim_v, x.dim_w, y.dim_v, y.dim_w)
        op.reject(key, ext1 - hom - cohom == chi, f"ext1 - hom - cohom != chi = {chi}")

    if EXT1_PAIR in complexes:
        c, _, ext1, _ = complexes[EXT1_PAIR]
        key = f"{name}.ext1_reps[{EXT1_PAIR[0]},{EXT1_PAIR[1]}]"
        reps = op(key, tracer.call, "homext.ext1_reps", c.ext1_reps)
        if reps is not None:
            op.reject(key, len(reps) == ext1, f"{len(reps)} cocycles for ext1 = {ext1}")
            op.reject(key, all((c.beta @ r).is_zero for r in reps), "a representative is no cocycle")

    zeta_pos, zeta_neg = pool["zeta"]
    for k, (x, kind) in enumerate(zip(xs, pool["kinds"])):
        key = f"{name}.stability[{k}]"
        verdicts = op(key, _stability, qx, tracer, x, zeta_pos, zeta_neg)
        if verdicts is None:
            continue
        pos, neg = verdicts
        # J = 0 puts all of V inside Ker J; I = 0 leaves Im I generating nothing.
        op.reject(key, kind != "forward" or not pos, "one-sided point with J = 0 is stable at zeta > 0")
        op.reject(key, kind != "reverse" or not neg, "one-sided point with I = 0 is stable at zeta < 0")
        op.reject(key, kind != "crystal" or pos, "crystal-built point is unstable at zeta > 0")
        if pos and (k, k) in complexes:
            op.reject(key, complexes[k, k][1] == 0, "stable point with framed self-Homs")

    x = xs[2]
    key = f"{name}.fingerprint"
    entries = op(key, _fingerprint, qx, tracer, x, FINGERPRINT_BOUND)
    if entries is not None:
        moved = dict(qx.pi_fingerprint(qx.conjugate(x, pool["base_change"]), CHECK_BOUND))
        head = {label: value for label, value in entries if _walk_length(label) <= CHECK_BOUND}
        op.reject(key, moved == head, "fingerprint changed under a base change")

    reductions = {}
    if pool["kinds"][2] == "crystal":
        for vertex in pool["dq"].vertices:
            key = f"{name}.round_trip[{vertex}]"
            out = op(key, _round_trip, qx, tracer, x, vertex)
            if out is None:
                continue
            reduction, rebuilt, isomorphic = out
            reductions[vertex] = reduction
            op.reject(key, rebuilt.dim_v == x.dim_v, "round trip changed dimV")
            op.reject(key, isomorphic, "round trip is not isomorphic to the original")
    return {"complexes": complexes, "reductions": reductions}


def _cli_pass(qx, inputs: dict, pool: dict, found: dict, op, tracer) -> None:
    cli = inputs["cli"]
    a, b = EXT1_PAIR
    x = pool["samples"][b]

    key = "cli.hom-ext"
    out = op(key, tracer.call, "cli.hom_ext", _cli, qx, ["hom-ext", "--rep1", cli[a], "--rep2", cli[b]])
    report = _cli_result(op, key, out)
    if report is not None and (a, b) in found["complexes"]:
        c, hom, ext1, cohom = found["complexes"][a, b]
        y = pool["samples"][a]
        expected = {
            "hom": hom,
            "ext1": ext1,
            "cohom": cohom,
            "chi": qx.chi(y.dq.base, y.dim_v, y.dim_w, x.dim_v, x.dim_w),
            "complex_dims": list(c.dims),
            "duality_ok": True,
            "euler_ok": True,
            "ext1_symmetric": True,
            "flat": [True, True],
        }
        got = {k: report.get(k) for k in expected}
        op.reject(key, got == expected, f"CLI {got} != library {expected}")

    key = "cli.reduce"
    reduce_out = op(key, tracer.call, "cli.reduce", _cli, qx, ["reduce", "--rep", cli[b], "--vertex", CLI_VERTEX])
    report = _cli_result(op, key, reduce_out)
    reduction = found["reductions"].get(CLI_VERTEX)
    if report is not None and reduction is not None:
        library = json.loads(json.dumps(qx.formats.rep_to_json(reduction.reduced)))
        op.reject(key, report.get("r") == reduction.r, f"CLI r {report.get('r')} != {reduction.r}")
        op.reject(key, report.get("reduced") == library, "CLI reduced point != library reduction")

    key = "cli.extend"
    reduce_text = reduce_out[1] if reduce_out is not None else "{}"
    out = op(key, tracer.call, "cli.extend", _cli_extend, qx, reduce_text, CLI_VERTEX)
    report = _cli_result(op, key, out)
    if report is not None:
        op.reject(key, report.get("dimV") == x.dim_v.as_dict(), "CLI extend did not restore dimV")
        op.reject(key, report.get("flat") is True, "CLI extend output is not flat")
        op.reject(key, report.get("stable") is True, "CLI extend output is not stable")


def run_pass(qx, inputs: dict, op, tracer) -> None:
    found = {pool["name"]: _pool_pass(qx, pool, op, tracer) for pool in inputs["pools"]}
    cli_pool = next(p for p in inputs["pools"] if p["name"] == CLI_POOL)
    _cli_pass(qx, inputs, cli_pool, found[CLI_POOL], op, tracer)


def _complex_dims(x, y) -> tuple[int, int, int]:
    dq = x.dq
    ends = sum(y.dim_v[i] * x.dim_v[i] for i in dq.vertices)
    middle = sum(y.dim_v[a.target] * x.dim_v[a.source] for a in dq.arrows)
    middle += sum(y.dim_v[i] * x.dim_w[i] + y.dim_w[i] * x.dim_v[i] for i in dq.vertices)
    return ends, middle, ends


def sizes(inputs: dict) -> dict:
    out = {}
    for pool in inputs["pools"]:
        x = pool["samples"][0]
        out[pool["name"]] = {
            "v": list(x.dim_v.values),
            "w": list(x.dim_w.values),
            "complex_dims": _complex_dims(x, x),
            "kinds": pool["kinds"],
            "crystal_attempts": pool["crystal_attempts"],
        }
    return {"pools": out, "fingerprint_bound": FINGERPRINT_BOUND, "cli": [CLI_POOL, CLI_VERTEX]}
