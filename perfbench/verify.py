"""Workload ``verify``: the acceptance criteria 1-7, one timed operation each.

It is the command users run, and it is thousands of tiny exact operations
(1,400 stability verdicts on matrices of at most 6x8 in criterion 1, 531
complex pairs in criterion 4, 20 default-bound fingerprints in criterion 2),
so per-call overhead dominates: a change that helps large matrices but costs
small ones shows here.  The corpus is built in set-up.
"""

from __future__ import annotations


def setup(qx, seed: int, tracer) -> dict:
    with tracer.span("acceptance.corpus"):
        corpus = qx.acceptance.build_corpus(seed)
    return {"seed": seed, "corpus": corpus}


def _criteria(acceptance, seed: int, corpus):
    return (
        (1, acceptance.criterion_1, (seed,)),
        (2, acceptance.criterion_2, (seed,)),
        (3, acceptance.criterion_3, ()),
        (4, acceptance.criterion_4, (corpus,)),
        (5, acceptance.criterion_5, (corpus,)),
        (6, acceptance.criterion_6, ()),
        (7, acceptance.criterion_7, (seed, corpus)),
    )


def run_pass(qx, inputs: dict, op, tracer) -> None:
    for number, criterion, args in _criteria(qx.acceptance, inputs["seed"], inputs["corpus"]):
        name = f"c{number}"
        result = op(name, tracer.call, f"acceptance.{name}", criterion, *args)
        if result is not None:
            op.reject(name, result.passed, f"criterion {number} failed: {result.details}")
            inputs.setdefault("details", {})[name] = {
                k: v for k, v in result.details.items() if isinstance(v, int)
            }


def sizes(inputs: dict) -> dict:
    pools = inputs["corpus"].pools
    return {
        "corpus_pools": {shape: len(pool) for shape, pool in pools.items()},
        "corpus_dims": {
            shape: sorted({tuple(x.dim_v.values) for x in pool}) for shape, pool in pools.items()
        },
        "criterion_counts": inputs.get("details", {}),
    }
