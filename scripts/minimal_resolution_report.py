#!/usr/bin/env python3
"""Walk the ADE minimal-resolution setups: print the dimension data, the
oracle component counts, and (for chains) the exact singularity relation on
a sampled flat point."""

import argparse

from quivex import (
    ZetaParam,
    ade_minimal_resolution_setup,
    d_of,
    dim_bigM,
    is_stable,
    predicted_component_count,
)
from quivex.bundles import an_bundle, an_chain_sample
from quivex.invariants import an_xyz, fingerprint_is_zero, pi_fingerprint


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--labels", nargs="*", default=["A2", "A3", "A4", "A5", "D4"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    header = f"{'label':>6} {'dim M':>6} {'d':>3} {'components':>10}"
    print(header)
    print("-" * len(header))
    for label in args.labels:
        q, v, w = ade_minimal_resolution_setup(label)
        count = predicted_component_count(q, v, w)
        print(f"{label:>6} {dim_bigM(q, v, w):>6} {d_of(q, v, w):>3} {count:>10}")

    for label in args.labels:
        if not label.upper().startswith("A") or label.upper() == "A1":
            continue
        n = int(label[1:])
        print(f"\n{label}: the {n} zero-fingerprint points and the chain relation")
        bundle = an_bundle(n)
        zeta = ZetaParam.constant(bundle.dq, 1)
        for name, x in sorted(bundle.reps.items()):
            stable = is_stable(x, zeta).stable
            zero = fingerprint_is_zero(pi_fingerprint(x))
            print(f"  {name}: stable={stable} fingerprint_zero={zero}")
        sample = an_chain_sample(bundle, args.seed)
        rel = an_xyz(sample)
        print(
            f"  sampled flat point: x={rel.x} y={rel.y} z={rel.z} "
            f"x*y == z^{n + 1}: {rel.relation_ok}"
        )


if __name__ == "__main__":
    main()
