#!/usr/bin/env python3
"""End-to-end walkthrough on the standard fixtures.

Builds the Z/2 nerve, synthesizes its degeneracies, compares against the
identity-insertion oracle, runs the automatic degree-0 construction on a
Kan fixture, and runs the relative run on the product with the two-object
groupoid. It finishes with that run on a set that is not a nerve, the loop
coskeleton L2 at D=4, joining two distinct tables: the direct run, whose
degree 0 is the first loop, and the run given the second loop as s0.
"""

import itertools
import time

from degenforge import (
    SemisimplicialSet,
    SynthesisInput,
    addendum_s0,
    check_inner,
    check_kan,
    nerve,
    synthesize,
    uniqueness_demo,
)
from degenforge.nerve import cyclic_group, idempotent_monoid, j_groupoid


def loop_coskeleton(loops: int, dim: int) -> SemisimplicialSet:
    """The 1-coskeleton of one vertex with ``loops`` self-edges, up to ``dim``.

    An n-simplex labels each edge a < b of Delta[n] by a loop, the edges in
    lexicographic order and the simplices in the order of
    ``itertools.product``; d_i deletes vertex i.
    """
    faces, below = [], {(): 0}
    for n in range(1, dim + 1):
        pairs = list(itertools.combinations(range(n + 1), 2))
        simplices = list(itertools.product(range(loops), repeat=len(pairs)))
        level = []
        for labels in simplices:
            label = dict(zip(pairs, labels))
            level.append([below[tuple(label[e] for e in itertools.combinations(
                [v for v in range(n + 1) if v != i], 2))] for i in range(n + 1)])
        faces.append(level)
        below = {simplex: j for j, simplex in enumerate(simplices)}
    return SemisimplicialSet([1] + [loops ** (n * (n + 1) // 2) for n in range(1, dim + 1)], faces)


def main() -> None:
    depth = 5
    n2 = nerve(cyclic_group(2), depth)
    print(f"Z/2 nerve at D={depth}: cells {list(n2.sset.cells)}")
    print(f"  inner horns fill: {check_inner(n2.sset, depth).ok}")
    print(f"  Kan condition:    {check_kan(n2.sset, depth).ok}")

    start = time.perf_counter()
    result = synthesize(SynthesisInput(n2.sset), depth)
    elapsed = time.perf_counter() - start
    agree = all(n2.oracle_degeneracies.value(k, n, j) == v
                for k, n, j, v in result.table.entries())
    print(f"  synthesized in {elapsed:.3f}s ({result.stats['filled']} fills, "
          f"{result.stats['forced']} forced); oracle agreement: {agree}")
    print(f"  identities checked: {result.verification.checked}, "
          f"violations: {len(result.verification.violations)}")

    nm = nerve(idempotent_monoid(), 4)
    verdict = check_kan(nm.sset, 3)
    print(f"\nmonoid {{1, e}} nerve: Kan up to 3: {verdict.ok}; "
          f"witness horn {verdict.witness.to_json_dict() if verdict.witness else None}")

    nj = nerve(j_groupoid(), 4)
    found = addendum_s0(nj.sset, 4)
    print(f"\ntwo-object groupoid nerve: automatic s0 per vertex: {found.s0}")

    start = time.perf_counter()
    demo = uniqueness_demo(n2.sset, result.table, result.table, depth)
    elapsed = time.perf_counter() - start
    print(f"\nrelative run on Z/2 x J over J at D={depth}: cells {list(demo.product_cells)}")
    print(f"  done in {elapsed:.3f}s; restriction entries checked: {demo.restriction_checked}, "
          f"projection entries checked: {demo.projection_checked}")

    depth = 4
    L2 = loop_coskeleton(2, depth)
    deg0 = synthesize(SynthesisInput(L2), depth).table
    deg1 = synthesize(SynthesisInput(L2, s0=[1]), depth).table
    differ = sum(deg0.value(k, n, j) != v for k, n, j, v in deg1.entries())
    start = time.perf_counter()
    demo = uniqueness_demo(L2, deg0, deg1, depth)
    elapsed = time.perf_counter() - start
    print(f"\nloop coskeleton L2 at D={depth}: cells {list(L2.cells)}, not a nerve")
    print(f"  relative run on L2 x J over J in {elapsed:.3f}s, joining two tables")
    print(f"  deg0 and deg1 differ in {differ} entries; restriction entries checked: "
          f"{demo.restriction_checked}, projection entries checked: {demo.projection_checked}")


if __name__ == "__main__":
    main()
