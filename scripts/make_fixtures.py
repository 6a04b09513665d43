#!/usr/bin/env python3
"""Write the standard fixture files for experimenting with the CLI.

Usage: python scripts/make_fixtures.py [output-dir]
"""

import json
import pathlib
import sys

from degenforge import nerve, product
from degenforge.nerve import (
    cyclic_group,
    idempotent_monoid,
    j_groupoid,
    poset_01,
    product_category,
    simplex_category,
)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def main() -> None:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "fixtures")
    out.mkdir(parents=True, exist_ok=True)
    categories = {
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "z2xz2": product_category(cyclic_group(2), cyclic_group(2)),
        "monoid": idempotent_monoid(),
        "poset01": poset_01(),
        "square": product_category(poset_01(), poset_01()),
        "j": j_groupoid(),
        "delta1": simplex_category(1),
        "delta2": simplex_category(2),
        "delta3": simplex_category(3),
    }
    for name, category in categories.items():
        (out / f"{name}.cat").write_text(_json(category.to_json_dict()))
        bundle = nerve(category, 5)
        (out / f"{name}.sset").write_text(_json(bundle.sset.to_json_dict()))
        if bundle.oracle_degeneracies is not None:
            (out / f"{name}.deg").write_text(_json(bundle.oracle_degeneracies.to_json_dict()))
        print(f"{name}: cells {list(bundle.sset.cells)}")
    # Z/2 x J with its right projection to J, for the relative commands
    bundle = product(nerve(cyclic_group(2), 5).sset, nerve(j_groupoid(), 5).sset)
    (out / "z2xj.sset").write_text(_json(bundle.sset.to_json_dict()))
    (out / "z2xj_to_j.map").write_text(_json(bundle.right.to_json_dict()))
    print(f"z2xj: cells {list(bundle.sset.cells)}, with its projection to j")
    print(f"\nwrote fixture files to {out}/")


if __name__ == "__main__":
    main()
