"""Seeded inputs, op plans and independent expected answers for each workload.

Every fixture is the nerve of a small category, relabeled level by level
with a permutation drawn from the workload seed. The face tables, the
identity-insertion oracle table and any map are rewritten to match, so the
program only ever sees relabeled files. On groupoid nerves horn fillers are
unique, so the synthesized tables must equal the relabeled oracle whatever
the labelling.

Expected answers never come from the code under test: tables come from the
identity-insertion oracle, verdicts from category theory (a nerve is always
inner-Kan, and Kan exactly when the category is a groupoid), edge verdicts
from ``equivalence_criterion``, and the face-identity count of ``validate``
from the cell counts.

Run as a script, this writes one workload's files and ``plan.json`` into a
directory and prints a digest of everything written:

    python3 perfbench/fixtures.py --workload synth-abs --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import sys

if __name__ == "__main__":
    sys.path[0] = str(pathlib.Path(__file__).resolve().parent.parent)
    from perfbench.paths import use_checkout_sources

    use_checkout_sources()

from degenforge.nerve import (
    cyclic_group,
    equivalence_criterion,
    idempotent_monoid,
    j_groupoid,
    nerve,
    poset_01,
    product_category,
)

CATEGORIES = {
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z5": lambda: cyclic_group(5),
    "z6": lambda: cyclic_group(6),
    "z2xz2": lambda: product_category(cyclic_group(2), cyclic_group(2)),
    "j": j_groupoid,
    "monoid": idempotent_monoid,
    "square": lambda: product_category(poset_01(), poset_01()),
    "z2xj": lambda: product_category(cyclic_group(2), j_groupoid()),
    "z3xj": lambda: product_category(cyclic_group(3), j_groupoid()),
}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def content_hash(set_dict: dict) -> str:
    """sha256 of a set's canonical JSON, the pin a degeneracy table carries."""
    blob = json.dumps(set_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- relabeling ---------------------------------------------------------------


def permutations(cells, rng: random.Random) -> list[list[int]]:
    """One random permutation per level; ``perm[n][old] = new``."""
    out = []
    for count in cells:
        perm = list(range(count))
        rng.shuffle(perm)
        out.append(perm)
    return out


def relabel_set(set_dict: dict, perm) -> dict:
    faces = []
    for n, level in enumerate(set_dict["faces"], start=1):
        lower, new = perm[n - 1], [None] * len(level)
        for j, row in enumerate(level):
            new[perm[n][j]] = [lower[v] for v in row]
        faces.append(new)
    return {"dim": set_dict["dim"], "cells": list(set_dict["cells"]), "faces": faces}


def relabel_levels(s: list, perm) -> list:
    """Relabel a degeneracy array ``s[k][n]``: entry j of level n maps into level n+1."""
    out = []
    for per_n in s:
        row = []
        for n, level in enumerate(per_n):
            if level is None:
                row.append(None)
                continue
            new = [None] * len(level)
            for j, v in enumerate(level):
                new[perm[n][j]] = perm[n + 1][v]
            row.append(new)
        out.append(row)
    return out


def relabel_map(levels: list, perm_source, perm_target) -> list:
    out = []
    for n, level in enumerate(levels):
        new = [None] * len(level)
        for j, v in enumerate(level):
            new[perm_source[n][j]] = perm_target[n][v]
        out.append(new)
    return out


def restrict(s: list, top: int) -> list:
    """The levels 0 <= k <= n <= top, in the shape a synthesized table has."""
    return [[s[k][n] if n >= k else None for n in range(top + 1)] for k in range(top + 1)]


def oracle_levels(bundle) -> list:
    """The identity-insertion table as an array ``s[k][n]``, levels k <= n < D."""
    table, cells = bundle.oracle_degeneracies, bundle.sset.cells
    top = bundle.sset.dim - 1
    return [[None if n < k else [table.level(k, n)[j] for j in range(cells[n])]
             for n in range(top + 1)] for k in range(top + 1)]


class Fixture:
    """A relabeled nerve: set, oracle table, permutations and arrow bookkeeping."""

    def __init__(self, name: str, dim: int, seed: int):
        self.name, self.dim = name, dim
        self.category = CATEGORIES[name]()
        self.bundle = nerve(self.category, dim)
        raw = self.bundle.sset.to_json_dict()
        self.perm = permutations(raw["cells"], random.Random(f"{seed}:{name}:{dim}"))
        self.set = relabel_set(raw, self.perm)
        self.hash = content_hash(self.set)
        self.s = relabel_levels(oracle_levels(self.bundle), self.perm)

    @property
    def key(self) -> str:
        return f"{self.name}@D{self.dim}"

    def table(self) -> dict:
        return {"base_hash": self.hash, "s": self.s}

    def s0(self) -> list[int]:
        """The oracle's degree-0 degeneracy, one edge per vertex."""
        return [self.s[0][0][v] for v in range(self.set["cells"][0])]

    def edge_expectations(self) -> list[bool]:
        """Equivalence verdict per relabeled edge; edge j of the nerve is arrow j."""
        out = [None] * len(self.category.arrows)
        for a in range(len(self.category.arrows)):
            out[self.perm[1][a]] = equivalence_criterion(self.category, a)
        return out

    def is_groupoid(self) -> bool:
        return all(equivalence_criterion(self.category, a) for a in range(len(self.category.arrows)))

    def validate_count(self) -> int:
        """Face references plus face-commutation instances, counted from the cells."""
        cells = self.set["cells"]
        refs = sum(cells[n] * (n + 1) for n in range(1, len(cells)))
        pairs = sum(cells[n] * n * (n + 1) // 2 for n in range(2, len(cells)))
        return refs + pairs


def product_set(left: dict, right: dict) -> dict:
    """Levelwise product with row-major pair indices, as ``degenforge.sset.product`` lays it out."""
    dim = min(left["dim"], right["dim"])
    cl, cr = left["cells"], right["cells"]
    faces = []
    for n in range(1, dim + 1):
        level = []
        for fx in left["faces"][n - 1]:
            for fy in right["faces"][n - 1]:
                level.append([fx[i] * cr[n - 1] + fy[i] for i in range(n + 1)])
        faces.append(level)
    return {"dim": dim, "cells": [cl[n] * cr[n] for n in range(dim + 1)], "faces": faces}


def product_levels(s_left: list, s_right: list, cells_right, top: int) -> list:
    """The table (s_k x s_k) on the product, levels k <= n <= top."""
    out = []
    for k in range(top + 1):
        row = []
        for n in range(top + 1):
            if n < k:
                row.append(None)
                continue
            right = s_right[k][n]
            row.append([vl * cells_right[n + 1] + vr
                        for vl in s_left[k][n] for vr in right])
        out.append(row)
    return out


def projection_levels(product: Fixture, right: Fixture) -> list:
    """The map C x J -> J on chains of the product category: keep the J components."""
    cat = right.category
    n_arrows, n_objects = len(cat.arrows), len(cat.objects)
    levels = [[o % n_objects for o in range(len(product.category.objects))]]
    for n in range(1, product.dim + 1):
        levels.append([right.bundle.index_of(n, tuple(a % n_arrows for a in chain))
                       for chain in product.bundle.chains[n]])
    return relabel_map(levels, product.perm, right.perm)


# -- plans ----------------------------------------------------------------------


class Plan:
    """Collects files and ops; ops name files relative to the work directory."""

    def __init__(self, seed: int):
        self.seed = seed
        self.files: dict[str, str] = {}
        self.ops: list[dict] = []

    def fixture(self, name: str, dim: int) -> Fixture:
        fx = Fixture(name, dim, self.seed)
        self.files[f"{fx.key}.sset"] = _dump(fx.set)
        self.files[f"{fx.key}.deg"] = _dump(fx.table())
        return fx

    def op(self, fixture: str, command: str, argv: list, expect: dict) -> None:
        self.ops.append({"fixture": fixture, "command": command, "argv": argv, "expect": expect})


def _synth_abs(plan: Plan) -> None:
    """The paper's main path: synthesize, then replay the certificate; mostly inner-horn scans."""
    for name, dim in (("z2", 6), ("z3", 6), ("z2xz2", 5), ("z5", 5)):
        fx = plan.fixture(name, dim)
        k = fx.key
        table = {"file": f"{k}.out.tab", "base_hash": fx.hash, "s": restrict(fx.s, dim - 2)}
        plan.op(k, "synthesize",
                ["synthesize", f"{k}.sset", "--out", f"{k}.out.tab", "--cert", f"{k}.out.cert"],
                {"code": 0, "verdict": "success", "table": table, "s0": fx.s0()})
        plan.op(k, "verify_cert",
                ["verify", f"{k}.sset", f"{k}.out.tab", "--cert", f"{k}.out.cert"],
                {"code": 0, "verdict": "pass", "replayed_from": f"{k}.out.cert"})


def _synth_rel(plan: Plan) -> None:
    """The engine as lifts: subcomplex-forced values, products, degree-0 discovery."""
    dim = 5
    j_canonical = nerve(j_groupoid(), dim)
    j_set = j_canonical.sset.to_json_dict()
    j_s = oracle_levels(j_canonical)
    for name in ("z2", "z3"):
        fx = plan.fixture(name, dim)
        k = fx.key
        table = {"file": f"{k}.demo.tab", "base_hash": content_hash(product_set(fx.set, j_set)),
                 "s": product_levels(fx.s, j_s, j_set["cells"], dim - 2)}
        plan.op(k, "demo_uniqueness",
                ["demo-uniqueness", f"{k}.sset", "--deg0", f"{k}.deg", "--deg1", f"{k}.deg",
                 "--out", f"{k}.demo.tab", "--cert", f"{k}.demo.cert"],
                {"code": 0, "verdict": "success", "table": table})
    over = plan.fixture("z2xj", dim)
    base = plan.fixture("j", dim)
    k = over.key
    plan.files[f"{k}.map"] = _dump({"levels": projection_levels(over, base)})
    table = {"file": f"{k}.rel.tab", "base_hash": over.hash, "s": restrict(over.s, dim - 2)}
    plan.op(k, "synthesize_rel",
            ["synthesize-rel", f"{k}.sset", "--map", f"{k}.map", "--target", f"{base.key}.sset",
             "--ydeg", f"{base.key}.deg", "--out", f"{k}.rel.tab", "--cert", f"{k}.rel.cert"],
            {"code": 0, "verdict": "success", "table": table})


def _verdicts(plan: Plan) -> None:
    """Read-only checkers with early-exit witnesses on the non-groupoids; no engine work."""
    dim = 5
    sets = {name: plan.fixture(name, dim) for name in ("z2xz2", "j", "monoid", "square", "z6")}
    for name in ("z2xz2", "j", "monoid", "square"):
        fx = sets[name]
        plan.op(fx.key, "check_inner", ["check", "--inner", f"{fx.key}.sset"],
                {"code": 0, "verdict": "yes"})
        kan = fx.is_groupoid()
        plan.op(fx.key, "check_kan", ["check", "--kan", f"{fx.key}.sset"],
                {"code": 0 if kan else 1, "verdict": "yes" if kan else "no"})
    for name in ("z6", "j", "square", "monoid"):
        fx = sets[name]
        edges = fx.edge_expectations()
        plan.op(fx.key, "edges", ["edges", f"{fx.key}.sset", "--property", "equivalence"],
                {"code": 0 if all(edges) else 1, "verdict": "yes" if all(edges) else "no",
                 "edges": edges})
    for name in ("z2xz2", "j"):
        fx = sets[name]
        plan.op(fx.key, "addendum_s0", ["addendum-s0", f"{fx.key}.sset"],
                {"code": 0, "verdict": "success", "s0": fx.s0()})


def _load_verify(plan: Plan) -> None:
    """The two largest sets: JSON load, face index, validate, hashing; no horn work."""
    for name in ("z3xj", "z6"):
        fx = plan.fixture(name, 6)
        plan.op(fx.key, "validate", ["validate", f"{fx.key}.sset"],
                {"code": 0, "verdict": "ok", "checked": fx.validate_count()})
        plan.op(fx.key, "verify", ["verify", f"{fx.key}.sset", f"{fx.key}.deg"],
                {"code": 0, "verdict": "pass"})


PLANS = {"synth-abs": _synth_abs, "synth-rel": _synth_rel,
            "verdicts": _verdicts, "load-verify": _load_verify}


def build_plan(workload: str, seed: int) -> Plan:
    plan = Plan(seed)
    PLANS[workload](plan)
    return plan


def write_plan(plan: Plan, out: pathlib.Path) -> str:
    """Write every file and ``plan.json``; return a digest of all bytes written."""
    out.mkdir(parents=True, exist_ok=True)
    files = dict(plan.files)
    files["plan.json"] = _dump({"seed": plan.seed, "ops": plan.ops})
    digest = hashlib.sha256()
    for name in sorted(files):
        (out / name).write_text(files[name], encoding="utf-8")
        digest.update(name.encode("utf-8") + b"\0" + files[name].encode("utf-8"))
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(write_plan(build_plan(args.workload, args.seed), pathlib.Path(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
