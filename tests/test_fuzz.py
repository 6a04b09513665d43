"""Mutated input files through every command that reads them.

Each example takes one command and one input it reads: a set, map,
subcomplex, degeneracy table, certificate, ``--s0`` file or category file,
or the ``--dim`` flag. It mutates one node of a valid file of that kind (or
draws the bound) and runs the command. Whatever the mutation, ``run()``
returns 0, 1 or 2 with a named verdict and never raises: malformed input is
exit 2 with ``"error"``, and a domain verdict is exit 0 or 1.

The valid files are small so that 500 examples stay cheap: Z/2 at D3 over
the point, and Z/2 x J at D2 over J, with the whole set as a subcomplex
carrying its synthesized table. ``demo-uniqueness`` reads Z/2 at D4 with its
identity-insertion table, whose levels reach above the bounds that ``--dim``
draws.
"""

import copy
import json
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from degenforge import cyclic_group, j_groupoid, nerve, product
from degenforge.cli import AFFIRMATIVE, run

# command -> the files it reads; a file name is replaced by its mutant
READS = {
    "validate": ("a.sset",),
    "check --inner": ("a.sset",),
    "check --kan": ("a.sset",),
    "edges": ("a.sset",),
    "edges --property idempotent": ("a.sset",),
    "synthesize": ("a.sset", "a.s0"),
    "addendum-s0": ("a.sset",),
    "verify": ("a.sset", "a.deg", "a.cert"),
    "demo-uniqueness": ("b.sset", "b.deg"),
    "nerve": ("cat",),
    "check --inner-fibration": ("x.sset", "x.map", "y.sset"),
    "synthesize-rel": ("x.sset", "x.map", "y.sset", "y.deg", "x.sub", "x.deg", "x.s0"),
}
CASES = [(command, name) for command, names in READS.items()
         for name in (*names, *(("--dim",) if command != "validate" else ()))]
VALUES = (None, True, False, 0, 1, 2, -1, 12, 0.5, "0", "a", [], {}, [0], [[0]], {"0": 1})
OPS = ("replace", "copy", "delete", "append")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths and contents of the valid files, and the argv of every command on them."""
    root = tmp_path_factory.mktemp("fuzz")
    n2, n2_4, nj = nerve(cyclic_group(2), 3), nerve(cyclic_group(2), 4), nerve(j_groupoid(), 2)
    bundle = product(nerve(cyclic_group(2), 2).sset, nj.sset)
    docs = {
        "cat": cyclic_group(2).to_json_dict(),
        "a.sset": n2.sset.to_json_dict(),
        "a.s0": [n2.oracle_degeneracies.value(0, 0, 0)],
        "b.sset": n2_4.sset.to_json_dict(),
        "b.deg": n2_4.oracle_degeneracies.to_json_dict(),
        "x.sset": bundle.sset.to_json_dict(),
        "x.map": bundle.right.to_json_dict(),
        "x.sub": {"members": [list(range(c)) for c in bundle.sset.cells]},
        "y.sset": nj.sset.to_json_dict(),
        "y.deg": nj.oracle_degeneracies.to_json_dict(),
    }
    path = {name: str(root / name) for name in (*docs, "a.deg", "a.cert", "x.deg", "x.s0")}
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    a, x = path["a.sset"], path["x.sset"]
    assert run(["synthesize", a, "--out", path["a.deg"], "--cert", path["a.cert"]])[0] == 0
    over = ["--map", path["x.map"], "--target", path["y.sset"]]
    rel = ["synthesize-rel", x, *over, "--ydeg", path["y.deg"]]
    assert run([*rel, "--out", path["x.deg"]])[0] == 0
    x_s0 = json.loads((root / "x.deg").read_text())["s"][0][0]
    (root / "x.s0").write_text(json.dumps(x_s0))
    commands = {
        "validate": ["validate", a],
        "check --inner": ["check", "--inner", a],
        "check --kan": ["check", "--kan", a],
        "edges": ["edges", a],
        "edges --property idempotent": ["edges", a, "--property", "idempotent", "--edge", "0"],
        "synthesize": ["synthesize", a, "--s0", path["a.s0"]],
        "addendum-s0": ["addendum-s0", a],
        "verify": ["verify", a, path["a.deg"], "--cert", path["a.cert"]],
        "demo-uniqueness": ["demo-uniqueness", path["b.sset"], "--deg0", path["b.deg"],
                            "--deg1", path["b.deg"], "--dim", "2"],
        "nerve": ["nerve", "--cat", path["cat"], "--out", str(root / "out"), "--dim", "2"],
        "check --inner-fibration": ["check", "--inner-fibration", x, *over],
        "synthesize-rel": [*rel, "--sub", path["x.sub"], "--adeg", path["x.deg"],
                           "--s0", path["x.s0"]],
    }
    assert sorted(commands) == sorted(READS)
    for argv in commands.values():
        assert run(argv)[0] == 0, argv
    texts = {name: (root / name).read_text() for name in path}
    nodes = {name: _paths(json.loads(text)) for name, text in texts.items()}
    return {"root": root, "path": path, "texts": texts, "nodes": nodes, "commands": commands}


def _paths(doc):
    """Every node of a JSON document as a key path, breadth first from the root."""
    out, queue = [()], [((), doc)]
    while queue:
        path, node = queue.pop(0)
        if isinstance(node, dict):
            children = node.items()
        else:
            children = enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            out.append(path + (key,))
            queue.append((path + (key,), child))
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(text: str, paths: list, rng: random.Random):
    """The document ``text`` with one node replaced by a value or by another node,
    deleted, or grown by another node; ``paths`` lists its nodes."""
    doc = json.loads(text)
    path, donor = rng.choice(paths), copy.deepcopy(_at(doc, rng.choice(paths)))
    op, node = rng.choice(OPS), _at(doc, path)
    if op == "append" and isinstance(node, list):
        node.append(donor)
    elif op == "append" and isinstance(node, dict):
        node[rng.choice(["0", "1", "a"])] = donor
    elif op == "delete" and path:
        del _at(doc, path[:-1])[path[-1]]
    else:
        value = donor if op == "copy" else copy.deepcopy(rng.choice(VALUES))
        if not path:
            return value
        _at(doc, path[:-1])[path[-1]] = value
    return doc


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(case=st.sampled_from(CASES), mutation=st.integers(0, 2**32 - 1))
def test_no_input_ends_in_a_traceback(files, case, mutation):
    # one drawn integer seeds the mutation: each hypothesis draw costs more than a run
    command, name = case
    rng = random.Random(mutation)
    argv = files["commands"][command]
    if name == "--dim":
        argv = [*argv, "--dim", str(rng.randint(-3, 4))]  # the last --dim on a command line wins
    else:
        mutant = files["root"] / f"mutant.{name}"
        mutant.write_text(json.dumps(_mutate(files["texts"][name], files["nodes"][name], rng)))
        argv = [str(mutant) if arg == files["path"][name] else arg for arg in argv]
    code, report = run(argv)
    verdict = report.get("verdict")
    assert code in (0, 1, 2) and isinstance(verdict, str) and verdict, (argv, report)
    assert (code == 0) == (verdict in AFFIRMATIVE), (argv, report)
    assert (code == 2) == (verdict == "error"), (argv, report)
    json.dumps(report)  # the report prints
