"""Certificates: replay divergence texts, the typed form, and the engine's fill tables.

The divergence cases tamper one field of a Z/2 at D3 certificate at a time
(or drop or append a record) and pin the exact ``CertificateMismatch`` text
and position, through the library and through ``verify --cert``.
"""

import copy
import json
from collections import Counter

import pytest

from degenforge import (
    SemisimplicialMap,
    SynthesisInput,
    cyclic_group,
    degeneracy,
    horn,
    idempotent_monoid,
    j_groupoid,
    nerve,
    product,
    replay_certificate,
    synthesize,
)
from degenforge.cli import run
from degenforge.degeneracy import Certificate, _Engine
from degenforge.errors import CertificateMismatch, ParseError
from test_loop_coskeleta import loop_coskeleton

X3 = nerve(cyclic_group(2), 3).sset


def _forced_value(records):
    records[6]["value"] += 1


def _filled_value(records):
    records[2]["value"] += 1


def _horn_face(records):
    records[7]["horn"]["faces"]["1"] += 1


def _stage_step(records):
    records[6]["stage"]["step"] = 2


def _simplex_index(records):
    records[4]["simplex"][1] += 1


def _drop_last(records):
    records.pop()


def _append_extra(records):
    records.append(copy.deepcopy(records[0]))


TAMPERED = [
    (_forced_value, 6,
     "record 6 diverges: expected {'kind': 'forced', 'simplex': [1, 0], 'stage': {'N': 1, "
     "'step': 1}, 'value': 1}, recomputed {'stage': {'N': 1, 'step': 1}, 'simplex': [1, 0], "
     "'kind': 'forced', 'value': 0}"),
    (_filled_value, 2,
     "record 2 diverges: expected {'horn': {'faces': {'0': 1, '2': 0}, 'k': 1, 'n': 2}, "
     "'kind': 'filled', 'simplex': [1, 1], 'stage': {'N': 0, 'step': 1}, 'value': 2}, recomputed "
     "{'stage': {'N': 0, 'step': 1}, 'simplex': [1, 1], 'kind': 'filled', 'value': 1, 'horn': "
     "{'n': 2, 'k': 1, 'faces': {'0': 1, '2': 0}}}"),
    (_horn_face, 7,
     "record 7 diverges: expected {'horn': {'faces': {'0': 0, '1': 2}, 'k': 2, 'n': 2}, "
     "'kind': 'filled', 'simplex': [1, 1], 'stage': {'N': 1, 'step': 1}, 'value': 2}, recomputed "
     "{'stage': {'N': 1, 'step': 1}, 'simplex': [1, 1], 'kind': 'filled', 'value': 2, 'horn': "
     "{'n': 2, 'k': 2, 'faces': {'0': 0, '1': 1}}}"),
    (_stage_step, 6,
     "record 6 diverges: expected {'kind': 'forced', 'simplex': [1, 0], 'stage': {'N': 1, "
     "'step': 2}, 'value': 0}, recomputed {'stage': {'N': 1, 'step': 1}, 'simplex': [1, 0], "
     "'kind': 'forced', 'value': 0}"),
    (_simplex_index, 4,
     "record 4 diverges: expected {'horn': {'faces': {'1': 0, '2': 0, '3': 0}, 'k': 0, 'n': 3}, "
     "'kind': 'filled', 'simplex': [1, 1], 'stage': {'N': 0, 'step': 2}, 'value': 0}, recomputed "
     "{'stage': {'N': 0, 'step': 2}, 'simplex': [1, 0], 'kind': 'filled', 'value': 0, 'horn': "
     "{'n': 3, 'k': 0, 'faces': {'1': 0, '2': 0, '3': 0}}}"),
    (_drop_last, 9, "certificate has fewer records than the run"),
    (_append_extra, 10, "certificate has more records than the run"),
]


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    """Z/2 at D3 as files, with its synthesized table and certificate."""
    root = tmp_path_factory.mktemp("certified")
    paths = {name: root / name for name in ("x.sset", "x.table", "x.cert")}
    paths["x.sset"].write_text(json.dumps(X3.to_json_dict()))
    code, _ = run(["synthesize", str(paths["x.sset"]), "--out", str(paths["x.table"]),
                   "--cert", str(paths["x.cert"])])
    assert code == 0
    return paths


@pytest.mark.parametrize("tamper, position, text", TAMPERED, ids=[t[0].__name__ for t in TAMPERED])
def test_replay_names_the_first_diverging_record(certified, tamper, position, text):
    records = json.loads(certified["x.cert"].read_text())
    assert len(records) == 10
    tamper(records)
    with pytest.raises(CertificateMismatch) as caught:
        replay_certificate(SynthesisInput(X3), 3, records)
    assert (str(caught.value), caught.value.position) == (text, position)


@pytest.mark.parametrize("tamper, position, text", TAMPERED, ids=[t[0].__name__ for t in TAMPERED])
def test_verify_names_the_first_diverging_record(certified, tmp_path, tamper, position, text):
    records = json.loads(certified["x.cert"].read_text())
    tamper(records)
    cert = tmp_path / "tampered.cert"
    cert.write_text(json.dumps(records, sort_keys=True, separators=(",", ":")) + "\n")
    code, report = run(["verify", str(certified["x.sset"]), str(certified["x.table"]),
                        "--cert", str(cert)])
    assert (code, report["verdict"], report["detail"]) == (1, "CertificateMismatch", text)
    assert report["witness"] == {"position": position}


# -- the typed form -----------------------------------------------------------------


def test_a_read_certificate_is_its_records_and_its_text():
    run_certificate = synthesize(SynthesisInput(X3), 3).certificate
    text = run_certificate.to_json() + "\n"
    records = json.loads(text)
    read = Certificate.read(text, "c.json")
    assert (read.text, len(read), len(run_certificate)) == (text, 10, 10)
    assert read == run_certificate and list(read) == records
    assert read.to_json() == run_certificate.to_json()
    assert Certificate.from_records(records).text is None


def _parses(monkeypatch):
    """Record every text ``json.loads`` reads and every record ``_record_problem`` checks."""
    texts, checked = [], []
    real_loads, real_problem = json.loads, degeneracy._record_problem
    monkeypatch.setattr(json, "loads", lambda text, **kw: texts.append(text) or real_loads(text, **kw))
    monkeypatch.setattr(degeneracy, "_record_problem", lambda r: checked.append(r) or real_problem(r))
    return texts, checked


def test_a_canonical_certificate_replays_without_a_parse(certified, monkeypatch):
    # the compare with the run's text decides, and the run gives the record count
    records = len(json.loads(certified["x.cert"].read_text()))
    texts, checked = _parses(monkeypatch)
    code, report = run(["verify", str(certified["x.sset"]), str(certified["x.table"]),
                        "--cert", str(certified["x.cert"])])
    assert (code, report["verdict"], report["detail"]["replayed_records"]) == (0, "pass", records)
    assert [text[:1] for text in texts] == ["{", "{"] and checked == []  # the set and the table


def test_a_certificate_reads_as_its_records():
    certificate = synthesize(SynthesisInput(X3), 3).certificate
    records = list(certificate)
    assert certificate[-1] == records[-1] and certificate[7] == records[7]
    assert certificate[5:9] == records[5:9]
    assert certificate == records
    with pytest.raises(IndexError):
        certificate[10]


def test_a_record_no_run_writes_diverges_where_it_stands():
    # a horn on a forced record is well typed, but no run writes it
    records = json.loads(json.dumps(list(synthesize(SynthesisInput(X3), 3).certificate)))
    records[6]["horn"] = {"n": 2, "k": 2, "faces": {"0": 0, "1": 0}}
    with pytest.raises(CertificateMismatch) as caught:
        replay_certificate(SynthesisInput(X3), 3, records)
    assert caught.value.position == 6


REWRITTEN = {
    "indented": lambda records: json.dumps(records, sort_keys=True, indent=2) + "\n",
    "unsorted keys": lambda records: json.dumps([dict(reversed(r.items())) for r in records]) + "\n",
    "no final newline": lambda records: json.dumps(records, sort_keys=True, separators=(",", ":")),
    "CRLF line endings": lambda records: json.dumps(records, sort_keys=True, indent=1)
    .replace("\n", "\r\n") + "\r\n",
    "compact with CRLF": lambda records: json.dumps(records, sort_keys=True, separators=(",", ":"))
    + "\r\n",
}


@pytest.mark.parametrize("rewrite", sorted(REWRITTEN))
def test_a_certificate_with_other_bytes_but_the_same_records_passes(certified, tmp_path, rewrite,
                                                                   monkeypatch):
    written = certified["x.cert"].read_bytes()
    records = json.loads(written)
    cert = tmp_path / "rewritten.cert"
    cert.write_bytes(REWRITTEN[rewrite](records).encode("utf-8"))
    assert json.loads(cert.read_bytes()) == records and cert.read_bytes() != written
    texts, checked = _parses(monkeypatch)
    code, report = run(["verify", str(certified["x.sset"]), str(certified["x.table"]),
                        "--cert", str(cert)])
    assert (code, report["verdict"], report["detail"]["replayed_records"]) == (0, "pass", 10)
    if rewrite == "no final newline":  # the run's text, less one final newline: no parse
        assert texts[2:] == [] and checked == []
    else:
        assert texts[2:] == [cert.read_bytes().decode("utf-8")] and checked == records


# -- fill tables ----------------------------------------------------------------------


def _counted(monkeypatch):
    """Count the lowest-filler tables built per shape, and the engine's ``_canonical_fill`` calls per shape."""
    builds, reads = Counter(), Counter()
    real_keys, real_fill = horn._lift_keys, _Engine._canonical_fill

    def lift_keys(X, p, m, k):
        builds[(m, k)] += 1
        return real_keys(X, p, m, k)

    def canonical_fill(self, m, k, *args, **kwargs):
        reads[(m, k)] += 1
        return real_fill(self, m, k, *args, **kwargs)

    monkeypatch.setattr(horn, "_lift_keys", lift_keys)
    monkeypatch.setattr(_Engine, "_canonical_fill", canonical_fill)
    return builds, reads


def _relative_input(category, dim, marked=True):
    nj = nerve(j_groupoid(), dim)
    bundle = product(nerve(category, dim).sset, nj.sset)
    p = bundle.right if marked else SemisimplicialMap(bundle.sset, nj.sset, bundle.right.levels)
    return SynthesisInput(bundle.sset, p=p, Y_deg=nj.oracle_degeneracies)


FILL_RUNS = {
    # name: (the run's input, its bound, the engine's fills, the tables built)
    "Z/2@D5": (lambda: SynthesisInput(nerve(cyclic_group(2), 5).sset), 5, 18, 0),
    "Z/2xJ->J@D4 unmarked": (lambda: _relative_input(cyclic_group(2), 4, marked=False), 4, 10, 0),
    "Z/2xJ->J@D4 marked": (lambda: _relative_input(cyclic_group(2), 4), 4, 10, 0),
    "monoidxJ->J@D4 marked": (lambda: _relative_input(idempotent_monoid(), 4), 4, 10, 4),
    "monoid@D4": (lambda: SynthesisInput(nerve(idempotent_monoid(), 4).sset), 4, 10, 4),
    "L2@D4": (lambda: SynthesisInput(loop_coskeleton(2, 4)), 4, 10, 12),
}


@pytest.mark.parametrize("name", sorted(FILL_RUNS))
def test_each_fill_table_is_built_once_per_run(monkeypatch, name):
    # a shape that the spanning pair decides on X is filled from X's pair table, over the
    # point or over an unmarked map, and builds no lowest-filler table; every other table
    # that the checks before the engine or the steps read is built once: step 1 of stage
    # k-1 and step 2 of stage k ask the same (m, k) table for m >= k+2. On the marked
    # projection the engine fills C's part of each row by the same rule, so the tables
    # built are C's, each of a shape that the spanning pair leaves undecided on C
    make, dim, fills, tables = FILL_RUNS[name]
    builds, reads = _counted(monkeypatch)
    inp = make()
    synthesize(inp, dim)
    assert sum(reads.values()) == fills  # one per level of each step, but for the vertices at stage 0
    assert len(builds) == tables and set(builds.values()) <= {1}
    X = inp.X if inp.p is None or inp.p.factor is None else inp.p.factor
    decided = {shape for shape in reads if horn._decided(X, None, *shape)}
    assert not decided & set(builds)
    assert set(reads) - decided <= set(builds)
    if X is not inp.X:
        assert set(X._lowest) == set(builds) and not inp.X._lowest and not inp.p._lowest


def _nodes(node, path=()):
    """The path of every node below ``node``, and of one new key in each object."""
    if isinstance(node, dict):
        yield path + ("new",)
        for key, child in node.items():
            yield path + (key,)
            yield from _nodes(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield path + (i,)
            yield from _nodes(child, path + (i,))


@pytest.mark.parametrize("value", [None, True, 0.5, "1", "forced", [], [0, 0], {}, 7, -1])
def test_a_tampered_certificate_parses_into_the_blocks_of_its_records(value):
    # every node of every record replaced in turn, and the certificate read from its
    # canonical text: ParseError names the first record that _record_problem refuses;
    # a well-typed certificate replays exactly when its records are the run's, and
    # otherwise raises CertificateMismatch at the first record that differs
    run_records = list(synthesize(SynthesisInput(X3), 3).certificate)
    base = json.loads(json.dumps(run_records))
    outcomes = Counter()
    for path in _nodes(base):
        records = copy.deepcopy(base)
        *parent, last = path
        node = records
        for key in parent:
            node = node[key]
        node[last] = value
        text = json.dumps(records, sort_keys=True, separators=(",", ":")) + "\n"
        problems = [(p, degeneracy._record_problem(r)) for p, r in enumerate(records)]
        first = next(((p, problem) for p, problem in problems if problem is not None), None)
        certificate = Certificate.read(text, "c.json")
        if first is not None:
            outcomes["ill-typed"] += 1
            with pytest.raises(ParseError) as caught:
                certificate.parse()
            assert str(caught.value) == f"c.json: record {first[0]} {first[1]}", path
            continue
        if records == run_records:
            outcomes["replayed"] += 1
            replay_certificate(SynthesisInput(X3), 3, certificate)
            continue
        outcomes["diverged"] += 1
        with pytest.raises(CertificateMismatch) as caught:
            replay_certificate(SynthesisInput(X3), 3, certificate)
        position = next(p for p, (a, b) in enumerate(zip(records, run_records)) if a != b)
        assert caught.value.position == position, path
    assert outcomes["ill-typed"], outcomes
