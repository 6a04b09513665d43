"""Every command's report and output files, byte for byte, on small fixtures.

Each command runs through ``cli.run`` in a scratch directory, with relative
paths so that reports name files the same way on every machine. The sha256 of
each report (JSON with sorted keys) and of each file a command writes is
compared with a pinned digest. A change that means to alter any of these
bytes re-pins the digest and says why.
"""

import hashlib
import json

import pytest

from degenforge import cyclic_group, idempotent_monoid, j_groupoid, nerve, product
from degenforge.cli import run

CATEGORIES = {"z2": cyclic_group(2), "z3": cyclic_group(3), "j": j_groupoid(),
              "monoid": idempotent_monoid()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _commands(name: str) -> list[list[str]]:
    x = f"{name}.sset"
    return [
        ["validate", x],
        ["check", "--inner", x],
        ["check", "--kan", x],
        ["edges", x],
        ["synthesize", x, "--out", f"{name}.table", "--cert", f"{name}.cert"],
        ["verify", x, f"{name}.table", "--cert", f"{name}.cert"],
        ["demo-uniqueness", x, "--deg0", f"{name}.deg", "--deg1", f"{name}.table",
         "--out", f"{name}.demo.table", "--cert", f"{name}.demo.cert"],
    ]


def _digests(root) -> dict:
    """The digest of every report and written file, keyed by command line and file name."""
    out = {}

    def record(argv: list[str]) -> None:
        code, report = run(argv)
        out[" ".join(argv)] = [code, _sha(json.dumps(report, sort_keys=True).encode("utf-8"))]
        for written in report["outputs"]:
            out[written] = _sha((root / written).read_bytes())

    for name, category in CATEGORIES.items():
        (root / f"{name}.cat").write_text(json.dumps(category.to_json_dict()))
        record(["nerve", "--cat", f"{name}.cat", "--dim", "4",
                "--out", f"{name}.sset", "--deg", f"{name}.deg"])
        for argv in _commands(name):
            record(argv)
    nj = nerve(j_groupoid(), 4)
    bundle = product(nerve(cyclic_group(2), 4).sset, nj.sset)
    inputs = {"z2xj.sset": bundle.sset.to_json_dict(), "z2xj.map": bundle.right.to_json_dict(),
              "j4.sset": nj.sset.to_json_dict(), "j4.deg": nj.oracle_degeneracies.to_json_dict()}
    for file_name, doc in inputs.items():
        (root / file_name).write_text(json.dumps(doc, sort_keys=True))
        out[file_name] = _sha((root / file_name).read_bytes())
    record(["synthesize-rel", "z2xj.sset", "--map", "z2xj.map", "--target", "j4.sset",
            "--ydeg", "j4.deg", "--out", "z2xj.table", "--cert", "z2xj.cert"])
    return out


# the digests of the program's bytes before simplex indices were interned
GOLDEN = {
    "nerve --cat z2.cat --dim 4 --out z2.sset --deg z2.deg":
        [0, "95ff606842dd9bd69243c348f708500127eab46d1dc98128d301b9e2d3d24cfd"],
    "z2.sset":
        "1a000df14340a3c704c04633ba0a0c927a8c77e757cc1a4ba96d5ba0fb412be9",
    "z2.deg":
        "97385dc3ab5025c43db870d5277115fa67ad54e49f90525826196486accbd3e3",
    "validate z2.sset":
        [0, "a1be32aa21419674956bec5ffd8723cb98919c657c37b0e11f38cd47e213bc40"],
    "check --inner z2.sset":
        [0, "c65bb6b56352a974cfe1d0e2200a131a6952183681e81431341534925dcf1c8b"],
    "check --kan z2.sset":
        [0, "1c4b78a029545e81634eeca7a8955e748d9a5948a19ec2dfa4c962cd1150ac70"],
    "edges z2.sset":
        [0, "7a87eb8daa2012f9bee6297498385a150b23fe4b96ecc58d7588918283711f87"],
    "synthesize z2.sset --out z2.table --cert z2.cert":
        [0, "66621231dbd57a74c739db75cc6a83825162a64c3665b1292abdcec2edddf734"],
    "z2.table":
        "9b846a00a044d3a78fbe798e7cb4e6129ed73b7c07e0346658532f25fbdd0b56",
    "z2.cert":
        "d09df496686a0e73f80a5c02e1c7bdedb3bf445bcb9d5e6279fb80af9232de99",
    "verify z2.sset z2.table --cert z2.cert":
        [0, "35b98a6de54858c7c0b407a371a00cdf1ece5a5844a709362e36f74c560fa8e2"],
    "demo-uniqueness z2.sset --deg0 z2.deg --deg1 z2.table --out z2.demo.table --cert z2.demo.cert":
        [0, "f3fc3bea50b94fd99ab6b02d81fc6bb6c4edc44065b2107e941ddf82b782e30e"],
    "z2.demo.table":
        "3368ac4c1263a5738d6ce5d600a73871dca98c24aabe850f7d224c527aaa4b12",
    "z2.demo.cert":
        "1d21753eea5b513163a1765638dbaa24a96ae67d1a52f4a39fc293d6217421e5",
    "nerve --cat z3.cat --dim 4 --out z3.sset --deg z3.deg":
        [0, "99c25cbeecd150dd396ec6a0fa919e396d3ce9ecee2b800e50ff5775fb0e41f1"],
    "z3.sset":
        "cdd88779a124189838d9b4dcec2b5b09df093c010d6a666f9df1977590cd9fed",
    "z3.deg":
        "e196ef34449a0964e0bb354efbccc9e1775721ef8f4ce32ace45e212ea19121b",
    "validate z3.sset":
        [0, "df028710a6eb18eada3cac780e510e3bc6539435b454b5b8a39f00c4142b7a1c"],
    "check --inner z3.sset":
        [0, "2fe1922f13c277ec2d01cf408ecda284c5c1e5d27f9c322d53f1285229e8af7f"],
    "check --kan z3.sset":
        [0, "f9638bc3d98ab2b0dc4b5f91d45843fd3370b416f0b0e68f0e6e4c2670e308ca"],
    "edges z3.sset":
        [0, "85be034118fa86c820cf2b86319aa7d020d72e5352a1622ed19c515425f6c006"],
    "synthesize z3.sset --out z3.table --cert z3.cert":
        [0, "40dbcedeba5fdd4dda19f962da8a0bc56e65bd73c24c094ed31a9e413ec22537"],
    "z3.table":
        "23264f08715077639961536dc939a809eb589bc64aca7a85e25b9f59d48b8afd",
    "z3.cert":
        "42453c3000a7a529bba598abc7a201524067276bfcda84a2bbff1b8fbdc3e1f7",
    "verify z3.sset z3.table --cert z3.cert":
        [0, "f0c8145a2846e80529cf62b1344041a9fe804235597d04ed1ae540faf07127e1"],
    "demo-uniqueness z3.sset --deg0 z3.deg --deg1 z3.table --out z3.demo.table --cert z3.demo.cert":
        [0, "7d93936a395bf3b2fe9083517c9568a3db63ccc3e22a1399bba675719c7a87f6"],
    "z3.demo.table":
        "1b425b7816f1603f0a7a7cba969a2cc03fe8f4e478add46eb7be3b6c65702f54",
    "z3.demo.cert":
        "71780afbe690c2aa6f254058b25507b8e9251f0d9894808481d48ab91196d9af",
    "nerve --cat j.cat --dim 4 --out j.sset --deg j.deg":
        [0, "abe900b2ac5de0d3dc5ff88ef50de5842e3cb1f921f8add7fcf52d8b5b85d1ab"],
    "j.sset":
        "ecf5963f82868c736ff3091fa6f60f2f7733ec18eab7666b20f207a7f416b0d8",
    "j.deg":
        "12a8624f48f28e2e2d187543df8c4179118e6fc6728abf4698494ffafba03800",
    "validate j.sset":
        [0, "82e95b2a6efbc1509d22613b5c9f54fc9c270d960f8cfa9ea6ee3eebb58941a3"],
    "check --inner j.sset":
        [0, "6e04e917779b421b98ec3f28299661aeaf65a579403d9e64775d05fd0d71f17c"],
    "check --kan j.sset":
        [0, "850438db725f2aaa27c2f2a4e3a0ebe45562a0f544e459e447802a199f7b9edd"],
    "edges j.sset":
        [0, "88dfb93125350c4db3a7a5b0ee792863f54a1efd3000b37c41f81a8ae7cd2faf"],
    "synthesize j.sset --out j.table --cert j.cert":
        [0, "a7b6e0f711ca929dbe4080c0b9e92e3c0638f00e92f10891c220595881f5c3bb"],
    "j.table":
        "fd770fc7dab25edaf8bb5ed8934f7f76c157310504b8313ad375fb583224e79b",
    "j.cert":
        "077bf882a4bb2e5d0196c3b25af11bb52918a29e9d938d2d4548929045ce285e",
    "verify j.sset j.table --cert j.cert":
        [0, "e27b61f58f1608d518b9d24853eac63fc1fbc07b80aa3446c9179764d8f3b91f"],
    "demo-uniqueness j.sset --deg0 j.deg --deg1 j.table --out j.demo.table --cert j.demo.cert":
        [0, "1c1336f2bef8ebda20868a74049b1deb0bc1100053e6a8b186638bd290fb9288"],
    "j.demo.table":
        "7e4bcc4e442fe01bf3362d074316e4a24d62b1c5b8c066f0395d4c7641be3486",
    "j.demo.cert":
        "19186a4b456e3f0b1ada02c297d631b6da204f2353a9db714318404e5ac08afb",
    "nerve --cat monoid.cat --dim 4 --out monoid.sset --deg monoid.deg":
        [0, "a74a414dcb7db858bc3ca012b61fc90719ebacd269cd1e7c4ca5f78db478bb12"],
    "monoid.sset":
        "3921be8e598e6d3c8ad9ee2940a2d79d29c36c55cad1599540b33ab480f12830",
    "monoid.deg":
        "ad422bc6edfdc3fb5c58f377651225dc90ae14f715a19248e220659130e86961",
    "validate monoid.sset":
        [0, "a1be32aa21419674956bec5ffd8723cb98919c657c37b0e11f38cd47e213bc40"],
    "check --inner monoid.sset":
        [0, "c65bb6b56352a974cfe1d0e2200a131a6952183681e81431341534925dcf1c8b"],
    "check --kan monoid.sset":
        [1, "92e431406a4d8f8e94f0765d74deeeda28df4b5bf231ff7bfbcf612063cb4137"],
    "edges monoid.sset":
        [1, "48337587e7018411536878afdab85954a48d28319b8b7b29110bafbcd80a0e22"],
    "synthesize monoid.sset --out monoid.table --cert monoid.cert":
        [0, "428353c1a5836760e6a68f176e4d469c76adeb02ba3d2bdc8ab8d9196558831d"],
    "monoid.table":
        "d5559a7cf66b049570a5b86a2f65da4da7960aff812e5b06ca3491fbbd2037ee",
    "monoid.cert":
        "6e7f95d9782cf95d1d52571eedd924bd593fd2ae832b982888b70c58edf785c6",
    "verify monoid.sset monoid.table --cert monoid.cert":
        [0, "35b98a6de54858c7c0b407a371a00cdf1ece5a5844a709362e36f74c560fa8e2"],
    "demo-uniqueness monoid.sset --deg0 monoid.deg --deg1 monoid.table --out monoid.demo.table --cert monoid.demo.cert":
        [0, "31ccd858fabd59e1eaa0d6c3689190962f86a305151551a86c538a1ad1d259a9"],
    "monoid.demo.table":
        "b9e7311a463d5af9a0252d20ee4b9803bf494b783439c25c3ba6297f2114a8ab",
    "monoid.demo.cert":
        "803cb1ba5f6ab54b0dec77f2cb4f3d67f284c81baba5b47ce3a6a6cdf27c0b75",
    "z2xj.sset":
        "109e4ecc8e59d0fdbc33bb739c195be05247837d2db37bf952cc673a6c2d3ef7",
    "z2xj.map":
        "e74dff0edb50a1a6a88626ac432afbc7dbb2e4b106014897bbf5325e41d72351",
    "j4.sset":
        "39a00a3be584485afaae1536b6f61c1086b4cc83eabd2cbbfe238dc3e6249a36",
    "j4.deg":
        "1b5e8bdd87c09da5e3d8eb1ada072888b306fedae2966665465e1e1045cdf0a2",
    "synthesize-rel z2xj.sset --map z2xj.map --target j4.sset --ydeg j4.deg --out z2xj.table --cert z2xj.cert":
        [0, "845a329d35711f5ec33020bea28059794d80da512b5b45f22ba28859a713ffd1"],
    "z2xj.table":
        "3368ac4c1263a5738d6ce5d600a73871dca98c24aabe850f7d224c527aaa4b12",
    "z2xj.cert":
        "0f8c9fd33a66e6bd9055a1e47ac9ddf9ecb015cb1ade8a33d31b27427731b4ba",
}


def test_reports_and_outputs_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    assert [key for key in GOLDEN if got[key] != GOLDEN[key]] == []
