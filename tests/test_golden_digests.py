"""Every command's report and output files, byte for byte, on small fixtures.

Each command runs through ``cli.run`` in a scratch directory, with relative
paths so that reports name files the same way on every machine. The sha256 of
each report (JSON with sorted keys) and of each file a command writes is
compared with a pinned digest. A change that means to alter any of these
bytes re-pins the digest and says why.
"""

import hashlib
import json
import random

import pytest

from degenforge import SynthesisInput, cyclic_group, idempotent_monoid, j_groupoid, nerve, product, synthesize
from degenforge.cli import run
from conftest import pulled_back, relabeled
from test_loop_coskeleta import loop_coskeleton

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
        ["edges", x, "--property", "cartesian"],
        ["edges", x, "--property", "cocartesian"],
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
    # the point at D12: its horns reach face positions 10..12, whose keys sort before "2"
    (root / "z1.cat").write_text(json.dumps(cyclic_group(1).to_json_dict()))
    record(["nerve", "--cat", "z1.cat", "--dim", "12", "--out", "z1.sset"])
    record(["synthesize", "z1.sset", "--out", "z1.table", "--cert", "z1.cert"])
    record(["verify", "z1.sset", "z1.table", "--cert", "z1.cert"])
    # a Kan set that is no nerve, L2@D4, with a second table: a relabeled run pulled back
    l2 = loop_coskeleton(2, 4)
    relabeled_l2, perm = relabeled(l2, random.Random(1))
    deg1 = pulled_back(synthesize(SynthesisInput(relabeled_l2), 4).table, l2, perm)
    for file_name, doc in {"l2.sset": l2.to_json_dict(), "l2.deg1": deg1.to_json_dict()}.items():
        (root / file_name).write_text(json.dumps(doc, sort_keys=True))
        out[file_name] = _sha((root / file_name).read_bytes())
    record(["synthesize", "l2.sset", "--out", "l2.table", "--cert", "l2.cert"])
    record(["verify", "l2.sset", "l2.table", "--cert", "l2.cert"])
    record(["demo-uniqueness", "l2.sset", "--deg0", "l2.table", "--deg1", "l2.deg1",
            "--out", "l2.demo.table", "--cert", "l2.demo.cert"])
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
    "edges z2.sset --property cartesian":
        [0, "a8f2b68bc053f6c7d134d8bb219b145a83a47a5993680a8f38d6adc699963c74"],
    "edges z2.sset --property cocartesian":
        [0, "4696badb67a9d3310124e5bad56507d1e6d96ca1e7a0800d793aee0dae855713"],
    "synthesize z2.sset --out z2.table --cert z2.cert":
        [0, "69bb6335bb17ba03332a11ca4a905615eb31c604a4ef0f622e3db3111441fbe9"],
    "z2.table":
        "9b846a00a044d3a78fbe798e7cb4e6129ed73b7c07e0346658532f25fbdd0b56",
    "z2.cert":
        "a9709acd107d499fa126ec1b9733bb30bdb16645fbb82f078cd60bf24225ca6b",
    "verify z2.sset z2.table --cert z2.cert":
        [0, "0b1407d30b6f02e95f86a3ff13b1b250e9fc7bcaa0b5b86c35959694d445d9fa"],
    "demo-uniqueness z2.sset --deg0 z2.deg --deg1 z2.table --out z2.demo.table --cert z2.demo.cert":
        [0, "f3fc3bea50b94fd99ab6b02d81fc6bb6c4edc44065b2107e941ddf82b782e30e"],
    "z2.demo.table":
        "3368ac4c1263a5738d6ce5d600a73871dca98c24aabe850f7d224c527aaa4b12",
    "z2.demo.cert":
        "d8d0d7498a964a0c366e2b6a786d77de0983bfc28a42abcb3a5764e568942739",
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
    "edges z3.sset --property cartesian":
        [0, "dd45ed1da23815feb628213fc4e7b72e79e8fef244651e45d099aa8c14434615"],
    "edges z3.sset --property cocartesian":
        [0, "e10f306c70d5cccc80677243ce2b724a3e59d4d30484f20b200477e6909d2d0d"],
    "synthesize z3.sset --out z3.table --cert z3.cert":
        [0, "caf81c1cd1d24d57ee239080d18b61143459b32396ff0840649c2bfd72feca0f"],
    "z3.table":
        "23264f08715077639961536dc939a809eb589bc64aca7a85e25b9f59d48b8afd",
    "z3.cert":
        "a9ff63abe96fe0d4c09d5e6ba5a27d756833754bc924a9d8aebd8cebdd4d78bb",
    "verify z3.sset z3.table --cert z3.cert":
        [0, "01b4afcc0acd34481211b0ee790f840826273d8293c1b04952faad32434bafc9"],
    "demo-uniqueness z3.sset --deg0 z3.deg --deg1 z3.table --out z3.demo.table --cert z3.demo.cert":
        [0, "7d93936a395bf3b2fe9083517c9568a3db63ccc3e22a1399bba675719c7a87f6"],
    "z3.demo.table":
        "1b425b7816f1603f0a7a7cba969a2cc03fe8f4e478add46eb7be3b6c65702f54",
    "z3.demo.cert":
        "c98a1290cbba4d46851a4c96a55b9da5f590d61ef2607389336d5e88bad35395",
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
    "edges j.sset --property cartesian":
        [0, "cb1f3052d7e80e59e8aa8058d105ebb38f2d72a52c446495cf98f07595ba043d"],
    "edges j.sset --property cocartesian":
        [0, "f0290872684c5f81f5475b0a66597f94d2744f12dd7d0a4f93658e8f09548981"],
    "synthesize j.sset --out j.table --cert j.cert":
        [0, "094bbf8b647fa4f3670b6d737d72b0de20022e26eb26dfcd43d13a84401c916b"],
    "j.table":
        "fd770fc7dab25edaf8bb5ed8934f7f76c157310504b8313ad375fb583224e79b",
    "j.cert":
        "c4a9c1c6aba22926cdc822c8211f7991808c5c3267486e398655ded233a165fd",
    "verify j.sset j.table --cert j.cert":
        [0, "0d9439d1dd1b96c58d098f86bedcc29f4d31becaebb328d6b5c15cbc4d6f7fda"],
    "demo-uniqueness j.sset --deg0 j.deg --deg1 j.table --out j.demo.table --cert j.demo.cert":
        [0, "1c1336f2bef8ebda20868a74049b1deb0bc1100053e6a8b186638bd290fb9288"],
    "j.demo.table":
        "7e4bcc4e442fe01bf3362d074316e4a24d62b1c5b8c066f0395d4c7641be3486",
    "j.demo.cert":
        "9dc6f6fbd6e12497e3146f31e459c707fe803b9184f2c303fc6fddb85ba1b98a",
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
    "edges monoid.sset --property cartesian":
        [1, "bf5d4a6034f0d9d31a103b1a6e86f5a8b8ce62751ac71defb9a6f189c37b69ed"],
    "edges monoid.sset --property cocartesian":
        [1, "41d5f4912398a0acb06cb0656bd820c7455beb663c7deed3f1ac7980ff45848c"],
    "synthesize monoid.sset --out monoid.table --cert monoid.cert":
        [0, "0e6b215de74adeae6746c549496dfc94aa1c29597eaddf1f8179be4a639da18b"],
    "monoid.table":
        "d5559a7cf66b049570a5b86a2f65da4da7960aff812e5b06ca3491fbbd2037ee",
    "monoid.cert":
        "b8f6ccf8e0a090b7943137031c5de02107bd9ef5a921a8ab76651b0f28afa332",
    "verify monoid.sset monoid.table --cert monoid.cert":
        [0, "0b1407d30b6f02e95f86a3ff13b1b250e9fc7bcaa0b5b86c35959694d445d9fa"],
    "demo-uniqueness monoid.sset --deg0 monoid.deg --deg1 monoid.table --out monoid.demo.table --cert monoid.demo.cert":
        [0, "31ccd858fabd59e1eaa0d6c3689190962f86a305151551a86c538a1ad1d259a9"],
    "monoid.demo.table":
        "b9e7311a463d5af9a0252d20ee4b9803bf494b783439c25c3ba6297f2114a8ab",
    "monoid.demo.cert":
        "44adabb0ff916a41db13aed2ca0346043e249e8d7443277f309024229eeeb42f",
    "z2xj.sset":
        "109e4ecc8e59d0fdbc33bb739c195be05247837d2db37bf952cc673a6c2d3ef7",
    "z2xj.map":
        "e74dff0edb50a1a6a88626ac432afbc7dbb2e4b106014897bbf5325e41d72351",
    "j4.sset":
        "39a00a3be584485afaae1536b6f61c1086b4cc83eabd2cbbfe238dc3e6249a36",
    "j4.deg":
        "1b5e8bdd87c09da5e3d8eb1ada072888b306fedae2966665465e1e1045cdf0a2",
    "synthesize-rel z2xj.sset --map z2xj.map --target j4.sset --ydeg j4.deg --out z2xj.table --cert z2xj.cert":
        [0, "cc6e42f60423d91904749bf74c275909d6f2ee9c706e1fcf53f5899c45db4cd9"],
    "z2xj.table":
        "3368ac4c1263a5738d6ce5d600a73871dca98c24aabe850f7d224c527aaa4b12",
    "z2xj.cert":
        "3e6289940529a2216b3fd543118916184437a391870278b14e52a573eaae5114",
    "nerve --cat z1.cat --dim 12 --out z1.sset":
        [0, "daaf159f00e227c8f7c8667b1e4e7925eb9a5fee57424c37992d2ecc4a6acfb4"],
    "z1.sset":
        "f9589a66307f21e544bece3acfff6707535e0f174e2b564e45ca3eaf649a46ec",
    "synthesize z1.sset --out z1.table --cert z1.cert":
        [0, "dd6cb0a81fffaa1379ef02889bca89a61a10d5f97802a2c27c037a18468ad213"],
    "z1.table":
        "85d8c41c1faff9a87f6213c8bba676efee4884efb27087f1f1f47cd9e47a3aac",
    "z1.cert":
        "3d4eb8f14d273e1fafa9a77760b652ccd413ba8e696a1dc1ea46f6dffdb1e0e3",
    "verify z1.sset z1.table --cert z1.cert":
        [0, "8bea11aa61a88e5ad16f8b78cfc27bd7e609f8a2e932bcddbf36aaa15e3dcf61"],
    "l2.sset":
        "62909cc0799accfcb0de1bc6e5ddf9593d1b9f05be9fbd3ad586b95cd17cd20d",
    "l2.deg1":
        "5c5c7e37bf798f03821ca33d6d4db42535b63b57587197f3db2c93ebcfa3bc9b",
    "synthesize l2.sset --out l2.table --cert l2.cert":
        [0, "bb9d2a55c7c3cd08169552e121782404b31fe1c1fe93e66c330972d35cca91d8"],
    "l2.table":
        "bcc20a1934faa317a853c9ad4a1ae8661782b00544aa8e2f1dfbdc29ec5a6f3b",
    "l2.cert":
        "6a23c32892b0c0895ef5e42f8546a10233e11f5fcacfa2a24afd2f52a0aa37ed",
    "verify l2.sset l2.table --cert l2.cert":
        [0, "f9c22eac3322e03a697647144cbee49410e85162a0ad8a8e4f1dc5f176c58169"],
    "demo-uniqueness l2.sset --deg0 l2.table --deg1 l2.deg1 --out l2.demo.table --cert l2.demo.cert":
        [0, "c1355779e5dd46402fe837c30ecffe58348e145bc33895c283639de72a65b0fd"],
    "l2.demo.table":
        "e3a581945f2d20d744e88445bb088edeb65fe1a9a8054c0fbaf8dd444609d7e2",
    "l2.demo.cert":
        "b6796797b91081e5bdd0f0f6ee4f837620de8d7fbcd97e7a76cb4868a2bac9df",
}


def test_reports_and_outputs_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    assert [key for key in GOLDEN if got[key] != GOLDEN[key]] == []
