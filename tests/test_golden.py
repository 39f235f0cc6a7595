"""Golden outputs: the exit code and the sha256 of the stdout of every demo
spec under every verb, in each of the three formats (json, csv and text with
its ``elapsed`` line masked), run in-process through ``cli.main``.

A change to any of these outputs must be deliberate: update the table here
and say in CHANGES.md why the output moved.  e3b0c442... is the sha256 of an
empty stdout (a verb that exits 1 before printing)."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from orecohom import cli

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = {
    ("c4_sign", "validate"): (0, "f9141ca1dfe554085cc3f38d99971565a385fed57429348d64e8706e39e5232e"),
    ("c4_sign", "cohomology"): (0, "7bcdd35a299e7e345d31d78c80a2e424ac721a5e40837a719a1c259ee6b96132"),
    ("c4_sign", "products"): (0, "c648a164d2f0fb59e0451d41de7be9a2fabef351fa0f01778c8c81a21bce3c59"),
    ("c4_sign", "theorems"): (0, "316a73e64b227ae052ae0514c22e5a528e547d90eef4f42bfd90bee8c7a79d31"),
    ("c4_sign", "report"): (0, "ea06469df0f573b830e074305fdd846f3f2d713b7c23be33fc42ed45e410dfb0"),
    ("gh4_u3", "validate"): (0, "502c4fec1717671f5b28b779e42af61d61c965076040dff378c08d3d2e17075a"),
    ("gh4_u3", "cohomology"): (0, "4d937a94420a4d33994cd69225dfe40a8fdd704b67b77dbe3b430b0eb538be7d"),
    ("gh4_u3", "products"): (0, "d8ac3edd84b2c5535dbce589622786870b656608f4067cd36d3f08e101aa9411"),
    ("gh4_u3", "theorems"): (0, "4dd6c4bbb61118352fda127a1a7f289d612ea6fb7ddff345fac63b19ddf473d9"),
    ("gh4_u3", "report"): (0, "ef77fb18f1f8568e097d35a28a9d191d4314ce45ebac80eb5eca21482bea8337"),
    ("quaternion_pi", "validate"): (0, "13c86cb091811c780668f95f41f6a7d12e6130ba2d27c68bb2a2d0c703dd37b8"),
    ("quaternion_pi", "cohomology"): (0, "5687fed6f4a3c9c004fbefd51d98734d44d310e8cd81898dd72f276289a1eeb3"),
    ("quaternion_pi", "products"): (0, "3107ce57ceebb0e1f6669032eac221a6a338afc6f50ba4ed667e1d8682c968c5"),
    ("quaternion_pi", "theorems"): (0, "3b169f09ed940ebcd80b6f94fa416517a41746394f37a0cbfda60657ebdaaaed"),
    ("quaternion_pi", "report"): (0, "214661dc65aaa69ae62836726880ab9fa79fc55668dc93d42f82a420cffee43b"),
    ("swap3", "validate"): (0, "9827abfd0acdf3eb3e8741d4192ac96b4d59baede15824a6230bbefc93ff5b1b"),
    ("swap3", "cohomology"): (0, "c671cb0f8a34965885d4f03ddf43b86a1828f1dd623f2694a8f9bab331a722cb"),
    ("swap3", "products"): (0, "71aa93d0484444743a54ff0219d2033800f06427b556cb7a2df679a4d4164967"),
    ("swap3", "theorems"): (0, "b783264da2a42c7399cf5d6b495bd8061743e2e1d67dfb43e5e3633a3587097b"),
    ("swap3", "report"): (0, "3662de3bd8635d7b407c92fb53d6df3b21f8468c47e45f5ddf7dd4c208c14dfb"),
    ("sweedler", "validate"): (0, "487262d8dabe4e8c8165141733dc86ba0ba4844055f98d99b340195ad23ce69e"),
    ("sweedler", "cohomology"): (0, "d388f6af1a24d0dd00b29972f8483c669e907520b0c9f1b3c9a4007ad9be639f"),
    ("sweedler", "products"): (0, "33ab88ae713a64fd32fde5aa7d0d5fdd3fa8c7536037162a4bfd50d1f2b6cd66"),
    ("sweedler", "theorems"): (0, "e54811bbccc3df5eff8567cdca35e5dd5cb4a3c0b86edff90a126b88712f9815"),
    ("sweedler", "report"): (0, "be6809fd0055f2979f4655f8d7a65ec52887f6f609c2a65dd9b739326a87dc0b"),
    ("sweedler_bad", "validate"): (1, "e3ced4d6ce7c14954b51c08131431e06e79258033110eb45cb3d2f73fdbd992d"),
    ("sweedler_bad", "cohomology"): (1, EMPTY),
    ("sweedler_bad", "products"): (1, EMPTY),
    ("sweedler_bad", "theorems"): (1, EMPTY),
    ("sweedler_bad", "report"): (1, "8e15525400f53911f648a84b95744c570a3cb0d0f2fab486cfbb508c2a75fe26"),
    ("taft37", "validate"): (0, "5459f8fc01d6f5397cb341ae912cdbd155a91482bd69bf0ee4aaa1c2e62d7e31"),
    ("taft37", "cohomology"): (0, "99dd8d49f6cd3798b2ff059fd13699ffed84ab3346c6358281cb362deb71928d"),
    ("taft37", "products"): (0, "7dc80cb9707cf7e98ead925b64a11ac62b38a5b0c508fb064186b31f87f2412f"),
    ("taft37", "theorems"): (0, "f9c297483652d9bf8e6cf9df9e0bf7fcb65e1c52c2af782129a2ddfa8f39c6b2"),
    ("taft37", "report"): (0, "369a51196e3466e182308c0e3e3468932b464f427a55aa98460d5bd5bd15dff0"),
    ("truncated_square", "validate"): (0, "00ed2f7a6c2ddc3c3eee7d27493cee57fa83ffb05883e60a869bf5fed153e629"),
    ("truncated_square", "cohomology"): (0, "875cde66a1da0290874f4d212473e9de1216b9b18913b82e8e31b592fee53853"),
    ("truncated_square", "products"): (0, "058a7ade152c53e39021ea915afd072f5a09254e4e398c0bf032aa059279222d"),
    ("truncated_square", "theorems"): (0, "33d965bb9651eb744e6138ae5923a5efe56954f43cd34bfe56608dfd3fcf8354"),
    ("truncated_square", "report"): (0, "51e5e8845c6be9726e2e3e76e10d4637c276a9b4832803ffc720605ae07bf8bf"),
}


def test_every_spec_and_verb_is_pinned():
    specs = {p.stem for p in SPECS.glob("*.json")}
    assert {spec for spec, _ in GOLDEN} == specs
    assert {verb for _, verb in GOLDEN} == set(cli.RUNNERS)


@pytest.mark.parametrize("spec, verb", sorted(GOLDEN))
def test_json_output_is_golden(capsys, spec, verb):
    code = cli.main([verb, str(SPECS / f"{spec}.json"), "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[spec, verb]


# The same runs in the other two formats.  The text format ends with the
# wall time (``elapsed: ... ms``), which is masked before hashing.
GOLDEN_CSV = {
    ("c4_sign", "validate"): (0, "3e0f2518dba49f6448383a2146009fb39b0198241db415ede0f4faf023c0733d"),
    ("c4_sign", "cohomology"): (0, "6e836f87c11630d3fb957e41af9a6ef922a543866035a9c5706381bd36788dc6"),
    ("c4_sign", "products"): (0, "5b8a9991db39f31ec835b7d460fd73d34f3cf507878344eb30a97ecbabf9ebdb"),
    ("c4_sign", "theorems"): (0, "0017f8538d84a11c7d566bd1403cc9e7e180e2e6e93b3f936c473034c817dac2"),
    ("c4_sign", "report"): (0, "6e836f87c11630d3fb957e41af9a6ef922a543866035a9c5706381bd36788dc6"),
    ("gh4_u3", "validate"): (0, "3e0f2518dba49f6448383a2146009fb39b0198241db415ede0f4faf023c0733d"),
    ("gh4_u3", "cohomology"): (0, "c6c66e7968599592c4e3435386438ba81ea4638013f276a45cc6ce8ec5a6e547"),
    ("gh4_u3", "products"): (0, "be85a83aaea90488cc739f8d2985f3c01722a5c7db3118dadaa28d7bb69bad12"),
    ("gh4_u3", "theorems"): (0, "9ca87513cc1aea86e7e7e195f62eb44255bccad27410454afcb9a49e51d642f1"),
    ("gh4_u3", "report"): (0, "c6c66e7968599592c4e3435386438ba81ea4638013f276a45cc6ce8ec5a6e547"),
    ("quaternion_pi", "validate"): (0, "3e0f2518dba49f6448383a2146009fb39b0198241db415ede0f4faf023c0733d"),
    ("quaternion_pi", "cohomology"): (0, "5839da6554987743b8f065a2aca502367c2c537721ce0ceddc35c6fe0aac44d6"),
    ("quaternion_pi", "products"): (0, "ad7438770ffcc7f04900d7ac642a1f53ba59a62eb92c53ea261aa1aa28f82f9d"),
    ("quaternion_pi", "theorems"): (0, "eb6de35428da4eb7a715f32d6cd76097a3563f910f97a5e56fcbf92ad70d1c23"),
    ("quaternion_pi", "report"): (0, "5839da6554987743b8f065a2aca502367c2c537721ce0ceddc35c6fe0aac44d6"),
    ("swap3", "validate"): (0, "3e0f2518dba49f6448383a2146009fb39b0198241db415ede0f4faf023c0733d"),
    ("swap3", "cohomology"): (0, "9ff2652c3a69ceddcf142e96654005bc7fead91d9fd96197bed5e02c80d459df"),
    ("swap3", "products"): (0, "7227b5659ff19b80ed7d05f170a20c71c74010924a6f69b72c1d27a36aff1bfc"),
    ("swap3", "theorems"): (0, "00838544b93420d82c803913578c7787aa6c5229146a999c37b628c4f4f0da72"),
    ("swap3", "report"): (0, "9ff2652c3a69ceddcf142e96654005bc7fead91d9fd96197bed5e02c80d459df"),
    ("sweedler", "validate"): (0, "3e0f2518dba49f6448383a2146009fb39b0198241db415ede0f4faf023c0733d"),
    ("sweedler", "cohomology"): (0, "7ddbe07c0e859dc0655919c8933538f9ff642152ac7b105976bb0d56178a82a5"),
    ("sweedler", "products"): (0, "d2978470aeef91c7ae355bb3d94177beb743977979a3355db83150ca22b72cce"),
    ("sweedler", "theorems"): (0, "9ca87513cc1aea86e7e7e195f62eb44255bccad27410454afcb9a49e51d642f1"),
    ("sweedler", "report"): (0, "7ddbe07c0e859dc0655919c8933538f9ff642152ac7b105976bb0d56178a82a5"),
    ("sweedler_bad", "validate"): (1, "b03bab4d4c8f97f94e336119243e85166d58c0598d018e0d80ae47c45a7bf306"),
    ("sweedler_bad", "cohomology"): (1, EMPTY),
    ("sweedler_bad", "products"): (1, EMPTY),
    ("sweedler_bad", "theorems"): (1, EMPTY),
    ("sweedler_bad", "report"): (1, "b03bab4d4c8f97f94e336119243e85166d58c0598d018e0d80ae47c45a7bf306"),
    ("taft37", "validate"): (0, "3e0f2518dba49f6448383a2146009fb39b0198241db415ede0f4faf023c0733d"),
    ("taft37", "cohomology"): (0, "7ddbe07c0e859dc0655919c8933538f9ff642152ac7b105976bb0d56178a82a5"),
    ("taft37", "products"): (0, "ba286ef477d5f2292ad41765c4001ede4be63895cf6a491ca1d31c2a03dfbacc"),
    ("taft37", "theorems"): (0, "9ca87513cc1aea86e7e7e195f62eb44255bccad27410454afcb9a49e51d642f1"),
    ("taft37", "report"): (0, "7ddbe07c0e859dc0655919c8933538f9ff642152ac7b105976bb0d56178a82a5"),
    ("truncated_square", "validate"): (0, "3e0f2518dba49f6448383a2146009fb39b0198241db415ede0f4faf023c0733d"),
    ("truncated_square", "cohomology"): (0, "6e836f87c11630d3fb957e41af9a6ef922a543866035a9c5706381bd36788dc6"),
    ("truncated_square", "products"): (0, "f38113e3c585217df75db4844771c17a2e3c5944ebe8e5f4df7ff61e5ab707e6"),
    ("truncated_square", "theorems"): (0, "56320e10f7d3f8799aff666935da3322ea513d9c2256cf6d09175d2988d55c0d"),
    ("truncated_square", "report"): (0, "6e836f87c11630d3fb957e41af9a6ef922a543866035a9c5706381bd36788dc6"),
}

GOLDEN_TEXT = {
    ("c4_sign", "validate"): (0, "d8cb88d67d4b0323db299631a1f65c1538681fd21b236b13b36b3fa6b1db0914"),
    ("c4_sign", "cohomology"): (0, "7ee5db8592cb0849e49d23dcb745148dd1a9b6c4fee16d5d2974bb7d82b31dea"),
    ("c4_sign", "products"): (0, "3cfe3455b9629105c3a7b97f61fa97eef9d79772bcd13e33989cebe8c39f4ced"),
    ("c4_sign", "theorems"): (0, "2dde5378d9b121a8ce4cc8caf62c7fd50888e2124b9f776a67ea334a5be95855"),
    ("c4_sign", "report"): (0, "4de36731fb2ba7a8ba718097aaff36f8786adab566fbc22a9492c33e07e839a7"),
    ("gh4_u3", "validate"): (0, "d8cb88d67d4b0323db299631a1f65c1538681fd21b236b13b36b3fa6b1db0914"),
    ("gh4_u3", "cohomology"): (0, "8560e027a38927d1f47a75d836653bcabb480383404e85076cf33e6f22fa4fed"),
    ("gh4_u3", "products"): (0, "7f5f74f593ede504525fb93c83226cdf2c4d90bd3a8c261001ce7d4171096588"),
    ("gh4_u3", "theorems"): (0, "b498468a81dcc8883692241657aea7b0c9e0eeb3cd90930e10e96870e39a07f7"),
    ("gh4_u3", "report"): (0, "277d3916ab853226e68788604752b567b0b70eca6f698e7ef71aa0b6e846e575"),
    ("quaternion_pi", "validate"): (0, "d8cb88d67d4b0323db299631a1f65c1538681fd21b236b13b36b3fa6b1db0914"),
    ("quaternion_pi", "cohomology"): (0, "c752ed053dc6a31c4783ad6a5c4c4614321404490db41f8dce17adab513c06b4"),
    ("quaternion_pi", "products"): (0, "91d05bb671e1da95679b65c6e3612869498b8fc198f7d9cd1c1071d480c71179"),
    ("quaternion_pi", "theorems"): (0, "5d7da39521d181ba9e48986be20ae4e3fd4e0df720c7a05e743039ab64ba8231"),
    ("quaternion_pi", "report"): (0, "a20d09a5ec5e9118a89bcc78a4eb0795ba027c75d6af32503107042cb499ada4"),
    ("swap3", "validate"): (0, "d8cb88d67d4b0323db299631a1f65c1538681fd21b236b13b36b3fa6b1db0914"),
    ("swap3", "cohomology"): (0, "eb761e0da6d9ca9787a59a44c94df65613e3f127caeb99ba120b09ae4ed74bad"),
    ("swap3", "products"): (0, "9f40e106af2bedab7c79759793b5ccb8b620be04f990f2ca38d239da0e0ef2c2"),
    ("swap3", "theorems"): (0, "ef286cbf350bcfade3e98db5fc83cf324c79fc1e1c0dce03fdeccdcb128184cc"),
    ("swap3", "report"): (0, "45be9777450872dcd0f566434a155e937bf695fce65938dcff503d716d339d9c"),
    ("sweedler", "validate"): (0, "d8cb88d67d4b0323db299631a1f65c1538681fd21b236b13b36b3fa6b1db0914"),
    ("sweedler", "cohomology"): (0, "e1fa80b0d483464a43a6f14a210f1034333155fa4a1b5e295117e42f7f44a698"),
    ("sweedler", "products"): (0, "fbcb93b7e8ba9ade29219b3261dfdac86bde437b46a7405e7eeebf94ec79f118"),
    ("sweedler", "theorems"): (0, "907533d3a7a96ad13a1277385a11853d3394cebde0f07c2063fb09dbde749053"),
    ("sweedler", "report"): (0, "22f20d2b5ba0744769443eedd1dd5cf5d74286d08d614a89061f7a7461c8ac0b"),
    ("sweedler_bad", "validate"): (1, "baaa3aef220c48fe7ab747f13c40f6d9d8d870af0a4a1d5bf41eef3ad1d93335"),
    ("sweedler_bad", "cohomology"): (1, EMPTY),
    ("sweedler_bad", "products"): (1, EMPTY),
    ("sweedler_bad", "theorems"): (1, EMPTY),
    ("sweedler_bad", "report"): (1, "3e5377923d3e291c86d8910341f2f96e9185e4d0a1acf74039fd24785fca25eb"),
    ("taft37", "validate"): (0, "d8cb88d67d4b0323db299631a1f65c1538681fd21b236b13b36b3fa6b1db0914"),
    ("taft37", "cohomology"): (0, "806d183e6bea8149713ae8310ef5e5b6d2df5d460653635a23924e4afe784237"),
    ("taft37", "products"): (0, "f1e557f2d289a9fb3e12d468eef39e1e15e482fe25f81bd1b2d4698f0b5016f5"),
    ("taft37", "theorems"): (0, "d80fd03731234141587b1018ac9a2b1ed44b004beb9be042d512c2fe93f5b2ba"),
    ("taft37", "report"): (0, "072b41dd57bc6ed3f177f35f4a3b56fc45ffe2e8d1418b5eeacfc20c8ec6b0c2"),
    ("truncated_square", "validate"): (0, "d8cb88d67d4b0323db299631a1f65c1538681fd21b236b13b36b3fa6b1db0914"),
    ("truncated_square", "cohomology"): (0, "bf6dd4fc595d46ac5fb604b15a8a09ca86a5f3b6283acf431c715d1ec39dee63"),
    ("truncated_square", "products"): (0, "37223dfd87268f4fa6fad4b95f928aa3ebd29c992c039c047c0e5bf874ac20a6"),
    ("truncated_square", "theorems"): (0, "abefd075591f8d4253840c0be358f1758c2a3162421de5860309af6bc106dff3"),
    ("truncated_square", "report"): (0, "de83b914f594f99ecb34663f289c08b620656dc1c37f7310706aaaf64f0b5b36"),
}


def _masked_digest(out: str) -> str:
    out = re.sub(r"^elapsed: .* ms$", "elapsed: MASKED", out, flags=re.M)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt, golden", [("csv", GOLDEN_CSV), ("text", GOLDEN_TEXT)])
def test_every_spec_and_verb_is_pinned_in_every_format(fmt, golden):
    assert set(golden) == set(GOLDEN)


@pytest.mark.parametrize("spec, verb", sorted(GOLDEN))
@pytest.mark.parametrize("fmt, golden", [("csv", GOLDEN_CSV), ("text", GOLDEN_TEXT)])
def test_other_formats_are_golden(capsys, fmt, golden, spec, verb):
    code = cli.main([verb, str(SPECS / f"{spec}.json"), "--format", fmt])
    assert (code, _masked_digest(capsys.readouterr().out)) == golden[spec, verb]


# Two specs over GF(9) = GF(3)[i]/(i^2 + 1), the only route through an
# extension of GF(p) from a spec file; they are written at test time, not
# kept among the demo specs.
GF9 = {"kind": "ext", "p": 3, "minpoly": [1, 0, 1], "symbol": "i"}
GF9_SPECS = {
    # gh4_u3.json with the field changed
    "gh4_u3_gf9": {
        "field": GF9,
        "K": {"kind": "group", "group": {"kind": "gh4", "u": 3},
              "character": {"g": 1, "h": [0, 1]}},
        "f": {"n": 2, "coeffs": [[0] * 12, [0] * 12]},
    },
    # the cyclic group of order 4 twisted by chi(g) = i, with f = x^4
    "c4_i_gf9": {
        "field": GF9,
        "K": {"kind": "group", "group": {"kind": "cyclic", "order": 4},
              "character": {"g": [0, 1]}},
        "f": {"n": 4, "coeffs": [[0] * 4] * 4},
    },
}

GF9_GOLDEN = {
    ("c4_i_gf9", "validate"): (0, "1decbb70d0361311e3c31ddf3a5ee441ad2976ea0031612fca212dbb239846f0"),
    ("c4_i_gf9", "cohomology"): (0, "b2f69e486e691c2deca566992b2277e99fc44f385f3e2f9438fb05024970ed34"),
    ("c4_i_gf9", "products"): (0, "dc4dd4e7a6574646cfbd053721cfeb424b49053b0a5b49bf4c20950a66bcd970"),
    ("c4_i_gf9", "theorems"): (0, "657d37cf50cea4e1bef19bb931c015b865619901e11f4e07e0ce7ff0e9be4d09"),
    ("c4_i_gf9", "report"): (0, "6cbafa46487f71dfe1f0a8991c8311b1e2c259b2bbec38a0a4d8483717e39d8c"),
    ("gh4_u3_gf9", "validate"): (0, "f43f9857a6f5f41810c50ad9d286649b51ee0141968390d6634898ad03bfaca0"),
    ("gh4_u3_gf9", "cohomology"): (0, "9a32a44ec9a5844b2f4d94675a2e20a932a886650c48fe1658045c99f0011a53"),
    ("gh4_u3_gf9", "products"): (0, "4f2cdfa1429be4a9f64d5d9b345e6f51fa4c82611d07e88773efc0ffdd532c40"),
    ("gh4_u3_gf9", "theorems"): (0, "97f2d724d9962ce980062e5ba3d7c6cd4df48b8359152261e047398a599f9a32"),
    ("gh4_u3_gf9", "report"): (0, "65c7e5387c75df6f8f44a703acb74722e4ee8f83021951803ebc1cbc1b2cd986"),
}


@pytest.mark.parametrize("spec, verb", sorted(GF9_GOLDEN))
def test_gf9_json_output_is_golden(capsys, tmp_path, spec, verb):
    path = tmp_path / f"{spec}.json"
    path.write_text(json.dumps(GF9_SPECS[spec]))
    code = cli.main([verb, str(path), "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == GF9_GOLDEN[spec, verb]


# One rung past the demo sizes: gh4_u3.json with u = 4 and f = x^2 (dim K = 16,
# dim A = 32), whose `products` JSON the product store must leave unchanged.
GH4_U4_PRODUCTS = (0, "52df6a607eb4caa24652bb3cd67f2c5167f2dfc6e797f9cc41fdfc7055e6fae4")


def test_gh4_u4_products_json_is_golden(capsys, tmp_path):
    spec = json.loads((SPECS / "gh4_u3.json").read_text())
    spec["K"]["group"]["u"] = 4
    spec["f"]["coeffs"] = [[0] * 16, [0] * 16]
    path = tmp_path / "gh4_u4.json"
    path.write_text(json.dumps(spec))
    code = cli.main(["products", str(path), "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == GH4_U4_PRODUCTS
