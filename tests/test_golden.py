"""Golden outputs: the exit code and the sha256 of the ``--format json`` stdout
of every demo spec under every verb, run in-process through ``cli.main``.

A change to any of these outputs must be deliberate: update the table here
and say in CHANGES.md why the output moved.  e3b0c442... is the sha256 of an
empty stdout (a verb that exits 1 before printing)."""

import hashlib
import json
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
