"""Pinned report bytes of every command.

`validate`, `ideal` and `color` print the complex, its Stanley-Reisner
generators, the d-tree certificate and the coloration; `decompose`, `hilbert`,
`reduce` and `oracle` print the components, the Hilbert data, the
reduction-number certificate and the cross-checks. Each rendered report
(`timing` included) is pinned by its sha256, so a faster printer, non-face
enumeration, d-tree recognizer or a rearranged certifier must keep every
byte. The digests were captured before those paths were rewritten; a change
that alters a report on purpose updates this table and says why. The
algebra commands are pinned under lex and deglex and over the rationals too,
with digests captured while monomials were still exponent tuples; so are
`validate`, `ideal` and `color`, with digests captured while every non-face
was still printed from a packed polynomial.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from binomext.cli import parse_document, render_report, run
from conftest import FIXTURES, extended_dtree_document
from test_golden_counters import strip_document


# the settings each variant writes into the document; "" is the document's own
VARIANTS = {
    "": {},
    "lex": {"order": "lex"},
    "deglex": {"order": "deglex"},
    "rational": {"field": "rational"},
    "large-prime": {"field": 4294967311},
}


def document(instance: str, variant: str = ""):
    if instance == "strip3":
        data = strip_document(3)
    elif instance == "dtree-3-32":
        data = extended_dtree_document(3, 32, seed=7)
    else:
        data = json.loads((FIXTURES / f"{instance}.json").read_text(encoding="utf-8"))
    return parse_document(data | VARIANTS[variant])


GOLDEN = {
    ("validate", "greduit"): "357146eeee5f7e5fa30258d9b07c68497c93470747d876864df6818807d1d7bf",
    ("ideal", "greduit"): "4d7b3bb02d8e81e1a9e22f02f9ef405afe9ee65985e0dc0a2e1571aa8400347d",
    ("color", "greduit"): "795b7f0249394519cb088df420a1d0a41ca0253731ab2dc1fe842f3b572e08ce",
    ("validate", "greduit1"): "995944fe1e60e3c7bac78463bdbc188e188b250d4747ab9353929a2e3198f67f",
    ("ideal", "greduit1"): "db5159e314bc0ee5cf0a3b28a824e7a569de7c14dc291329f4bb6f89c89cbe8e",
    ("color", "greduit1"): "4681c928d2de6cb8023adcfd9fed2b8110d458aafc0410c9e095b503bf7315c8",
    ("validate", "cycles_pair"): "a60341710426da8db0aa086df6595c28a0ee70010674a411a77278869d16ff7e",
    ("ideal", "cycles_pair"): "1b90a2355cf6ef9bf2d1ac31a66038e5c3ac9afaaf9b9a9f80b380158ed55c2e",
    ("color", "cycles_pair"): "d5a3240e44a52880753e106739fee64e6b565edb50172d586a50b52ba6676d4f",
    ("validate", "cycles_full"): "5d3a5f092ea41b43ff2ef2beb00aa1c371ea943cc5ee710f574ff1cba7291dfc",
    ("ideal", "cycles_full"): "09df7d292b558753e27c25da017d7d208ac3bf6831be2bcf7b6f1f9de2bb42ce",
    ("color", "cycles_full"): "380538a22e899cdac4dc9208225b397782d62e931bfdd3a453b68632ebc33428",
    ("validate", "strip3"): "5d30a2361c211f9d4c626f49f0797307898c17d10ded17ff972372e0eb3c4b43",
    ("ideal", "strip3"): "349f164c125eadaad31bc0e1f2426935010adb6538317555303c154b8dfeb207",
    ("color", "strip3"): "dc4491108502ea96a0df796dd5e0f3e4b090716edd3a179c8ac1bc5039c29314",
    ("validate", "dtree-3-32"): "eb9e76014b003591c614a1a4c48cf927cd64c17c1234e8a13697222616981b29",
    ("ideal", "dtree-3-32"): "aa9a3adfaefeb8bb9eca05109bdd38508577c93321253b57af1431a7aa70c6a6",
    ("color", "dtree-3-32"): "b52b3d828834a927f8f18aec8f5c96f20864620753a15219b0a64a977b6e79eb",
    ("decompose", "greduit"): "9b313b9c4616bbdab468cc8e13472914f4a9ed2fc12680cfd8b9ec88adf99963",
    ("decompose", "greduit1"): "5ed149049d0b916b21b0da42fce85ccdebcb14376e152e57ffc569a8e81049a8",
    ("decompose", "cycles_pair"): "d46c378362e747a556d5fa1244fbdb9fb9d7f7c5f807e96eada989fd44c0adc1",
    ("decompose", "cycles_full"): "a71a65bd0cc306fcedbc821e12b24bc0248a2bcf5ff017912e7c0798ca683e94",
    ("decompose", "strip3"): "6e503363eacea21ed398fffbc0ce6aaf7fe15c646d9d1fbdf9e4b429f0aa582c",
    ("hilbert", "greduit"): "bd921cd55a6b18795b2538c710558fde544ee8288c2b243d79086e7f4707a881",
    ("hilbert", "greduit1"): "20ddee125847c17a446e6b2a761c3a8daf3ce1ffdb06eab6772059a72844f203",
    ("hilbert", "cycles_pair"): "6b7bd36d7febf961301999a32945b4e65e887eb154bdb6959218a7a59c5b6347",
    ("hilbert", "cycles_full"): "610aa28b2e26c0c6e98e765b3a5c51f800fb60bb1cf2a399f5b911e740bdb58e",
    ("hilbert", "strip3"): "ee6f5a4db5d881452efbf9c6742d625461a1ba06ead7c470689faf0a049495f8",
    ("reduce", "greduit"): "d8ae01867e2bc7e91ad5368eb46a298b3acbaa318523e64648638fc735c31114",
    ("reduce", "greduit1"): "55851dc5f7bfb72c1ff280ad05caff562241ab8a3aabade71cdb1982c1b717fa",
    ("reduce", "cycles_pair"): "73028d0509538d83bd5ed9ad45c7551c67e67c2aebc1b1f1511a1989dbf4fe09",
    ("reduce", "cycles_full"): "4b6e01f5fe7359c93c82bba2c2cd8796ec4b7d9b6c26766857318ebd2a54b0ee",
    ("reduce", "strip3"): "30b64ecdaf0a72f50f9c9c3a73748ef2c273f4166b46236d8bb1e25ab46fe3f1",
    ("oracle", "greduit"): "1413afaf924a94b91ca8588989c1af4e1fce46d6115bb57f32cf7082c5db82a7",
    ("oracle", "greduit1"): "b65f907303004d30620d41893e29902f3144eb18fbaee0c154dac574197c8cb8",
    ("oracle", "cycles_pair"): "833b102ab21c9b5ec7467cb98ad16879c71db3fca94826dfb1d1f5b4b9fde4f8",
    ("oracle", "cycles_full"): "a629c694499ac11e21be59fdd39c266353a7fd4aff130dd3518f3d1dcc26e8ae",
    ("oracle", "strip3"): "2ae6c689506dd848960d50d263dbee4eef688af73cf11800eeb5596504aa60ef",
}


# Every command under the other two orders over GF(32003), and under
# degrevlex over the rationals and over GF(4294967311), a prime above 2**32:
# the monomial layout, the order key and the elimination order's inner order
# differ per order, and coefficients per field. The large-prime digests were
# captured while each field still carried its own add, sub, mul and neg.
# The minors print in a term order that depends on the monomial order and the
# non-faces print the same under every order, so `ideal` pins both printers.
GOLDEN_VARIANTS = {
    ("decompose", "greduit", "lex"):
        "646ab45c2ff97e30e7b5fabfedbb4fadba7c448024f06432d2286e8a779052ee",
    ("decompose", "cycles_pair", "lex"):
        "bfbf9584847d7aa17b83a997f2493bc7f6f021345a668be44ca39f335d8fb767",
    ("decompose", "strip3", "lex"):
        "15b9c74cb2c6b40ef145abc7f34898fcae356972d6934a6c4fd735c0711b11cf",
    ("hilbert", "greduit", "lex"):
        "d59d1e1cf7a64c8b3f1d279d03f7983f2beb348173515957b7389d1e0da55eda",
    ("hilbert", "cycles_pair", "lex"):
        "c881a110545ad63476bdd169001cd3219e5c2aa11a4faa098808fa023bd4bea4",
    ("hilbert", "strip3", "lex"):
        "555ef6d34d8ff7f2b3be1b5f0740a425e3299f5f702ad4b2fe17bb456c753030",
    ("reduce", "greduit", "lex"):
        "52d93b06933ba66329e69afda37ac7e10c74c006d9f34f406931e190d0cbdc1c",
    ("reduce", "cycles_pair", "lex"):
        "4bde75deb8834fb08960849fb1d75e5b522b60f21e5c87e78c2f95ef7638350b",
    ("reduce", "strip3", "lex"):
        "44c031eb0b50e60d266b92c7336aaa730833bed762e44b780dbd27a8edcbb001",
    ("oracle", "greduit", "lex"):
        "0d4e6ed1cc5bfef7943d7755b1a01be39fac557b797e8c1531d8a0d388c12f07",
    ("oracle", "cycles_pair", "lex"):
        "41aa94e7aff199455ac414cedd472d1a5853aaf7763bf366ee84cb73422d226c",
    ("oracle", "strip3", "lex"):
        "41e1be718c94b840cea03f0158308f9cfd8790ca9e75913e4fa456f0b5e423fe",
    ("decompose", "greduit", "deglex"):
        "ec1f79211cdc03c2755ed0cd48cb4161fc0cf2057f62855847ea89c03f0b8aa1",
    ("decompose", "cycles_pair", "deglex"):
        "d92f47db9252f4da2a3c9d7ae31cd30d52ac29a216af71a9b709fc958f90640b",
    ("decompose", "strip3", "deglex"):
        "29dd79d1919cffa52f841dd0c0ec83d49817e66f9a167361f51dfdfc1f1e3939",
    ("hilbert", "greduit", "deglex"):
        "2405fa09c31433b409edd5850a8c4e2a15ac27ddf85df533b1b3d590642224b7",
    ("hilbert", "cycles_pair", "deglex"):
        "b7194b6eecb356c5fba62a3bb29271ddec603eb5ab339dc37174d8ffbc286ba4",
    ("hilbert", "strip3", "deglex"):
        "515fec90f1a4cc10de0e1aa49acbe6826e0fa502addfa40600b845a333a1c6dd",
    ("reduce", "greduit", "deglex"):
        "59e622e8d01f48bc02a15b4cee48bfc5039938fa4882983529108fb4ab55a701",
    ("reduce", "cycles_pair", "deglex"):
        "899ba66c1678a73f9bef086716aaccfd05b890f082d7b9075aa79c75a8862d35",
    ("reduce", "strip3", "deglex"):
        "1b76453b1e34fcc9a1057c8519005b84f439eb2e88eb476e8c453ba88898db7d",
    ("oracle", "greduit", "deglex"):
        "da45575362ed8b8d1f9fb144832b4a8dd513c9b0b4e2650d38480975138e50bc",
    ("oracle", "cycles_pair", "deglex"):
        "3a6698bff5423bbc4c209a72c70ff898567837657b0d0f8dc3c930001700844a",
    ("oracle", "strip3", "deglex"):
        "d11b7cd79c00a043a9286f35539c5ca82f923aa5cfa2cad42daa5ab7b275fa86",
    ("decompose", "greduit", "rational"):
        "e309d7f9f1a0f3618e01a254b520856459e58bc323c9e32ae44ad2d7913534ef",
    ("decompose", "cycles_pair", "rational"):
        "c8cd98755d3e3ffc0471d168b3292b268d8a145f620ffcff4743973faef5b3b0",
    ("decompose", "strip3", "rational"):
        "b71eab256c0c7bf39a645c39bd0a204b93222de6847105d7bdc15c294d66c0b0",
    ("hilbert", "greduit", "rational"):
        "9282c55b1ab0609dbd18222a45b7ddb560c230fa4e8438c4f4b9fa09d91ed578",
    ("hilbert", "cycles_pair", "rational"):
        "ab3b53f423a1bb1305e0b8c9f37f0933295db34a11abe76ef9782777e918df0f",
    ("hilbert", "strip3", "rational"):
        "93c792cc4a64dbce9bc47144656d18926b07efd89f01aac541d104f80e135357",
    ("reduce", "greduit", "rational"):
        "7826ac111e01e0f579782b74c1bec4549a15b32f84c88281df4d40cf5ca46a31",
    ("reduce", "cycles_pair", "rational"):
        "5278993d9742d474e1c2b193314c734b3ed93e4dfee70e6ef1b89d32798fdf13",
    ("reduce", "strip3", "rational"):
        "a647a7e99f7915991a401ee12d9eea51a5c1dfd2c73605b00440329c6e8287ba",
    ("oracle", "greduit", "rational"):
        "2ade0985a1b021ce3f0c9d59d30c0656ba4ed6adcf455a3893322b205be8bff9",
    ("oracle", "cycles_pair", "rational"):
        "ccbe1cb47961ae6303823acb2bbfcee9bd57df6995652ae4f57b324b91f64e1d",
    ("oracle", "strip3", "rational"):
        "025bd8742d8c3b4aa4c27f2ec587674a5b765eb211d80797555104fa732b2f51",
    ("ideal", "greduit", "lex"):
        "890cca36126df84596ccc8e9a3de94b326eb368d1130ec3d6515b7682d266cda",
    ("ideal", "greduit", "deglex"):
        "1bb7c9d097d0c6b386019b52a6ca8ad99dce48378760098005dc1e4143e665b9",
    ("ideal", "greduit", "rational"):
        "04268146ac523497d59a97396a4471428955d6c228e20abc374efc4be1d5a14c",
    ("ideal", "cycles_pair", "lex"):
        "2c362b770340b15dcb5c952798b997e18d36bdafd6e4d66102f0694bba1e7a89",
    ("ideal", "cycles_pair", "deglex"):
        "5f3aaef9435d2cceafcdee7e629168487d97b92de29430cf2473cd4cb2012497",
    ("ideal", "cycles_pair", "rational"):
        "bcdd288b72108a41ea5cec410eaaf58f8b190501f72e85b4d84a151edf78919f",
    ("ideal", "strip3", "lex"):
        "7a4c791f7ceaf69d7fb2da6bd7daf8a0544ebe092b0708921172e0afd73b51cd",
    ("ideal", "strip3", "deglex"):
        "3ad2e43da2e9707b1868d5cbc8eaf67fcf7146b05208bd03c872960522b50938",
    ("ideal", "strip3", "rational"):
        "c21e103defd70c313b9e5fffe74e0348076cc86c2fcd5ba603fd8e331a5f6d41",
    ("ideal", "dtree-3-32", "lex"):
        "c0c3ffbdea944a55ef5dbd484ae31e586d86fca42f536811f90ce38f45926e0d",
    ("ideal", "dtree-3-32", "deglex"):
        "283ba303d7d522cbfab5d6445b6b44765bb7d931b710d803c57246007c9a834d",
    ("ideal", "dtree-3-32", "rational"):
        "c18496420afd0415af513b9da95853e7190acf7bf333f6d5e5f89c55849e733a",
    ("validate", "greduit", "lex"):
        "44bb32a6f0c95285402c7d7e8b7e454f7cea1f124756f569712c0b1b5eb0b227",
    ("validate", "greduit", "deglex"):
        "af67ce5beb2b5219512c1fb80133aac6dffbe159c86fc354cc7290b972def3d5",
    ("validate", "greduit", "rational"):
        "fc09b6e3606c371f40447339c4fe2c3e4a14ae275e583d1a3b8b2e28e3be4e0e",
    ("validate", "cycles_pair", "lex"):
        "fcb627bb780a65ffa06cd57834a811c1cf4272b333d079895ff400c8ce011e43",
    ("validate", "cycles_pair", "deglex"):
        "2f58b36417b17e52646f81b0e5591122ff0469d45670fd34b9390ffd1ff6e1e2",
    ("validate", "cycles_pair", "rational"):
        "eb5805adce9bb3f06df0a0cbfb3b5474424d4954d84d5b7be86e1770e760d347",
    ("validate", "strip3", "lex"):
        "8d363f46d5e154d4a54f8e5d3a598b5a814eee0490a9878e27cf91d131995660",
    ("validate", "strip3", "deglex"):
        "3eac60c57cb92333a6db01678d1611474e7d214be5727a53b6aa0d7f8d91c06f",
    ("validate", "strip3", "rational"):
        "db869eeac8c611f9be2f33ea13a5a105d6a110bfed6e0320797bfa3733ee892d",
    ("validate", "dtree-3-32", "lex"):
        "d6335bb13fc00521002ec37a64a7f536f084958541e96b6e0de4b9ba9cbcb32c",
    ("validate", "dtree-3-32", "deglex"):
        "186df382680a81c79a8b637108c289c07bea9af8843ca500c0944a30bae73e6e",
    ("validate", "dtree-3-32", "rational"):
        "69bc3e18471ececa687a56786e8252a2b5b0a49f410f9e96732da0341e772048",
    ("color", "greduit", "lex"):
        "16e83aa50de632353ab514ffc07192bda268dde8adf3be50f279c559f4683597",
    ("color", "greduit", "deglex"):
        "ab29bbf83520275fc2f5bde91aefafe8b1a364b45ea3457d62df890025059d0b",
    ("color", "greduit", "rational"):
        "4abd69e89a02bb156a84ae696dd9ce7952d1beb6865219f45eae441030eb3bc0",
    ("color", "cycles_pair", "lex"):
        "8fb70213b75a4dbac92cde69b3380a6c3c60e20a9d224e41bf4fcb1b3c91b329",
    ("color", "cycles_pair", "deglex"):
        "2976e733952781795974202aabf0eb94257be70ebfbf6b65370134c6d43ebbbb",
    ("color", "cycles_pair", "rational"):
        "58e83c3c7309bb9ed5ab02f3d1b5d9056cfc18864304743e28b3cfd56a6f8535",
    ("color", "strip3", "lex"):
        "b3d63969f8f93965ca5f8942fa4e9ccd49dcb3a1236fb2e5e1ecd64981f83a66",
    ("color", "strip3", "deglex"):
        "fd6af391e7e4ba1f38d18fde3639d57f5f9e77ffaad2efe2267d409192a9ec79",
    ("color", "strip3", "rational"):
        "c66513ef3205bea6166f4909fedb73ecc1a047ace9b91353de01df3ba8f792aa",
    ("color", "dtree-3-32", "lex"):
        "9dc94f6baed94e41ffe230df402e61d967c692286be9a3719813a064f4b4b9d0",
    ("color", "dtree-3-32", "deglex"):
        "90f54c38e0e461a5ce4391a0dd6764720f6f5b27a4274164bc82bf065cc724b3",
    ("color", "dtree-3-32", "rational"):
        "482988027f6c77c9f8f655c14dd56ec66d6215c8a4910ad65599759f78c53cae",
    ("decompose", "greduit", "large-prime"):
        "285da2d13018d6cfdccce34d53d6582fdd7fc9382d2f18e9dc31112f3b6353d5",
    ("decompose", "cycles_pair", "large-prime"):
        "9b4434efda06ca108648ef232a2b8c88b44e5345681657325d15254911e24948",
    ("decompose", "strip3", "large-prime"):
        "961d54b530498d89d415752ff57385768e3c4e5006e660295dc0371a57675551",
    ("hilbert", "greduit", "large-prime"):
        "581f72fb9015546275587228082aa694e2a7633347816003ba24cdb9d1e791aa",
    ("hilbert", "cycles_pair", "large-prime"):
        "4b3bf9fa1f8d4f2cdbff6917763c59fdf30f8f21440bdf1ed0496ec78d5502a0",
    ("hilbert", "strip3", "large-prime"):
        "69bebfc63ca6da36d31ae69d08331575dad1e25d3ae3476c37d79e98bf5fe671",
    ("reduce", "greduit", "large-prime"):
        "99fb1207d8f3758b4e2d36d5490ddcf31eb3faa9010ad78f2472f07da21ed2a1",
    ("reduce", "cycles_pair", "large-prime"):
        "430067d43e8e360e002c548b83805e6977b0a00bc1058405d8746e12dc35c6eb",
    ("reduce", "strip3", "large-prime"):
        "a3cd39f74218009d9b641f4f08db7ca69b9c81aaacc499e1fa8686ecd595ab55",
    ("oracle", "greduit", "large-prime"):
        "11751ccc684ec4ad0098fb4ea9e3d359d2ec0df138896e99481342a524848253",
    ("oracle", "cycles_pair", "large-prime"):
        "e946d6fc601402ce95e15e84b3ed8877a74e69883a2d2dd6f895889430b5b6a0",
    ("oracle", "strip3", "large-prime"):
        "e167ce198243cb17b9ac2811def55a7f9cb5d255cfc60c45291d14274972208d",
}


def report_digest(command: str, instance: str, variant: str = "") -> str:
    text = render_report(run(command, document(instance, variant)))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,instance", sorted(GOLDEN))
def test_report_bytes_are_pinned(command: str, instance: str) -> None:
    assert report_digest(command, instance) == GOLDEN[(command, instance)]


@pytest.mark.parametrize("command,instance,variant", sorted(GOLDEN_VARIANTS))
def test_report_bytes_are_pinned_under_other_orders_and_fields(
    command: str, instance: str, variant: str
) -> None:
    digest = report_digest(command, instance, variant)
    assert digest == GOLDEN_VARIANTS[(command, instance, variant)]


def test_the_generated_dtree_is_large_and_extended() -> None:
    doc = extended_dtree_document(3, 32, seed=7)
    assert len(doc["facets"]) >= 30
    assert sum(len(e["points"]) for x in doc["extensions"] for e in x["edges"]) > 0
    report = run("validate", parse_document(doc))
    assert report["complex"]["is_generalized_dtree"] is True


def test_the_committed_large_dtree_is_the_generated_one() -> None:
    # CI compares its reports under python -O; it must stay what the
    # generator gives, so it can be rebuilt
    path = Path(__file__).resolve().parent / "data" / "dtree-2-120.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("comment")
    assert data == extended_dtree_document(2, 120, seed=7)
    report = run("validate", parse_document(data))
    assert report["complex"]["is_generalized_dtree"] is True
    assert len(report["complex"]["facets"]) == 120
