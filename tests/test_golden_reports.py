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
was still printed from a packed polynomial. The `decompose`, `hilbert`,
`reduce` and `oracle` digests were taken again when Buchberger's pair loop
became the Gebauer-Moeller installation, which changes only the work
counters in `timing`: each of those reports was compared, without `timing`,
with the one before the change and found byte-identical. The `reduce`
digests were taken again when the certifier began to read containment and
dimension off its two Groebner bases, which drops `rank_rows` and changes
`normal_forms` in `timing` and nothing else; the `oracle` digests did not
change. The `decompose` and `oracle` digests of greduit1 and cycles_full, the
four-facet fixtures, were taken again when `ideal_intersection_many` became a
balanced fold, which changes `s_pairs` and `normal_forms` in `timing` and
nothing else (fewer than four components fold as before). The ring4-bare
digests, a B made only of monomials, were captured before `normal_form`
tested each term for a divisor once and before the graded coverage became
one normal-form table per degree; neither change moved a byte. The
`validate`, `ideal` and `color` digests of dtree-2-120, a 120-facet d-tree,
and of no-coloration, whose B holds two cubic non-faces, were captured while
reports were still printed by `json.dumps` and every non-face was named by
`Ring.join_names`, before the chunk renderer and the pair naming replaced
them. The plain `reduce` digests were taken again when `verify_sop` stopped
computing GB(B) where one facet's component bounds dim R/B, which changes
`s_pairs` and `normal_forms` in `timing` and nothing else (greduit's do not
move: its one component is B). Every `oracle` and `--oracle` digest was taken
again when the cross-checks gained `sop`, which adds that one entry to
`checks` and nothing else; their `timing` did not move. The plain `reduce`
digests of greduit, greduit1, cycles_pair and strip3, and of greduit,
cycles_pair and strip3 under the four variants, were taken again when
`verify_sop` began to read dim R/B off the complex, so that a run builds
GB(B + G) and no facet's minors: `normal_forms` and `s_pairs` in `timing`
fall and nothing else changes; no `oracle` or `--oracle` digest moved. The
`oracle` digests of greduit1, cycles_pair, cycles_full and strip3, under
every variant pinned, and the no-coloration `--oracle` digest were taken
again when the rewriter check began to read GB(J_l) instead of a basis of
one facet's minors alone: `normal_forms` and `s_pairs` in `timing` fall and
nothing else changes (greduit's do not move: its minors are B). The `color`
digests of cycles_full and no-coloration, the `reduce` digest of cycles_full
and both no-coloration `reduce` digests were taken again when two messages
began to say that the coloration sought is good on G' ("no good binomial
coloration exists", and "... and is good on G'"); nothing else moved.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from binomext.cli import parse_document, render_report, run
from conftest import (
    FIXTURES,
    empty_class_document,
    extended_dtree_document,
    extension_document,
    random_small_extension,
)
from test_golden_counters import strip_document


# the settings each variant writes into the document; "" is the document's own
VARIANTS = {
    "": {},
    "lex": {"order": "lex"},
    "deglex": {"order": "deglex"},
    "rational": {"field": "rational"},
    "large-prime": {"field": 4294967311},
}


DATA = Path(__file__).resolve().parent / "data"


def document(instance: str, variant: str = ""):
    if instance == "strip3":
        data = strip_document(3)
    elif instance in ("ring4-bare", "no-coloration", "dtree-2-120"):
        data = json.loads((DATA / f"{instance}.json").read_text(encoding="utf-8"))
    elif instance == "empty-class":
        data = empty_class_document()
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
    ("color", "cycles_full"): "33ac6185a02129d063914935a453e0350f0577435d6fe5e37b87e7b97f1ba322",
    ("validate", "strip3"): "5d30a2361c211f9d4c626f49f0797307898c17d10ded17ff972372e0eb3c4b43",
    ("ideal", "strip3"): "349f164c125eadaad31bc0e1f2426935010adb6538317555303c154b8dfeb207",
    ("color", "strip3"): "dc4491108502ea96a0df796dd5e0f3e4b090716edd3a179c8ac1bc5039c29314",
    ("validate", "dtree-3-32"): "eb9e76014b003591c614a1a4c48cf927cd64c17c1234e8a13697222616981b29",
    ("ideal", "dtree-3-32"): "aa9a3adfaefeb8bb9eca05109bdd38508577c93321253b57af1431a7aa70c6a6",
    ("color", "dtree-3-32"): "b52b3d828834a927f8f18aec8f5c96f20864620753a15219b0a64a977b6e79eb",
    ("decompose", "greduit"): "c17982800d0c7aed893cb59458da0996c705fa040cbd22ffe19606d920746ba7",
    ("decompose", "greduit1"): "982654dccfd69eff41fd744423d37087442574f3b13a3de47a02ad6625510516",
    ("decompose", "cycles_pair"): "2c7488f42139ab0616234cc5a397f01562cdc3436039346df96eb3154349dc81",
    ("decompose", "cycles_full"): "94d01d7aaf294b096c74780ab3facf4b2890793d3ca1f2731102885a203f282f",
    ("decompose", "strip3"): "8f97f28c8d419d71f30cc99abb1e3730dc2d61ffbbc9dc7eebd4d4f86c8d8810",
    ("hilbert", "greduit"): "bd527cad3e7efaa65b1e889c374c382d2297531c84628b9ff80b72ab943676ed",
    ("hilbert", "greduit1"): "30150f1e10488a5aff8e26596af98812f983e842bc82d209b0f047caf43b188a",
    ("hilbert", "cycles_pair"): "860841d401ada82c535dc0488203c75397e7e8659dbbc59b06ac9b801fb673c1",
    ("hilbert", "cycles_full"): "efa1054757e63035efd5716d0d833101e8fa0fb8e469efa5dbb22eb4560c1b15",
    ("hilbert", "strip3"): "d7c5b579b4dcbce1acc42228f8647955afc4f99ba8b8a5fffb6523d5b8de0ddd",
    ("reduce", "greduit"): "b00aa736b50c36acdf611fd6f8155a349d7b3d58848717a59b372f288f40b4ec",
    ("reduce", "greduit1"): "f4475b13356efc6f44ab974e814cbde219e3dcbfeaed7a418d242acaabe25f13",
    ("reduce", "cycles_pair"): "bc0029a71d949b6ef71a29c3ef6978705dff5e83a926dd2b0773b18d21795735",
    ("reduce", "cycles_full"): "c710eed61c1c85375580882a42567b82b7ca854ecc16f78158506424e1e39ef0",
    ("reduce", "strip3"): "150426151323b52de2c05d97362a4ad16b18b854121b231b761160db4de43780",
    ("oracle", "greduit"): "a0b48354828e06e624e1539b5576fe0e0a409ed6057bc9fdcc7ac36630101e1a",
    ("oracle", "greduit1"): "449dcf697e4c44380f19fad888d797f96faa6d0afc58741bb279cf32bd021613",
    ("oracle", "cycles_pair"): "a42682d6b921cf475243837a170f96ec9e2f99e984ae2cc40582afe17e84e8dc",
    ("oracle", "cycles_full"): "c406fe1a210c797f33dbce9a8185961dbb819a083fb220cfeac371730c77d3ee",
    ("oracle", "strip3"): "3f905f8e81edd964db336a15dfecf05df9f335707bee2c0223df01f65125c768",
    # a 4-ring of bare triangles: B is all monomials, the benchmark's
    # crosscheck tail op
    ("reduce", "ring4-bare"): "31e351a91eb18c2af651a6afba140071fdce471255945869542d61b5e9bec915",
    ("oracle", "ring4-bare"): "1c647b659f7f48091589496c3dd0225aee28302691f151aa90ecaec3dab7c973",
    # 120 facets, like the benchmark's combinatorics tail: B's 15,855
    # non-faces are all pairs
    ("validate", "dtree-2-120"): "ecca59fcc6db200d54358c579dc61f6774080648fa3ce8727b1979746de9f46c",
    ("ideal", "dtree-2-120"): "f4d9296d2a836ca26f51563b54d77afe5231ba795c6bd154f359b15e64105b10",
    ("color", "dtree-2-120"): "dbffd7a81ba3b780e9634210991ba957157f00fe3b503c30b4c0bb39eb0a3aa3",
    # B ends in two cubic non-faces, named by Ring.join_names
    ("validate", "no-coloration"): "7580a8698c96e8efde3734f08bc2167058855b8d2e1986014805c3cd68ea964c",
    ("ideal", "no-coloration"): "60b61a7772870c8d58cefb4aa33fbb5247657ac3ca0c8718ec4baeae871671c4",
    ("color", "no-coloration"): "1c02db66e2c71e582560a8ce91c3f31d202cb4a2a0a9efcba07a79d057a88742",
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
        "f67cdc15765ac29dee1fe7ba1d4ed2d347246bed07b781eeafd6277549c4206d",
    ("decompose", "cycles_pair", "lex"):
        "c91bbbaf88c40aad298bbb3503c5cbf7da1b10258ebca750ab2c34a7bedc6172",
    ("decompose", "strip3", "lex"):
        "5f99d1180ec315182fbfafe829058298ba3221975699254e02ac22ba32c59543",
    ("hilbert", "greduit", "lex"):
        "3d43c95f43e620c5ba743b8a569cfdd1f5a2d9ade94d07bd3a64b0c56721f30c",
    ("hilbert", "cycles_pair", "lex"):
        "c0bf416d013f3d226d18fadfff1cf33a87a01135edc81539290f6c7ba98d976d",
    ("hilbert", "strip3", "lex"):
        "58cfa508501b4ee25f7c045b6636909a71974916c49a1b364c47014f3597059c",
    ("reduce", "greduit", "lex"):
        "d72b26c553f9167454d38fc768024203e44f4f3d55601693c1e2fcd764d390a9",
    ("reduce", "cycles_pair", "lex"):
        "521174097f6b380f91465f50c902e6b7d98dd81bdbb5e0930fbb332513bb2392",
    ("reduce", "strip3", "lex"):
        "39802655875ca30d3a6dc58ac3073b631d864fd3e4a95526dd762679a1413518",
    ("oracle", "greduit", "lex"):
        "b22a362c45c25236ec1ebbedb012157e33174ddce10438b1a1c2361acf4759b5",
    ("oracle", "cycles_pair", "lex"):
        "ecaa9e18be8e6ca24bb0a50ad50ff0e488d799632c1d991f48ffc5ce947e6f87",
    ("oracle", "strip3", "lex"):
        "d36fbbb93bbabe03851665143f2ed0095e1c2279477be37d083cb15eebfeda81",
    ("decompose", "greduit", "deglex"):
        "aa31e13db0b4307a3d20138bf402953d716a86e9ce62e9f4e28e233e992ef569",
    ("decompose", "cycles_pair", "deglex"):
        "2c0d1c8657128c3772a617cdf219ce758d77fadd9333dfe3d7dbbe8c0ccbd01d",
    ("decompose", "strip3", "deglex"):
        "d11804cd92dd0bed15b83d13dda1ed12773a12da76fd48f55086aca5142ad5dc",
    ("hilbert", "greduit", "deglex"):
        "a2c52d04459155a30b67dd9108b2122a5d6710cd167707d099660051d77e5093",
    ("hilbert", "cycles_pair", "deglex"):
        "6fd5bae0b18b807421f0d07ea9938153a26ca8b90915df14017d0040f8e8be7f",
    ("hilbert", "strip3", "deglex"):
        "95628753f51bda28ac520f9b363408c2d587c3b35af6d1e0f2c9825b002cf5a1",
    ("reduce", "greduit", "deglex"):
        "d0c89a3bee0e578cba81ada0c17f321788b4315fa1010d5ea709dcd84daa29db",
    ("reduce", "cycles_pair", "deglex"):
        "b5afac8861a2fb94a1701d4b3dc151a41a32875f8eaef6b2b5a952b8ad14f0d7",
    ("reduce", "strip3", "deglex"):
        "9b55f9c6fa69156e7164a9b8a46ab6b48fe14fa07d67c7b20d90728319de50ba",
    ("oracle", "greduit", "deglex"):
        "1706a55df0be7158438598481b95b3dcbb1beab8b8a35bd6251dcacf93e80e23",
    ("oracle", "cycles_pair", "deglex"):
        "5e24c67c78f719d43b544032a00193d4d774a1c71bcaac88384a076a6b7dc4ff",
    ("oracle", "strip3", "deglex"):
        "7d3eb20dc2d49433a6e991743dc12640cac9755cb834bca5800b45e09ffee481",
    ("decompose", "greduit", "rational"):
        "7141ca8638b1a7694cb17a92d8a64d74ecec8fbd3ecb04b4e7e8bb7b03719be2",
    ("decompose", "cycles_pair", "rational"):
        "e40b94a8622c5c25a07cc85789767201f233d47eaf318263c2bb1c394436393c",
    ("decompose", "strip3", "rational"):
        "378d6245c56ade799a33cad73ae1bad36f82cf17bdf99939a4b93d7f97bd504c",
    ("hilbert", "greduit", "rational"):
        "5a63f52ffdfc378389114971664edbcb990dc90e451850fb67b77bd4b5318db9",
    ("hilbert", "cycles_pair", "rational"):
        "d4ecd75f86695df96eb3444b34963630f1b056ab81932ef759607b523cebcd75",
    ("hilbert", "strip3", "rational"):
        "79cdfe332567f52c0dfd6d5a375f3fec81c5c17e91ca65d963ef51b4b3ed72b6",
    ("reduce", "greduit", "rational"):
        "9394b048b8dc482fac43575fc8a821b222b080f786eaeb45a2e30669b1d93bf3",
    ("reduce", "cycles_pair", "rational"):
        "4564fba3cb4f83be85e02dd2cf247c3b8ef1ac349223e875139ade03f55fd138",
    ("reduce", "strip3", "rational"):
        "bd2c8b0179c2b8af4bfd4308a7144e44d0489d1a7fc10c7ea24d28a6d7463a2f",
    ("oracle", "greduit", "rational"):
        "fc45b8c917061724fb35f5c3065cf8a5496413f28a5b1f24debcd7408d60568a",
    ("oracle", "cycles_pair", "rational"):
        "dd96710675d6781cf47f226c964c7bd9ca078e11d3201232da92c193a05d704b",
    ("oracle", "strip3", "rational"):
        "bbd5aa3d60a2a197b440f8fe10943846f3ffc3d988826662d86941c667533be8",
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
        "a476bc134bf3837a65a7c959703f1ad119836ceda81b12288883de411a6dc765",
    ("decompose", "cycles_pair", "large-prime"):
        "632e5a2e94456754d19b5be9ccd9db2a4db8bcfb19d288bd1aeec0b2db5cb353",
    ("decompose", "strip3", "large-prime"):
        "1f44dbc522f8f2225c0f032f9ffb52acbddf061bdda5c4b3ebdc252acf1b5c41",
    ("hilbert", "greduit", "large-prime"):
        "e670d32587dbb2b2e961c04fb1eaa323b344217c0b18f4cb537b798f30301d1e",
    ("hilbert", "cycles_pair", "large-prime"):
        "b5387513c21318abe163e2a119e07d313b1da6f54aafb57f7a070b480570a1ff",
    ("hilbert", "strip3", "large-prime"):
        "9cad856058dd3ba45e42edcbd88f6bc243f44a0ba10ff7953ac326b0436d3807",
    ("reduce", "greduit", "large-prime"):
        "9916cf459232d3b3d71879cd1885b57a085b1eae401f731385b4a4cc6ac0d3b0",
    ("reduce", "cycles_pair", "large-prime"):
        "2b7398eb98890228509ea4943f32df94aae64914aec58ab47c14bd5cdf77eeda",
    ("reduce", "strip3", "large-prime"):
        "2d2cc8df4911c99b94f67fce4ce72e508873274e442ed645929f62217293bec2",
    ("oracle", "greduit", "large-prime"):
        "d3d4948508a20091bfcddecf13a98787002fe8fb887687095069a9ceea9e5994",
    ("oracle", "cycles_pair", "large-prime"):
        "196664c85d674b92a812ba739ef419ce34bd756d91d28f09665618e61c139e1d",
    ("oracle", "strip3", "large-prime"):
        "5aef5a4706757b6ded99ab9e3cd6551b7505b5ebe688dea3ccf08dd3013c6bd7",
    ("reduce", "ring4-bare", "rational"):
        "f8cd2b356e0d54d935d8267ca0fd9246f0519342ce309f5b84c5edb06ef7dc9e",
    ("oracle", "ring4-bare", "rational"):
        "32b63fd2edbd9505fbfb0bbec9a240430249daff2b3f3311beec669421e03b33",
}


# The two `reduce` outcomes in which the theorem does not apply and the
# fallback stops too: no binomial coloration exists, good on G' or not (the
# failure says no good one exists, and the report prints a null
# coloration), and the coloration leaves a class empty (the failure names the
# theorem's failure, then the fallback's). Each is pinned alone and with the
# oracle's cross-checks; the digests were captured while `cli` still composed
# these reports from the theorem's exceptions and the fallback's tuple.
GOLDEN_REDUCE_FALLBACKS = {
    ("no-coloration", False): "db52387edf241e63d2d568944ddf963c3cd82b38fc2891262c1c735aec1e02aa",
    ("no-coloration", True): "896c800c057e462e56f71a36528c2c017bd08e93ed6da67ba4f05b6d037ca5f4",
    ("empty-class", False): "85f67bf2db4e7a37cea79cd806a53950517a3bd5e1dbf5185423d0e531a9ff05",
    ("empty-class", True): "d080c68397042e36f36c583aebae2bbc6d7bacd4454941f8b424afb1d2f376f2",
}

def report_digest(
    command: str, instance: str, variant: str = "", with_oracle: bool = False
) -> str:
    text = render_report(run(command, document(instance, variant), with_oracle=with_oracle))
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



@pytest.mark.parametrize("instance,with_oracle", sorted(GOLDEN_REDUCE_FALLBACKS))
def test_reduce_reports_without_a_certificate_are_pinned(instance: str, with_oracle: bool) -> None:
    digest = report_digest("reduce", instance, with_oracle=with_oracle)
    assert digest == GOLDEN_REDUCE_FALLBACKS[(instance, with_oracle)]

def test_the_generated_dtree_is_large_and_extended() -> None:
    doc = extended_dtree_document(3, 32, seed=7)
    assert len(doc["facets"]) >= 30
    assert sum(len(e["points"]) for x in doc["extensions"] for e in x["edges"]) > 0
    report = run("validate", parse_document(doc))
    assert report["complex"]["is_generalized_dtree"] is True


def test_the_committed_large_dtree_is_the_generated_one() -> None:
    # CI compares its reports under python -O; it must stay what the
    # generator gives, so it can be rebuilt
    path = DATA / "dtree-2-120.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("comment")
    assert data == extended_dtree_document(2, 120, seed=7)
    report = run("validate", parse_document(data))
    assert report["complex"]["is_generalized_dtree"] is True
    assert len(report["complex"]["facets"]) == 120


def test_the_committed_bare_ring_is_the_generated_one() -> None:
    # the benchmark generates its ring4-bare from perfbench/gen.py, and CI
    # runs `reduce` and `oracle` on this copy under python -O
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", DATA.parent.parent / "perfbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    data = json.loads((DATA / "ring4-bare.json").read_text(encoding="utf-8"))
    want = gen.ring(4, bare=True)
    del data["comment"], want["comment"]
    assert data == want


def test_the_committed_no_coloration_document_is_the_generated_one() -> None:
    # CI runs `reduce` and `oracle` on this copy under python -O
    data = json.loads((DATA / "no-coloration.json").read_text(encoding="utf-8"))
    del data["comment"]
    assert data == extension_document(random_small_extension(155))
    report = run("reduce", parse_document(data))
    assert report["coloration"] is None
    assert report["reduction"]["failure"] == "NoColorationFound: no good binomial coloration exists"
