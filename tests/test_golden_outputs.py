"""Byte-level pins of every output of a small CLI pipeline.

The pipeline prunes two small models with 2:4, Wanda 75% and row-wise 60%,
attaches SPP and LoRA adapters, trains them for five steps, retrains the
masked weights directly with SGD and with AdamW (``--baseline-eq3``), merges,
and verifies.  Every store, run CSV and printed line is hashed, and the
hashes are pinned: a change that claims to keep outputs byte-identical must
keep this test passing without touching ``PINNED``.
"""

import hashlib
from pathlib import Path

from spp import Rng, TensorStore, store_write
from spp.cli import main

SIZES = (8, 16)
PRUNES = {
    "nm": ["--pattern", "2:4"],
    "wanda": ["--pattern", "unstructured", "--ratio", "0.75", "--metric", "wanda"],
    "rows": ["--pattern", "unstructured", "--ratio", "0.6", "--row-wise"],
}


def _write(path: Path, tensors: dict) -> str:
    st = TensorStore()
    for name, arr in tensors.items():
        st.add(name, arr)
    store_write(st, path)
    return str(path)


def _inputs(root: Path, size: int) -> tuple[str, str, str]:
    """Dense two-layer model, calibration activations and training data."""
    rng = Rng(100 + size)
    dense = _write(
        root / f"dense{size}.spp",
        {name: rng.uniform(-1.0, 1.0, size, size) for name in ("a", "b")},
    )
    calib = _write(
        root / f"calib{size}.spp",
        {name: rng.uniform(-1.0, 1.0, 12, size) for name in ("a", "b")},
    )
    x = rng.uniform(-1.0, 1.0, 48, size)
    y = x @ rng.uniform(-1.0, 1.0, size, size).T
    data = _write(root / f"data{size}.spp", {"x": x, "y": y})
    return dense, calib, data


def run_pipeline(root: Path, capsys) -> dict[str, str]:
    """Run every stage; return the sha256 of each output file and stdout."""
    digests = {}

    def run(key: str, *argv: str) -> None:
        assert main(list(argv)) == 0, key
        digests[f"{key}.stdout"] = hashlib.sha256(
            capsys.readouterr().out.encode("utf-8")
        ).hexdigest()

    def out(key: str, suffix: str = ".spp") -> str:
        return str(root / f"{key}{suffix}")

    for size in SIZES:
        dense, calib, data = _inputs(root, size)
        for label, flags in PRUNES.items():
            tag = f"{size}-{label}"
            extra = ["--calib", calib] if "wanda" in flags else []
            pruned = out(f"{tag}-pruned")
            run(f"{tag}-prune", "prune", dense, pruned, *flags, *extra)
            run(f"{tag}-verify", "verify", pruned)
            for opt in ("sgd", "adamw"):
                run(
                    f"{tag}-eq3-{opt}", "train", pruned, data, out(f"{tag}-eq3-{opt}"),
                    "--steps", "5", "--seed", "1", "--optimizer", opt,
                    "--baseline-eq3", "--run-csv", out(f"{tag}-eq3-{opt}", ".csv"),
                )
            for kind, r in (("spp", "4"), ("lora", "2")):
                key = f"{tag}-{kind}"
                run(f"{key}-attach", "attach", pruned, out(f"{key}-attached"),
                    "--r", r, "--kind", kind, "--seed", "1")
                run(f"{key}-train", "train", out(f"{key}-attached"), data,
                    out(f"{key}-trained"), "--steps", "5", "--seed", "1",
                    "--run-csv", out(f"{key}-trained", ".csv"))
                merge_flags = ["--reprune-with-original-mask"] if kind == "lora" else []
                run(f"{key}-merge", "merge", out(f"{key}-trained"),
                    out(f"{key}-merged"), *merge_flags)
                run(f"{key}-verify-merged", "verify", out(f"{key}-merged"))

    for path in sorted(root.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


PINNED = {
    "16-nm-eq3-adamw.csv": "0372abac83e04d53cff8e80af00dd927db369639cfaa236cce6cd7974d6388d0",
    "16-nm-eq3-adamw.spp": "27ebba8e0ddcc4bcfde2db98701945a899ee58401f336e38e7fb82d2d04de21b",
    "16-nm-eq3-adamw.stdout": "ae65c2ad5100bdef9642cde55f035dcc9c34113a6184031aedc0fae241b1de0c",
    "16-nm-eq3-sgd.csv": "3452334b23eb9e21564e5a27a3ed28b0ba8a0732d83e8649c5cdc120e5e4ef98",
    "16-nm-eq3-sgd.spp": "c6e46d22e5913562dfacd57dc58a498b65a1d811a96ebb030a32e8458fd50570",
    "16-nm-eq3-sgd.stdout": "8f4dd030ac376ec49d35fd131806b5fbd2aad1a16fbf470c03979c8f4c24780a",
    "16-nm-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-nm-lora-attached.spp": "d82d3b0e625abde60a6df3be9ee7dca90bfb27f78ef2107d0d217db0cf797758",
    "16-nm-lora-merge.stdout": "cd25ebafe3797a3a3908fe738c4667bfd3ebb0f21acdb252b327e5c34795b053",
    "16-nm-lora-merged.spp": "3d5b75191220f92a1a94cb2b67393bfb352172d5eab8886bf649cf53747df7b3",
    "16-nm-lora-train.stdout": "67fc2225645cc26c2953a2bb5bc33fb15111c22c1f255ad222bcde4b7f942e35",
    "16-nm-lora-trained.csv": "97193436e6601bff39be4bf297c84061d1ea7ae9a63746a8869671149b219492",
    "16-nm-lora-trained.spp": "67ac9c08b161457e3b789da2f818c1270ea01746763bef620f68431b9c1b8dc3",
    "16-nm-lora-verify-merged.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-nm-prune.stdout": "9f9f343eebc6cd7195af4ee188b3aec5cb96fbdab85f121b02840ea620fa63b6",
    "16-nm-pruned.spp": "985b1c31a6a67dca21f7d3440d4d5b3175eabfe788d3df00984aa9fc5e84cfd0",
    "16-nm-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-nm-spp-attached.spp": "366c6ab13890b503bec45520ea4d7b1ba99fd87ebdf3c5f3b730fff2a487ec7e",
    "16-nm-spp-merge.stdout": "82e35ebdd46a6f34d3329e98f49e17fc9785bc6f993723de7e2b3c122e260576",
    "16-nm-spp-merged.spp": "5dbb26e1cf81ad0efc41e63203f7ab7d9e9721f166c74debd8ef83e06f0c53c7",
    "16-nm-spp-train.stdout": "934f3f97d0b342986c3c5db8e06e2dadb6052658018ed1c132bb19f36923de5b",
    "16-nm-spp-trained.csv": "9f6f9e074b093047fdd0067c7b9849a7dfd8b6b849f381c6950ede751cf75f11",
    "16-nm-spp-trained.spp": "3b9ecfb7d886f888dbcf02eec6c9614a7ef268fe30a4356953b39010ec55702b",
    "16-nm-spp-verify-merged.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-nm-verify.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-rows-eq3-adamw.csv": "ef33718ffb79c012208c8fb2a6ef36b400172477aafb4cc7dbb205a660086407",
    "16-rows-eq3-adamw.spp": "e6ec962a76623c9f0108bc5602aec1cb3e74abb698453bb17e6055fe60bf4984",
    "16-rows-eq3-adamw.stdout": "6ddbeb31e85074a6e71e93d88c12efef37d728cbba7d09cb2edac7a66b2e8839",
    "16-rows-eq3-sgd.csv": "95b9c1052222c2368423bf81edfdbd69877a3063e25be4a153fd5f2b18fafa87",
    "16-rows-eq3-sgd.spp": "379477928a43cfd85ff6e98b0b20f737e104a211fffd79af5092af163b1dce9a",
    "16-rows-eq3-sgd.stdout": "928dcd8126fb54e9dfc5039fc3752ed484559dc429dad44fb127b9eb6f0b57be",
    "16-rows-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-rows-lora-attached.spp": "57dafac117ad08d24ff497817714c442a335faa3930c404187ec83eb11b39c9e",
    "16-rows-lora-merge.stdout": "ec1c1e5193e116f6ec86dd64f3d43edba7e6cd8b8508d2cc619b3e15daff5170",
    "16-rows-lora-merged.spp": "b48277ec553c99e7041e91a43a9cbeef75f5de2cf83196317715f24d75e6cdb8",
    "16-rows-lora-train.stdout": "9cf90afe1ab94bb4f35112774dcfb166f17a0f64fd09e3bdbdcb69e7263d5778",
    "16-rows-lora-trained.csv": "2ca88feb9735cce7634849165d7fbbba47f64caac0bca910315ca1423ece3759",
    "16-rows-lora-trained.spp": "57c97214087153d03c11ebb40706ba5c206f3d55c8590506dde1ceaca92f830b",
    "16-rows-lora-verify-merged.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-rows-prune.stdout": "61b898c0ddb598b8ba3d9e1fb140bfd8b63c10b878eb4ceec3ddd6f635f2a65b",
    "16-rows-pruned.spp": "8e8f818c854090956d46025852c466f523dd26e31e16a7d712079c96ac8195de",
    "16-rows-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-rows-spp-attached.spp": "5ae4f9c6a6798124db71144b8be456ffb309040065cd8887f669ced4e2246a16",
    "16-rows-spp-merge.stdout": "6fcbf1efc2864b1645d7cceaae8e4075c4c7f0c69abd4590655aedd35a35f6fe",
    "16-rows-spp-merged.spp": "0cbbd6b1a8e687e9a5746e0d326103ea47509b72756094003e42eb6a16a189b2",
    "16-rows-spp-train.stdout": "881e7a613b365dd51a0d5822a70450ff157fc56c102faa63b50e697a61403166",
    "16-rows-spp-trained.csv": "ba5bed4fdd443ad7c9539ebbd268f4f931254115d3aaf0dc629a4dd26192ecfe",
    "16-rows-spp-trained.spp": "d842fe025d4b989ceb5900a10acae60ebca36583de825f72d9ee3b0b86525af0",
    "16-rows-spp-verify-merged.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-rows-verify.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-wanda-eq3-adamw.csv": "119319531048e5bba54096628f9afae10ef30417b4857450bde12134d702e7f7",
    "16-wanda-eq3-adamw.spp": "cd43f3d42564ef25b3f22e3559c9fc00369e02ddf183a75c8db2aa1b592a6a24",
    "16-wanda-eq3-adamw.stdout": "46da2d651ede0de040fcb8dd405131a24174f1d6da4a058911d3ee46018ce720",
    "16-wanda-eq3-sgd.csv": "fe52ff1c4477801bca08abfdc6b76a4d3e3be6ca49e4fa72e4b774ad26876fc3",
    "16-wanda-eq3-sgd.spp": "3e0811d4bf11ccac858dbb213e79e35a045135ddd4a20f0b857f3478dccde809",
    "16-wanda-eq3-sgd.stdout": "8c6015bfa1b89a2b01f562ab3d7d006b3af166c519d37bac3737caea990f7a10",
    "16-wanda-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-wanda-lora-attached.spp": "fd140a19d1ac0e298ba05969e0e4cbdac2d898d31947fed6bb5f5e8e8d59407e",
    "16-wanda-lora-merge.stdout": "b20da6f7e26370342f19d0302b4bf3a034e6d4fb818bcbc4a1bf3aa21ce17a7b",
    "16-wanda-lora-merged.spp": "d75ab85413d547bef9ac39a960c37605610617e72258a695fa8cca6861f7ec46",
    "16-wanda-lora-train.stdout": "46ec8ae515cd43aa3bf7ad21587cc964016a9c0b19fa2190b97a8f8ba8fac062",
    "16-wanda-lora-trained.csv": "aeb84751383f90e46d6c386d37eab53ca40a3776a1bf11240bbc1d803025722c",
    "16-wanda-lora-trained.spp": "62dfe46d3cc5a587225000b74f546bb29ac5e8424a9ae4a6e748b401cbcd9c32",
    "16-wanda-lora-verify-merged.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "16-wanda-prune.stdout": "998748e58f7760ccd52e1eff2c7d91ca5cc345a74cb406ec3fbafb18bbcf3f48",
    "16-wanda-pruned.spp": "3c61a8c427ac1d361aaef399c295e8de5585bf495c10fa1e3c3e38d51ee515bb",
    "16-wanda-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-wanda-spp-attached.spp": "c4525f1c8b851ca5465e8167c08565d5cb62613d1e889bca6e5305e57d74ce43",
    "16-wanda-spp-merge.stdout": "2bdfa6e65f41a35d7cf8673808153f8c1d10ecdf7a08df02ca1c2d5cb74f935d",
    "16-wanda-spp-merged.spp": "426d8d27aa3762379989992580eed3d5064cdc3555d51d6b2eb676191c712a8c",
    "16-wanda-spp-train.stdout": "6de15f43e12b16188f15b63fffea9b3c371ed0d648c40383f9e59c32ff01ed59",
    "16-wanda-spp-trained.csv": "629a7bcfdbada74eb6ad1a31bccc1de50a08e0aaaac4033f244673223b4f206a",
    "16-wanda-spp-trained.spp": "ae264954948352f1de2b3c6c55c85412927f531935eb2ab2eddeb56afdce0b41",
    "16-wanda-spp-verify-merged.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "16-wanda-verify.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "8-nm-eq3-adamw.csv": "15a18164dd214f54cfb245e3f478e750eca1a8ab058590ef80d7cc5b969e725a",
    "8-nm-eq3-adamw.spp": "e26a699962d99d63cd1523bf0e1e63e661ca10dbfbacab8c4f0e221a7c895a0e",
    "8-nm-eq3-adamw.stdout": "a635649a26883e38eef27b19fcef2e74f744522d2c86e2697d985420ac4630ef",
    "8-nm-eq3-sgd.csv": "d8b02827ce1699ec0ce794fafb023827bd12709184717f8c4029effc8517315d",
    "8-nm-eq3-sgd.spp": "fdf4a0d1b6b78983a901c1fcdd3ec219ac1bbb200596596f3ab6c8a447be99f5",
    "8-nm-eq3-sgd.stdout": "8456c02af5bf84979b4097a926abba0779042744dce5c0741ee01ae211f6c1b0",
    "8-nm-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-nm-lora-attached.spp": "d77c512af1666ac403aef8e155178435c83f2fbd8d3482242ed4de8fb0b6c814",
    "8-nm-lora-merge.stdout": "7cb8a5cfeaa2443054073794800415cceef01be7ac617be5563e39fccd00af5c",
    "8-nm-lora-merged.spp": "0a441e75bf6d672545c5cd4198c6b92fe1caadbd9698d2ccdfdb3b58b485dd27",
    "8-nm-lora-train.stdout": "a89d285658e619d12061718a2de818df1805627cc4b5c0c0e42ff56d5a070ff3",
    "8-nm-lora-trained.csv": "55aeef5313daa265d640c352a20b231df087a8e59b8ca786e61592ed6fa92e1f",
    "8-nm-lora-trained.spp": "e71bec94cfc699ff7282330eb472fc85b3cb20191d3938f364eec994a715cc1a",
    "8-nm-lora-verify-merged.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-nm-prune.stdout": "f432359a2a831f121096488a5631f8d8716bd2cc4ebb7c2bfd2cda491755a4b3",
    "8-nm-pruned.spp": "c607dd12e0ac3972002d9c61ae86b0c7019058cc0a65f673fb6ab18ea90b76f3",
    "8-nm-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-nm-spp-attached.spp": "3326626963c53905349a71d65ac627a682e305bae8aedd3d5e78c1fc3355e3a8",
    "8-nm-spp-merge.stdout": "315813140c3383aee3049c9fa5f1489934fb5a806e3c80fb42448ede5487e7d7",
    "8-nm-spp-merged.spp": "c9d80eb5e87eaca071612fd94caee793daf197f9b6f4dfa6d8bdda5b7178ebf8",
    "8-nm-spp-train.stdout": "11eb23944682f937a3d4bc5de9620fa7b95cf1f5a26822935a0274e9b8bc2fa9",
    "8-nm-spp-trained.csv": "86d6273a156dbace7e3429bc60ae85879a8d7acfa1314ded90f4401629672b36",
    "8-nm-spp-trained.spp": "5103757706090d508bc1ec014b0f4ad7588a7283b5b49af718336726b663b929",
    "8-nm-spp-verify-merged.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-nm-verify.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-rows-eq3-adamw.csv": "2255d73c1d90fb2fa51b24a26fca9cb04aacbeeb5e072ce67320bf910aa2632d",
    "8-rows-eq3-adamw.spp": "9cf581057ade4a626d1f3673862e989db5895ac0bf6fb67fe200df2c119aa1c2",
    "8-rows-eq3-adamw.stdout": "be56042d2d11a630ae3e827f81e796f8b3447e9356b870b198034e2290230178",
    "8-rows-eq3-sgd.csv": "62f9c9b7dffd29bd9511cecc02b6ebf51112a0bcdb0030b66e75bd253f97e64a",
    "8-rows-eq3-sgd.spp": "826cee30e8809c8ddfb855417d057ee401f446cd5330163d4b21b0af5afd071f",
    "8-rows-eq3-sgd.stdout": "e343702731d0cbe2c68bc0c68149e128d26a9770d9a0e3458fb718099c887d33",
    "8-rows-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-rows-lora-attached.spp": "2318e2b02c502d0d3af39f427cd144a281d55f1185146e3079f3cd23d5c83e04",
    "8-rows-lora-merge.stdout": "7cb8a5cfeaa2443054073794800415cceef01be7ac617be5563e39fccd00af5c",
    "8-rows-lora-merged.spp": "935badbfc8f52499381f26c5e63eed580822bcb078d9df9125e9698db3a41de8",
    "8-rows-lora-train.stdout": "6348e8b9fbc5dc83b5c7ab51fba2011f7276cfd4235d311f35684810d663a379",
    "8-rows-lora-trained.csv": "7412e0a5352f0a02be5070414e8ca857c076298c616dadfbb0e307ac256477be",
    "8-rows-lora-trained.spp": "3b485d94714bd45db154152b4f4c0089fd60462866288133ed6b0c4757278139",
    "8-rows-lora-verify-merged.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-rows-prune.stdout": "657e70b678c293dc574c85defe985a043d558ee8960c1318bc9ced2b4917ed48",
    "8-rows-pruned.spp": "2c76e599d7db3f16b1d624b433a1b438ec4566d6c9d2aa0e24057e1331a4ab4b",
    "8-rows-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-rows-spp-attached.spp": "6ebf367411de8014a8b308cfc302d3a6d9ba1111ca60786279e0a10e60fd9ad8",
    "8-rows-spp-merge.stdout": "315813140c3383aee3049c9fa5f1489934fb5a806e3c80fb42448ede5487e7d7",
    "8-rows-spp-merged.spp": "029a85ba52173325bbf804475e2f6d4bee484ef1c2bb988d1a85ac5942d9e360",
    "8-rows-spp-train.stdout": "062d83451e2360373f210f0ab0fe1de1a1cdf721cc90eafc71c768aeaac9de85",
    "8-rows-spp-trained.csv": "c7d877a6bc5eb441f6c32f990a3252ba490bbb9dad77aed15be5b22a27071e8d",
    "8-rows-spp-trained.spp": "213a09fe1e47efc2a746e0dd7145da65df85099b20012f3802ef3f47adb99e6a",
    "8-rows-spp-verify-merged.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-rows-verify.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-wanda-eq3-adamw.csv": "547bbf22ab93ae2f4a8c7236e1875d074ba27d060f8b7e0b35e5d2153e610976",
    "8-wanda-eq3-adamw.spp": "851135122bc2f0af20494d3b94cdc60940ee16a36f181264638442ddf137453c",
    "8-wanda-eq3-adamw.stdout": "33121a33acb06b1bb27a4fc5bd12272caf16e8528a9bd19f11e5621968b7409a",
    "8-wanda-eq3-sgd.csv": "129122fe24b0819652a95cb74ee1c4355ceb3035a49a71447146a834f8b3337d",
    "8-wanda-eq3-sgd.spp": "b94caf5527612a81f86145f94e047bc66943e54218fba15765cc026939f53bb7",
    "8-wanda-eq3-sgd.stdout": "12349c84e7aada9077f316059a943753d3097e0951d7a7a4de66e2bba06cad41",
    "8-wanda-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-wanda-lora-attached.spp": "f52359f1f2a572f62995331e1bcf4a37e28d679338e31d7b2523d765dbdce11b",
    "8-wanda-lora-merge.stdout": "584c069cabde5390c836e6519f74a91e013218aed74f73ffe8e1ca52be561b5d",
    "8-wanda-lora-merged.spp": "073fcd1b9bf261ce7cb639985f9ad7b6f6c5b47e20bac722a454e3fc7009050c",
    "8-wanda-lora-train.stdout": "7bbeb279220557a3c998f75fb27dc1ec7366c28477311b0035a59ce6d3910171",
    "8-wanda-lora-trained.csv": "99397873442413342eee681ed7f7325c8960b241f7eef9d8cd6b346861cd72b6",
    "8-wanda-lora-trained.spp": "b4ff862a6377a709c357fa8c0c829cd6d2267e009433a3be2838cb63a02e8bc9",
    "8-wanda-lora-verify-merged.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "8-wanda-prune.stdout": "29e924ce33bb6a50ca300ddc352148080ef088944893c0a6cd317bff0df89f34",
    "8-wanda-pruned.spp": "7316f73f97f3c7873ba444067367e1447eda2c757b3f987b654e0993a85e5c7d",
    "8-wanda-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-wanda-spp-attached.spp": "1b9ec672d25539d22cc119ff6eacdcd2919737a061028130029ee6c76f89694f",
    "8-wanda-spp-merge.stdout": "f19da6cdb772649762bab3b5432c5c154198e14334f31a53199a543a9e5abccc",
    "8-wanda-spp-merged.spp": "291b6462d51e461f881eb5c0aecd6239b5d9778d3e617d7ea770a4c442b4ac84",
    "8-wanda-spp-train.stdout": "5accda71c36229f77ff10ba40080f3c25fac3875fc1241a86fbb43d89055dd68",
    "8-wanda-spp-trained.csv": "c970a81f4f3997b7c591910a4079b011ac069b01b8b6a7f36ed603653fd6e687",
    "8-wanda-spp-trained.spp": "967cb159453d1e996b3b18e3cbe407aab7d44abe462dde642afdc645ea24b36b",
    "8-wanda-spp-verify-merged.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "8-wanda-verify.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "calib16.spp": "0866df528e9b1e7d2949441d9f85edceba67145e4f87314a1ae2eae521c236e3",
    "calib8.spp": "bb0d5253d9cf358ad012a61c0fd908327facd9b922baa756e264f7e8ccd7d2da",
    "data16.spp": "26507f26f05a5fb8b4f854b53a56811d5669803c0cd94fbdee791cfb5baf1977",
    "data8.spp": "54ca3c91c903cc247eab9d877aa82dafebe16f3c510aa3726760ab537b65359f",
    "dense16.spp": "b5fd31fcf2daee2d32f5d818b5f9d9bd5fbeb41aaf19282cc554bb37720e7417",
    "dense8.spp": "649f9731a9cbd62fe4fb7bb6fd1ff9773f4ea3d9ed2b80ffaaf0218dc2d55ede",
}


def test_pipeline_outputs_are_pinned(tmp_path, capsys):
    digests = run_pipeline(tmp_path, capsys)
    changed = sorted(k for k in digests.keys() | PINNED.keys() if digests.get(k) != PINNED.get(k))
    assert not changed, f"outputs differ from their pins: {changed}"
