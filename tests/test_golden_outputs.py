"""Byte-level pins of every output of a small CLI pipeline.

The pipeline prunes two small models with 2:4, Wanda 75% and row-wise 60%,
attaches SPP and LoRA adapters, trains them for five steps, retrains the
masked weights directly with SGD and with AdamW (``--baseline-eq3``), merges,
and verifies.  Every store, run CSV and printed line is hashed, and the
hashes are pinned: a change that claims to keep outputs byte-identical must
keep this test passing without touching ``PINNED``.

Each store is also pinned by what it decodes to (``DECODED``): every
tensor's name, dtype, shape and bytes as ``store_read`` returns them, in
file order.  A change of the on-disk encoding moves the file pins, but must
leave these untouched.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from spp import Rng, TensorStore, store_read, store_write
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


def decoded_digest(path: Path) -> str:
    """sha256 over each tensor's name, dtype, shape and decoded bytes, in file order."""
    h = hashlib.sha256()
    for name, arr in store_read(path).items():
        h.update(repr((name, arr.dtype.str, arr.shape)).encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def run_pipeline(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Run every stage; return the sha256 of each output file and stdout,
    and the decoded digest of each store."""
    digests = {}

    def run(key: str, *argv: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, key
        digests[f"{key}.stdout"] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()

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

    decoded = {}
    for path in sorted(root.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".spp":
            decoded[path.name] = decoded_digest(path)
    return digests, decoded


PINNED = {
    "16-nm-eq3-adamw.csv": "0372abac83e04d53cff8e80af00dd927db369639cfaa236cce6cd7974d6388d0",
    "16-nm-eq3-adamw.spp": "a9e2cac7710d23761936cdf82c72731f71da7d2b2c5c60483817b8efced1843b",
    "16-nm-eq3-adamw.stdout": "ae65c2ad5100bdef9642cde55f035dcc9c34113a6184031aedc0fae241b1de0c",
    "16-nm-eq3-sgd.csv": "3452334b23eb9e21564e5a27a3ed28b0ba8a0732d83e8649c5cdc120e5e4ef98",
    "16-nm-eq3-sgd.spp": "ffa6bf0799d00d38ca9b7f6e46e1517714962a1598b6506bfdf64dce1fa92492",
    "16-nm-eq3-sgd.stdout": "8f4dd030ac376ec49d35fd131806b5fbd2aad1a16fbf470c03979c8f4c24780a",
    "16-nm-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-nm-lora-attached.spp": "9f7f1221c2050c5d90a602894cd06b72cfefea471b02d22ff57a1ed9dbfaacb9",
    "16-nm-lora-merge.stdout": "cd25ebafe3797a3a3908fe738c4667bfd3ebb0f21acdb252b327e5c34795b053",
    "16-nm-lora-merged.spp": "fbcd99bac0df792d82d2b1fb1e97067a5c8fb57b81749b4fd7205ee16b054db7",
    "16-nm-lora-train.stdout": "67fc2225645cc26c2953a2bb5bc33fb15111c22c1f255ad222bcde4b7f942e35",
    "16-nm-lora-trained.csv": "97193436e6601bff39be4bf297c84061d1ea7ae9a63746a8869671149b219492",
    "16-nm-lora-trained.spp": "a7aa44647b35c7c506871f8414b80c008fa1c6ab06df6ff7734cf61bd38c24aa",
    "16-nm-lora-verify-merged.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-nm-prune.stdout": "9f9f343eebc6cd7195af4ee188b3aec5cb96fbdab85f121b02840ea620fa63b6",
    "16-nm-pruned.spp": "df02ff943b7973e800947f5c365e3009f8a0dc84677ba6fa243f074177f89306",
    "16-nm-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-nm-spp-attached.spp": "3a3d12365e11335c9007083ca2665d597c9fe2676bd5a6983ad2b27c61f855a7",
    "16-nm-spp-merge.stdout": "82e35ebdd46a6f34d3329e98f49e17fc9785bc6f993723de7e2b3c122e260576",
    "16-nm-spp-merged.spp": "195dc6a08b5a4324999f4dd110ca9bc0a2f27bb191bdc3211e4cbd0467a8f440",
    "16-nm-spp-train.stdout": "934f3f97d0b342986c3c5db8e06e2dadb6052658018ed1c132bb19f36923de5b",
    "16-nm-spp-trained.csv": "9f6f9e074b093047fdd0067c7b9849a7dfd8b6b849f381c6950ede751cf75f11",
    "16-nm-spp-trained.spp": "ed0053aabb2904233091660282d0fde1c3802f089ee7dc75aae3153c5a9a49cb",
    "16-nm-spp-verify-merged.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-nm-verify.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-rows-eq3-adamw.csv": "ef33718ffb79c012208c8fb2a6ef36b400172477aafb4cc7dbb205a660086407",
    "16-rows-eq3-adamw.spp": "a86a302ea2682a83fcee976014132bda5b348d804c0c209aecd16af3f6326607",
    "16-rows-eq3-adamw.stdout": "6ddbeb31e85074a6e71e93d88c12efef37d728cbba7d09cb2edac7a66b2e8839",
    "16-rows-eq3-sgd.csv": "95b9c1052222c2368423bf81edfdbd69877a3063e25be4a153fd5f2b18fafa87",
    "16-rows-eq3-sgd.spp": "e9ffa91c5fdd734e46e20583d114522a31f1a38b8498d2b6d89436023639a2c8",
    "16-rows-eq3-sgd.stdout": "928dcd8126fb54e9dfc5039fc3752ed484559dc429dad44fb127b9eb6f0b57be",
    "16-rows-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-rows-lora-attached.spp": "022b98a318ad238db2326a76ff8961b26cdea5269448596622a164b14a87fee9",
    "16-rows-lora-merge.stdout": "ec1c1e5193e116f6ec86dd64f3d43edba7e6cd8b8508d2cc619b3e15daff5170",
    "16-rows-lora-merged.spp": "11fb342be51680dc0cfa5e7cd621e7983c4ffc8e8419a8fec6c1ee40ea906691",
    "16-rows-lora-train.stdout": "9cf90afe1ab94bb4f35112774dcfb166f17a0f64fd09e3bdbdcb69e7263d5778",
    "16-rows-lora-trained.csv": "2ca88feb9735cce7634849165d7fbbba47f64caac0bca910315ca1423ece3759",
    "16-rows-lora-trained.spp": "7a05af2c81adeb76ac2722ca072cef982c96a763f2256ea3feaf1b23cec2e8ce",
    "16-rows-lora-verify-merged.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-rows-prune.stdout": "61b898c0ddb598b8ba3d9e1fb140bfd8b63c10b878eb4ceec3ddd6f635f2a65b",
    "16-rows-pruned.spp": "17d746e4b6ffedb87b97771f9898627559ab5b5287494a9eae171be5f14b6194",
    "16-rows-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-rows-spp-attached.spp": "10bb9747f7016f6124cf57bd5ea161118e33647870a195a711d24e024d99d8ed",
    "16-rows-spp-merge.stdout": "6fcbf1efc2864b1645d7cceaae8e4075c4c7f0c69abd4590655aedd35a35f6fe",
    "16-rows-spp-merged.spp": "830d7fb95b3f3621907a5afea02ff04f975a6cb23aee3a5c0946eaf9442f59fc",
    "16-rows-spp-train.stdout": "881e7a613b365dd51a0d5822a70450ff157fc56c102faa63b50e697a61403166",
    "16-rows-spp-trained.csv": "ba5bed4fdd443ad7c9539ebbd268f4f931254115d3aaf0dc629a4dd26192ecfe",
    "16-rows-spp-trained.spp": "a1ceae77bcb8ba6b04a6ec7e727a04365cd4ebcc536e465f40746b51c37c9b2e",
    "16-rows-spp-verify-merged.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-rows-verify.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-wanda-eq3-adamw.csv": "119319531048e5bba54096628f9afae10ef30417b4857450bde12134d702e7f7",
    "16-wanda-eq3-adamw.spp": "3628dcdb35b9eb8f2faee27c5bceadc345a63db036228e80c001d31231411265",
    "16-wanda-eq3-adamw.stdout": "46da2d651ede0de040fcb8dd405131a24174f1d6da4a058911d3ee46018ce720",
    "16-wanda-eq3-sgd.csv": "fe52ff1c4477801bca08abfdc6b76a4d3e3be6ca49e4fa72e4b774ad26876fc3",
    "16-wanda-eq3-sgd.spp": "49a4646e547626daaf2fbb706f0e5c98bd082435747f349f7e77732f322b9614",
    "16-wanda-eq3-sgd.stdout": "8c6015bfa1b89a2b01f562ab3d7d006b3af166c519d37bac3737caea990f7a10",
    "16-wanda-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-wanda-lora-attached.spp": "6040e0d6dc36bae38df05f0292bde864e835004143bd58de49c283ed146b0b04",
    "16-wanda-lora-merge.stdout": "b20da6f7e26370342f19d0302b4bf3a034e6d4fb818bcbc4a1bf3aa21ce17a7b",
    "16-wanda-lora-merged.spp": "e5e0018183f41bdaa100071212f321ec66c58af28eaf9efba7f8758f9c36cd9e",
    "16-wanda-lora-train.stdout": "46ec8ae515cd43aa3bf7ad21587cc964016a9c0b19fa2190b97a8f8ba8fac062",
    "16-wanda-lora-trained.csv": "aeb84751383f90e46d6c386d37eab53ca40a3776a1bf11240bbc1d803025722c",
    "16-wanda-lora-trained.spp": "142fae1a3151ec1882be55cea8f68e065c80d6ab1166e4763fb39d3eba82b7cd",
    "16-wanda-lora-verify-merged.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "16-wanda-prune.stdout": "998748e58f7760ccd52e1eff2c7d91ca5cc345a74cb406ec3fbafb18bbcf3f48",
    "16-wanda-pruned.spp": "15c3a1e56779dda9edfb6e74077ab0e8f63d7fda9e21cfa7f760a8bf8de71b33",
    "16-wanda-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-wanda-spp-attached.spp": "8a39aca92223b3099bb0f8813a809f4341f48b47fc2b28aa12db7c9759384d3d",
    "16-wanda-spp-merge.stdout": "2bdfa6e65f41a35d7cf8673808153f8c1d10ecdf7a08df02ca1c2d5cb74f935d",
    "16-wanda-spp-merged.spp": "48739e28e3851010fd6109a5bc94a6abf006024558184c4ea69210b12c82a7c8",
    "16-wanda-spp-train.stdout": "6de15f43e12b16188f15b63fffea9b3c371ed0d648c40383f9e59c32ff01ed59",
    "16-wanda-spp-trained.csv": "629a7bcfdbada74eb6ad1a31bccc1de50a08e0aaaac4033f244673223b4f206a",
    "16-wanda-spp-trained.spp": "27136f79ec259aca4fc1f8ed00a4a9899bdc1a11747a54a4b7f5ae62573d14fb",
    "16-wanda-spp-verify-merged.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "16-wanda-verify.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "8-nm-eq3-adamw.csv": "15a18164dd214f54cfb245e3f478e750eca1a8ab058590ef80d7cc5b969e725a",
    "8-nm-eq3-adamw.spp": "fe1c8b85927c38f42190ad743c490478379801f6c2cf9b58b225174194c81041",
    "8-nm-eq3-adamw.stdout": "a635649a26883e38eef27b19fcef2e74f744522d2c86e2697d985420ac4630ef",
    "8-nm-eq3-sgd.csv": "d8b02827ce1699ec0ce794fafb023827bd12709184717f8c4029effc8517315d",
    "8-nm-eq3-sgd.spp": "69ce08df13ac5f50e6369419cedd16f31ea970caa4a424a7f60679c3d917a307",
    "8-nm-eq3-sgd.stdout": "8456c02af5bf84979b4097a926abba0779042744dce5c0741ee01ae211f6c1b0",
    "8-nm-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-nm-lora-attached.spp": "7ff235f8a40c5c88b4effe102a2d865ea00d2b15c4940bf3fe5b8c43f510099e",
    "8-nm-lora-merge.stdout": "7cb8a5cfeaa2443054073794800415cceef01be7ac617be5563e39fccd00af5c",
    "8-nm-lora-merged.spp": "22bd168de623e2530701aaca30571df7eb8c6997da17a9ae910b30c36adf0f6d",
    "8-nm-lora-train.stdout": "a89d285658e619d12061718a2de818df1805627cc4b5c0c0e42ff56d5a070ff3",
    "8-nm-lora-trained.csv": "55aeef5313daa265d640c352a20b231df087a8e59b8ca786e61592ed6fa92e1f",
    "8-nm-lora-trained.spp": "b96f6c1469f5a428f1f14a74ab575bcfd9d7e2b8eb39b8395fae9cb6a9839855",
    "8-nm-lora-verify-merged.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-nm-prune.stdout": "f432359a2a831f121096488a5631f8d8716bd2cc4ebb7c2bfd2cda491755a4b3",
    "8-nm-pruned.spp": "7179573d0dbc3d11fe6d270f5f50473e6d3b1c40dc6cf0cd722a3441211fdbf7",
    "8-nm-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-nm-spp-attached.spp": "45570796d90c0a7c3e538557d4db1f1fee8794ae13579d25400ec619ef9b6886",
    "8-nm-spp-merge.stdout": "315813140c3383aee3049c9fa5f1489934fb5a806e3c80fb42448ede5487e7d7",
    "8-nm-spp-merged.spp": "03f72c39828425b126289c124d988d40ac092f741915c51fff0da77dee27e7a3",
    "8-nm-spp-train.stdout": "11eb23944682f937a3d4bc5de9620fa7b95cf1f5a26822935a0274e9b8bc2fa9",
    "8-nm-spp-trained.csv": "86d6273a156dbace7e3429bc60ae85879a8d7acfa1314ded90f4401629672b36",
    "8-nm-spp-trained.spp": "3d0c650a8971236c6c6a13ce1ab2d5db4b65031e5e815be52587daa4e7b3a673",
    "8-nm-spp-verify-merged.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-nm-verify.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-rows-eq3-adamw.csv": "2255d73c1d90fb2fa51b24a26fca9cb04aacbeeb5e072ce67320bf910aa2632d",
    "8-rows-eq3-adamw.spp": "ce86029b806c3e314ab7ec5d5a1044737458a7f00b113b3b3d031c40b2e3fd8a",
    "8-rows-eq3-adamw.stdout": "be56042d2d11a630ae3e827f81e796f8b3447e9356b870b198034e2290230178",
    "8-rows-eq3-sgd.csv": "62f9c9b7dffd29bd9511cecc02b6ebf51112a0bcdb0030b66e75bd253f97e64a",
    "8-rows-eq3-sgd.spp": "ae83a00f26c3cc8a0fe838c03450797ff48abc5adf7576ea1d4b1f806f9ba289",
    "8-rows-eq3-sgd.stdout": "e343702731d0cbe2c68bc0c68149e128d26a9770d9a0e3458fb718099c887d33",
    "8-rows-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-rows-lora-attached.spp": "92a47fb867fa74f87c4882f8802dcecf0893ce3fbe749bc09c95c2e7a1517328",
    "8-rows-lora-merge.stdout": "7cb8a5cfeaa2443054073794800415cceef01be7ac617be5563e39fccd00af5c",
    "8-rows-lora-merged.spp": "8caf811b3192285db8683f113958c0b2bca865d5d76e9a91dd6b85f6ca6607d6",
    "8-rows-lora-train.stdout": "6348e8b9fbc5dc83b5c7ab51fba2011f7276cfd4235d311f35684810d663a379",
    "8-rows-lora-trained.csv": "7412e0a5352f0a02be5070414e8ca857c076298c616dadfbb0e307ac256477be",
    "8-rows-lora-trained.spp": "b5a52327973dd61a47e1c2e4233e9dff7028723a225377ee53cf3672b1259581",
    "8-rows-lora-verify-merged.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-rows-prune.stdout": "657e70b678c293dc574c85defe985a043d558ee8960c1318bc9ced2b4917ed48",
    "8-rows-pruned.spp": "5f0e10897f340c87d659f9ee6fabb9d9fa1079eda063cc91be91b76502b096b8",
    "8-rows-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-rows-spp-attached.spp": "6c2c3338f740301d5e6f3f18cf04d217304432ae12d9a5c75d0fd68acdd7873e",
    "8-rows-spp-merge.stdout": "315813140c3383aee3049c9fa5f1489934fb5a806e3c80fb42448ede5487e7d7",
    "8-rows-spp-merged.spp": "a8530b0466fe6e9d5644306e623dc5d2af22f167677d999dcbcdfd8700d89cce",
    "8-rows-spp-train.stdout": "062d83451e2360373f210f0ab0fe1de1a1cdf721cc90eafc71c768aeaac9de85",
    "8-rows-spp-trained.csv": "c7d877a6bc5eb441f6c32f990a3252ba490bbb9dad77aed15be5b22a27071e8d",
    "8-rows-spp-trained.spp": "c9f2c94e88544fe28fd718af033e23f48941e80b67debc3e10f5306d5f31b257",
    "8-rows-spp-verify-merged.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-rows-verify.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-wanda-eq3-adamw.csv": "547bbf22ab93ae2f4a8c7236e1875d074ba27d060f8b7e0b35e5d2153e610976",
    "8-wanda-eq3-adamw.spp": "dc9e685ae5fe204c59910f2563eced68b8677ea746f97ed864f977d3de56bce6",
    "8-wanda-eq3-adamw.stdout": "33121a33acb06b1bb27a4fc5bd12272caf16e8528a9bd19f11e5621968b7409a",
    "8-wanda-eq3-sgd.csv": "129122fe24b0819652a95cb74ee1c4355ceb3035a49a71447146a834f8b3337d",
    "8-wanda-eq3-sgd.spp": "60b73327f7c71d69db1edef684897e21b6b223add7b318faf473fa8a663ac58b",
    "8-wanda-eq3-sgd.stdout": "12349c84e7aada9077f316059a943753d3097e0951d7a7a4de66e2bba06cad41",
    "8-wanda-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-wanda-lora-attached.spp": "75b05d4bbdcb3eb267e5b22f02f771d7e94b2c007833776a4f5372a9a0e59f7f",
    "8-wanda-lora-merge.stdout": "584c069cabde5390c836e6519f74a91e013218aed74f73ffe8e1ca52be561b5d",
    "8-wanda-lora-merged.spp": "9989ae3554f73a945e72b62a5c3558f2c2e3f90029400eb99beec410c32c2a0d",
    "8-wanda-lora-train.stdout": "7bbeb279220557a3c998f75fb27dc1ec7366c28477311b0035a59ce6d3910171",
    "8-wanda-lora-trained.csv": "99397873442413342eee681ed7f7325c8960b241f7eef9d8cd6b346861cd72b6",
    "8-wanda-lora-trained.spp": "b02eab3335092745394956ed341de7e8beef3ddfb0db1d34ea13202951a8f614",
    "8-wanda-lora-verify-merged.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "8-wanda-prune.stdout": "29e924ce33bb6a50ca300ddc352148080ef088944893c0a6cd317bff0df89f34",
    "8-wanda-pruned.spp": "97f6f0e85e4659b507838aa738446228ec9a9b4e83b40e29646af9e77cb85362",
    "8-wanda-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-wanda-spp-attached.spp": "2176164311bcd138eb15577122a9a15ac40c2aeb7f79c34b124121499521c98b",
    "8-wanda-spp-merge.stdout": "f19da6cdb772649762bab3b5432c5c154198e14334f31a53199a543a9e5abccc",
    "8-wanda-spp-merged.spp": "882facdb89680fc2e4dbc7260784fff715af77a45993ad58de0dae4f71a01ac9",
    "8-wanda-spp-train.stdout": "5accda71c36229f77ff10ba40080f3c25fac3875fc1241a86fbb43d89055dd68",
    "8-wanda-spp-trained.csv": "c970a81f4f3997b7c591910a4079b011ac069b01b8b6a7f36ed603653fd6e687",
    "8-wanda-spp-trained.spp": "1c1ad3e3709362aaeeae606723fc66380a17569c45f6b5fee6e34cf0b6f41a39",
    "8-wanda-spp-verify-merged.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "8-wanda-verify.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "calib16.spp": "862dfb19d6360488f652880c415cbb6692dbf969a883ea300f353f8111031ea0",
    "calib8.spp": "541cced0683be5f2445539b399d37d4a330565ffed213d528fb2cc38bc371cbc",
    "data16.spp": "7acc09018365a9b8517e235de231511b1eb34b3945618921647a105a76324b7a",
    "data8.spp": "461c3889a1ccca98971dbd766ed1ae20dd36d7ac153064a84ecfac3668a442b6",
    "dense16.spp": "d1b987f63ed3f3bc637fd4df40a44a46d72845fc2ee4bcef218ba9984b1453d0",
    "dense8.spp": "b9cea9ef3720ea232e22169dd20bde1547299aef4b12459a320eb3dfbd062f02",
}

DECODED = {
    "16-nm-eq3-adamw.spp": "ebb4464341298f098970a2fddba4b30b5dea610f8e4c2a5ee28df0507b4c7a9f",
    "16-nm-eq3-sgd.spp": "1730ba06223027b80b26652d1851c0d71d4d4875efddd3cfaac2fb00ed5eaa9f",
    "16-nm-lora-attached.spp": "2cd19391111b44259033716adec64ac4e8fcc69bb5b6ece948d0953a04703d04",
    "16-nm-lora-merged.spp": "ed847c7f3978451227bdc4ea1a9a303a498e204e5042854d0389174d61fb5e9f",
    "16-nm-lora-trained.spp": "d308d78096554874e79411894b9850bdb866586737d3dedb3b776c6718873d72",
    "16-nm-pruned.spp": "91ec11defea480fb92eb79e10f3f052ae82c810fc76ac83875470b60e1809bcb",
    "16-nm-spp-attached.spp": "9be3426f669339cccad274518cd4d1615d89c28aa410e1f31e6dac38b4ae1afb",
    "16-nm-spp-merged.spp": "0a684996a744cd45facebcadef7f9c78bbe33db147da79cde004d5147d5c5fac",
    "16-nm-spp-trained.spp": "5d80cb8eda687272460da3b18a8cecc53d96100d570da509657336640ab32b8f",
    "16-rows-eq3-adamw.spp": "e23970b161d80fea750b131779c99d69d25f94af09b3b79f6aaf5649e83af5ed",
    "16-rows-eq3-sgd.spp": "8e3ac891cfae5de65b28acf5df432ef883cf2553acb765cb1f00cd9a3c435835",
    "16-rows-lora-attached.spp": "b7fa59fd24722bf778d4a2af32d43bffee4abf76b1377a1cc328b09ad0840f00",
    "16-rows-lora-merged.spp": "f1d3481157670945e3d6743e1170a9b19ccab5af8e0b769fe77e60a02c36be2d",
    "16-rows-lora-trained.spp": "02e92d01ef16c6cd038e893a0e557c94afc408364b7ca5d446154ff3d167e38c",
    "16-rows-pruned.spp": "fc35ee4ce20d8aa5894c8960877a31e82001c3b3c2bbdc686768a0d10608e61c",
    "16-rows-spp-attached.spp": "41529b2fb6566a38993ae9b48cf1706aee26811c69b05cab99bdddfde4cecaae",
    "16-rows-spp-merged.spp": "8bbf7a01f6351a9a00c38fa19caf9a3a91457fd259536cf7a41fc671b3c9b96a",
    "16-rows-spp-trained.spp": "e8f9ca9b3adac77c5e57ab1490e252df04b21e5a12b3050c755b24ae87f64d3f",
    "16-wanda-eq3-adamw.spp": "5a605a4739d8b9771500c837522268095357d1a409a6e3107ef8015b44000f39",
    "16-wanda-eq3-sgd.spp": "c2ddef6a44ef173235affdad4eed94a2e865de09efe42615c7ee59cb573e2f1d",
    "16-wanda-lora-attached.spp": "d2373e9884b7b104de14858f3da39bde8c88cf34abb3a35c4ba7bc0cb35c04b9",
    "16-wanda-lora-merged.spp": "4cc035ee2b3f32fdc03a9e115c9b189f4102e9a54b8d1ae85aaac957f374ff44",
    "16-wanda-lora-trained.spp": "e655e2e8d01182a916b418b4616c158ac9efcf8c006dc6e7abae7f33306549af",
    "16-wanda-pruned.spp": "982f9a28f2f4eaf4969ca871aea03f51ed645f79d351323f402d11af98d30073",
    "16-wanda-spp-attached.spp": "f833cf7aef3468358bd7bf4c9f523403f9a77bc407f2d8a9117c0dd4ce37d36f",
    "16-wanda-spp-merged.spp": "2b995bf8c7251685a7b4c9dae37dbcb891581ab9c2dc7230d2a124b1c305ee38",
    "16-wanda-spp-trained.spp": "d0573ae39b73fc34731df220d1363ade7c9bc7cee6723444a9d91c1fcba3a29a",
    "8-nm-eq3-adamw.spp": "bdf31626c4ae2e83d75bf2eb625024b9baea2a969ac0c5765a497ffe185370ca",
    "8-nm-eq3-sgd.spp": "50e8179e61f4b0b1cdb4800789e0f6e0a77f6350c4a543068ac6108503e2a573",
    "8-nm-lora-attached.spp": "b0bc05f0b5b2b8afd48f2756a2574ce54cb6a60265494b79ce177c0455be9a6b",
    "8-nm-lora-merged.spp": "03dd527f3aea15bf085123620bb765f3158e9a73efb789cae6c73f3cadd07fdf",
    "8-nm-lora-trained.spp": "f4f2f6ed1aa1e16920a70cc5b04db82e1b88db798bccbc7197f20384b892baa2",
    "8-nm-pruned.spp": "16d4f3c3e525ca8f4c1d10c99a86a79ed5e5d44a1eee6fc5919e6300d0fd831f",
    "8-nm-spp-attached.spp": "0af90eb9b7e4905ceebaf508e2cfb456d93bc76b82f7e8e583c48d1e3b5018e0",
    "8-nm-spp-merged.spp": "af4e78b7bc18a91d605b92f5bfa52cc44df6968d063217009ea9719691975ff5",
    "8-nm-spp-trained.spp": "99b6531fc9d2129232dda7ff0eb01b9a7cdc797c544295bcdbbbf721b12ada00",
    "8-rows-eq3-adamw.spp": "dfd957c90e4fb0ec625fa3efe5b97846e3630a0312162d221c551ce47c24ccd5",
    "8-rows-eq3-sgd.spp": "bda794cf4ee7974080c2b0cbc2f802c0bfad5a24eeed82fa2fcae16299780b6c",
    "8-rows-lora-attached.spp": "9a7dfa146c02ab1d9f4eb74f340e99702514d2b696bdef70ff0d7848e299edc0",
    "8-rows-lora-merged.spp": "32df1a2fdcb11f409e370c9dac98d2462a6051b8b9f2c0e02fd9776a9b0ee0d9",
    "8-rows-lora-trained.spp": "66b269ecbef0e55a0da77871e9177c9357c3e1152fbdc9e49f20ef7bbc6a07f4",
    "8-rows-pruned.spp": "e1fb27d592ac4423db352cba6716db609beb6670121c94b9f13c8f3c8396bcc3",
    "8-rows-spp-attached.spp": "dc278e71f14705a0e5d6965381678916f575732ed8c656be21a54ce1746e9430",
    "8-rows-spp-merged.spp": "56fd7968d64e3b67ccf3990756d846fa5b87fffbb6ba06e10a112e82a44ae249",
    "8-rows-spp-trained.spp": "7475a2892e9c06d3a56247938e9aec93bd0e09e9b2da05978bbf168e179b240d",
    "8-wanda-eq3-adamw.spp": "217bf4f7f35750afb43503861639d7e0bc51f5dee0b928d15ff7bfb40255d12f",
    "8-wanda-eq3-sgd.spp": "2f91af01632360e1634acdce8b1b7e96f3ea3cc069466805637c20580946ab17",
    "8-wanda-lora-attached.spp": "87dab9b798573e14c99a4252151dd363ba13a646d627b5d6af31cae9b26cc66d",
    "8-wanda-lora-merged.spp": "ee601fb5acd9ca323d2e4a0c9edd1270e3c3e559022660a1150d76be2306cf1f",
    "8-wanda-lora-trained.spp": "6068ae86cd025f80826418a42f09ffb0d0c11bd459211211ac0dd7946f864bd0",
    "8-wanda-pruned.spp": "2e6a9d05d4cd27aa096c2e139f76f22b9d5528a85be11194965bf308d826d3c7",
    "8-wanda-spp-attached.spp": "6cd9633ad45854fd335286b84dedf46e7498e89870f9ba35256fe312dcbea46d",
    "8-wanda-spp-merged.spp": "9819de3ee29acc7ea8696e6e10a31721ec6520919dc3d9b296204658ff5bf502",
    "8-wanda-spp-trained.spp": "519aa7fc6edbc27d5b2f074d648d4e229f39efefdc69c77bab3e6764069491df",
    "calib16.spp": "b249514b7c0a0caaacded2f07f374a884072f3147b181cd6af1e6f7b391befa5",
    "calib8.spp": "1e35bb5bb1b426e5245b43368632e5a1c180f7958c3d99b2329806f3777fec05",
    "data16.spp": "29ff87d066d205e51d2d9d887774a42c84c331a81e974504f1c53a61285f757e",
    "data8.spp": "0df469e807af78c9b847acd410ff633d09796482ffa54cb6a7d39193cee45ca8",
    "dense16.spp": "126a1ea5f25e3fde9500eab654d763b93a4c7504d1ccd0f046ea70611c43b8ec",
    "dense8.spp": "684682e88ec1d8befe6c7756cc0a40f5cd2f9c4a248f6e722044cbdd6fbbd2ac",
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("pipeline"))


def _changed(digests: dict, pinned: dict) -> list[str]:
    return sorted(k for k in digests.keys() | pinned.keys() if digests.get(k) != pinned.get(k))


def test_pipeline_outputs_are_pinned(pipeline):
    changed = _changed(pipeline[0], PINNED)
    assert not changed, f"outputs differ from their pins: {changed}"


def test_pipeline_stores_decode_to_pinned_content(pipeline):
    changed = _changed(pipeline[1], DECODED)
    assert not changed, f"decoded stores differ from their pins: {changed}"
