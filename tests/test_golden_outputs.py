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
    "16-nm-eq3-adamw.csv": "3aaaef78c32258e8972de79e95cf2b50bab3158cc6f400098697ade9c178daa7",
    "16-nm-eq3-adamw.spp": "ad08f17b0d7edb2b65fa4471de0cd0d1edb226c8fa063e42f50c40b20b02260a",
    "16-nm-eq3-adamw.stdout": "1f14d04e0388c4dd2870d441aa17bd33581d550376eb54032da1fe7c8ee132e4",
    "16-nm-eq3-sgd.csv": "8c056fe4d79b957a1c9f8c4332b169c02b47ef352a70681352ff81f595146590",
    "16-nm-eq3-sgd.spp": "b9fedb061726df0fa49926c7e814469ed465abfa97dbfb2a9880079664c58455",
    "16-nm-eq3-sgd.stdout": "520cae6944ac07950bf4b6e748be39bbcf8f2043845605e8f69662a20b70643f",
    "16-nm-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-nm-lora-attached.spp": "bed0060395ba44dbc8790e1f72f02ec9feee7517bd1222e5bfd166bff1b0570d",
    "16-nm-lora-merge.stdout": "cd25ebafe3797a3a3908fe738c4667bfd3ebb0f21acdb252b327e5c34795b053",
    "16-nm-lora-merged.spp": "985f6c0224d7ecbc530d7646f2ba0da81e60a820ca04de06905c13ea3d264a19",
    "16-nm-lora-train.stdout": "59a826d4082bb65d17a7ab379349fce77bfc8b9e9eda6aed71a42273f5991262",
    "16-nm-lora-trained.csv": "4a13788ccd397396f5ed66ffb7a21f9097c5eb3a7c53605d792251ec87a71235",
    "16-nm-lora-trained.spp": "13ce89c42e98e578008e109c1e77935a1cb424e383d00128d80e3c7fa683892a",
    "16-nm-lora-verify-merged.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-nm-prune.stdout": "9f9f343eebc6cd7195af4ee188b3aec5cb96fbdab85f121b02840ea620fa63b6",
    "16-nm-pruned.spp": "573816110eb5759b9013a59e04a6d3f003e28e3fa4b30a1c0f5ff5fe666c9fa9",
    "16-nm-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-nm-spp-attached.spp": "62520c1d68a1ebb4c3a8685de680aab6f8494f3cd31d1dbf9438078ae788bcf2",
    "16-nm-spp-merge.stdout": "82e35ebdd46a6f34d3329e98f49e17fc9785bc6f993723de7e2b3c122e260576",
    "16-nm-spp-merged.spp": "542d60c09c4a01962b60ab8527e63e439ea8b41eaf7fa0d7ab59531e43557897",
    "16-nm-spp-train.stdout": "6683a94cb21a9d35436b23c8505fea1cd537f49e1d865e67480e72122e1f3ea5",
    "16-nm-spp-trained.csv": "085287c12a689b10520e7b36af6157cdf75033e2efa30dc91923c104aa8eb9d3",
    "16-nm-spp-trained.spp": "555a9421a20c48922910ffa19118e4e404a4b12416fc1a5225e20593f0ca1b59",
    "16-nm-spp-verify-merged.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-nm-verify.stdout": "8de94a762500f0295976caa35f56b8031b50b0f8c26d815a8c6ee23561c2f2e2",
    "16-rows-eq3-adamw.csv": "329f3eb8b7a287639c77137d5be4fc0f1bebb9db053409a42cf3111ee8d04774",
    "16-rows-eq3-adamw.spp": "bcaf4b430fabf2f38eca30236dbd6dac75b62f7822defd0ceade5410e82a45ea",
    "16-rows-eq3-adamw.stdout": "c62dc13475486d5ebf0ccb0a77962e22661cfbda4e7bb50d132606f1dfaa0d89",
    "16-rows-eq3-sgd.csv": "ff1218cf4a0e02d8ff27b014666cf2237782864698249e325f919ac17d8df494",
    "16-rows-eq3-sgd.spp": "a2d1cd1ef0f2b9f9414dcea39e7b1bb956d3ca0752e935ce7bf572418b9c527b",
    "16-rows-eq3-sgd.stdout": "425c3de55141a656f80e4ac0c7a59431a439da19529d24707c154cfe5e7120cf",
    "16-rows-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-rows-lora-attached.spp": "e82244c95b55c5107ff2ddde9481a35317e7d7d729aae3a4cd7d707b41fff2e6",
    "16-rows-lora-merge.stdout": "ec1c1e5193e116f6ec86dd64f3d43edba7e6cd8b8508d2cc619b3e15daff5170",
    "16-rows-lora-merged.spp": "8abba284d006515680768bab4a584150c9e963d8c1ae060df76a6f265835040f",
    "16-rows-lora-train.stdout": "f2fa95a5f01e2b7a8ce699a8a579c6c1d9cafc3264b2e28bf3ffec5bb7e45423",
    "16-rows-lora-trained.csv": "2b32b62e95409658e94cc1467de2ad75913a0f26ac43f38550995de996a2a17c",
    "16-rows-lora-trained.spp": "94f7b67dc13a59fed6732163efcf69cd0e33011049f6a1e48d99e5eed8c5ad52",
    "16-rows-lora-verify-merged.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-rows-prune.stdout": "61b898c0ddb598b8ba3d9e1fb140bfd8b63c10b878eb4ceec3ddd6f635f2a65b",
    "16-rows-pruned.spp": "ed2e717f4344537f78d488fe8969a93134b5921d44543e93b1af79c04d43edc1",
    "16-rows-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-rows-spp-attached.spp": "5c30ba06129aba947eb0c2cad7fff5cb8e5aed7c96e34bc1a4e151bf7c47c1bc",
    "16-rows-spp-merge.stdout": "6fcbf1efc2864b1645d7cceaae8e4075c4c7f0c69abd4590655aedd35a35f6fe",
    "16-rows-spp-merged.spp": "d46152007a3b852cfb09350f6eeba2f69e7e48ef1e8fd88a7abd62584ed4c71c",
    "16-rows-spp-train.stdout": "36ea441c3c3f9fee59b61b5fac7bb4686a9ee7dc814bd2bb9cd7d15d091a44b2",
    "16-rows-spp-trained.csv": "d7af380ae1d25b7c58caa1d3588b8938ca99856361aba62e62f7c9baebca2885",
    "16-rows-spp-trained.spp": "4015d03d14ae0fdd147fd735e9f38a77963e90e1aefbc1bb2d45ce42057c437a",
    "16-rows-spp-verify-merged.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-rows-verify.stdout": "9a8bb9413bc0af84ce44acf470ce50ce3c22211ba9e761ef4cc7e25140187ffa",
    "16-wanda-eq3-adamw.csv": "c8aaf337b748effd1cd0d128dcee6d4fe828b0aa8406d431c60931acd0e29cd9",
    "16-wanda-eq3-adamw.spp": "7805e3f1f483629d211159ea61bed9a8dbfbec3e0f54368eeaa4605b56feafa7",
    "16-wanda-eq3-adamw.stdout": "67ae00cd2a4b7d998d02201d1c10a58f6354e739e1761526536782d3bd070571",
    "16-wanda-eq3-sgd.csv": "be9c017e3dafe27949b67b20f1623d00a0ebd92709758857570e8d6fd516d9dd",
    "16-wanda-eq3-sgd.spp": "4cd1ca77bfd1d9171501eadca3c406fabd2066083b0af699abcbcf9c668ad5df",
    "16-wanda-eq3-sgd.stdout": "2019fed7665a298c1202f9a3fc80cf8a0ed1c246632bf8f5a7d3180492a5751f",
    "16-wanda-lora-attach.stdout": "839eb0b7f6499015ed1de9ced5857af007b875fc3c8c1027333f7065fdffe851",
    "16-wanda-lora-attached.spp": "3178556548249c275782359c4fda07fd0f6cb13e74f98d049f39bcd551490fbd",
    "16-wanda-lora-merge.stdout": "b20da6f7e26370342f19d0302b4bf3a034e6d4fb818bcbc4a1bf3aa21ce17a7b",
    "16-wanda-lora-merged.spp": "0ab0024cdc059998c11c2aa91f2939da9e3e8f72acddcd06311cb07e26eaaafa",
    "16-wanda-lora-train.stdout": "0ffa192c3a6e9b44d9036e1f436d047c465d387022899daa1b782d8267ce0583",
    "16-wanda-lora-trained.csv": "79c5054efc350abe0223ee001fa790c4a87144e3b13ef34a6859b7e52610d4f7",
    "16-wanda-lora-trained.spp": "e7db4b9d5093e06e3794a9da7bf976f05d001b3a22e1a7ea3eb9672050850156",
    "16-wanda-lora-verify-merged.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "16-wanda-prune.stdout": "998748e58f7760ccd52e1eff2c7d91ca5cc345a74cb406ec3fbafb18bbcf3f48",
    "16-wanda-pruned.spp": "0eb32eab5b6e3b3526ab131c415392da5b1262883bce52844616432ed8db391e",
    "16-wanda-spp-attach.stdout": "709ae8dde7cb66058772c3401bf50be2ae31c4b4b7efdc56691e858bdc80f807",
    "16-wanda-spp-attached.spp": "162004324896c008fa0936f67f0ec70bf56ece15508171ec364ad9fe143b325d",
    "16-wanda-spp-merge.stdout": "2bdfa6e65f41a35d7cf8673808153f8c1d10ecdf7a08df02ca1c2d5cb74f935d",
    "16-wanda-spp-merged.spp": "c09f003c7d94d719a00f9fb26f37db2d6f9822981216b0f028b945c2237e6e30",
    "16-wanda-spp-train.stdout": "41cfecff549524a2d741f5f748f94bf4b8ff34c2858d5fb86253b3a3b3abe0ec",
    "16-wanda-spp-trained.csv": "84eabd7f91c22dcdabf2210770f147fde36c4f2d3f886a148321cab22c294d12",
    "16-wanda-spp-trained.spp": "80859055883854e078c25864ef36041e063563fe65887c9432ff6491ce050c56",
    "16-wanda-spp-verify-merged.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "16-wanda-verify.stdout": "e9b5fe36ff74549f14b860ace93533340189facd30f7390c7146a8e624d3b086",
    "8-nm-eq3-adamw.csv": "060feccccb8475334eeebc6a5a8205c05335627b6793617ec47d23cb3dbebc8d",
    "8-nm-eq3-adamw.spp": "5db1372d7d4c6d5bac5dabe0a986c02b3b539f8acd3b5b8c369b43ed83e77280",
    "8-nm-eq3-adamw.stdout": "cef55ef5cc8a1fe8c73ebf52a05a39352536cb6a08fb40e3740de20eacd02682",
    "8-nm-eq3-sgd.csv": "b65a94df82b63b6f5623889ad6fbd2dd9c7fc78a0a93bba5c9433b3966528610",
    "8-nm-eq3-sgd.spp": "fe0e4393dccdd73d5e289230e5ca6a9996227be79a1b0ce3c4918edaa338ad38",
    "8-nm-eq3-sgd.stdout": "cf290bc0d65d4ff61c48e1b198b2c98c95992e32edde9263724ef59630fe3378",
    "8-nm-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-nm-lora-attached.spp": "38146ed81d0ecc2f48e97d965c5b4a6dff1b1695a013b65cecca0b8eb4d88fc3",
    "8-nm-lora-merge.stdout": "7cb8a5cfeaa2443054073794800415cceef01be7ac617be5563e39fccd00af5c",
    "8-nm-lora-merged.spp": "65d5eccf180db4ea2a873b70b7e381b089dece0f290e8c8587e4f8e698535864",
    "8-nm-lora-train.stdout": "0b1421490fc737fd8aac95e8d052f0d22498eec0ff2b9abbeff0f238222a77fc",
    "8-nm-lora-trained.csv": "15844f8b0a950e230d6955e8543afc15d5438b77299dbc26d45e965f58963bfc",
    "8-nm-lora-trained.spp": "177d8323ea9bb9659b6fa140dff4860319208e0328c3cfbc4cd0d4128a0ff32e",
    "8-nm-lora-verify-merged.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-nm-prune.stdout": "f432359a2a831f121096488a5631f8d8716bd2cc4ebb7c2bfd2cda491755a4b3",
    "8-nm-pruned.spp": "f88c88a45a6671f0e648f044a6e96eeffdbb4d707aae674006e10466f8580a32",
    "8-nm-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-nm-spp-attached.spp": "84b46a67959c302acf2f2e392c59cbfa230274eefc01482c2b9f939aec4b084b",
    "8-nm-spp-merge.stdout": "315813140c3383aee3049c9fa5f1489934fb5a806e3c80fb42448ede5487e7d7",
    "8-nm-spp-merged.spp": "6a69f1a01ecddf3bc1180c83e89a8c5f2c356bf32dbf499c830ed6a5867f469c",
    "8-nm-spp-train.stdout": "a557fa1277db9e227af7bf0087af4b00a5622184b5301241344592dff36cc216",
    "8-nm-spp-trained.csv": "a26bf247d291dcca4fa285fc532d7d652ac3193efbddb70abc1ddf22a87c6b87",
    "8-nm-spp-trained.spp": "bc02a5d4524aafb2d95e21acc055d4265173cf5a7419f900a6a9c38a5da3d93b",
    "8-nm-spp-verify-merged.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-nm-verify.stdout": "572ccc14082d73201b052cce9929d83d897ee8b38ec0de04300081fcfde0970b",
    "8-rows-eq3-adamw.csv": "86b1033c96756bf2a042f6289dab980e43ce648be71d6bcb165c95a6c3f5cef7",
    "8-rows-eq3-adamw.spp": "d6a89a6283066df6348b19aaca32d4fa7005da32915e3851ce068299f478983a",
    "8-rows-eq3-adamw.stdout": "e8cb31e6f99827a39d5bac486231957fceb9d3ee65b59a11c410e1085fa9db7e",
    "8-rows-eq3-sgd.csv": "73bcf89ed83e56f8edde35e30fad5c791e9b0ca3d6cd0f94074832fa55f66952",
    "8-rows-eq3-sgd.spp": "b9d369b1dea6fd31695265691bf4262f97720884292e8561dbba939cd54e736a",
    "8-rows-eq3-sgd.stdout": "4e658083d38b09905d62f65ed2d96fca8036600b5ca311664789a93893b9a849",
    "8-rows-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-rows-lora-attached.spp": "bfc0dbd4ccb65781d8526b4f25a1511b396424623a984633921f5b275eedcb76",
    "8-rows-lora-merge.stdout": "7cb8a5cfeaa2443054073794800415cceef01be7ac617be5563e39fccd00af5c",
    "8-rows-lora-merged.spp": "4a106210e02eac82cfbf8f922ee9cc3b48eb0283defc315b564c73bc85ef3f13",
    "8-rows-lora-train.stdout": "03b2f4c886d869572030e96201afac127c53c08ccf993d69edc1ac2725ba86f6",
    "8-rows-lora-trained.csv": "92e064d8fc329e2fa482a6873f2ade63679ffab2b7fd53ef248b4c7e104b4b29",
    "8-rows-lora-trained.spp": "4e98583ab82880df8784ce712476a8f77b5edae534d9eb5cb80a277ceeec847a",
    "8-rows-lora-verify-merged.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-rows-prune.stdout": "657e70b678c293dc574c85defe985a043d558ee8960c1318bc9ced2b4917ed48",
    "8-rows-pruned.spp": "92818a37dccf454f19019d8eaed565edf3fef95116f01062d237ce80b4c8b69b",
    "8-rows-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-rows-spp-attached.spp": "be295928fe9af1e2fb6d08801646f54c85bfbedc4d9b6b4bd5e28c0184a8ad3a",
    "8-rows-spp-merge.stdout": "315813140c3383aee3049c9fa5f1489934fb5a806e3c80fb42448ede5487e7d7",
    "8-rows-spp-merged.spp": "51a64c1d33a2a97c7eb453f984adef575126a4b8637372b5909f5afb8d06aa11",
    "8-rows-spp-train.stdout": "cf57949cd3e9f24b68c207dbb51a87d97e9f20bdb68f134132d45502fbb099a0",
    "8-rows-spp-trained.csv": "7f78b2156bb425d23472f5492e638e9a88c145cd8c2403d6a9a7806c8de83ef5",
    "8-rows-spp-trained.spp": "d10136520d7f40ad35302d3f9e15e6ab644df7a27cf0ef34e963984f37f15df6",
    "8-rows-spp-verify-merged.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-rows-verify.stdout": "623e8919bd6441c74ba26a85d75e800a15c3b4d973a5afecc5d7c4b32bb2c271",
    "8-wanda-eq3-adamw.csv": "47a4bcaebeb2e55ad42a09497144d58dc8316cbd102b6c7fb569396b1da40f74",
    "8-wanda-eq3-adamw.spp": "dca0110c118028429bbb97bc0b5dc981cf5fad6ef212f3f4e1590d88789faf85",
    "8-wanda-eq3-adamw.stdout": "dbcac25c82a073218da4c8aa17d94df42b7077715a4dfbf7e9134496900d1d7b",
    "8-wanda-eq3-sgd.csv": "cc357577af61e73d3e80cda9045fbf7635cd4e11b96da44d47c209bcca84d89b",
    "8-wanda-eq3-sgd.spp": "095e2efeba8fa20be238a856797cb82e7185c0bc2891f4ec8cad8ff9a039243b",
    "8-wanda-eq3-sgd.stdout": "606aa842a7f87ad43dd8fe34c61e7a20eacde04490a633f85726438ca668d23a",
    "8-wanda-lora-attach.stdout": "20dc88f2c48cb501bde5ae142c9ddb0710b291b8ad98a139f45999c63975ecef",
    "8-wanda-lora-attached.spp": "906f2af1a2cf291c1d300bf4540baef76f786d12316ec3fbbf9a6e3dfa94fa87",
    "8-wanda-lora-merge.stdout": "584c069cabde5390c836e6519f74a91e013218aed74f73ffe8e1ca52be561b5d",
    "8-wanda-lora-merged.spp": "4b50df371ed6149fa8d5c841f245dbce0c97289471161b93d7d6a1fcc4592dae",
    "8-wanda-lora-train.stdout": "d0845639d1633dba8fc725b01dd371ef4e2b4ebfa5f24f35980edbe11463982c",
    "8-wanda-lora-trained.csv": "f68da463aa4383e9cbc86511ce749c8c2a91c9e705905550a56826fc16a01bb1",
    "8-wanda-lora-trained.spp": "7bbbd5f4da40bf2d3fd01d5d014f54129826a6e3f8bcbf0215f749340bbeecae",
    "8-wanda-lora-verify-merged.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "8-wanda-prune.stdout": "29e924ce33bb6a50ca300ddc352148080ef088944893c0a6cd317bff0df89f34",
    "8-wanda-pruned.spp": "85340fb80aa501ed7795c47d5a25c4497fd0dddca77f1221d057b28d509c3b49",
    "8-wanda-spp-attach.stdout": "ee31aeef2fcfee8253826a41aa81d25c59cc304c5cd3ec47a53fc59ee52f4849",
    "8-wanda-spp-attached.spp": "697d497ec019ecd0dc59428982e57c8e178c2a3037e044efdcac2e26bfdb49a4",
    "8-wanda-spp-merge.stdout": "f19da6cdb772649762bab3b5432c5c154198e14334f31a53199a543a9e5abccc",
    "8-wanda-spp-merged.spp": "3d2ed11b88d6c7f10c0bd82d490dd34ab7c431b74237d994537425b458abf523",
    "8-wanda-spp-train.stdout": "37c71a0cc15ee0a356a2ba6bfc3dd4279aef7b7790cd24ec9e959b88f125d60e",
    "8-wanda-spp-trained.csv": "38da1bdf08f5b9e2377c9613dc99bd4b487e11f245025038b7caf90a3b3cb52c",
    "8-wanda-spp-trained.spp": "4bd50ac02a1a029447d47ff5e2aa7cd8d46b27f0c6165ee1d5ded27795be3320",
    "8-wanda-spp-verify-merged.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "8-wanda-verify.stdout": "d7eb1e387918078e95e772b8fe17224c46540287a7d38d362f08c90a2500b0ac",
    "calib16.spp": "545bfb892c88e1accf311ea61812edfdfc5479525213af10330b384eca6c4b33",
    "calib8.spp": "37a76ebe244c74fec125725e62f971d6ee24f61609ee3bf784ccf1eee31729a0",
    "data16.spp": "f990804108a6262f3bd66a011c702e00242cb4a8eb9a047edd162add217ad9fe",
    "data8.spp": "0cd710172408defab8e187be612b5a36290d34fac2e800163511dbad649c1cd7",
    "dense16.spp": "d84a0b983705bb4c92f9030df2f11a3a73aadb17a696e999aeeeba575dca1990",
    "dense8.spp": "e82d8fd26134fe92cecd8be56dfdd79d8968b5198413cc29c6650674201103d0",
}

DECODED = {
    "16-nm-eq3-adamw.spp": "6b87551374706065af293c2bb478f6816c4185c17a9bb82ec4b2e8aa0de28c75",
    "16-nm-eq3-sgd.spp": "ee8fb7368796c0d8c20c751cab55f192d263c4d06cc8a4f6280e757bd52dfce2",
    "16-nm-lora-attached.spp": "d95e068f8f2e8fa100849bffa8caecd467bcda359a2e55f669ddfd0f5072f236",
    "16-nm-lora-merged.spp": "086eb3a6962015e2e734894e63c36bd3860ce1bda53b4c30c8cb4447ada6e1f0",
    "16-nm-lora-trained.spp": "4addd29d63d2783b410c1ac0de8e295abffcd64c2d0f403b0cb47f0eff12e773",
    "16-nm-pruned.spp": "862f548f1fb3b59b49d9550c18693d5fce863a6bbb95778f9a455a7709c65f2e",
    "16-nm-spp-attached.spp": "4b629283cfe610386ee90463cd32f81fda8257ce4ca86c62b9e05883895e5b60",
    "16-nm-spp-merged.spp": "a58c0ba7937e90b461c34d5836db40eb6a1a9ddb4b605be79f147a6a00c47885",
    "16-nm-spp-trained.spp": "e947f23fff4dcec6e3519fe455761cc6712ef1f9ebeee7074d204d1730bdfd7c",
    "16-rows-eq3-adamw.spp": "c8fcc65d60e868e1e58cc3c251df793323a2e521ddc3b215d96f00d9e673f53f",
    "16-rows-eq3-sgd.spp": "f271298ad7c28400c99f7635e17eac04a8f3a561949799d7c1a7595c7b7839a0",
    "16-rows-lora-attached.spp": "9e66a40fbd79ff9e4e16f0975ec8cf014c8b5f71522c394070c7be34c6444670",
    "16-rows-lora-merged.spp": "224267c55fae771ecbd60fa6a932b880b9096191f5d52be1e0315316ce036b50",
    "16-rows-lora-trained.spp": "55cf0fc56791838444efecc228e37902beeb6b7e82dde3405532bce39c213f25",
    "16-rows-pruned.spp": "bba51a0713624e2f0cb04d1042647aa022e0d36ff1c46af6126f9009260ce6bf",
    "16-rows-spp-attached.spp": "2a5db44e9d4db099a955300a77a3bdf3ac9b833da98e35c938f973b6b69dcefc",
    "16-rows-spp-merged.spp": "35b2b2198d68300d75154282456eb5caa09361b79b39bbcb2467ea553cf31c51",
    "16-rows-spp-trained.spp": "cafa4fc4ace308f1eb50da540a6562a3789f8cdadb58f60b0ddc97c581e41c1a",
    "16-wanda-eq3-adamw.spp": "e1e4e0e3288a7fc2f834f30be1b125f8b0dafcf76ab94a1c15640cbea4ed2132",
    "16-wanda-eq3-sgd.spp": "8e717b3e321ef81840954fce8613959d3b3616921cd843eb459c6ba20cbe163c",
    "16-wanda-lora-attached.spp": "f6de421c72459afeb5aaaac078122b756768534c5dc9e5487fe6b8c9fdbe8924",
    "16-wanda-lora-merged.spp": "20f0c325e27f8b2eebbbf73505556f2d447e284799daf9210f4702d7b4d8cea3",
    "16-wanda-lora-trained.spp": "67cada8b82ff9b488b0175643849a9e9859aab9341048913fd5fa8510af88da1",
    "16-wanda-pruned.spp": "602d6d5241a0b26d800b7bd2058cd38421cfcf8213ddd7fa97345d4d5b540698",
    "16-wanda-spp-attached.spp": "2487f5b7170c3676da6970b6a1e9fc06f1f92f8956bdd159d42917c33565ba02",
    "16-wanda-spp-merged.spp": "c21e0088295b4d34114c8109f85180781ca837fe048d13fca9558fb8198a7351",
    "16-wanda-spp-trained.spp": "abba540a6450bc6ca387106d621f96e31e9f028cca4bb92f1503750375fbf64f",
    "8-nm-eq3-adamw.spp": "19761c260e40581f43a75755c575ae9435a142afed84128f27e40ea482c1b025",
    "8-nm-eq3-sgd.spp": "20a500e77ca852de023644dc3860f8c97c1a745f551084d2445ee891159a4e6a",
    "8-nm-lora-attached.spp": "970ed411ca11ddd82fa31874bccc46e6379bf3e0ca5b4db1431ce747cde9f73c",
    "8-nm-lora-merged.spp": "043093c7801f637ac66fe5282a8f5b7f1f8c4a5f235f6e245ed82fcd7a6ccfc0",
    "8-nm-lora-trained.spp": "f88aadd225fc8e5fc9029e29b31eb18d9282bcbf21b0629de66b64bfceb3fbd7",
    "8-nm-pruned.spp": "e40617b357d08eb6bd2bf018ef9ca51f31060cd8cf029a535ed28cb8d1cb6e56",
    "8-nm-spp-attached.spp": "4709a9f45872950f305c5c8faa40645154462b9c4df3971ce939c622d4afba5f",
    "8-nm-spp-merged.spp": "d19c232e5961ce3ea6b0b7efb2b2204d2ad7f343d2f2e8361213a34369df495f",
    "8-nm-spp-trained.spp": "bc24cf174465bc27334f36ebca9d3f6d308f33f612c85b0cb74b9cb4e86dee9f",
    "8-rows-eq3-adamw.spp": "5b5cddfb881bd0e1ae0cd1ae297a96dcf78322c2c10bad4dd909f36c73cb4d5a",
    "8-rows-eq3-sgd.spp": "f6b7a64b23b1ca877a861152fe0a3629fe82a24c53279b2cb6d1d8ad2c65f53a",
    "8-rows-lora-attached.spp": "edb677cbed0902470c6c2e4612f0fc334dea2bd2d2536dd779f4d4a7cc25073d",
    "8-rows-lora-merged.spp": "868eccf9389e84a405a5f933d6c14c955f8aa48814cb837a67f6b9290931383b",
    "8-rows-lora-trained.spp": "27959ce7a50fd332f12f2ce2ae059a56805998986bdfd5a07c61ca82c3317b0d",
    "8-rows-pruned.spp": "deb8ddc7b3ae5d32bdd4d4e4a806fb50274135347c2d39bce10ae44c68bf8af9",
    "8-rows-spp-attached.spp": "29aa013af48c95858603e589d208e2acb407d24b90c69c30bab0510fd4f40e73",
    "8-rows-spp-merged.spp": "981d9f733405b4afa5d4bbf87d40cd0198751547d5140c0881190fc5b95fdb81",
    "8-rows-spp-trained.spp": "360c0b7c34938e90c611b4cba69a326057eab4bd0c7104937a98e062e31db20b",
    "8-wanda-eq3-adamw.spp": "fca7e2fb509f8ea182a1561911303c32decbec641dd69b2a28298feaa59dbe16",
    "8-wanda-eq3-sgd.spp": "bdf9488386f6fd1d9783edb7cc8c8e875c4fe708b123cd8cd2be9af61cb64767",
    "8-wanda-lora-attached.spp": "89c02adc1ce7c08333dcdc32f114ea2669a867d71e97ac9ff29c4483a919383d",
    "8-wanda-lora-merged.spp": "6d514b20dd62a1875bc65c3fbaf9dd545fbd4be9449dd4b35ef6eb8a7976878e",
    "8-wanda-lora-trained.spp": "0db86229dd17b419cc04126bfdf289abd4d38ee00e2b345bcf7b8d8a23d2b42d",
    "8-wanda-pruned.spp": "ac1cc9e24e19a96afe18feff5b6ac88d71f34453388a5b2940feda2ad2535bd2",
    "8-wanda-spp-attached.spp": "960bc0b3a623a663ad12fa51358cf3d73b21ebe1e36fbaa8ed6b90dbbf9229e8",
    "8-wanda-spp-merged.spp": "b2bf3d0cd532e44e1edef447721556d38df06b963eb4bd91eec778e543fbef37",
    "8-wanda-spp-trained.spp": "994f752fe7b69d3d4aced86b7fbb4ef8ad79243db2f3d7560436074111c48564",
    "calib16.spp": "0d5650cb6f48de027191e5a30005e41ece5c8cf515e1f992db71086e4e6d32d2",
    "calib8.spp": "0ef1be0e49e0cb443e84006822d9615aebc588b415fb6b5b24f3beafabb77a49",
    "data16.spp": "584c751b1a3f47b48622083f44277ca410137e04ea4aba1897aad7c55068296f",
    "data8.spp": "51eb050d7080e49efa8c9abd423fb320b4cb9a186e6dd250d0b1a470283ecfe0",
    "dense16.spp": "0ba32a73bea7b89b7577000fc5751c50b6b591f516aead9c04cac1a56c748256",
    "dense8.spp": "aa6f449809e529b4b4dd89dd0c4c65f08c8cc7701e41ba8e930bdf0f43e3f9e0",
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
