"""Golden pins: released clusterings and encodings stay byte-identical.

The digests were computed before the clustering substrate moved from n x d
code matrices to per-attribute code columns.  Every released center, mode
and label must keep its exact bytes: the pipeline's fitted-clustering cache
keys, the counts signatures and every served envelope are functions of
them.  A change that alters any digest here changes what the service
releases, and must not land as a performance change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.clustering import (
    DPKMeans,
    DPKModes,
    KMeans,
    KModes,
    MinMaxEncoder,
    StandardEncoder,
)
from repro.synth import diabetes_like

SEEDS = (11, 29)

#: (model, seed, k) -> (sha256 of centers/modes bytes, sha256 of labels).
FIT_DIGESTS = {
    ("DPKMeans", 11, 3): (
        "7babefeb45ac2b9e5c1c2fc93d092aa5abb1aa2e6fe84d8276a1d14a16ac201b",
        "151ff79f29e96d211576b9a2e3e78f518b26109916616945d50cdee82dd2ba8b",
    ),
    ("DPKModes", 11, 3): (
        "318f665067143e5678f274cda605cf31199e1a0d413570b9250515ab84ee23e4",
        "71bab19e9f295777082cba8f24854b62a39b3cf86dc4c71338f6e6fa73a55fc4",
    ),
    ("KMeans", 11, 3): (
        "b5bce5e2a54f3ff2db9c7a8ddb1cb6ee8319a3387af8ced57aaf4cd54e8c71a5",
        "5ea976458cde4f50831733a9a05d3478d4bdc001ba88a61b83a43dfacbd5ae9c",
    ),
    ("KModes", 11, 3): (
        "8219d8df5ce70e0cdc3a9dd2ae4c1c2eb82feca2737648b1fa9cfb95aa4cde15",
        "7b108c3b084747f47cfab9f9e3ddfe564a8386067c580fffac22d0ae9feb7400",
    ),
    ("DPKMeans", 11, 5): (
        "660ba6f7c5f46ae5ab055e55a2866d1d18443db40a9b2c58a68535af1d42f8ee",
        "36dff31e87b2612b704f88e51be503ee5f5874042dae8ea44243590a437e2c91",
    ),
    ("DPKModes", 11, 5): (
        "e7cfcb36d1657951c0ab21e4fda3d745ff7267bfcb260de0ffe16319cd9b58c8",
        "93239cc596f5cc22de3bc6368e49c227ab114f8e43af5eb2c10aaa13589fcd40",
    ),
    ("KMeans", 11, 5): (
        "41fe115af70241e3889e8b159168f8b26eb2f79cfb344feda926bfccf4fa82b4",
        "f1841d066d0c71976be8ac84f86fc07e3e9dc489467f40be29b7fe658b4d0551",
    ),
    ("KModes", 11, 5): (
        "9c5ecad9e077f8fcbef8e76785061e9487a357ae047a268fe5c26a39112699e0",
        "134bd049eae3a3b211b8c65a4123da667d41833e52d73fb6dd5894e09a996696",
    ),
    ("DPKMeans", 29, 3): (
        "fc032865be32614819dd13c49284b21cecb3b2f6c47e94fd3606efe014bffb36",
        "61ade59ba23796e256e27b6f189c7bfe6b26acce011f6160e35c4b408bb03c63",
    ),
    ("DPKModes", 29, 3): (
        "e3725f9d820a5b1cebf32fdc671a9f5f2e4752541b343f40a741258f6da0a6bd",
        "9b72092a88db2afa320c0fccbad338017837494f59543af453f5a8a5e3638fa8",
    ),
    ("KMeans", 29, 3): (
        "01d253ffe21bc28d75d6ac8a4afe84ac77c49b72d50ee0691b761669633774a7",
        "6f3028450bc1b0f8321bcdc5e9179d2e9d40e64a10036b031788afe12e376688",
    ),
    ("KModes", 29, 3): (
        "9ace8083da436f709a642894240f0aac1c7b35478dcc0aa017cd8e0d8dbb6572",
        "0255150ef8989a54b28572176df832016dd4932fb3e0d5375d27126d3ddf2b23",
    ),
    ("DPKMeans", 29, 5): (
        "efd3eaf4e634df199bb934bf2503cb237b27fe5926645547260d875530f6ec9f",
        "6370800418e0759069fc8c602a062f37f306fc082f22a1c19c440ede2942f518",
    ),
    ("DPKModes", 29, 5): (
        "f8cd2decced7265a75ae958c563db5c1130e8403f3fb3b4802e0d6a5e3e19ff0",
        "e59aa80ecabe06ffe94e90768a3696a104435ac0f36a50d389a568fd52a100c9",
    ),
    ("KMeans", 29, 5): (
        "a7e9ac1671ab3f8e5a88766ac484d716795d81aee09a4e78162e2b56ebd85521",
        "6705c240e174268a73ae70957ea0350968d9db010c373b1eef894d21cdf76fac",
    ),
    ("KModes", 29, 5): (
        "32683cdc58fc749b64f389a04c597883166143d3739f8774227cb31b589a14a3",
        "13b39af7d59d1a7d65a9059be33aa3651ca9f9f7edf334f60d7572d7e317163f",
    ),
}

#: (seed, encoding) -> sha256 of the encoded float64 matrix bytes.
ENCODING_DIGESTS = {
    (11, "to_matrix"): "73aef429b4d7c9ca9dd649a7368e8e721e0d2d7bc554431acfc1953c8504f69a",
    (11, "minmax"): "8799e9a183692b0fb3cde5fda761db8d947ae695eda453d7b27bafad91f4567c",
    (11, "standard"): "1c37ece298ffda9c052afeb887a438907bdf5da90ca3ea7bee0cec74af8cbc0a",
    (29, "to_matrix"): "f3922ff5d437261a52cc0172efbc2db01b3915399ee64b48f852ca826c71fda6",
    (29, "minmax"): "2e7861fe23f7ee086f779011f74b1e75adf30ceff2af61afedf65b19ef0adf8a",
    (29, "standard"): "e6d2e1bfa0239cfc82a42b33f7894baa0175523b46950a3c7c4f7c3f4a0c9a16",
}

MODELS = {
    "DPKMeans": DPKMeans,
    "DPKModes": DPKModes,
    "KMeans": KMeans,
    "KModes": KModes,
}


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.fixture(scope="module", params=SEEDS)
def seeded(request):
    return request.param, diabetes_like(n_rows=3000, seed=request.param)


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_released_clustering_bytes_are_pinned(seeded, model, k):
    seed, dataset = seeded
    fitted = MODELS[model](k).fit(dataset, rng=seed)
    released = fitted.centers if hasattr(fitted, "centers") else fitted.modes
    labels = fitted.assign(dataset)
    assert labels.dtype == np.int64
    assert (_digest(released), _digest(labels)) == FIT_DIGESTS[(model, seed, k)]


def test_encoding_bytes_are_pinned(seeded):
    seed, dataset = seeded
    encoded = {
        "to_matrix": dataset.to_matrix(),
        "minmax": MinMaxEncoder.fit(dataset).transform(dataset),
        "standard": StandardEncoder.fit(dataset).transform(dataset),
    }
    for kind, matrix in encoded.items():
        assert matrix.dtype == np.float64 and matrix.flags["C_CONTIGUOUS"]
        assert _digest(matrix) == ENCODING_DIGESTS[(seed, kind)], kind
