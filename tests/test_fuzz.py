"""Property-based fuzzing of the loaders, of ad-hoc group embeddings and of
``scatter_add``.

Every run draws the same examples (``derandomize=True``) and keeps no
example database, so the suite stays deterministic; ``conftest.py``
moves Hypothesis' other caches to a temporary directory.
"""

import dataclasses
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypergroup import data as hd
from hypergroup import model as hm
from hypergroup import numeric as nm
from hypergroup import training as ht
from hypergroup.errors import CheckpointError, ConfigError, DataError, load_config
from hypergroup.graph import build_hypergraph, build_social_graph

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# TSV loader

# Rows over a few ids reach past the parser (id maps, integrity checks)
# far more often than uniform bytes do, so half of the examples hold four
# parseable files; the other half mixes in a broken line (malformed, not
# UTF-8) or arbitrary bytes.
ids = st.sampled_from([b"a", b"b", b"c", b"g", b"h", b"i", b"j", b"\xc3\xa9"])
line = st.one_of(st.tuples(ids, ids).map(b"\t".join), st.sampled_from([b"", b"  ", b"# note", b"a\x00\tb"]))
parseable = st.lists(line, max_size=5).map(b"\r\n".join)
broken_line = st.sampled_from([b"a\tb\tc", b"a b", b"\ta", b"\xff\tb", b"a\t\xc3"])
broken = st.tuples(parseable, broken_line, parseable).map(b"\n".join)
any_file = st.one_of(parseable, broken, st.binary(max_size=120))
tsv_files = st.one_of(st.tuples(*[parseable] * 4), st.tuples(*[any_file] * 4))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["users", "items", "groups", "a", "b", "g", "i"]), inner, max_size=4),
    max_leaves=12,
)
id_map_bytes = st.one_of(
    st.none(),
    st.binary(max_size=80),
    json_values.map(lambda v: json.dumps(v).encode("utf-8")),
)


@given(files=tsv_files, id_map=id_map_bytes)
@settings(FUZZ, max_examples=400)
def test_tsv_loader_loads_or_raises_data_error(files, id_map):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, blob in zip(hd.DATA_FILES, files):
            (root / name).write_bytes(blob)
        if id_map is not None:
            (root / hd.ID_MAP_FILE).write_bytes(id_map)
        try:
            ds = hd.load_dataset(root)
        except DataError:
            return
        ds.validate()


# ---------------------------------------------------------------------------
# config loader

# the fields a config needs besides the ones drawn (SynthConfig has no
# default table size)
CONFIG_BASES = {
    hm.ModelConfig: {},
    ht.TrainConfig: {},
    hd.SplitSpec: {},
    hd.SynthConfig: {"num_users": 20, "num_items": 10, "num_groups": 5},
}
# 10**400 is an integer no float can hold
config_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, 10**400]) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@pytest.mark.parametrize("cls", list(CONFIG_BASES), ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(FUZZ, max_examples=200)
def test_config_loader_loads_or_raises_config_error(cls, data):
    names = [f.name for f in dataclasses.fields(cls)] + ["no_such_field"]
    drawn = data.draw(st.dictionaries(st.sampled_from(names), config_values, max_size=3))
    # now and then a section that is no JSON object
    blob = data.draw(st.one_of(st.just(dict(CONFIG_BASES[cls], **drawn)), config_values))
    blob = json.loads(json.dumps(blob))  # the values a JSON file can hold
    try:
        load_config(cls, "fuzz", blob)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# checkpoint loader


def valid_checkpoint() -> bytes:
    cfg = hm.ModelConfig(d=2, k_ipm=1, s_ipm=1, k_hrl=1, s_hrl=1, mlp_hidden=(2,))
    params = hm.initialize_params(cfg, 3, 2, np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        hm.save_params(path, params, cfg, seed=1, extra_meta={"split": {"seed": 0}})
        return path.read_bytes()


VALID = valid_checkpoint()
HEADER_END = 8 + struct.unpack("<Q", VALID[:8])[0]


def loads(blob: bytes) -> bool:
    """Whether ``load_params`` (which reads through ``load_checkpoint``)
    accepts ``blob``; any error but :class:`CheckpointError` propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        path.write_bytes(blob)
        try:
            hm.load_params(path)
        except CheckpointError:
            return False
        return True


@given(blob=st.binary(max_size=300))
@settings(FUZZ, max_examples=200)
def test_checkpoint_loader_on_arbitrary_bytes(blob):
    loads(blob)


@given(blob=st.binary(min_size=1, max_size=200).map(lambda b: struct.pack("<Q", len(b)) + b))
@settings(FUZZ, max_examples=100)
def test_checkpoint_loader_on_arbitrary_headers(blob):
    loads(blob)


@given(cut=st.integers(0, len(VALID) - 1))
@settings(FUZZ, max_examples=100)
def test_checkpoint_loader_on_truncations(cut):
    assert not loads(VALID[:cut])


# flips land in the header (where they change meaning) most of the time
flip_positions = st.one_of(st.integers(0, HEADER_END - 1), st.integers(0, len(VALID) - 1))


@given(flips=st.lists(st.tuples(flip_positions, st.integers(1, 255)), min_size=1, max_size=3))
@settings(FUZZ, max_examples=300)
def test_checkpoint_loader_on_byte_flips(flips):
    blob = bytearray(VALID)
    for pos, mask in flips:
        blob[pos] ^= mask
    loads(bytes(blob))


# ---------------------------------------------------------------------------
# ad-hoc group members


def transient_world(variant):
    ds = hd.generate_synthetic(hd.SynthConfig(num_users=24, num_items=10, num_groups=12,
                                              num_latent_topics=2, overlap_strength=0.6, seed=3))
    cfg = hm.ModelConfig(d=6, k_ipm=1, s_ipm=2, k_hrl=2, s_hrl=2, variant=variant)
    params = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(5))
    return ds, cfg, params, build_social_graph(ds), build_hypergraph(ds)


WORLDS = {variant: transient_world(variant) for variant in ("FULL", "NO_HRL", "NO_IPM")}
MEMBERSHIPS = WORLDS["FULL"][0].memberships


def with_repeats(members):
    """A list holding every id of ``members`` at least once, in any order."""
    return st.lists(st.sampled_from(members), max_size=4).flatmap(
        lambda extra: st.permutations(list(members) + extra))


member_lists = st.one_of(
    st.lists(st.integers(0, 23), min_size=1, max_size=8),
    # existing groups, so the exact-match pathway is fuzzed too
    st.sampled_from(MEMBERSHIPS).flatmap(with_repeats),
)


@pytest.mark.parametrize("variant", sorted(WORLDS))
@given(members=member_lists, seed=st.integers(0, 2**32 - 1))
@settings(FUZZ, max_examples=100)
def test_transient_embedding_ignores_member_order_and_repeats(variant, members, seed):
    ds, cfg, params, social, hyper = WORLDS[variant]
    got = hm.transient_group_embedding(members, params, cfg, social, hyper, np.random.default_rng(seed))
    want = hm.transient_group_embedding(sorted(set(members)), params, cfg, social, hyper,
                                        np.random.default_rng(seed))
    assert got.shape == (cfg.d,)
    assert np.all(np.isfinite(got))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# scatter-add

# magnitudes far apart, so any change of summation order shows, and signed
# zeros, so a lost normalisation of -0.0 shows
SCATTER_VALUES = np.array([-0.0, 0.0, 1.0, -1.0, 1e-8, -3e8, 2.5e16, 7e-300])


@given(rows=st.integers(1, 400), n=st.integers(0, 2500), d=st.sampled_from([1, 3]),
       layout=st.sampled_from(["strict", "sorted", "unsorted", "wrapped"]),
       heavy=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1))
@settings(FUZZ, max_examples=200)
def test_scatter_add_is_bitwise_add_at(rows, n, d, layout, heavy, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, rows, n)
    idx[:int(heavy * n)] = rng.integers(0, rows)  # one row may hold most entries
    if layout == "strict":
        idx = np.unique(idx)
    elif layout == "sorted":
        idx = np.sort(idx)
    elif layout == "wrapped":
        idx = np.sort(np.where(rng.random(n) < 0.5, idx - rows, idx))
    target = rng.choice(SCATTER_VALUES, (rows, d)) * rng.uniform(0.5, 2.0, (rows, d))
    vals = rng.choice(SCATTER_VALUES, (idx.size, d)) * rng.uniform(0.5, 2.0, (idx.size, d))
    want = target.copy()
    np.add.at(want, idx, vals)
    nm.scatter_add(target, idx, vals)
    assert target.view(np.int64).tolist() == want.view(np.int64).tolist()
