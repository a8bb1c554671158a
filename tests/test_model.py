"""Forward-model tests: straight-line oracles and variant contracts."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from hypergroup import evaluation as he
from hypergroup import model as hm
from hypergroup import numeric as nm
from hypergroup import training as ht
from hypergroup.data import InteractionDataset, SynthConfig, generate_synthetic
from hypergroup.errors import CheckpointError, ConfigError, ContractViolation, DimensionError, load_config
from hypergroup.graph import build_hypergraph, build_social_graph, common_members

import test_cli  # the recorded OpenBLAS kernel families and blas_core


def make_ds(num_users, num_items, memberships, social_edges=()):
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        num_groups=len(memberships),
        social_edges=set(social_edges),
        user_item=[(0, 0)],
        group_item=[],
        memberships=[list(m) for m in memberships],
    )


def relu_np(x):
    return np.maximum(x, 0.0)


def norm_np(x):
    n = np.linalg.norm(x)
    return x / n if n > 1e-12 else x


def forward(params, cfg, social, hyper, seed):
    """An inference pass; ``seed`` is an int or a generator to draw from."""
    return hm.ForwardPass(params, cfg, social, hyper, np.random.default_rng(seed))


# one entity's scores against every item, through the inference engine
def group_scores(g, params, cfg, hyper):
    emb = forward(params, cfg, None, hyper, 0).group_vectors([g]).values[0]
    return params.group_mlp.item_scores(emb, params.item_embeddings)


def user_scores(u, params, cfg):
    emb = forward(params, cfg, None, None, 0).member_vectors([u]).values[0]
    return params.user_mlp.item_scores(emb, params.item_embeddings)


class TestConfig:
    def test_defaults_valid(self):
        hm.ModelConfig().validate()

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            hm.ModelConfig(variant="WAT").validate()

    def test_bad_residual(self):
        with pytest.raises(ConfigError):
            hm.ModelConfig(residual_w=1.5).validate()

    @pytest.mark.parametrize("variant,name", [("NO_HRL", "k_hrl"), ("NO_HRL", "s_hrl"), ("NO_BOTH", "k_ipm"),
                                              ("NO_IPM", "s_ipm")])
    def test_negative_depth_or_fan_out_refused_for_an_unused_encoder(self, variant, name):
        bounds = ">= 0 and <= 200" if name.startswith("s_") else ">= 0"
        hm.ModelConfig(variant=variant, **{name: 0}).validate()
        with pytest.raises(ConfigError, match=f"{name} must be {bounds}, got -1"):
            hm.ModelConfig(variant=variant, **{name: -1}).validate()

    @pytest.mark.parametrize("name", ["s_ipm", "s_hrl"])
    def test_sample_size_has_a_ceiling(self, name):
        hm.ModelConfig(**{name: 200}).validate()
        with pytest.raises(ConfigError, match=f"{name} must be >= 0 and <= 200, got 201"):
            hm.ModelConfig(**{name: 201}).validate()

    def test_hash_stable_and_sensitive(self):
        a = hm.ModelConfig(d=8)
        assert hm.config_hash(a) == hm.config_hash(hm.ModelConfig(d=8))
        assert hm.config_hash(a) != hm.config_hash(hm.ModelConfig(d=16))

    def test_round_trip_dict(self):
        cfg = hm.ModelConfig(d=8, mlp_hidden=(6, 3), variant="NO_IPM")
        blob = json.loads(json.dumps(asdict(cfg)))
        assert load_config(hm.ModelConfig, "config", blob, complete=True) == cfg


class TestIpmEmbed:
    def cycle_setup(self, d=4, k=1, num_users=5):
        # every user has exactly two neighbors, so sampling with S=2 always
        # returns the full neighborhood and the output is rng-independent
        edges = {(min(u, (u + 1) % num_users), max(u, (u + 1) % num_users)) for u in range(num_users)}
        ds = make_ds(num_users, 3, [[0]], social_edges=edges)
        social = build_social_graph(ds)
        cfg = hm.ModelConfig(d=d, k_ipm=k, s_ipm=2, k_hrl=1, s_hrl=1, dropout=0.0)
        params = hm.initialize_params(cfg, num_users, 3, np.random.default_rng(0))
        return ds, social, cfg, params

    def test_unit_norm(self):
        _, social, cfg, params = self.cycle_setup()
        for u in range(5):
            z = forward(params, cfg, social, None, u).ipm_vectors([u]).values[0]
            assert abs(np.linalg.norm(z) - 1.0) < 1e-12

    def test_matches_straight_line_k1(self):
        _, social, cfg, params = self.cycle_setup(k=1)
        w = params.ipm_layers[0].values
        feats = params.node_features.values
        for u in range(5):
            nbrs = [(u - 1) % 5, (u + 1) % 5]
            expected = norm_np(relu_np(w @ np.concatenate([feats[u], feats[nbrs].mean(axis=0)])))
            got = forward(params, cfg, social, None, 3).ipm_vectors([u]).values[0]
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_matches_straight_line_k2(self):
        _, social, cfg, params = self.cycle_setup(k=2)
        w1, w2 = (t.values for t in params.ipm_layers)
        feats = params.node_features.values
        h1 = np.zeros_like(feats)
        for v in range(5):
            nbrs = [(v - 1) % 5, (v + 1) % 5]
            h1[v] = norm_np(relu_np(w1 @ np.concatenate([feats[v], feats[nbrs].mean(axis=0)])))
        for u in range(5):
            nbrs = [(u - 1) % 5, (u + 1) % 5]
            expected = norm_np(relu_np(w2 @ np.concatenate([h1[u], h1[nbrs].mean(axis=0)])))
            got = forward(params, cfg, social, None, 4).ipm_vectors([u]).values[0]
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_identical_neighbor_features_duplicate_concat(self):
        # one symmetric pair with identical features: output is the layer
        # applied to that feature twice
        ds = make_ds(2, 2, [[0]], social_edges={(0, 1)})
        social = build_social_graph(ds)
        cfg = hm.ModelConfig(d=3, k_ipm=1, s_ipm=1, k_hrl=1, s_hrl=1, dropout=0.0)
        params = hm.initialize_params(cfg, 2, 2, np.random.default_rng(1))
        f = params.node_features.values[0].copy()
        params.node_features.values[1] = f
        w = params.ipm_layers[0].values
        expected = norm_np(relu_np(w @ np.concatenate([f, f])))
        got = forward(params, cfg, social, None, 0).ipm_vectors([0]).values[0]
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_isolated_user_self_sampling(self):
        ds = make_ds(3, 2, [[0]], social_edges={(1, 2)})
        social = build_social_graph(ds)
        cfg = hm.ModelConfig(d=3, k_ipm=1, s_ipm=4, k_hrl=1, s_hrl=1, dropout=0.0)
        params = hm.initialize_params(cfg, 3, 2, np.random.default_rng(2))
        f = params.node_features.values[0]
        w = params.ipm_layers[0].values
        expected = norm_np(relu_np(w @ np.concatenate([f, f])))
        got = forward(params, cfg, social, None, 0).ipm_vectors([0]).values[0]
        assert np.max(np.abs(got - expected)) < 1e-12


class TestMemberEmbedding:
    def test_no_ipm_returns_latent(self):
        cfg = hm.ModelConfig(d=4, variant="NO_IPM", dropout=0.0)
        params = hm.initialize_params(cfg, 3, 2, np.random.default_rng(0))
        got = forward(params, cfg, None, None, 0).member_vectors([1]).values[0]
        np.testing.assert_array_equal(got, params.user_latent.values[1])

    def test_full_is_sum_of_components(self):
        ds = make_ds(4, 2, [[0]], social_edges={(0, 1), (1, 2), (2, 3), (0, 3)})
        social = build_social_graph(ds)
        cfg = hm.ModelConfig(d=4, k_ipm=1, s_ipm=2, dropout=0.0)
        params = hm.initialize_params(cfg, 4, 2, np.random.default_rng(5))
        z = forward(params, cfg, social, None, 9).ipm_vectors([2]).values[0]
        emb = forward(params, cfg, social, None, 9).member_vectors([2]).values[0]
        np.testing.assert_allclose(emb, z + params.user_latent.values[2], atol=1e-12)


class TestGroupInit:
    def setup_no_both(self, memberships, num_users=6):
        ds = make_ds(num_users, 2, memberships)
        hyper = build_hypergraph(ds)
        cfg = hm.ModelConfig(d=2, variant="NO_BOTH", dropout=0.0)
        params = hm.initialize_params(cfg, num_users, 2, np.random.default_rng(0))
        return hyper, cfg, params

    def test_two_member_mean(self):
        hyper, cfg, params = self.setup_no_both([[0, 1]])
        params.user_latent.values[0] = [1.0, 0.0]
        params.user_latent.values[1] = [0.0, 1.0]
        got = forward(params, cfg, None, hyper, 0).group_vectors([0]).values[0]
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-15)

    def test_single_member(self):
        hyper, cfg, params = self.setup_no_both([[3]])
        got = forward(params, cfg, None, hyper, 0).group_vectors([0]).values[0]
        np.testing.assert_array_equal(got, params.user_latent.values[3])

    def test_four_member_loop_oracle(self):
        hyper, cfg, params = self.setup_no_both([[0, 2, 4, 5]])
        got = forward(params, cfg, None, hyper, 0).group_vectors([0]).values[0]
        acc = np.zeros(2)
        for u in [0, 2, 4, 5]:
            acc += params.user_latent.values[u]
        np.testing.assert_allclose(got, acc / 4.0, atol=1e-12)

    def test_member_order_invariance(self):
        ds_a = make_ds(6, 2, [[0, 2, 4]])
        ds_b = make_ds(6, 2, [[4, 0, 2]])
        cfg = hm.ModelConfig(d=3, variant="NO_BOTH", dropout=0.0)
        params = hm.initialize_params(cfg, 6, 2, np.random.default_rng(1))
        a = forward(params, cfg, None, build_hypergraph(ds_a), 0).group_vectors([0]).values[0]
        b = forward(params, cfg, None, build_hypergraph(ds_b), 0).group_vectors([0]).values[0]
        np.testing.assert_array_equal(a, b)


def six_group_cycle():
    """Six groups in an adjacency cycle; every group has exactly 2 neighbors.

    Group i holds shared users w_{i-1}, w_i (ids 0..5) plus private user
    p_i (ids 6..11); consecutive groups share exactly one user.
    """
    memberships = [[(g - 1) % 6, g, 6 + g] for g in range(6)]
    ds = make_ds(12, 2, memberships)
    return ds, build_hypergraph(ds)


class TestHrlEmbed:
    def test_isolated_group_zero_aggregate(self):
        ds = make_ds(4, 2, [[0, 1], [2, 3]])
        hyper = build_hypergraph(ds)
        cfg = hm.ModelConfig(d=3, variant="NO_IPM", k_hrl=1, s_hrl=2, dropout=0.0)
        params = hm.initialize_params(cfg, 4, 2, np.random.default_rng(0))
        lat = params.user_latent.values
        x = 0.5 * (lat[0] + lat[1])
        w = params.hrl_layers[0].values
        expected = norm_np(relu_np(w @ np.concatenate([x, np.zeros(3)])))
        got = forward(params, cfg, None, hyper, 0).hrl_vectors([0])[1].values[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_single_neighbor_weight_two(self):
        # aggregate must equal 2 * (neighbor init + common-member mean)
        ds = make_ds(3, 2, [[0, 1], [0, 1, 2]])
        hyper = build_hypergraph(ds)
        cfg = hm.ModelConfig(d=3, variant="NO_IPM", k_hrl=1, s_hrl=1, dropout=0.0)
        params = hm.initialize_params(cfg, 3, 2, np.random.default_rng(1))
        lat = params.user_latent.values
        x0 = 0.5 * (lat[0] + lat[1])
        x1 = (lat[0] + lat[1] + lat[2]) / 3.0
        l01 = 0.5 * (lat[0] + lat[1])
        w = params.hrl_layers[0].values
        expected = norm_np(relu_np(w @ np.concatenate([x0, 2.0 * (x1 + l01)])))
        got = forward(params, cfg, None, hyper, 0).hrl_vectors([0])[1].values[0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_six_group_cycle_matches_straight_line_k2(self):
        ds, hyper = six_group_cycle()
        cfg = hm.ModelConfig(d=4, variant="NO_IPM", k_hrl=2, s_hrl=2,
                             residual_w=0.5, dropout=0.0)
        params = hm.initialize_params(cfg, 12, 2, np.random.default_rng(7))
        lat = params.user_latent.values
        w1, w2 = (t.values for t in params.hrl_layers)

        x = np.array([lat[m].mean(axis=0) for m in ds.memberships])
        lrep = {}
        for g in range(6):
            nxt = (g + 1) % 6
            lrep[(g, nxt)] = lrep[(nxt, g)] = lat[g]  # shared user w_g has id g
        m_prev = x.copy()
        for w in (w1, w2):
            m_new = np.zeros_like(m_prev)
            for g in range(6):
                agg = np.zeros(4)
                for nb in ((g - 1) % 6, (g + 1) % 6):
                    agg += 1.0 * (m_prev[nb] + lrep[(g, nb)])
                m_new[g] = norm_np(relu_np(w @ np.concatenate([m_prev[g], agg])))
            m_prev = m_new

        for g in range(6):
            z = forward(params, cfg, None, hyper, g).hrl_vectors([g])[1].values[0]
            assert np.max(np.abs(z - m_prev[g])) < 1e-10
            emb = forward(params, cfg, None, hyper, g).group_vectors([g]).values[0]
            expected = 0.5 * m_prev[g] + 0.5 * x[g]
            assert np.max(np.abs(emb - expected)) < 1e-10

    def test_unit_norm_unless_degenerate(self):
        ds, hyper = six_group_cycle()
        cfg = hm.ModelConfig(d=4, variant="NO_IPM", k_hrl=2, s_hrl=2, dropout=0.0)
        rng = np.random.default_rng(8)
        for trial in range(100):
            params = hm.initialize_params(cfg, 12, 2, np.random.default_rng(trial))
            z = forward(params, cfg, None, hyper, rng).hrl_vectors([trial % 6])[1].values[0]
            n = np.linalg.norm(z)
            assert abs(n - 1.0) < 1e-12 or n < 1e-6


class TestGroupEmbedding:
    def setup(self):
        ds, hyper = six_group_cycle()
        return ds, hyper

    def test_residual_extremes(self):
        ds, hyper = self.setup()
        for w, seed in ((1.0, 0), (0.0, 1)):
            cfg = hm.ModelConfig(d=4, variant="NO_IPM", k_hrl=1, s_hrl=2,
                                 residual_w=w, dropout=0.0)
            params = hm.initialize_params(cfg, 12, 2, np.random.default_rng(seed))
            z = forward(params, cfg, None, hyper, 42).hrl_vectors([0])[1].values[0]
            fp = forward(params, cfg, None, hyper, 42)
            x = fp.hrl_vectors([0])[0].values[0]
            emb = forward(params, cfg, None, hyper, 42).group_vectors([0]).values[0]
            expected = z if w == 1.0 else x
            np.testing.assert_allclose(emb, expected, atol=1e-15)

    def test_midpoint_at_half(self):
        ds, hyper = self.setup()
        cfg = hm.ModelConfig(d=4, variant="NO_IPM", k_hrl=1, s_hrl=2,
                             residual_w=0.5, dropout=0.0)
        params = hm.initialize_params(cfg, 12, 2, np.random.default_rng(2))
        fp = forward(params, cfg, None, hyper, 7)
        x, z = (t.values[0] for t in fp.hrl_vectors([0]))
        emb = forward(params, cfg, None, hyper, 7).group_vectors([0]).values[0]
        np.testing.assert_allclose(emb, 0.5 * z + 0.5 * x, atol=1e-15)

    def test_no_hrl_equals_group_init_bitwise(self):
        ds, hyper = self.setup()
        cfg = hm.ModelConfig(d=4, variant="NO_HRL", k_ipm=1, s_ipm=2, dropout=0.0)
        social = build_social_graph(make_ds(12, 2, ds.memberships,
                                            social_edges={(0, 1), (1, 2), (0, 2)}))
        params = hm.initialize_params(cfg, 12, 2, np.random.default_rng(3))
        a = forward(params, cfg, social, hyper, 11).group_vectors([2]).values[0]
        members = forward(params, cfg, social, None, 11).member_vectors(ds.memberships[2])
        b = members.values.mean(axis=0)
        assert np.array_equal(a, b)


class TestScoring:
    def tiny_setup(self):
        ds = make_ds(3, 4, [[0], [1, 2]])
        hyper = build_hypergraph(ds)
        cfg = hm.ModelConfig(d=2, variant="NO_BOTH", mlp_hidden=(2,), dropout=0.0)
        params = hm.initialize_params(cfg, 3, 4, np.random.default_rng(0))
        return hyper, cfg, params

    def test_zero_towers_score_zero(self):
        hyper, cfg, params = self.tiny_setup()
        for tower in (params.group_mlp, params.user_mlp):
            for w, b in tower.hidden:
                w.values[:] = 0.0
                b.values[:] = 0.0
            tower.out.values[:] = 0.0
        assert group_scores(0, params, cfg, hyper).tolist() == [0.0] * 4
        assert user_scores(1, params, cfg).tolist() == [0.0] * 4

    def test_equal_item_embeddings_equal_scores(self):
        hyper, cfg, params = self.tiny_setup()
        params.item_embeddings.values[2] = params.item_embeddings.values[1]
        scores = group_scores(1, params, cfg, hyper)
        assert scores[1] == scores[2]

    def test_hand_computed_forward(self):
        hyper, cfg, params = self.tiny_setup()
        params.user_latent.values[0] = [1.0, -1.0]
        params.item_embeddings.values[3] = [0.5, 2.0]
        (w1, b1) = params.group_mlp.hidden[0]
        w1.values[:] = np.array([[0.1, 0.2, 0.3, 0.4], [-0.5, 0.6, -0.7, 0.8]])
        b1.values[:] = np.array([0.05, -0.05])
        params.group_mlp.out.values[:] = np.array([2.0, -1.0])
        c = np.array([1.0, -1.0, 0.5, 2.0])
        h = relu_np(w1.values @ c + b1.values)
        expected = float(np.array([2.0, -1.0]) @ h)
        got = group_scores(0, params, cfg, hyper)[3]
        assert abs(got - expected) < 1e-12

    def test_user_tower_hand_computed(self):
        hyper, cfg, params = self.tiny_setup()
        params.user_latent.values[2] = [0.2, 0.4]
        params.item_embeddings.values[0] = [-1.0, 1.0]
        (w1, b1) = params.user_mlp.hidden[0]
        w1.values[:] = np.eye(2, 4)
        b1.values[:] = 0.0
        params.user_mlp.out.values[:] = np.array([1.0, 1.0])
        c = np.array([0.2, 0.4, -1.0, 1.0])
        expected = float(np.sum(relu_np(c[:2])))
        got = user_scores(2, params, cfg)[0]
        assert abs(got - expected) < 1e-12


class TestItemScorer:
    """``MlpTower.item_scores``: a tower's inference scores against every item."""

    @pytest.mark.parametrize("hidden", [None, (4,), ()])
    def test_matches_mlp_forward_on_tiled_inputs(self, hidden):
        cfg = hm.ModelConfig(d=16, mlp_hidden=hidden, dropout=0.3)
        rng = np.random.default_rng(1)
        params = hm.initialize_params(cfg, 5, 300, rng)
        items = params.item_embeddings.values
        for tower in (params.group_mlp, params.user_mlp):
            for _ in range(8):
                e = rng.normal(size=cfg.d)
                x = nm.Tensor(np.concatenate([np.tile(e, (items.shape[0], 1)), items], axis=1))
                want = hm.mlp_forward(tower, x, replace(cfg, dropout=0.0), rng).values
                got = tower.item_scores(e, params.item_embeddings)
                assert got.shape == want.shape
                # the first layer's sums are reassociated: equal to rounding
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("hidden", [None, ()])
    def test_nan_propagates(self, hidden):
        cfg = hm.ModelConfig(d=4, mlp_hidden=hidden)
        params = hm.initialize_params(cfg, 3, 6, np.random.default_rng(4))
        params.item_embeddings.values[2, 1] = np.nan
        scores = params.group_mlp.item_scores(np.ones(4), params.item_embeddings)
        assert np.isnan(scores[2])
        assert np.all(np.isfinite(np.delete(scores, 2)))

    def test_wrong_entity_width_rejected(self):
        cfg = hm.ModelConfig(d=4)
        params = hm.initialize_params(cfg, 3, 6, np.random.default_rng(5))
        with pytest.raises(DimensionError):
            params.group_mlp.item_scores(np.ones(5), params.item_embeddings)
        with pytest.raises(DimensionError):
            params.group_mlp.item_scores(np.ones(3), nm.Tensor(np.ones((6, 3))))


def whole_table_scores(tower, e, items):
    """``MlpTower.item_scores`` as one pass over the whole item table, the
    reference the blocked scores must equal bit for bit."""
    first, d = (tower.hidden[0][0] if tower.hidden else tower.out), items.shape[1]
    h = items.values @ first.values[..., d:].T + (first.values[..., :d] @ e
                                                 + (tower.hidden[0][1].values if tower.hidden else 0.0))
    if not tower.hidden:
        return h
    np.maximum(h, 0.0, out=h)
    for w, b in tower.hidden[1:]:
        h = h @ w.values.T
        h += b.values
        np.maximum(h, 0.0, out=h)
    return h @ tower.out.values


def blocked_score_mismatches():
    """The (hidden, items, tower) cases whose blocked scores differ from the
    whole-table reference in any bit."""
    bad = []
    for hidden in (None, (4,), (), (64, 32, 16)):
        for n in (1, 1023, 1024, 2047, 2048, 2049, 3071, 10000):
            cfg = hm.ModelConfig(d=16, mlp_hidden=hidden)
            rng = np.random.default_rng(n)
            params = hm.initialize_params(cfg, 2, n, rng)
            for name, tower in (("group", params.group_mlp), ("user", params.user_mlp)):
                for _, b in tower.hidden:  # biases start at zero; make them count
                    b.values[...] = rng.normal(0.0, 0.1, b.shape)
                e = rng.normal(size=cfg.d)
                got = tower.item_scores(e, params.item_embeddings)
                want = whole_table_scores(tower, e, params.item_embeddings)
                if got.tobytes() != want.tobytes():
                    bad.append((hidden, n, name))
    return bad


# the blocked-score check in a fresh process, so OPENBLAS_CORETYPE picks its
# kernel; prints the kernel read back and the mismatching cases
BLOCKED_RUN = """
from test_cli import blas_core
from test_model import blocked_score_mismatches
print(blas_core(), blocked_score_mismatches())
"""


class TestBlockedScores:
    """``item_scores`` runs the tower over blocks of ``SCORE_BLOCK`` items
    aligned to multiples of it, the tail merged into the last block, and
    gives each item the bits one pass over the whole table gives it: with a
    block boundary at 1,024 and 2,048, a last block of 1,023-2,047 items
    and whole tables below two blocks.  ``TestGoldenOutputs`` scores 60
    items, one block, so it does not guard this."""

    def test_block_size_is_the_checked_one(self):
        assert hm.SCORE_BLOCK == 1024

    def test_blocked_scores_equal_whole_table_scores(self):
        assert blocked_score_mismatches() == []

    @pytest.mark.parametrize("hidden", [None, (64, 32, 16)])
    def test_nan_item_in_a_later_block_stays_at_its_item(self, hidden):
        cfg = hm.ModelConfig(d=16, mlp_hidden=hidden)
        params = hm.initialize_params(cfg, 2, 3071, np.random.default_rng(8))
        params.item_embeddings.values[2500, 3] = np.nan
        e = np.random.default_rng(9).normal(size=cfg.d)
        with np.errstate(invalid="ignore"):
            want = whole_table_scores(params.group_mlp, e, params.item_embeddings)
        got = params.group_mlp.item_scores(e, params.item_embeddings)
        assert np.isnan(got[2500]) and np.all(np.isfinite(np.delete(got, 2500)))
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_one_blocks_activations(self):
        """One call at 10,000 items, ``d=64`` and hidden widths (64, 32),
        with ``P`` held, peaks at the scores plus the largest block's (1,808
        rows) two activations and a few KiB of small objects: 1.40 MiB, where
        a pair of buffers sized for 2,047 rows traces 1.64 MiB."""
        cfg = hm.ModelConfig(d=64)
        params = hm.initialize_params(cfg, 2, 10_000, np.random.default_rng(6))
        e = np.random.default_rng(7).normal(size=cfg.d)
        params.group_mlp.item_scores(e, params.item_embeddings)  # holds P
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            params.group_mlp.item_scores(e, params.item_embeddings)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 8 * (10_000 + 1808 * (64 + 32)) + 4096

    @pytest.mark.parametrize("kernel", list(test_cli.TestGoldenDigest.DIGESTS))
    def test_each_recorded_kernel_gives_whole_table_bits(self, kernel):
        path = (str(Path(hm.__file__).resolve().parents[1]), str(Path(__file__).parent),
                os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "OPENBLAS_CORETYPE": kernel}
        out = subprocess.run([sys.executable, "-c", BLOCKED_RUN], env=env, capture_output=True, text=True,
                             check=True, timeout=300)
        core, mismatches = out.stdout.splitlines()[-1].split(" ", 1)
        families = list(test_cli.TestGoldenDigest.DIGESTS)
        if families.index(kernel) <= families.index(test_cli.blas_core()):
            assert core == kernel
        assert mismatches == "[]", f"OpenBLAS kernel {core} changed the bits of {mismatches}"


def held_world(seed=3):
    ds = generate_synthetic(SynthConfig(num_users=20, num_items=15, num_groups=10, avg_group_size=3.0,
                                        num_latent_topics=2, interactions_per_user=4.0,
                                        interactions_per_group=2.0, seed=seed))
    cfg = hm.ModelConfig(d=8, k_ipm=1, s_ipm=2, k_hrl=1, s_hrl=2, dropout=0.0)
    params = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(seed))
    return ds, build_social_graph(ds), build_hypergraph(ds), cfg, params


class TestHeldScorer:
    """A tower's kept ``P`` serves only while the arrays it was computed
    from are the same objects at the same versions."""

    EMB = np.linspace(-1.0, 1.0, 8)

    def scores_match_fresh(self, params, cfg, tower=None):
        """The held path's scores, checked bit-equal to a tower that holds no ``P``."""
        tower = tower or params.group_mlp
        got = hm.score_items_for_embedding(self.EMB, params, tower, cfg)
        want = hm.MlpTower(tower.hidden, tower.out).item_scores(self.EMB, params.item_embeddings)
        assert got.tobytes() == want.tobytes()
        return got

    # d=8 with hidden widths (8, 4): w1 is [W_e | W_i], columns 0-7 and 8-15
    @pytest.mark.parametrize("name, index", [
        ("item_embeddings", (3, 1)),
        ("group_mlp_w1", (0, 9)),
        ("group_mlp_w1", (0, 1)),
        ("group_mlp_b1", (0,)),
        ("group_mlp_w2", (1,)),
        ("group_mlp_b2", (1,)),
        ("group_mlp_out", (1,)),
    ])
    def test_in_place_edit_shows(self, name, index):
        _, _, _, cfg, params = held_world()
        before = self.scores_match_fresh(params, cfg)
        with params.tensors[name].writing() as values:
            values[index] += 0.5
        assert self.scores_match_fresh(params, cfg).tobytes() != before.tobytes()

    @pytest.mark.parametrize("name", ["item_embeddings", "group_mlp_w1", "group_mlp_b1", "group_mlp_w2",
                                      "group_mlp_out"])
    def test_rebound_values_rebuild(self, name):
        _, _, _, cfg, params = held_world()
        before = self.scores_match_fresh(params, cfg)
        held = params.group_mlp._held
        tensor = params.tensors[name]
        tensor.values = tensor.values * 1.5 + 0.25
        assert self.scores_match_fresh(params, cfg).tobytes() != before.tobytes()
        # only the item table and w1 are read into P; the other arrays are read live
        assert (params.group_mlp._held is not held) == (name in ("item_embeddings", "group_mlp_w1"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, index", [("item_embeddings", (2, 1)), ("group_mlp_w1", (1, 9))])
    def test_injected_non_finite_shows(self, name, index, value):
        _, _, _, cfg, params = held_world()
        self.scores_match_fresh(params, cfg)
        with params.tensors[name].writing() as values:
            values[index] = value
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(self.scores_match_fresh(params, cfg)))

    def test_every_write_shows_signed_zero_and_nan_payload_included(self):
        _, _, _, cfg, params = held_world()
        tower, items = params.group_mlp, params.item_embeddings
        other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        for before, after in ((0.0, -0.0), (np.nan, other_nan), (1.0, 1.0)):
            with items.writing() as values:
                values[4, 0] = before
            self.scores_match_fresh(params, cfg)
            held = tower._held
            self.scores_match_fresh(params, cfg)
            assert tower._held is held
            with items.writing() as values:
                values[4, 0] = after
            self.scores_match_fresh(params, cfg)
            assert tower._held is not held

    def test_scored_arrays_refuse_writes_outside_the_write_path(self):
        _, _, _, cfg, params = held_world()
        items, w1 = params.item_embeddings, params.group_mlp.hidden[0][0]
        items.values[0, 0] = 0.5  # never scored: plainly writable
        before = self.scores_match_fresh(params, cfg)
        for tensor in (items, w1):
            with pytest.raises(ValueError, match="read-only"):
                tensor.values[0, 0] = 0.25
            with pytest.raises(ValueError, match="read-only"):
                tensor.values[...] += 1.0
        assert self.scores_match_fresh(params, cfg).tobytes() == before.tobytes()
        # the arrays read live stay writable
        params.group_mlp.hidden[0][1].values[0] = 0.5
        params.group_mlp.out.values[0] = 0.5
        assert self.scores_match_fresh(params, cfg).tobytes() != before.tobytes()

    def test_training_leaves_unscored_arrays_writable(self):
        ds, social, hyper, cfg, params = held_world()
        tcfg = ht.TrainConfig(learning_rate=1e-2, batch_size=16, epochs=1, strategy="GROUP_ONLY", seed=1)
        ht.train(ds, social, hyper, params, cfg, tcfg)
        assert params.item_embeddings.version > 0
        params.item_embeddings.values[2, 1] = np.inf
        params.group_mlp.hidden[0][0].values[0, 0] = 0.5

    def test_train_and_restore_best_show(self, monkeypatch):
        ds, social, hyper, cfg, params = held_world()
        scripted, seen = iter([0.5, 0.25]), []
        evaluate = he.evaluate

        def scripted_evaluate(*args, **kwargs):
            evaluate(*args, **kwargs)  # keeps the group tower's P
            assert params.group_mlp._held is not None
            seen.append(self.scores_match_fresh(params, cfg))
            return he.EvalReport("groups", {10: he.MetricPair(0.0, next(scripted))}, 1)

        monkeypatch.setattr(he, "evaluate", scripted_evaluate)
        tcfg = ht.TrainConfig(learning_rate=1e-2, batch_size=16, epochs=2, strategy="GROUP_ONLY",
                              seed=1, early_stop_patience=2)
        report = ht.train(ds, social, hyper, params, cfg, tcfg, val_ds=ds)
        assert report.best_epoch == 0 and not report.stopped_early
        first, last = seen
        assert first.tobytes() != last.tobytes()  # training moved the held P
        assert self.scores_match_fresh(params, cfg).tobytes() == first.tobytes()

    @pytest.mark.parametrize("patience", [None, 1])
    def test_training_frees_the_projections_it_makes_stale(self, patience):
        ds, social, hyper, cfg, params = held_world()
        _, _, _, _, other = held_world()
        for p in (params, other):
            he.evaluate(p, cfg, social, hyper, ds, cutoffs=(5,))
            he.evaluate(p, cfg, social, hyper, ds, cutoffs=(5,), target="users")
        kept = other.group_mlp._held, other.user_mlp._held
        tcfg = ht.TrainConfig(learning_rate=1e-2, batch_size=16, epochs=2, strategy="JOINT", seed=1,
                              early_stop_patience=patience)
        ht.train(ds, social, hyper, params, cfg, tcfg, val_ds=ds)
        assert params.group_mlp._held is None and params.user_mlp._held is None
        assert other.group_mlp._held is kept[0] and other.user_mlp._held is kept[1]
        for tower in (params.group_mlp, params.user_mlp):
            self.scores_match_fresh(params, cfg, tower)

    @pytest.mark.parametrize("hidden", [None, ()])
    def test_scores_are_a_new_array_each_call(self, hidden):
        cfg = hm.ModelConfig(d=8, mlp_hidden=hidden)
        params = hm.initialize_params(cfg, 3, 15, np.random.default_rng(6))
        first = params.group_mlp.item_scores(self.EMB, params.item_embeddings)
        want = first.copy()
        first[[0, 4]] = -np.inf  # as evaluate excludes training positives
        second = params.group_mlp.item_scores(self.EMB, params.item_embeddings)
        assert not np.shares_memory(first, second)
        assert second.tobytes() == want.tobytes()

    def test_unchanged_params_build_p_once(self, monkeypatch):
        ds, social, hyper, cfg, params = held_world()
        seen = []
        item_scores = hm.MlpTower.item_scores

        def recording(self, emb, items):
            out = item_scores(self, emb, items)
            seen.append((self, self._held))
            return out

        monkeypatch.setattr(hm.MlpTower, "item_scores", recording)
        he.evaluate(params, cfg, social, hyper, ds, cutoffs=(5,))
        for _ in range(3):
            hm.score_items_for_embedding(self.EMB, params, params.group_mlp, cfg)
        hm.score_items_for_embedding(self.EMB, params, params.user_mlp, cfg)
        he.evaluate(params, cfg, social, hyper, ds, cutoffs=(5,), target="users")
        built = []
        for tower, held in seen:
            if all(held is not h for _, h in built):
                built.append((tower, held))
        assert [id(t) for t, _ in built] == [id(params.group_mlp), id(params.user_mlp)]


class TestFullPipelineOracle:
    def test_both_encoders_match_straight_line(self):
        # every social pool and every hyperedge pool has exactly the sample
        # size, so sampling returns full neighborhoods and the whole forward
        # pass is rng-independent
        ds, hyper = six_group_cycle()
        social_edges = {(u, (u + 1) % 12) if u < (u + 1) % 12 else ((u + 1) % 12, u)
                        for u in range(12)}
        social = build_social_graph(make_ds(12, 2, ds.memberships, social_edges))
        cfg = hm.ModelConfig(d=4, variant="FULL", k_ipm=1, s_ipm=2, k_hrl=1, s_hrl=2,
                             residual_w=0.5, dropout=0.0)
        params = hm.initialize_params(cfg, 12, 2, np.random.default_rng(21))
        feats = params.node_features.values
        lat = params.user_latent.values
        w_ipm = params.ipm_layers[0].values
        w_hrl = params.hrl_layers[0].values

        emb = np.zeros_like(lat)
        for u in range(12):
            nbrs = [(u - 1) % 12, (u + 1) % 12]
            z = norm_np(relu_np(w_ipm @ np.concatenate([feats[u], feats[nbrs].mean(axis=0)])))
            emb[u] = z + lat[u]
        x = np.array([emb[m].mean(axis=0) for m in ds.memberships])
        for g in range(6):
            agg = np.zeros(4)
            for nb in ((g - 1) % 6, (g + 1) % 6):
                shared = g if nb == (g + 1) % 6 else (g - 1) % 6
                agg += 1.0 * (x[nb] + emb[shared])
            z_g = norm_np(relu_np(w_hrl @ np.concatenate([x[g], agg])))
            expected = 0.5 * z_g + 0.5 * x[g]
            got = forward(params, cfg, social, hyper, g).group_vectors([g]).values[0]
            assert np.max(np.abs(got - expected)) < 1e-10


class TestSharedEmbeddingContract:
    def test_both_towers_read_the_same_item_storage(self):
        ds = make_ds(3, 4, [[0, 1]])
        hyper = build_hypergraph(ds)
        cfg = hm.ModelConfig(d=2, variant="NO_BOTH", mlp_hidden=(2,), dropout=0.0)
        params = hm.initialize_params(cfg, 3, 4, np.random.default_rng(0))
        g_before = group_scores(0, params, cfg, hyper)[2]
        u_before = user_scores(0, params, cfg)[2]
        with params.item_embeddings.writing() as values:
            values[2] += 1.0
        g_after = group_scores(0, params, cfg, hyper)[2]
        u_after = user_scores(0, params, cfg)[2]
        assert g_after != g_before and u_after != u_before


class TestTransientGroups:
    def make_world(self):
        ds = make_ds(6, 5, [[0, 1, 2], [2, 3]])
        hyper = build_hypergraph(ds)
        cfg = hm.ModelConfig(d=3, variant="NO_IPM", k_hrl=1, s_hrl=2, dropout=0.0)
        params = hm.initialize_params(cfg, 6, 5, np.random.default_rng(4))
        return ds, hyper, cfg, params

    def test_exact_member_match_reuses_group_pathway(self):
        ds, hyper, cfg, params = self.make_world()
        direct = forward(params, cfg, None, hyper, 9).group_vectors([0]).values[0]
        transient = hm.transient_group_embedding([2, 0, 1], params, cfg, None, hyper,
                                                 np.random.default_rng(9))
        np.testing.assert_array_equal(direct, transient)

    def test_unconnected_set_is_member_average(self):
        ds, hyper, cfg, params = self.make_world()
        emb = hm.transient_group_embedding([4, 5], params, cfg, None, hyper,
                                           np.random.default_rng(0))
        expected = 0.5 * (params.user_latent.values[4] + params.user_latent.values[5])
        np.testing.assert_allclose(emb, expected, atol=1e-12)

    def test_connected_set_runs_hyperedge_encoder(self):
        ds, hyper, cfg, params = self.make_world()
        emb = hm.transient_group_embedding([1, 3], params, cfg, None, hyper,
                                           np.random.default_rng(0))
        average = 0.5 * (params.user_latent.values[1] + params.user_latent.values[3])
        assert not np.allclose(emb, average)

    @pytest.mark.parametrize("members", [[-1], [6], [1, 6], [-1, 2]])
    def test_members_outside_the_user_range_rejected(self, members):
        ds, hyper, cfg, params = self.make_world()
        with pytest.raises(ContractViolation, match="members"):
            hm.transient_group_embedding(members, params, cfg, None, hyper, np.random.default_rng(0))

    def test_existing_groups_see_pristine_neighborhoods(self):
        ds, hyper, cfg, params = self.make_world()
        view = hm.TransientHypergraphView(hyper, [1, 3])
        assert view.has_known_neighbors and view.exact_group is None
        groups = np.arange(hyper.num_groups)
        degrees = hyper.degrees(groups)
        np.testing.assert_array_equal(view.degrees(groups), degrees)
        assert view.degrees(np.array([view.transient_index])).tolist() == [2]
        # every slot of an existing group, and its empty slots, read the base
        offsets = np.arange(degrees.max() + 1)[None, :].repeat(groups.size, axis=0)
        offsets[offsets >= degrees[:, None]] = -1
        np.testing.assert_array_equal(view.neighbor_ids(groups, offsets), hyper.neighbor_ids(groups, offsets))
        # the transient row lists the groups it overlaps, one shared member each
        ids = view.neighbor_ids(np.array([view.transient_index]), np.array([[0, 1]]))
        assert ids.tolist() == [[0, 1]]
        _, pairs = common_members(view, ids[0], np.full(2, view.transient_index))
        assert np.bincount(pairs, minlength=2).tolist() == [1, 1]

    def test_exact_group_is_the_lowest_id_with_the_same_members(self):
        hyper = build_hypergraph(make_ds(5, 2, [[2, 3], [0, 1, 2], [3, 2]]))
        assert hm.TransientHypergraphView(hyper, [3, 2, 3]).exact_group == 0
        assert hm.TransientHypergraphView(hyper, [0, 1, 2]).exact_group == 1
        for members in ([2], [0, 1], [0, 1, 2, 3], [4]):
            assert hm.TransientHypergraphView(hyper, members).exact_group is None


class TestForwardPassContract:
    def test_single_use(self):
        ds, hyper = six_group_cycle()
        cfg = hm.ModelConfig(d=2, variant="NO_IPM", k_hrl=1, s_hrl=2, dropout=0.0)
        params = hm.initialize_params(cfg, 12, 2, np.random.default_rng(0))
        fp = forward(params, cfg, None, hyper, 0)
        fp.group_vectors([0])
        with pytest.raises(ContractViolation):
            fp.group_vectors([1])

    def test_reproducible_for_fixed_seed(self):
        ds, hyper = six_group_cycle()
        social = build_social_graph(
            make_ds(12, 2, ds.memberships, social_edges={(0, 1), (2, 3), (4, 5)})
        )
        cfg = hm.ModelConfig(d=4, k_ipm=1, s_ipm=2, k_hrl=2, s_hrl=2, dropout=0.0)
        params = hm.initialize_params(cfg, 12, 2, np.random.default_rng(1))
        a = forward(params, cfg, social, hyper, 77).group_vectors([3]).values[0]
        b = forward(params, cfg, social, hyper, 77).group_vectors([3]).values[0]
        assert np.array_equal(a, b)


class TestCheckpoint:
    @pytest.mark.parametrize("given_features", [False, True])
    @pytest.mark.parametrize("hidden", [None, (), (5, 3, 2)])
    @pytest.mark.parametrize("variant", hm.VARIANTS)
    def test_save_load_round_trip(self, tmp_path, variant, hidden, given_features):
        cfg = hm.ModelConfig(d=4, k_ipm=1, s_ipm=2, k_hrl=2, s_hrl=2, mlp_hidden=hidden, variant=variant)
        feats = np.random.default_rng(1).normal(size=(6, 4)) if given_features else None
        params = hm.initialize_params(cfg, 6, 5, np.random.default_rng(0), node_features=feats)
        path = tmp_path / "model.ckpt"
        hm.save_params(path, params, cfg, seed=9)
        loaded, cfg2, meta = hm.load_params(path)
        assert cfg2 == cfg
        assert meta["seed"] == 9
        layout = hm.param_layout(cfg, 6, 5)
        for tensors in (params.named_tensors(), loaded.named_tensors()):
            assert [(n, t.shape) for n, t in tensors] == layout
        for (n, t1), (_, t2) in zip(params.named_tensors(), loaded.named_tensors()):
            assert t1.values.tobytes() == t2.values.tobytes()
            assert t1.trainable == t2.trainable == (n != "node_features")
            assert t1.name == t2.name == n
        if given_features and hm.uses_ipm(variant):
            assert loaded.node_features.values.tobytes() == feats.tobytes()

    def test_variant_omits_disabled_tensors(self, tmp_path):
        cfg = hm.ModelConfig(d=4, variant="NO_HRL")
        params = hm.initialize_params(cfg, 4, 3, np.random.default_rng(0))
        names = [n for n, _ in params.named_tensors()]
        assert not any(n.startswith("hrl_") for n in names)
        cfg_sh = hm.ModelConfig(d=4, variant="NO_BOTH")
        params_sh = hm.initialize_params(cfg_sh, 4, 3, np.random.default_rng(0))
        names_sh = [n for n, _ in params_sh.named_tensors()]
        assert not any(n.startswith(("hrl_", "ipm_", "node_features")) for n in names_sh)

    @pytest.mark.parametrize("key", ["num_users", "num_items"])
    @pytest.mark.parametrize("value", [1.7, "1", 1.0, True, -1], ids=["fraction", "string", "float", "bool", "negative"])
    def test_counts_must_be_non_negative_json_integers(self, tmp_path, key, value):
        cfg = hm.ModelConfig(d=4)
        params = hm.initialize_params(cfg, 1, 1, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        hm.save_params(path, params, cfg, seed=0)
        meta, _ = nm.load_checkpoint(path)
        nm.save_checkpoint(path, list(params.named_tensors()), dict(meta, **{key: value}))
        with pytest.raises(CheckpointError, match=key):
            hm.load_params(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg = hm.ModelConfig(d=4)
        params = hm.initialize_params(cfg, 4, 3, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        bad_meta = {
            "config": asdict(hm.ModelConfig(d=8)),
            "config_sha256": hm.config_hash(hm.ModelConfig(d=8)),
            "seed": 0,
            "num_users": 4,
            "num_items": 3,
        }
        nm.save_checkpoint(path, list(params.named_tensors()), bad_meta)
        with pytest.raises(CheckpointError, match="shape"):
            hm.load_params(path)

    @pytest.mark.parametrize("case", ["edited_config", "other_hash", "no_hash"])
    def test_config_block_must_match_its_hash(self, tmp_path, case):
        cfg = hm.ModelConfig(d=4)
        params = hm.initialize_params(cfg, 3, 2, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        hm.save_params(path, params, cfg, seed=0)
        meta, _ = nm.load_checkpoint(path)
        if case == "edited_config":  # valid values of the same tensor shapes
            meta["config"] = dict(meta["config"], residual_w=1.0, s_hrl=50)
        elif case == "other_hash":
            meta["config_sha256"] = hm.config_hash(hm.ModelConfig(d=8))
        else:
            del meta["config_sha256"]
        nm.save_checkpoint(path, list(params.named_tensors()), meta)
        with pytest.raises(CheckpointError, match="config_sha256"):
            hm.load_params(path)
