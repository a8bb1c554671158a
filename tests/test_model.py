"""Forward-model tests: straight-line oracles and variant contracts."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from hypergroup import model as hm
from hypergroup import numeric as nm
from hypergroup.data import InteractionDataset
from hypergroup.errors import CheckpointError, ConfigError, ContractViolation, DimensionError, load_config
from hypergroup.graph import build_hypergraph, build_social_graph, common_members


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
    return hm.ItemScorer(params.group_mlp, params.item_embeddings.values).scores(emb)


def user_scores(u, params, cfg):
    emb = forward(params, cfg, None, None, 0).member_vectors([u]).values[0]
    return hm.ItemScorer(params.user_mlp, params.item_embeddings.values).scores(emb)


class TestConfig:
    def test_defaults_valid(self):
        hm.ModelConfig().validate()

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            hm.ModelConfig(variant="WAT").validate()

    def test_bad_residual(self):
        with pytest.raises(ConfigError):
            hm.ModelConfig(residual_w=1.5).validate()

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
    @pytest.mark.parametrize("hidden", [None, (4,), ()])
    def test_matches_mlp_forward_on_tiled_inputs(self, hidden):
        cfg = hm.ModelConfig(d=16, mlp_hidden=hidden, dropout=0.3)
        rng = np.random.default_rng(1)
        params = hm.initialize_params(cfg, 5, 300, rng)
        items = params.item_embeddings.values
        for tower in (params.group_mlp, params.user_mlp):
            scorer = hm.ItemScorer(tower, items)
            for _ in range(8):
                e = rng.normal(size=cfg.d)
                x = nm.Tensor(np.concatenate([np.tile(e, (items.shape[0], 1)), items], axis=1))
                want = hm.mlp_forward(tower, x, replace(cfg, dropout=0.0), rng).values
                got = scorer.scores(e)
                assert got.shape == want.shape
                # the first layer's sums are reassociated: equal to rounding
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("hidden", [None, ()])
    def test_nan_propagates(self, hidden):
        cfg = hm.ModelConfig(d=4, mlp_hidden=hidden)
        params = hm.initialize_params(cfg, 3, 6, np.random.default_rng(4))
        params.item_embeddings.values[2, 1] = np.nan
        scores = hm.ItemScorer(params.group_mlp, params.item_embeddings.values).scores(np.ones(4))
        assert np.isnan(scores[2])
        assert np.all(np.isfinite(np.delete(scores, 2)))

    def test_wrong_entity_width_rejected(self):
        cfg = hm.ModelConfig(d=4)
        params = hm.initialize_params(cfg, 3, 6, np.random.default_rng(5))
        scorer = hm.ItemScorer(params.group_mlp, params.item_embeddings.values)
        with pytest.raises(DimensionError):
            scorer.scores(np.ones(5))
        with pytest.raises(DimensionError):
            hm.ItemScorer(params.group_mlp, np.ones((6, 3)))


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
        params.item_embeddings.values[2] += 1.0
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
            "config_sha256": "x",
            "seed": 0,
            "num_users": 4,
            "num_items": 3,
        }
        nm.save_checkpoint(path, list(params.named_tensors()), bad_meta)
        with pytest.raises(CheckpointError):
            hm.load_params(path)
