"""Ranking-metric and evaluation-pipeline tests."""

from dataclasses import replace

import numpy as np
import pytest

from hypergroup import evaluation as he
from hypergroup import model as hm
from hypergroup.data import InteractionDataset, SynthConfig, generate_synthetic
from hypergroup.errors import ConfigError, ContractViolation
from hypergroup.graph import build_hypergraph, build_social_graph

import metric_oracle as oracle


def relu_np(x):
    return np.maximum(x, 0.0)


def make_eval_world(num_users=6, num_items=10, memberships=((0, 1), (2, 3), (4, 5)),
                    group_item=((0, 2), (1, 7), (2, 4)), seed=0):
    ds = InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        num_groups=len(memberships),
        social_edges=set(),
        user_item=[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)],
        group_item=list(group_item),
        memberships=[list(m) for m in memberships],
    )
    hyper = build_hypergraph(ds)
    cfg = hm.ModelConfig(d=4, variant="NO_BOTH", mlp_hidden=(4,), dropout=0.0)
    params = hm.initialize_params(cfg, num_users, num_items, np.random.default_rng(seed))
    return ds, hyper, cfg, params


class TestRankItems:
    def test_basic_order(self):
        np.testing.assert_array_equal(he.rank_items([0.1, 0.9, 0.5]), [1, 2, 0])

    def test_all_equal_uses_index_order(self):
        np.testing.assert_array_equal(he.rank_items([0.5] * 4), [0, 1, 2, 3])

    def test_matches_reference_sort(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.choice([-1.0, 0.0, 0.25, 1.0], size=int(rng.integers(2, 40)))
            got = he.rank_items(scores).tolist()
            want = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            assert got == want

    @staticmethod
    def assert_stable_order(scores):
        scores = np.asarray(scores, dtype=np.float64)
        got = he.rank_items(scores)
        want = np.argsort(-scores, kind="stable")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("scores", [
        [],
        [0.5],
        [-0.0],
        [0.0, -0.0, 0.0, -0.0, 1.0, -0.0],
        [-0.0, 0.0, -1.0, 0.0, -0.0, -1.0],
        [0.5] * 1000,
        [0.5] * 300 + [1.0] * 300 + [0.5] * 300 + [-2.0] * 300,
        list(np.arange(2000.0)),
        list(np.arange(2000.0)[::-1]),
    ])
    def test_matches_stable_argsort(self, scores):
        self.assert_stable_order(scores)

    def test_matches_stable_argsort_on_a_random_battery(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(0, 3000))
            if trial % 3 == 0:
                scores = rng.normal(size=n)
            elif trial % 3 == 1:
                scores = rng.choice([-1.0, -0.0, 0.0, 0.25, 1.0], size=n)
            else:  # long tie runs among distinct values
                scores = np.repeat(rng.normal(size=max(1, n // 50)), 50)[:n]
                rng.shuffle(scores)
            self.assert_stable_order(scores)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolation):
            he.rank_items([0.0, np.nan])

    @pytest.mark.parametrize("scores", [np.zeros((2, 3)), np.zeros((1, 4)), 0.5])
    def test_not_one_dimensional_rejected(self, scores):
        with pytest.raises(ContractViolation, match="one-dimensional"):
            he.rank_items(scores)


class TestCountRanks:
    def test_matches_stable_argsort_ranks(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            # ties, both signed zeros and excluded (-inf) items
            scores = rng.choice([-1.0, -0.0, 0.0, 0.25, 1.0, -np.inf], size=n)
            order = np.argsort(-scores, kind="stable")
            want = np.empty(n, dtype=np.int64)
            want[order] = np.arange(1, n + 1)
            items = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            np.testing.assert_array_equal(he.count_ranks(scores, items), want[items])

    def test_gives_each_item_its_position_in_rank_items(self):
        # eval counts ranks and recommend sorts: both must place every item alike
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            scores = rng.choice([-1.0, -0.0, 0.0, 0.25, 1.0], size=n)
            position = np.empty(n, dtype=np.int64)
            position[he.rank_items(scores)] = np.arange(1, n + 1)
            np.testing.assert_array_equal(he.count_ranks(scores, np.arange(n)), position)


class TestHitRatio:
    def cases_with_ranks(self, ranks, n_items=60):
        cases = []
        for r in ranks:
            ranked = list(range(n_items))
            truth = ranked[r - 1]
            cases.append(("e", truth, ranked))
        return cases

    def test_half_hit(self):
        cases = self.cases_with_ranks([1, 3, 12, 50])
        assert oracle.hit_ratio(cases, 5) == 0.5

    def test_rank_one_always_hits(self):
        cases = self.cases_with_ranks([1, 1, 1])
        for n in (1, 2, 10):
            assert oracle.hit_ratio(cases, n) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        cases = []
        for _ in range(50):
            n_items = int(rng.integers(5, 30))
            ranked = rng.permutation(n_items).tolist()
            truth = int(rng.integers(n_items))
            cases.append(("e", truth, ranked))
        for n in (1, 3, 5, 10):
            want = sum(1 for _, t, r in cases if t in r[:n]) / len(cases)
            assert oracle.hit_ratio(cases, n) == want

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n_items = int(rng.integers(3, 25))
            cases = [
                ("e", int(rng.integers(n_items)), rng.permutation(n_items).tolist())
                for _ in range(int(rng.integers(1, 8)))
            ]
            values = [oracle.hit_ratio(cases, n) for n in range(1, n_items + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            oracle.hit_ratio([], 5)


class TestNdcg:
    def test_rank_one_scores_one(self):
        cases = [("e", 0, [0, 1, 2, 3])]
        assert oracle.ndcg(cases, 4) == 1.0

    def test_rank_three_scores_half(self):
        cases = [("e", 2, [0, 1, 2, 3])]
        assert abs(oracle.ndcg(cases, 4) - 0.5) < 1e-15

    def test_miss_scores_zero(self):
        cases = [("e", 3, [0, 1, 2, 3])]
        assert oracle.ndcg(cases, 2) == 0.0

    def test_gain_non_increasing_in_rank(self):
        n_items = 20
        gains = []
        for r in range(1, n_items + 1):
            ranked = list(range(n_items))
            gains.append(oracle.ndcg([("e", ranked[r - 1], ranked)], n_items))
        assert all(a >= b for a, b in zip(gains, gains[1:]))


class TestEvaluate:
    def test_zero_weight_model_tie_rule(self):
        ds, hyper, cfg, params = make_eval_world(group_item=[(0, 7)])
        for tower in (params.group_mlp, params.user_mlp):
            for w, b in tower.hidden:
                w.values[:] = 0.0
                b.values[:] = 0.0
            tower.out.values[:] = 0.0
        report = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5, 10), eval_seed=0)
        assert report.metrics[10].hr == 1.0
        assert report.metrics[5].hr == 0.0  # item 7 sits at rank 8 under ties
        ds2 = make_eval_world(group_item=[(0, 3)])[0]
        report2 = he.evaluate(params, cfg, None, hyper, ds2, cutoffs=(5,), eval_seed=0)
        assert report2.metrics[5].hr == 1.0

    def test_matches_straight_line_recomputation(self):
        ds, hyper, cfg, params = make_eval_world(
            group_item=[(0, 1), (0, 4), (1, 9), (2, 0), (2, 8)], seed=3
        )
        report = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(3, 5), eval_seed=1)

        lat = params.user_latent.values
        (w1, b1) = params.group_mlp.hidden[0]
        out = params.group_mlp.out.values
        cases = []
        for g, v in ds.group_item:
            emb = lat[ds.memberships[g]].mean(axis=0)
            scores = []
            for item_row in params.item_embeddings.values:
                h = relu_np(w1.values @ np.concatenate([emb, item_row]) + b1.values)
                scores.append(float(out @ h))
            ranked = sorted(range(ds.num_items), key=lambda i: (-scores[i], i))
            cases.append((g, v, ranked))
        for n in (3, 5):
            assert report.metrics[n].hr == oracle.hit_ratio(cases, n)
            assert abs(report.metrics[n].ndcg - oracle.ndcg(cases, n)) < 1e-12

    def test_deterministic_under_seed(self):
        ds, hyper, cfg, params = make_eval_world(seed=4)
        a = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5, 10), eval_seed=9)
        b = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5, 10), eval_seed=9)
        assert a.to_dict() == b.to_dict()

    def test_full_cutoff_always_hits(self):
        ds, hyper, cfg, params = make_eval_world(seed=5)
        report = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(ds.num_items,), eval_seed=0)
        assert report.metrics[ds.num_items].hr == 1.0

    def test_exclusion_improves_rank_of_truth(self):
        ds, hyper, cfg, params = make_eval_world(group_item=[(0, 3)], seed=6)
        train = InteractionDataset(
            num_users=ds.num_users, num_items=ds.num_items, num_groups=ds.num_groups,
            social_edges=set(), user_item=[], group_item=[(0, v) for v in range(ds.num_items) if v != 3],
            memberships=ds.memberships,
        )
        base, details = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(1,), eval_seed=0,
                                    detail=True)
        excl, details_excl = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(1,), eval_seed=0,
                                         train_ds=train, exclude_train_positives=True, detail=True)
        assert details_excl[0][2] == 1  # every other item was a training positive
        assert details_excl[0][2] <= details[0][2]
        assert excl.metrics[1].hr == 1.0

    def test_entity_scores_equal_the_recommend_path_bit_for_bit(self, monkeypatch):
        ds = generate_synthetic(SynthConfig(num_users=40, num_items=300, num_groups=20,
                                            avg_group_size=3.0, num_latent_topics=3, seed=2))
        social, hyper = build_social_graph(ds), build_hypergraph(ds)
        cfg = hm.ModelConfig(d=16, k_ipm=1, s_ipm=2, k_hrl=1, s_hrl=2)
        params = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(8))
        seen = []
        item_scores = hm.MlpTower.item_scores

        def recording(self, emb, items):
            out = item_scores(self, emb, items)
            seen.append(out.copy())
            return out

        monkeypatch.setattr(hm.MlpTower, "item_scores", recording)
        _, detail = he.evaluate(params, cfg, social, hyper, ds, cutoffs=(10,), eval_seed=4,
                                detail=True)
        groups = sorted({g for g, _ in ds.group_item})
        fp = hm.ForwardPass(params, cfg, social, hyper, np.random.default_rng(4))
        rows = fp.group_vectors(groups).values
        assert len(seen) == len(groups)
        alone = {}
        for g, row, inside in zip(groups, rows, seen):
            alone[g] = hm.score_items_for_embedding(row, params, params.group_mlp, cfg)
            assert alone[g].tobytes() == inside.tobytes()
        for g, v, rank in detail:
            s = alone[g]
            assert rank == 1 + np.sum(s > s[v]) + np.sum(s[:v] == s[v])

    @pytest.mark.parametrize("exclude", [False, True])
    def test_nan_tower_output_raises(self, exclude):
        ds, hyper, cfg, params = make_eval_world(seed=7)
        params.group_mlp.out.values[0] = np.nan
        with pytest.raises(ContractViolation):
            he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5,), eval_seed=0,
                        train_ds=ds, exclude_train_positives=exclude)

    def test_nan_item_row_raises(self):
        ds, hyper, cfg, params = make_eval_world(seed=8)
        params.item_embeddings.values[5] = np.nan
        with pytest.raises(ContractViolation):
            he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5,), eval_seed=0)

    @pytest.mark.parametrize("target", ["groups", "users"])
    def test_test_case_among_excluded_positives_rejected(self, target):
        # excluding it would rank the truth last and report zeros
        ds, hyper, cfg, params = make_eval_world(seed=2)
        with pytest.raises(ConfigError, match="excluded training positive"):
            he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5,), eval_seed=0, target=target,
                        train_ds=ds, exclude_train_positives=True)

    def test_exclusion_requires_train_split(self):
        ds, hyper, cfg, params = make_eval_world()
        with pytest.raises(ConfigError):
            he.evaluate(params, cfg, None, hyper, ds, exclude_train_positives=True)

    def test_strata_partition_cases(self):
        ds, hyper, cfg, params = make_eval_world(
            num_users=12,
            memberships=((0, 1), (2, 3, 4, 5), (0, 1, 2, 3, 4, 5, 6, 7)),
            group_item=((0, 2), (1, 7), (2, 4), (2, 9)),
        )
        report = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5,), eval_seed=0, strata=True)
        sizes = report.strata["group_size"]
        assert sizes["l<3"]["num_test_cases"] == 1
        assert sizes["3<=l<=7"]["num_test_cases"] == 1
        assert sizes["l>7"]["num_test_cases"] == 2
        total = sum(v["num_test_cases"] for v in report.strata["item_activity"].values())
        assert total == report.num_test_cases

    def test_item_activity_from_a_train_split_without_group_pairs(self):
        # no group-item pair counts, so every test item has activity 0
        ds, hyper, cfg, params = make_eval_world()
        train = replace(ds, group_item=[])
        report = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5,), eval_seed=0, target="users",
                             train_ds=train, strata=True)
        activity = report.strata["item_activity"]
        assert activity["tau<=3"]["num_test_cases"] == report.num_test_cases == len(ds.user_item)
        assert activity["tau>3"] == {"num_test_cases": 0, "metrics": None}
        assert activity["tau<=3"]["metrics"] == report.to_dict()["metrics"]

    def test_empty_split_rejected(self):
        ds, hyper, cfg, params = make_eval_world()
        ds.group_item = []
        with pytest.raises(ContractViolation):
            he.evaluate(params, cfg, None, hyper, ds)

    def test_report_renders(self):
        ds, hyper, cfg, params = make_eval_world()
        report = he.evaluate(params, cfg, None, hyper, ds, cutoffs=(5, 10), eval_seed=0)
        table = report.to_table()
        assert "HR" in table and "@5" in table and "@10" in table
        blob = report.to_json()
        assert '"metrics"' in blob


class TestPopBaseline:
    def test_counts_and_tie_rule(self):
        # counts: item0 = 4, item1 = 2, item2 = 0
        ds = InteractionDataset(
            num_users=2, num_items=3, num_groups=1,
            social_edges=set(),
            user_item=[(0, 0), (1, 0), (0, 1)],
            group_item=[(0, 0), (0, 1)],
            memberships=[[0, 1]],
        )
        ranked = he.pop_baseline(ds)
        np.testing.assert_array_equal(ranked, [0, 1, 2])

    def test_unseen_items_rank_last_by_index(self):
        ds = InteractionDataset(
            num_users=1, num_items=5, num_groups=1,
            social_edges=set(),
            user_item=[(0, 3)],
            group_item=[(0, 3)],
            memberships=[[0]],
        )
        ranked = he.pop_baseline(ds).tolist()
        assert ranked == [3, 0, 1, 2, 4]

    @pytest.mark.parametrize("kind", ["user_item", "group_item"])
    def test_one_kind_of_pairs(self, kind):
        ds = InteractionDataset(num_users=1, num_items=4, num_groups=1, social_edges=set(),
                                user_item=[], group_item=[], memberships=[[0]])
        setattr(ds, kind, [(0, 2), (0, 1)])
        assert he.pop_baseline(ds).tolist() == [1, 2, 0, 3]

    def test_matches_reference_sort(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n_items = int(rng.integers(2, 25))
            counts = rng.integers(0, 5, size=n_items)
            user_item = [(0, v) for v in range(n_items) for _ in range(int(counts[v]))]
            ds = InteractionDataset(
                num_users=1, num_items=n_items, num_groups=1,
                social_edges=set(), user_item=list(dict.fromkeys(user_item)),
                group_item=[], memberships=[[0]],
            )
            # rebuild multiplicity via group_item to keep pairs unique per list
            ds.user_item = [(0, v) for v in range(n_items) if counts[v] > 0]
            ds.group_item = [(g, v) for v in range(n_items) for g in range(int(counts[v]) - 1) if counts[v] > 1]
            got = he.pop_baseline(ds).tolist()
            totals = np.zeros(n_items, dtype=int)
            for _, v in ds.user_item:
                totals[v] += 1
            for _, v in ds.group_item:
                totals[v] += 1
            want = sorted(range(n_items), key=lambda i: (-totals[i], i))
            assert got == want
