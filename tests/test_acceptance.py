"""Acceptance suite: one test per criterion, each printing a pass/fail line
via the terminal-summary hook in conftest.py.

Tolerances and budgets are pinned here; nothing is deferred to later
calibration.  Every check is deterministic under its fixed seeds.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hypergroup import cli
from hypergroup import model as hm
from hypergroup.data import (
    InteractionDataset,
    SplitSpec,
    SynthConfig,
    generate_synthetic,
    split_interactions,
)
from hypergroup.evaluation import evaluate
from hypergroup.graph import build_hypergraph, build_social_graph, sample_neighbors, shared_members
from hypergroup.numeric import Tape, Tensor
from hypergroup.training import (
    TrainConfig,
    group_batch_loss,
    regularized_parameters,
    sample_negative,
    train,
    user_batch_loss,
)

from metric_oracle import hit_ratio, ndcg

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def adjacency_row(hyper, g):
    """``{neighbor: (weight, common-member set)}`` for group ``g``, the common
    members from one listing of every group; a pair's weight is the size of
    its common set, as the forward pass counts it."""
    nbrs = hyper.neighbors(g)
    listing = hyper.members_of(np.arange(hyper.num_groups))
    users, pair = shared_members(*listing, np.full(nbrs.size, g), nbrs)
    return {
        int(b): (int(w), set(users[pair == k].tolist()))
        for k, (b, w) in enumerate(zip(nbrs, np.bincount(pair, minlength=nbrs.size)))
    }


def relu_np(x):
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# criterion 1: end-to-end gradient correctness


def grad_check_toy_world():
    ds = InteractionDataset(
        num_users=5,
        num_items=6,
        num_groups=4,
        social_edges={(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)},
        user_item=[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (0, 5)],
        group_item=[(0, 0), (1, 2), (2, 4), (3, 5)],
        memberships=[[0, 1], [1, 2], [2, 3, 4], [0, 4]],
    )
    social = build_social_graph(ds)
    hyper = build_hypergraph(ds)
    cfg = hm.ModelConfig(d=8, k_ipm=1, s_ipm=2, k_hrl=2, s_hrl=2,
                         mlp_hidden=(8, 4), dropout=0.1)
    params = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(12))
    return ds, social, hyper, cfg, params


@pytest.mark.acceptance("1 gradient correctness: analytic vs central finite differences")
def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    ds, social, hyper, cfg, params = grad_check_toy_world()
    lam = 1e-3
    group_triples = [(0, 0, 3), (1, 2, 5), (2, 4, 1), (3, 5, 0)]
    user_triples = [(0, 0, 2), (1, 1, 3), (4, 4, 5)]

    tasks = {
        "group": lambda tape=None: group_batch_loss(
            group_triples, params, cfg, social, hyper, lam, np.random.default_rng(77), tape
        ),
        "user": lambda tape=None: user_batch_loss(
            user_triples, params, cfg, social, lam, np.random.default_rng(88), tape
        ),
    }

    worst = 0.0
    for task_name, make_loss in tasks.items():
        for _, p in params.trainable_tensors():
            p.grad = None
        tape = Tape()
        loss = make_loss(tape)
        tape.backward(loss)
        analytic = {
            name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.values))
            for name, t in params.trainable_tensors()
        }
        for name, tensor in params.trainable_tensors():
            flat = tensor.values.ravel()
            ana_flat = analytic[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + FD_STEP
                fp = float(make_loss().values)
                flat[i] = orig - FD_STEP
                fm = float(make_loss().values)
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * FD_STEP)
                err = abs(ana_flat[i] - numeric) / max(1e-6, abs(ana_flat[i]), abs(numeric))
                worst = max(worst, err)
                assert err < GRAD_TOL, (
                    f"{task_name} loss, tensor {name}[{i}]: "
                    f"analytic={ana_flat[i]:.3e} numeric={numeric:.3e} rel_err={err:.3e}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.1f}s"
    print(f"criterion 1: max rel err {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: hypergraph construction vs brute force


@pytest.mark.acceptance("2 hypergraph adjacency equals O(k^2) brute-force intersections")
def test_criterion_2_hypergraph_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        num_users = int(rng.integers(5, 101))
        num_groups = int(rng.integers(2, 201))
        memberships = []
        for _ in range(num_groups):
            size = int(rng.integers(1, min(8, num_users) + 1))
            memberships.append(sorted(rng.choice(num_users, size=size, replace=False).tolist()))
        ds = InteractionDataset(
            num_users=num_users, num_items=1, num_groups=num_groups,
            social_edges=set(), user_item=[(0, 0)], group_item=[],
            memberships=memberships,
        )
        hyper = build_hypergraph(ds)
        sets = [set(m) for m in memberships]
        for a in range(num_groups):
            got = adjacency_row(hyper, a)
            want = {}
            for b in range(num_groups):
                if a == b:
                    continue
                common = sets[a] & sets[b]
                if common:
                    want[b] = (len(common), common)
            assert got == want
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"hypergraph oracle sweep took {elapsed:.1f}s"
    print(f"criterion 2: 20 instances verified in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: evaluation metrics vs brute force


@pytest.mark.acceptance("3 HR/NDCG from evaluate equal brute-force ranking computation")
def test_criterion_3_metric_oracle():
    rng = np.random.default_rng(31)
    num_users, num_items, num_groups = 10, 12, 8
    memberships = [
        sorted(rng.choice(num_users, size=int(rng.integers(1, 4)), replace=False).tolist())
        for _ in range(num_groups)
    ]
    all_pairs = [(g, v) for g in range(num_groups) for v in range(num_items)]
    picks = rng.choice(len(all_pairs), size=50, replace=False)
    cases = [all_pairs[int(i)] for i in picks]
    ds = InteractionDataset(
        num_users=num_users, num_items=num_items, num_groups=num_groups,
        social_edges=set(), user_item=[(0, 0)], group_item=cases,
        memberships=memberships,
    )
    hyper = build_hypergraph(ds)
    cfg = hm.ModelConfig(d=4, variant="NO_BOTH", mlp_hidden=(5,), dropout=0.0)
    params = hm.initialize_params(cfg, num_users, num_items, np.random.default_rng(5))

    report = evaluate(params, cfg, None, hyper, ds, cutoffs=(5, 10), eval_seed=0)

    # independent straight-line recomputation: member-average embedding,
    # explicit MLP arithmetic, exhaustive ranking, manual counting
    lat = params.user_latent.values
    (w1, b1) = params.group_mlp.hidden[0]
    out = params.group_mlp.out.values
    oracle_cases = []
    for g, v in cases:
        emb = lat[memberships[g]].mean(axis=0)
        scores = [
            float(out @ relu_np(w1.values @ np.concatenate([emb, item]) + b1.values))
            for item in params.item_embeddings.values
        ]
        ranked = sorted(range(num_items), key=lambda i: (-scores[i], i))
        oracle_cases.append((g, v, ranked))
    for n in (5, 10):
        hits = sum(1 for _, v, ranked in oracle_cases if v in ranked[:n])
        assert report.metrics[n].hr == hits / len(oracle_cases)
        want_ndcg = sum(
            1.0 / math.log2(ranked.index(v) + 2.0)
            for _, v, ranked in oracle_cases
            if v in ranked[:n]
        ) / len(oracle_cases)
        assert abs(report.metrics[n].ndcg - want_ndcg) <= 1e-12
        assert report.metrics[n].hr == hit_ratio(oracle_cases, n)
        assert abs(report.metrics[n].ndcg - ndcg(oracle_cases, n)) <= 1e-12
    print("criterion 3: 50 cases match exactly")


# ---------------------------------------------------------------------------
# criterion 4: overfit on the planted-structure toy dataset


def overfit_world():
    ds = generate_synthetic(SynthConfig(
        num_users=50, num_items=40, num_groups=30, avg_group_size=3.5,
        num_latent_topics=3, overlap_strength=0.6,
        interactions_per_user=6.0, interactions_per_group=2.5, seed=42,
    ))
    social = build_social_graph(ds)
    hyper = build_hypergraph(ds)
    cfg = hm.ModelConfig(d=32, k_ipm=1, s_ipm=2, k_hrl=2, s_hrl=2,
                         mlp_hidden=(32, 16), dropout=0.0)
    return ds, social, hyper, cfg


@pytest.mark.acceptance("4 overfit: train HR@5 >= 0.9 within 200 epochs; ln2 start")
def test_criterion_4_overfit():
    start = time.perf_counter()
    ds, social, hyper, cfg = overfit_world()

    # zero-initialized output layers score everything 0, so the mean pair
    # loss starts at exactly ln 2 plus the regularization term
    params0 = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(1))
    params0.group_mlp.out.values[:] = 0.0
    params0.user_mlp.out.values[:] = 0.0
    g_triples = [(g, v, (v + 1) % ds.num_items) for g, v in ds.group_item]
    u_triples = [(u, v, (v + 1) % ds.num_items) for u, v in ds.user_item]
    loss_g0 = float(group_batch_loss(g_triples, params0, cfg, social, hyper, 0.0,
                                     np.random.default_rng(0)).values)
    loss_u0 = float(user_batch_loss(u_triples, params0, cfg, social, 0.0,
                                    np.random.default_rng(0)).values)
    assert abs(loss_g0 - math.log(2.0)) < 1e-12
    assert abs(loss_u0 - math.log(2.0)) < 1e-12
    lam = 1e-5
    reg = sum(float(np.sum(p.values ** 2))
              for _, p in regularized_parameters(params0, cfg, "group"))
    loss_g_reg = float(group_batch_loss(g_triples, params0, cfg, social, hyper, lam,
                                        np.random.default_rng(0)).values)
    assert abs(loss_g_reg - (math.log(2.0) + lam * reg)) < 1e-10

    # both strategies must memorize the training interactions
    reached = {}
    for strategy in ("TWO_STAGE", "JOINT"):
        params = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(1))
        epochs_used = 0
        hr = 0.0
        for chunk in range(8):  # 8 x 25 = 200 epochs per interaction stream
            tcfg = TrainConfig(learning_rate=1e-2, batch_size=32, epochs=25,
                               l2_reg=1e-6, negatives=4, strategy=strategy, seed=chunk)
            train(ds, social, hyper, params, cfg, tcfg)
            epochs_used += 25
            hr = evaluate(params, cfg, social, hyper, ds, cutoffs=(5,),
                          eval_seed=0).metrics[5].hr
            if hr >= 0.9:
                break
        reached[strategy] = (hr, epochs_used)
        assert hr >= 0.9, f"{strategy} reached only HR@5={hr:.3f} after {epochs_used} epochs"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"overfit check took {elapsed:.1f}s"
    print(f"criterion 4: {reached} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5 and 6: ablation and strategy direction on held-out data


ABLATION_SEEDS = (0, 1, 2, 3, 4)


def _direction_run(seed: int, variant: str, strategy: str) -> float:
    """One train/evaluate run; NDCG@10 over all held-out group interactions."""
    ds = generate_synthetic(SynthConfig(
        num_users=60, num_items=60, num_groups=100, avg_group_size=3.5,
        num_latent_topics=3, overlap_strength=0.8,
        interactions_per_user=3.5, interactions_per_group=4.0,
        social_degree=5.0, cross_topic_noise=0.05,
        organizer_influence=0.6, seed=1000 + seed,
    ))
    train_split, val_split, test_split = split_interactions(ds, SplitSpec(seed=seed))
    heldout = replace(test_split, group_item=val_split.group_item + test_split.group_item)
    social = build_social_graph(train_split)
    hyper = build_hypergraph(train_split)
    cfg = hm.ModelConfig(d=16, k_ipm=1, s_ipm=2, k_hrl=2, s_hrl=2,
                         mlp_hidden=(16, 8), dropout=0.1, variant=variant)
    params = hm.initialize_params(cfg, ds.num_users, ds.num_items,
                                  np.random.default_rng([seed, 1]))
    tcfg = TrainConfig(learning_rate=5e-3, batch_size=64, epochs=80, l2_reg=1e-5,
                       negatives=1, strategy=strategy, seed=seed)
    train(train_split, social, hyper, params, cfg, tcfg)
    report = evaluate(params, cfg, social, hyper, heldout, cutoffs=(10,), eval_seed=0)
    return report.metrics[10].ndcg


@pytest.fixture(scope="module")
def direction_scores():
    configs = {
        "full_ts": ("FULL", "TWO_STAGE"),
        "no_hrl_ts": ("NO_HRL", "TWO_STAGE"),
        "no_both_ts": ("NO_BOTH", "TWO_STAGE"),
        "full_joint": ("FULL", "JOINT"),
        "full_group_only": ("FULL", "GROUP_ONLY"),
    }
    return {
        name: float(np.mean([_direction_run(s, variant, strategy) for s in ABLATION_SEEDS]))
        for name, (variant, strategy) in configs.items()
    }


@pytest.mark.acceptance("5 ablation direction: FULL >= NO_HRL and FULL >= NO_BOTH")
def test_criterion_5_ablation_direction(direction_scores):
    s = direction_scores
    print(f"criterion 5: FULL={s['full_ts']:.4f} NO_HRL={s['no_hrl_ts']:.4f} "
          f"NO_BOTH={s['no_both_ts']:.4f}")
    assert s["full_ts"] >= s["no_hrl_ts"]
    assert s["full_ts"] >= s["no_both_ts"]


@pytest.mark.acceptance("6 strategy direction: TWO_STAGE and JOINT beat GROUP_ONLY")
def test_criterion_6_strategy_direction(direction_scores):
    s = direction_scores
    print(f"criterion 6: TS={s['full_ts']:.4f} JOINT={s['full_joint']:.4f} "
          f"GROUP_ONLY={s['full_group_only']:.4f}")
    assert s["full_ts"] > s["full_group_only"]
    assert s["full_joint"] > s["full_group_only"]


# ---------------------------------------------------------------------------
# criterion 7: determinism through the CLI


@pytest.mark.acceptance("7 determinism: byte-identical checkpoints and reports")
def test_criterion_7_determinism(tmp_path):
    synth_cfg = {"num_users": 24, "num_items": 15, "num_groups": 10,
                 "avg_group_size": 3.0, "num_latent_topics": 3,
                 "overlap_strength": 0.6, "interactions_per_user": 5.0,
                 "interactions_per_group": 2.0, "seed": 3}
    run_cfg = {"model": {"d": 8, "k_ipm": 1, "s_ipm": 2, "k_hrl": 1, "s_hrl": 2,
                         "dropout": 0.1},
               "train": {"learning_rate": 0.003, "batch_size": 64, "epochs": 3, "seed": 5}}
    (tmp_path / "synth.json").write_text(json.dumps(synth_cfg))
    (tmp_path / "run.json").write_text(json.dumps(run_cfg))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(data)]) == 0

    for name in ("a", "b"):
        rc = cli.main(["train", "--data", str(data), "--config", str(tmp_path / "run.json"),
                       "--out", str(tmp_path / name), "--seed", "11"])
        assert rc == 0
    ckpt_a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
    ckpt_b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
    assert ckpt_a == ckpt_b

    for name in ("r1.json", "r2.json"):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path / "a" / "checkpoint.bin"),
                       "--data", str(data), "--topn", "5,10",
                       "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    print("criterion 7: checkpoints and reports byte-identical")


# ---------------------------------------------------------------------------
# criterion 8: invariant battery, >= 100 randomized cases each


@pytest.mark.acceptance("8 invariant battery: 100+ randomized cases per property")
def test_criterion_8_invariants():
    rng = np.random.default_rng(888)

    # unit-norm embeddings (or degenerate all-zero activations)
    checked = 0
    for trial in range(100):
        num_users = int(rng.integers(4, 12))
        memberships = [
            sorted(rng.choice(num_users, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(int(rng.integers(2, 6)))
        ]
        edges = set()
        for _ in range(int(rng.integers(1, 2 * num_users))):
            a, b = rng.integers(num_users, size=2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        ds = InteractionDataset(
            num_users=num_users, num_items=3, num_groups=len(memberships),
            social_edges=edges, user_item=[(0, 0)], group_item=[],
            memberships=memberships,
        )
        social, hyper = build_social_graph(ds), build_hypergraph(ds)
        cfg = hm.ModelConfig(d=6, k_ipm=1, s_ipm=2, k_hrl=1, s_hrl=2, dropout=0.0)
        params = hm.initialize_params(cfg, num_users, 3, np.random.default_rng(trial))
        u = int(rng.integers(num_users))
        g = int(rng.integers(len(memberships)))
        # the social encoder's row (member rows over a zero latent table, z +
        # 0.0) and the hyperedge encoder's (residual_w 1, 1.0*z + 0.0*x); both
        # draw what the encoders alone draw, in the same order
        zero = Tensor(np.zeros((num_users, cfg.d)))
        zero_latent = hm.ModelParams(num_users, 3, {**params.tensors, "user_latent": zero})
        encoder_only = replace(cfg, residual_w=1.0)
        for vec in (
            hm.ForwardPass(zero_latent, cfg, social, None, rng).member_vectors([u]).values[0],
            hm.ForwardPass(params, encoder_only, social, hyper, rng).group_vectors([g]).values[0],
        ):
            n = float(np.linalg.norm(vec))
            assert abs(n - 1.0) < 1e-9 or n < 1e-6
            checked += 1
    assert checked >= 200

    # hyperedge adjacency symmetry
    for _ in range(100):
        num_users = int(rng.integers(3, 20))
        memberships = [
            sorted(rng.choice(num_users, size=int(rng.integers(1, min(5, num_users + 1))),
                              replace=False).tolist())
            for _ in range(int(rng.integers(1, 12)))
        ]
        ds = InteractionDataset(
            num_users=num_users, num_items=1, num_groups=len(memberships),
            social_edges=set(), user_item=[(0, 0)], group_item=[],
            memberships=memberships,
        )
        hyper = build_hypergraph(ds)
        for g in range(hyper.num_groups):
            for b, (weight, common) in adjacency_row(hyper, g).items():
                assert b != g
                assert weight == len(common) >= 1
                assert adjacency_row(hyper, b)[g] == (weight, common)

    # hit ratio monotone in the cutoff
    for _ in range(100):
        n_items = int(rng.integers(2, 30))
        cases = [
            ("e", int(rng.integers(n_items)), rng.permutation(n_items).tolist())
            for _ in range(int(rng.integers(1, 10)))
        ]
        values = [hit_ratio(cases, n) for n in range(1, n_items + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    # negative samples never collide with the positive set
    for _ in range(100):
        n_items = int(rng.integers(2, 40))
        positives = set(
            rng.choice(n_items, size=int(rng.integers(1, n_items)), replace=False).tolist()
        )
        for v in sample_negative(positives, n_items, int(rng.integers(1, 6)), rng):
            assert v not in positives

    # split partitions are disjoint and recompose the input multiset
    for trial in range(100):
        ds = generate_synthetic(SynthConfig(
            num_users=int(rng.integers(6, 25)), num_items=int(rng.integers(5, 20)),
            num_groups=int(rng.integers(2, 10)), avg_group_size=2.5,
            num_latent_topics=int(rng.integers(1, 4)),
            overlap_strength=float(rng.uniform(0, 1)), seed=trial,
        ))
        train_split, val_split, test_split = split_interactions(ds, SplitSpec(seed=trial))
        for pairs_name in ("group_item", "user_item"):
            a = getattr(train_split, pairs_name)
            b = getattr(val_split, pairs_name)
            c = getattr(test_split, pairs_name)
            assert sorted(a + b + c) == sorted(getattr(ds, pairs_name))
            assert set(a).isdisjoint(b) and set(a).isdisjoint(c) and set(b).isdisjoint(c)

    # every node of a layer gets exactly the requested number of samples:
    # distinct ones from a large enough pool, repeats only from a smaller one
    for _ in range(100):
        degrees = rng.integers(0, 9, size=int(rng.integers(1, 6)))
        size = int(rng.integers(1, 7))
        out = sample_neighbors(degrees, size, rng)
        assert out.shape == (degrees.size, size)
        for n, row in zip(degrees.tolist(), out.tolist()):
            if n == 0:
                assert row == [-1] * size
            else:
                assert all(0 <= x < n for x in row)
                assert n < size or len(set(row)) == size

    print("criterion 8: all property batteries passed")
