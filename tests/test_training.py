"""Negative sampling, loss, optimizer and training-loop tests."""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from hypergroup import evaluation as he
from hypergroup import model as hm
from hypergroup import numeric as nm
from hypergroup import training as ht
from hypergroup.data import InteractionDataset, SynthConfig, generate_synthetic
from hypergroup.errors import ConfigError, ContractViolation, NumericError, SamplingError
from hypergroup.graph import build_hypergraph, build_social_graph
from hypergroup.numeric import Tape, Tensor


def toy_world(d=4, variant="FULL", dropout=0.1, seed=0, k_hrl=1):
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
    cfg = hm.ModelConfig(d=d, k_ipm=1, s_ipm=2, k_hrl=k_hrl, s_hrl=2,
                         mlp_hidden=(d, max(1, d // 2)), dropout=dropout, variant=variant)
    params = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(seed))
    return ds, social, hyper, cfg, params


class TestSampleNegative:
    def test_single_candidate_repeats(self):
        out = ht.sample_negative({0, 1}, 3, 2, np.random.default_rng(0))
        assert out == [2, 2]

    def test_never_collides_with_positives(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n_items = int(rng.integers(3, 30))
            positives = set(
                rng.choice(n_items, size=int(rng.integers(1, n_items)), replace=False).tolist()
            )
            for v in ht.sample_negative(positives, n_items, 5, rng):
                assert v not in positives

    def test_uniform_over_all_items_when_unconstrained(self):
        # chi-square goodness of fit against uniform; the 99th percentile of
        # chi2 with 19 degrees of freedom is 36.19
        rng = np.random.default_rng(2)
        n_items = 20
        draws = ht.sample_negative(set(), n_items, 100_000, rng)
        counts = np.bincount(draws, minlength=n_items)
        expected = len(draws) / n_items
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 36.19

    def test_saturated_positives_rejected(self):
        with pytest.raises(SamplingError):
            ht.sample_negative({0, 1, 2}, 3, 1, np.random.default_rng(0))


class TestBatchLosses:
    def zeroed_world(self, **kw):
        ds, social, hyper, cfg, params = toy_world(**kw)
        for tower in (params.group_mlp, params.user_mlp):
            tower.out.values[:] = 0.0
        return ds, social, hyper, cfg, params

    def test_zero_output_layer_gives_ln2(self):
        ds, social, hyper, cfg, params = self.zeroed_world()
        triples = [(g, v, (v + 1) % ds.num_items) for g, v in ds.group_item]
        loss = ht.group_batch_loss(triples, params, cfg, social, hyper, 0.0,
                                   np.random.default_rng(0))
        assert abs(float(loss.values) - math.log(2.0)) < 1e-12
        triples_u = [(u, v, (v + 1) % ds.num_items) for u, v in ds.user_item]
        loss_u = ht.user_batch_loss(triples_u, params, cfg, social, 0.0,
                                    np.random.default_rng(0))
        assert abs(float(loss_u.values) - math.log(2.0)) < 1e-12

    def test_regularization_term_matches_manual_sum(self):
        ds, social, hyper, cfg, params = self.zeroed_world()
        lam = 1e-3
        triples = [(0, 0, 1)]
        loss = ht.group_batch_loss(triples, params, cfg, social, hyper, lam,
                                   np.random.default_rng(0))
        manual = sum(
            float(np.sum(p.values ** 2))
            for _, p in ht.regularized_parameters(params, cfg, "group")
        )
        assert abs(float(loss.values) - (math.log(2.0) + lam * manual)) < 1e-10

    def test_swapping_equal_scores_keeps_loss(self):
        ds, social, hyper, cfg, params = self.zeroed_world()
        a = ht.user_batch_loss([(0, 0, 3)], params, cfg, social, 0.0, np.random.default_rng(5))
        b = ht.user_batch_loss([(0, 3, 0)], params, cfg, social, 0.0, np.random.default_rng(5))
        assert float(a.values) == float(b.values)

    def test_regularization_monotone_in_lambda(self):
        ds, social, hyper, cfg, params = toy_world(dropout=0.0)
        triples = [(g, v, (v + 2) % ds.num_items) for g, v in ds.group_item]
        values = [
            float(ht.group_batch_loss(triples, params, cfg, social, hyper, lam,
                                      np.random.default_rng(7)).values)
            for lam in (0.0, 1e-5, 1e-3, 1e-1)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("task", ["group", "user"])
    @pytest.mark.parametrize("variant", hm.VARIANTS)
    def test_touched_parameters_match_declared_set(self, variant, task):
        # without l2 only the forward pass touches parameters, so the
        # declared set cannot hold one the batch does not use
        ds, social, hyper, cfg, params = toy_world(dropout=0.0, variant=variant)
        tape = Tape()
        if task == "group":
            ht.group_batch_loss([(2, 1, 3)], params, cfg, social, hyper, 0.0,
                                np.random.default_rng(0), tape)
        else:
            ht.user_batch_loss([(1, 1, 4)], params, cfg, social, 0.0,
                               np.random.default_rng(0), tape)
        touched = {id(t) for t in tape.touched_parameters()}
        declared = {id(t) for _, t in ht.regularized_parameters(params, cfg, task)}
        assert touched == declared

    def test_user_loss_touches_no_group_tower(self):
        ds, social, hyper, cfg, params = toy_world(dropout=0.0)
        tape = Tape()
        ht.user_batch_loss([(1, 1, 4)], params, cfg, social, 1e-5,
                           np.random.default_rng(0), tape)
        touched = {id(t) for t in tape.touched_parameters()}
        group_tower = {id(t) for t in [params.group_mlp.out] +
                       [x for w, b in params.group_mlp.hidden for x in (w, b)]}
        hrl = {id(t) for t in params.hrl_layers}
        assert touched.isdisjoint(group_tower)
        assert touched.isdisjoint(hrl)

    def test_gradients_match_finite_differences_quick(self):
        # spot check over a few tensors; the acceptance suite sweeps them all
        ds, social, hyper, cfg, params = toy_world(d=4, dropout=0.1)
        triples = [(0, 0, 3), (2, 4, 1)]

        def loss_value() -> float:
            return float(
                ht.group_batch_loss(triples, params, cfg, social, hyper, 1e-3,
                                    np.random.default_rng(33)).values
            )

        tape = Tape()
        loss = ht.group_batch_loss(triples, params, cfg, social, hyper, 1e-3,
                                   np.random.default_rng(33), tape)
        tape.backward(loss)
        h = 1e-5
        for tensor in (params.user_latent, params.hrl_layers[0], params.group_mlp.out):
            analytic = tensor.grad.copy()
            flat = tensor.values.ravel()
            for i in range(0, flat.size, max(1, flat.size // 6)):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_value()
                flat[i] = orig - h
                fm = loss_value()
                flat[i] = orig
                num = (fp - fm) / (2 * h)
                ana = analytic.ravel()[i]
                assert abs(ana - num) / max(1e-6, abs(ana), abs(num)) < 1e-4
        for _, p in params.trainable_tensors():
            p.zero_grad()


class TestOptimizers:
    def test_sgd_hand_case(self):
        p = Tensor([0.0], name="p", trainable=True)
        p.grad = np.array([1.0])
        ht.SgdOptimizer(lr=0.1).step([p])
        np.testing.assert_allclose(p.values, [-0.1])

    def test_zero_gradient_leaves_params(self):
        for opt in (ht.SgdOptimizer(0.1), ht.AdamOptimizer(0.1)):
            p = Tensor([0.5, -0.5], name="p", trainable=True)
            p.grad = np.zeros(2)
            before = p.values.copy()
            opt.step([p])
            assert np.array_equal(p.values, before)

    def test_touched_trainable_with_zero_gradient_is_stepped(self):
        p = Tensor([[1.0, -2.0]], name="p", trainable=True)
        opt = ht.AdamOptimizer(0.1)
        for weight in (1.0, 0.0):
            tape = Tape()
            tape.backward(nm.mean_all(nm.mul_rows(p, [weight], tape), tape))
            touched = tape.touched_parameters()
            assert touched == [p]
            # a touched trainable keeps its buffer, zero gradient included
            assert p.grad is not None and p.grad.any() == bool(weight)
            before = p.values.copy()
            opt.step(touched)
            p.zero_grad()
        # the zero-gradient step advanced p's step count and moved it by
        # the first step's momentum
        assert opt._state[id(p)][2] == 2
        assert not np.array_equal(p.values, before)

    @pytest.mark.parametrize("make", [lambda: ht.AdamOptimizer(0.1), lambda: ht.SgdOptimizer(0.1)])
    def test_steps_write_through_the_tensor_write_path(self, make):
        # a read-only parameter is stepped, bumps its version and stays read-only
        p = Tensor([[0.5, -0.5]], name="p", trainable=True)
        p.values.flags.writeable = False
        p.grad = np.array([[0.2, 0.1]])
        before = p.values.copy()
        make().step([p])
        assert p.version == 1 and not p.values.flags.writeable
        assert not np.array_equal(p.values, before)

    def test_adam_single_step_hand_computed(self):
        p = Tensor([0.5], name="p", trainable=True)
        p.grad = np.array([0.2])
        opt = ht.AdamOptimizer(lr=0.01)
        opt.step([p])
        m = 0.1 * 0.2
        v = 0.001 * 0.04
        m_hat = m / 0.1
        v_hat = v / 0.001
        expected = 0.5 - 0.01 * m_hat / (math.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.values, [expected], atol=1e-15)

    def test_nan_gradient_aborts_with_name(self):
        p = Tensor([0.5], name="item_embeddings", trainable=True)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="item_embeddings"):
            ht.AdamOptimizer(0.01).step([p])

    def test_frozen_tensors_untouched(self):
        p = Tensor([1.0], name="frozen", trainable=False)
        p.grad = np.array([5.0])
        ht.SgdOptimizer(1.0).step([p])
        np.testing.assert_array_equal(p.values, [1.0])

    def test_blocked_adam_bitwise_equal_to_whole_array_formula(self):
        rng = np.random.default_rng(30)
        shapes = [(1,), (5, 3), (ht.ADAM_BLOCK + 1,), (300, 64), (2, ht.ADAM_BLOCK)]
        # the second copy of the third tensor is laid out column-major, so a
        # flat view of it would be a copy
        blocked = [Tensor(rng.normal(size=s), name=f"p{i}", trainable=True) for i, s in enumerate(shapes)]
        whole = [Tensor(t.values.copy(), trainable=True) for t in blocked]
        blocked[3].values = np.asfortranarray(blocked[3].values)
        new, old = ht.AdamOptimizer(1e-2), WholeArrayAdam(1e-2)
        for _ in range(4):
            for a, b in zip(blocked, whole):
                g = rng.normal(size=a.shape) * 10.0 ** rng.uniform(-8, 2, a.shape)
                a.grad, b.grad = g.copy(), g.copy()
            new.step(blocked)
            old.step(whole)
            for a, b in zip(blocked, whole):
                assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64)), a.name
        assert not blocked[3].values.flags.c_contiguous

    @pytest.mark.parametrize("make", [lambda: ht.AdamOptimizer(0.1), lambda: ht.SgdOptimizer(0.1)])
    def test_nan_gradient_raises_before_any_tensor_changes(self, make):
        opt = make()
        a = Tensor([0.5, 0.25], name="a", trainable=True)
        b = Tensor([1.0], name="b", trainable=True)
        a.grad, b.grad = np.array([0.1, 0.2]), np.array([np.nan])
        with pytest.raises(NumericError, match="parameter b"):
            opt.step([a, b])
        np.testing.assert_array_equal(a.values, [0.5, 0.25])
        np.testing.assert_array_equal(b.values, [1.0])
        # the aborted step left no moment state behind either
        fresh = Tensor([0.5, 0.25], trainable=True)
        fresh.grad = a.grad
        b.grad = np.array([0.0])
        opt.step([a, b])
        make().step([fresh])
        np.testing.assert_array_equal(a.values, fresh.values)


class WholeArrayAdam:
    """The Adam step as whole-array expressions: the reference for the blocked one."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._state = {}

    def step(self, tensors):
        for p in tensors:
            if not p.trainable or p.grad is None:
                continue
            g = p.grad
            m, v, t = self._state.get(id(p), (np.zeros_like(p.values), np.zeros_like(p.values), 0))
            t += 1
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            self._state[id(p)] = (m, v, t)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


OPTIMIZERS = {"adam": lambda: ht.AdamOptimizer(1e-2), "sgd": lambda: ht.SgdOptimizer(0.1)}


class TestRowGradients:
    """A trainable leaf that only ``gather_rows`` feeds holds its gradient
    as row sums.  Its reads and its optimizer steps give the bits of the
    dense gradient, which a dense buffer assigned before the forward pass
    keeps a tensor on."""

    @staticmethod
    def spread(rng, shape):
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-4, 4, shape)

    def project(self, rows: Tensor, rng, tape) -> Tensor:
        """A scalar from gathered rows through fixed spread weights."""
        if rows.values.ndim == 2:
            rows = nm.matvec(rows, Tensor(self.spread(rng, rows.shape[1])), tape)
        return nm.matvec(rows, Tensor(self.spread(rng, rows.shape[0])), tape)

    def loss(self, case, x, l2, seed, tape):
        """Gathers with overlapping and repeated rows, l2 on the whole leaf,
        and, by case, a dense contribution or the l2 term recorded first."""
        rng = np.random.default_rng(seed)
        n = len(x.values)
        heavy = np.full(min(n, 300), int(rng.integers(n)))
        idx = (rng.permutation(np.concatenate([rng.integers(0, n, min(n, 400)), heavy])),
               rng.integers(0, -(-n // 2), min(n, 250)))
        terms = []
        if case == "l2_first" and l2:
            terms.append(nm.scale(nm.sum_squares(x, tape), l2, tape))
        if case == "dense_after_gathers":  # its backward step runs after theirs
            terms.append(nm.mean_all(nm.scale(x, 0.75, tape), tape))
        terms += [self.project(nm.gather_rows(x, i, tape), rng, tape) for i in idx]
        if case == "dense_before_gathers":
            terms.append(nm.mean_all(nm.scale(x, -1.25, tape), tape))
        if case != "l2_first" and l2:
            terms.append(nm.scale(nm.sum_squares(x, tape), l2, tape))
        total = terms[0]
        for t in terms[1:]:
            total = nm.add(total, t, tape)
        return total

    def leaves(self, shape, layout):
        x = self.spread(np.random.default_rng(3), shape)
        rowed, dense = (Tensor(x.copy(), name="table", trainable=True) for _ in range(2))
        if layout == "fortran":
            rowed.values, dense.values = np.asfortranarray(rowed.values), np.asfortranarray(dense.values)
        elif layout == "strided":
            rowed.values, dense.values = rowed.values[::-1], dense.values[::-1]
        dense.grad = np.zeros_like(dense.values)
        return rowed, dense

    CASES = ["gathers_only", "dense_after_gathers", "dense_before_gathers", "l2_first"]

    @staticmethod
    def keeps_rows(case, l2) -> bool:
        """Whether only gathers and an l2 seed before them feed the leaf;
        any other contribution makes its gradient dense."""
        return case == "gathers_only" or case == "l2_first" and not l2

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("shape,layout", [((700, 48), "c"), ((40000,), "c"), ((700, 48), "fortran"),
                                              ((700, 48), "strided")])
    def test_gradient_reads_equal_the_dense_gradient(self, shape, layout, case, l2):
        rowed, dense = self.leaves(shape, layout)
        for t in (rowed, dense):
            tape = Tape()
            tape.backward(self.loss(case, t, l2, 5, tape))
        assert (rowed._row_grad is not None) == self.keeps_rows(case, l2) and dense._row_grad is None
        assert np.array_equal(bits(rowed.grad), bits(dense.grad))

    @pytest.mark.parametrize("opt", OPTIMIZERS)
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("shape,layout", [((700, 48), "c"), ((40000,), "c"), ((700, 48), "fortran"),
                                              ((2, ht.ADAM_BLOCK + 3), "c")])
    def test_steps_equal_dense_steps(self, shape, layout, case, l2, opt):
        rowed, dense = self.leaves(shape, layout)
        optimizers = OPTIMIZERS[opt](), OPTIMIZERS[opt]()
        for step in range(3):
            for t, optimizer in zip((rowed, dense), optimizers):
                tape = Tape()
                tape.backward(self.loss(case, t, l2, step, tape))
                optimizer.step([t])
                t.zero_grad()
            assert np.array_equal(bits(rowed.values), bits(dense.values)), step
        # a layout without whole-row blocks is stepped from the dense gradient
        blockable = layout == "c" and math.prod(shape[1:]) <= ht.ADAM_BLOCK
        assert (rowed._row_grad is not None) == (blockable and self.keeps_rows(case, l2))

    @pytest.mark.parametrize("opt", OPTIMIZERS)
    @pytest.mark.parametrize("l2,nan_row", [(1e-3, "untouched"), (1e-3, "touched"), (0.0, "untouched"),
                                            (0.0, "touched"), (1e300, None), (1e206, None)])
    def test_non_finite_gradient_raises_as_the_dense_check_does(self, opt, l2, nan_row):
        # without l2 a NaN value reaches no gradient; 1e300 makes c*p
        # overflow; 1e206 overflows the bound |c|*sqrt(sum p*p) but no c*p,
        # so the exact pass runs and finds every entry finite
        with np.errstate(over="ignore", invalid="ignore"):
            raised = [self.step_raises(OPTIMIZERS[opt](), l2, nan_row, keep_dense) for keep_dense in (False, True)]
        assert raised[0] == raised[1] == (nan_row is not None and l2 > 0 or l2 == 1e300)

    def step_raises(self, optimizer, l2, nan_row, keep_dense) -> bool:
        """Whether a step over a small dense tensor and the table raises,
        after checking that a raising step changed nothing."""
        rng = np.random.default_rng(4)
        idx = np.arange(0, 300, 3)
        x = self.spread(rng, (300, 8)) if nan_row else rng.choice([-5e100, 5e100], (300, 8))
        if nan_row:
            x[idx[7] if nan_row == "touched" else 1] = np.nan
        table, other = Tensor(x.copy(), name="table", trainable=True), Tensor([0.5, -0.25], trainable=True)
        if keep_dense:
            table.grad = np.zeros_like(x)
        tape = Tape()
        loss = nm.add(self.project(nm.gather_rows(table, idx, tape), np.random.default_rng(6), tape),
                      nm.mean_all(other, tape), tape)
        if l2:
            loss = nm.add(loss, nm.scale(nm.sum_squares(table, tape), l2, tape), tape)
        tape.backward(loss)
        try:
            optimizer.step([other, table])
        except NumericError as exc:
            assert "table" in str(exc)
            assert np.array_equal(bits(table.values), bits(x))
            assert np.array_equal(other.values, [0.5, -0.25])
            assert not getattr(optimizer, "_state", {})
            return True
        return False

    def test_l2_gradient_is_unreadable_after_a_write(self):
        # the l2 share is computed from the values when read; once they are
        # written, the gradient the backward pass meant is gone
        table = Tensor(np.ones((4, 2)), name="table", trainable=True)
        tape = Tape()
        tape.backward(nm.add(nm.mean_all(nm.gather_rows(table, [1, 2], tape), tape),
                             nm.sum_squares(table, tape), tape))
        ht.SgdOptimizer(0.1).step([table])
        with pytest.raises(ContractViolation, match="table"):
            table.grad
        with pytest.raises(ContractViolation, match="table"):
            ht.AdamOptimizer(0.1).step([table])
        table.zero_grad()
        np.testing.assert_array_equal(table.grad, np.zeros((4, 2)))

    def test_second_step_allocates_no_table_sized_temporary(self):
        import tracemalloc
        rng = np.random.default_rng(7)
        table = Tensor(rng.normal(size=(20000, 64)) * 0.1, name="table", trainable=True)
        idx = rng.integers(0, 20000, 512)
        optimizer = ht.AdamOptimizer(1e-3)

        def step():
            tape = Tape()
            loss = nm.add(self.project(nm.gather_rows(table, idx, tape), np.random.default_rng(8), tape),
                          nm.scale(nm.sum_squares(table, tape), 1e-3, tape), tape)
            tape.backward(loss)
            optimizer.step(tape.touched_parameters())
            table.zero_grad()

        step()  # allocates the moments
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.values.nbytes / 4


def synth_world(seed=0, variant="FULL", num_groups=10):
    ds = generate_synthetic(
        SynthConfig(num_users=20, num_items=15, num_groups=num_groups,
                    avg_group_size=3.0, num_latent_topics=2,
                    overlap_strength=0.6, interactions_per_user=4.0,
                    interactions_per_group=2.0, seed=seed)
    )
    social = build_social_graph(ds)
    hyper = build_hypergraph(ds)
    cfg = hm.ModelConfig(d=8, k_ipm=1, s_ipm=2, k_hrl=1, s_hrl=2,
                         dropout=0.0, variant=variant)
    params = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(seed))
    return ds, social, hyper, cfg, params


class TestTrainingLoops:
    def test_determinism_bit_exact(self):
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=32, epochs=3, seed=11)
        results = []
        for _ in range(2):
            ds, social, hyper, cfg, params = synth_world(seed=4)
            ht.train(ds, social, hyper, params, cfg, tcfg)
            results.append({n: t.values.copy() for n, t in params.named_tensors()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name]), name

    def test_group_only_leaves_user_tower_untouched(self):
        ds, social, hyper, cfg, params = synth_world(seed=5)
        before = {
            n: t.values.copy()
            for n, t in params.named_tensors()
            if n.startswith("user_mlp")
        }
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2,
                              strategy="GROUP_ONLY", seed=0)
        ht.train(ds, social, hyper, params, cfg, tcfg)
        for n, t in params.named_tensors():
            if n.startswith("user_mlp"):
                assert np.array_equal(before[n], t.values), n

    @pytest.mark.parametrize("variant", hm.VARIANTS)
    def test_every_variant_runs_the_strategy_asked_for(self, variant):
        # no variant overrides the strategy: a run without the user task
        # asks for GROUP_ONLY itself
        ds, social, hyper, cfg, params = synth_world(seed=6, variant=variant)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=1,
                              strategy="JOINT", seed=0)
        report = ht.train(ds, social, hyper, params, cfg, tcfg)
        assert report.strategy == "JOINT"
        assert report.epochs and all(e.loss_u is not None and e.loss_g is not None
                                     for e in report.epochs)

    def test_losses_decrease_on_toy(self):
        for strategy in ("TWO_STAGE", "JOINT", "GROUP_ONLY", "USER_ONLY"):
            ds, social, hyper, cfg, params = synth_world(seed=7)
            tcfg = ht.TrainConfig(learning_rate=5e-3, batch_size=128, epochs=12,
                                  strategy=strategy, seed=1)
            report = ht.train(ds, social, hyper, params, cfg, tcfg)
            for task in ("group", "user"):
                series = [
                    (e.loss_g if task == "group" else e.loss_u) for e in report.epochs
                ]
                series = [s for s in series if s is not None]
                if len(series) >= 2:
                    assert series[-1] < series[0], (strategy, task)

    def test_two_stage_skips_empty_user_data(self, caplog):
        ds, social, hyper, cfg, params = synth_world(seed=8)
        ds.user_item = []
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2, seed=2)
        with caplog.at_level("WARNING"):
            report = ht.train(ds, social, hyper, params, cfg, tcfg)
        assert "skipping the first stage" in caplog.text
        assert all(e.loss_u is None for e in report.epochs)

    def test_budget_mode_runs_once(self):
        ds, social, hyper, cfg, params = synth_world(seed=9)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=50,
                              user_budget=32, group_budget=16, seed=3)
        report = ht.train(ds, social, hyper, params, cfg, tcfg)
        assert len(report.epochs) == 2  # one budgeted pass per stage

    def test_joint_records_both_streams(self):
        ds, social, hyper, cfg, params = synth_world(seed=10)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2,
                              strategy="JOINT", seed=4)
        report = ht.train(ds, social, hyper, params, cfg, tcfg)
        assert all(e.loss_g is not None and e.loss_u is not None for e in report.epochs)

    @pytest.mark.parametrize("budgets", [None, (40, 24)], ids=["passes", "budgets"])
    @pytest.mark.parametrize("strategy", ht.STRATEGIES)
    def test_batches_match_front_popped_queue(self, tmp_path, monkeypatch, strategy, budgets):
        # a stream draws each pass when its first batch is taken; a run must
        # see the same batches, and so write the same checkpoint bytes, as
        # with a queue that materialises a whole pass and pops from its front
        next_batch, build_triples = ht._Stream.next_batch, ht.build_triples

        def queue_batch(s, rng, log):
            if not getattr(s, "queue", None):
                log.append("draw")
                n, size = len(s.pairs), s.batch_size
                order = rng.permutation(n) if s.budget is None else rng.integers(0, n, size=s.budget)
                s.queue = [[s.pairs[int(i)] for i in order[lo:lo + size]]
                           for lo in range(0, len(order), size)]
            return s.queue.pop(0)

        def run(take_batch, name):
            log = []

            def recorded_batch(self, rng):
                batch = take_batch(self, rng, log)
                log.append((self.task, batch))
                return batch

            def recorded_triples(batch_pairs, *args):
                # one call per step, on the batch just taken
                assert batch_pairs == log[-1][1]
                log.append("step")
                return build_triples(batch_pairs, *args)

            monkeypatch.setattr(ht._Stream, "next_batch", recorded_batch)
            monkeypatch.setattr(ht, "build_triples", recorded_triples)
            ds, social, hyper, cfg, params = synth_world(seed=12)
            user_budget, group_budget = budgets or (None, None)
            tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=2, strategy=strategy,
                                  user_budget=user_budget, group_budget=group_budget, seed=6)
            ht.train(ds, social, hyper, params, cfg, tcfg)
            hm.save_params(tmp_path / name, params, cfg, seed=6)
            sizes = (len(ds.user_item), len(ds.group_item)) if budgets is None else budgets
            return log, (tmp_path / name).read_bytes(), [-(-n // 16) for n in sizes]

        queue_log, queue_bytes, (user_pass, group_pass) = run(queue_batch, "queue.bin")
        lazy_log, lazy_bytes, _ = run(lambda s, rng, log: next_batch(s, rng), "lazy.bin")
        assert [e for e in queue_log if e != "draw"] == lazy_log
        assert lazy_bytes == queue_bytes
        # the queue draws every pass inside the step that takes its first
        # batch: after the previous step's negatives, before this step's
        assert all(type(queue_log[i + 1]) is tuple and queue_log[i + 2] == "step"
                   for i, e in enumerate(queue_log) if e == "draw")
        # every batch taken is stepped at once
        assert len(lazy_log) % 2 == 0 and lazy_log[1::2] == ["step"] * (len(lazy_log) // 2)
        # the stage loop: a budgeted TWO_STAGE stage runs once, and a JOINT
        # epoch steps both streams as many times as their passes hold
        # batches together, so its shorter stream refills more than once
        stage_epochs = 1 if budgets else 2
        want = {
            "TWO_STAGE": ["user"] * user_pass * stage_epochs + ["group"] * group_pass * stage_epochs,
            "JOINT": ["user", "group"] * (user_pass + group_pass) * 2,
            "GROUP_ONLY": ["group"] * group_pass * 2,
            "USER_ONLY": ["user"] * user_pass * 2,
        }[strategy]
        assert [e[0] for e in lazy_log if e != "step"] == want
        assert user_pass > group_pass

    @pytest.mark.parametrize("strategy", ht.STRATEGIES)
    def test_no_training_data_records_no_epochs(self, strategy):
        ds, social, hyper, cfg, params = synth_world(seed=15)
        ds.user_item, ds.group_item = [], []
        before = [t.values.copy() for _, t in params.named_tensors()]
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=3, strategy=strategy, seed=9)
        report = ht.train(ds, social, hyper, params, cfg, tcfg)
        assert report.epochs == [] and not report.stopped_early
        for (name, t), values in zip(params.named_tensors(), before):
            assert np.array_equal(t.values, values), name

    @pytest.mark.parametrize("budgets", [(32, 0), (0, 16), (0, 0)])
    def test_joint_skips_a_stream_with_budget_zero(self, budgets):
        ds, social, hyper, cfg, params = synth_world(seed=13)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=2, strategy="JOINT",
                              user_budget=budgets[0], group_budget=budgets[1], seed=7)
        report = ht.train(ds, social, hyper, params, cfg, tcfg)
        assert len(report.epochs) == 2
        for e in report.epochs:
            assert (e.loss_u is None) == (budgets[0] == 0)
            assert (e.loss_g is None) == (budgets[1] == 0)

    def test_all_positive_entity_refused_before_the_first_step(self, monkeypatch):
        ds, social, hyper, cfg, params = toy_world()
        ds.group_item = ds.group_item + [(2, v) for v in range(ds.num_items)]
        # a stream that is never stepped needs no negatives
        ht.train(ds, social, hyper, params, cfg,
                 ht.TrainConfig(epochs=1, strategy="JOINT", group_budget=0, seed=1))
        stepped = []
        build_triples = ht.build_triples

        def recording(batch_pairs, *args):
            stepped.append(batch_pairs)
            return build_triples(batch_pairs, *args)

        monkeypatch.setattr(ht, "build_triples", recording)
        with pytest.raises(SamplingError, match="group 2's training positives cover all 6 items"):
            ht.train(ds, social, hyper, params, cfg, ht.TrainConfig(epochs=1, strategy="JOINT", seed=1))
        assert stepped == []

    @pytest.mark.parametrize("strategy,tasks", [
        ("GROUP_ONLY", ["group"]), ("USER_ONLY", ["user"]),
        ("JOINT", ["user", "group"]), ("TWO_STAGE", ["user", "group"]),
    ])
    def test_builds_only_the_streams_its_strategy_steps(self, monkeypatch, strategy, tasks):
        built = []
        init = ht._Stream.__init__

        def recording(self, task, *args):
            built.append(task)
            init(self, task, *args)

        monkeypatch.setattr(ht._Stream, "__init__", recording)
        ds, social, hyper, cfg, params = synth_world(seed=14)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=1, strategy=strategy, seed=8)
        ht.train(ds, social, hyper, params, cfg, tcfg)
        assert built == tasks

    def test_streams_are_freed_when_train_returns(self, monkeypatch):
        # a stream holds its task's pairs and positives; in a reference
        # cycle they would outlive the call until the cyclic collector runs
        streams = []
        init = ht._Stream.__init__

        def recording(self, *args):
            init(self, *args)
            streams.append(weakref.ref(self))

        monkeypatch.setattr(ht._Stream, "__init__", recording)
        ds, social, hyper, cfg, params = synth_world(seed=16)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=1, strategy="JOINT", seed=9)
        gc.disable()
        try:
            ht.train(ds, social, hyper, params, cfg, tcfg)
        finally:
            gc.enable()
        assert len(streams) == 2 and all(ref() is None for ref in streams)

    def test_joint_params_match_the_add_at_and_whole_array_kernels(self, monkeypatch):
        # large enough that batches take the sorted scatter path and some
        # tables span more than one Adam block
        def world():
            ds = generate_synthetic(
                SynthConfig(num_users=700, num_items=400, num_groups=300, avg_group_size=4.0,
                            num_latent_topics=4, interactions_per_user=3.0,
                            interactions_per_group=2.0, seed=3)
            )
            cfg = hm.ModelConfig(d=32, k_ipm=1, s_ipm=3, k_hrl=1, s_hrl=3, dropout=0.1)
            params = hm.initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(3))
            return ds, build_social_graph(ds), build_hypergraph(ds), cfg, params

        def add_at(target, idx, vals):
            idx = np.asarray(idx, dtype=np.int64).reshape(-1)
            np.add.at(target, idx, np.asarray(vals).reshape((idx.size,) + target.shape[1:]))

        tcfg = ht.TrainConfig(learning_rate=1e-2, batch_size=256, epochs=2, strategy="JOINT", seed=9)
        sizes = []
        scatter_add = nm.scatter_add

        def recording(target, idx, vals):
            sizes.append(np.size(idx))
            scatter_add(target, idx, vals)

        monkeypatch.setattr(nm, "scatter_add", recording)
        ds, social, hyper, cfg, fast = world()
        ht.train(ds, social, hyper, fast, cfg, tcfg)
        assert max(sizes) >= nm.SCATTER_MIN_ROWS
        assert fast.user_latent.values.size > ht.ADAM_BLOCK

        monkeypatch.setattr(nm, "scatter_add", add_at)
        monkeypatch.setattr(ht, "AdamOptimizer", WholeArrayAdam)
        ds, social, hyper, cfg, reference = world()
        ht.train(ds, social, hyper, reference, cfg, tcfg)
        for (name, a), (_, b) in zip(fast.named_tensors(), reference.named_tensors()):
            assert a.values.tobytes() == b.values.tobytes(), name

    @pytest.mark.parametrize("strategy", ["GROUP_ONLY", "JOINT"])
    def test_early_stop_restores_the_best_epoch(self, monkeypatch, strategy):
        scripted = iter([0.5, 0.7, 0.6, 0.4])

        def fake_evaluate(*args, **kwargs):
            pair = he.MetricPair(hr=0.0, ndcg=next(scripted))
            return he.EvalReport(target="groups", metrics={10: pair}, num_test_cases=1)

        monkeypatch.setattr(he, "evaluate", fake_evaluate)
        ds, social, hyper, cfg, params = synth_world(seed=12)
        tcfg = ht.TrainConfig(learning_rate=1e-2, batch_size=16, epochs=10, strategy=strategy,
                              seed=6, early_stop_patience=2)
        report = ht.train(ds, social, hyper, params, cfg, tcfg, val_ds=ds)
        assert report.stopped_early and len(report.epochs) == 4
        assert report.best_epoch == 1
        assert report.to_dict()["best_epoch"] == 1

        # the run without early stopping that ends after epoch 2
        _, _, _, _, reference = synth_world(seed=12)
        ht.train(ds, social, hyper, reference, cfg,
                 ht.TrainConfig(learning_rate=1e-2, batch_size=16, epochs=2, strategy=strategy, seed=6))
        for (name, a), (_, b) in zip(params.named_tensors(), reference.named_tensors()):
            assert a.values.tobytes() == b.values.tobytes(), name

    @pytest.mark.parametrize("patience", [0, 1])
    def test_patience_0_stops_as_1_does(self, monkeypatch, patience):
        scripted = iter([0.5, 0.4, 0.6])
        monkeypatch.setattr(he, "evaluate", lambda *args, **kwargs: he.EvalReport(
            target="groups", metrics={10: he.MetricPair(0.0, next(scripted))}, num_test_cases=1))
        ds, social, hyper, cfg, params = synth_world(seed=12)
        tcfg = ht.TrainConfig(learning_rate=1e-2, batch_size=16, epochs=5, strategy="GROUP_ONLY", seed=6,
                              early_stop_patience=patience)
        report = ht.train(ds, social, hyper, params, cfg, tcfg, val_ds=ds)
        assert report.stopped_early and len(report.epochs) == 2 and report.best_epoch == 0

    def test_no_best_epoch_without_early_stopping(self):
        ds, social, hyper, cfg, params = synth_world(seed=13)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2, seed=5)
        report = ht.train(ds, social, hyper, params, cfg, tcfg, val_ds=ds)
        assert report.best_epoch is None and not report.stopped_early

    def test_val_split_without_group_pairs_never_evaluates(self, monkeypatch):
        calls = []
        monkeypatch.setattr(he, "evaluate", lambda *args, **kwargs: calls.append(1))
        ds, social, hyper, cfg, params = synth_world(seed=13)
        val = replace(ds, group_item=[])
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2, strategy="JOINT", seed=5,
                              early_stop_patience=1)
        report = ht.train(ds, social, hyper, params, cfg, tcfg, val_ds=val)
        assert calls == [] and report.best_epoch is None and not report.stopped_early
        assert len(report.epochs) == 2

    def test_two_stage_evaluates_after_group_epochs_only(self, monkeypatch):
        # best_epoch counts the epochs of both stages
        batches = {"user": 0, "group": 0}
        calls = []
        scripted = iter([0.2, 0.6, 0.4])
        for task in batches:
            loss = getattr(ht, f"{task}_batch_loss")

            def counted(*args, task=task, loss=loss, **kwargs):
                batches[task] += 1
                return loss(*args, **kwargs)

            monkeypatch.setattr(ht, f"{task}_batch_loss", counted)

        def fake_evaluate(*args, **kwargs):
            calls.append(dict(batches))
            return he.EvalReport(target="groups", metrics={10: he.MetricPair(0.0, next(scripted))},
                                 num_test_cases=1)

        monkeypatch.setattr(he, "evaluate", fake_evaluate)
        ds, social, hyper, cfg, params = synth_world(seed=13)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=16, epochs=3, strategy="TWO_STAGE", seed=5,
                              early_stop_patience=2)
        report = ht.train(ds, social, hyper, params, cfg, tcfg, val_ds=ds)
        user_pass, group_pass = (-(-len(pairs) // 16) for pairs in (ds.user_item, ds.group_item))
        assert calls == [{"user": 3 * user_pass, "group": k * group_pass} for k in (1, 2, 3)]
        assert len(report.epochs) == 6 and not report.stopped_early
        assert report.best_epoch == 4

    def test_report_writers(self, tmp_path):
        ds, social, hyper, cfg, params = synth_world(seed=11)
        tcfg = ht.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=2, seed=5)
        report = ht.train(ds, social, hyper, params, cfg, tcfg)
        report.write_json(tmp_path / "report.json")
        report.write_loss_csv(tmp_path / "loss.csv")
        lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss_g,loss_u,seconds"
        assert len(lines) == 1 + len(report.epochs)

    def test_failed_report_write_keeps_old_files(self, tmp_path, monkeypatch):
        report = ht.TrainReport(strategy="JOINT", epochs=[ht.EpochStats(0, 0.5, 0.25, 1.0)])
        report.write_json(tmp_path / "report.json")
        report.write_loss_csv(tmp_path / "loss.csv")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def partial_dump(obj, fh, **kwargs):
            fh.write('{"strategy": ')
            raise OSError("disk full")

        class PartialWriter:
            def __init__(self, fh):
                self.fh = fh

            def writerow(self, row):
                self.fh.write("epoch,")
                raise OSError("disk full")

        monkeypatch.setattr(ht.json, "dump", partial_dump)
        monkeypatch.setattr(ht.csv, "writer", PartialWriter)
        with pytest.raises(OSError):
            report.write_json(tmp_path / "report.json")
        with pytest.raises(OSError):
            report.write_loss_csv(tmp_path / "loss.csv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ht.TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigError):
            ht.TrainConfig(strategy="nope").validate()
        with pytest.raises(ConfigError):
            ht.TrainConfig(batch_size=16.0).validate()
        # numpy integers are integers
        ht.TrainConfig(batch_size=np.int64(16), user_budget=np.int32(0)).validate()
