"""Unit and gradient-oracle tests for the numeric kernel."""

import ast
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from hypergroup import (ModelConfig, SynthConfig, build_hypergraph, build_social_graph, generate_synthetic,
                        initialize_params)
from hypergroup import numeric as nm
from hypergroup import training as ht
from hypergroup.errors import (
    CheckpointError,
    ContractViolation,
    DimensionError,
)

FD_H = 1e-5
FD_TOL = 1e-4


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def finite_diff(f, tensor, h=FD_H):
    """Central finite differences of scalar ``f()`` w.r.t. ``tensor.values``."""
    grad = np.zeros_like(tensor.values)
    flat_v = tensor.values.ravel()
    flat_g = grad.ravel()
    for i in range(flat_v.size):
        orig = flat_v[i]
        flat_v[i] = orig + h
        fp = f()
        flat_v[i] = orig - h
        fm = f()
        flat_v[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return grad


def check_gradients(build_loss, tensors):
    """Compare taped gradients of ``build_loss(tape)`` against finite differences."""
    for t in tensors:
        t.grad = None
    tape = nm.Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    analytic = [t.grad.copy() for t in tensors]
    for t in tensors:
        numeric = finite_diff(lambda: float(build_loss(None).values), t)
        i = tensors.index(t)
        assert rel_err(analytic[i], numeric) < FD_TOL, f"gradient mismatch for slot {i}"


def probe_loss(out, probe, tape):
    """Reduce a vector/matrix output to a scalar through a fixed probe."""
    flat = nm.Tensor(probe.reshape(-1))
    if out.values.ndim == 0:
        return out
    if out.values.ndim == 1:
        return nm.matvec(out, flat, tape)
    stacked = nm.matvec(out, nm.Tensor(probe[0]), tape)
    return nm.mean_all(stacked, tape)


class TestLinear:
    def test_identity(self):
        x = nm.Tensor([[1.0, -2.0, 3.0]])
        w = nm.Tensor(np.eye(3))
        b = nm.Tensor(np.zeros(3))
        y = nm.linear(w, b, x)
        np.testing.assert_array_equal(y.values, x.values)

    def test_zero_map(self):
        x = nm.Tensor([[1.0, 2.0]])
        y = nm.linear(nm.Tensor(np.zeros((2, 2))), nm.Tensor(np.zeros(2)), x)
        np.testing.assert_array_equal(y.values, np.zeros((1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nm.linear(nm.Tensor(np.zeros((2, 3))), None, nm.Tensor(np.zeros((1, 4))))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)])
    def test_rows_only(self, shape):
        with pytest.raises(DimensionError):
            nm.linear(nm.Tensor(np.zeros((2, 3))), None, nm.Tensor(np.zeros(shape)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = nm.Tensor(rng.uniform(-1, 1, (8, 8)), trainable=True)
        b = nm.Tensor(rng.uniform(-1, 1, 8), trainable=True)
        x = nm.Tensor(rng.uniform(-1, 1, (1, 8)), trainable=True)
        probe = rng.uniform(-1, 1, (1, 8))

        def build(tape):
            return probe_loss(nm.linear(w, b, x, tape), probe, tape)

        check_gradients(build, [w, b, x])

    def test_gradient_batched_input(self):
        rng = np.random.default_rng(8)
        w = nm.Tensor(rng.uniform(-1, 1, (4, 6)), trainable=True)
        b = nm.Tensor(rng.uniform(-1, 1, 4), trainable=True)
        x = nm.Tensor(rng.uniform(-1, 1, (3, 6)), trainable=True)
        probe = rng.uniform(-1, 1, (3, 4))

        def build(tape):
            return probe_loss(nm.linear(w, b, x, tape), probe, tape)

        check_gradients(build, [w, b, x])


class TestConcat:
    def test_basic(self):
        out = nm.concat(nm.Tensor([1.0]), nm.Tensor([2.0, 3.0]))
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_empty_side(self):
        out = nm.concat(nm.Tensor(np.zeros(0)), nm.Tensor([5.0]))
        np.testing.assert_array_equal(out.values, [5.0])

    def test_gradient_split(self):
        rng = np.random.default_rng(11)
        a = nm.Tensor(rng.uniform(-1, 1, 3), trainable=True)
        b = nm.Tensor(rng.uniform(-1, 1, 4), trainable=True)
        probe = rng.uniform(-1, 1, 7)

        def build(tape):
            return probe_loss(nm.concat(a, b, tape), probe, tape)

        check_gradients(build, [a, b])


def bits(a):
    """Bit patterns of a float64 array: tells -0.0 from 0.0, and NaN payloads apart."""
    return np.ascontiguousarray(a).view(np.int64)


def odd_floats(rng, shape):
    """Spread magnitudes, with about one entry in five NaN, a signed zero,
    an infinity or a subnormal."""
    out = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
    odd = rng.random(shape) < 0.2
    out[odd] = rng.choice([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2e-310], int(odd.sum()))
    return out


def backward_share(op, xv, g):
    """``op``'s output for ``xv`` and the share its backward step adds into
    the input for output gradient ``g``, bit for bit (``-0.0 + s`` is ``s``)."""
    x = nm.Tensor(xv.copy(), trainable=True)
    x.grad = np.full_like(xv, -0.0)
    tape = nm.Tape()
    out = op(x, tape)
    out.grad = g
    (_, step), = tape._steps
    step()
    return out.values, x.grad


class TestL2Normalize:
    def test_three_four_five(self):
        out = nm.l2_normalize(nm.Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], atol=1e-15)

    def test_zero_vector_passthrough(self):
        out = nm.l2_normalize(nm.Tensor(np.zeros((1, 4))))
        np.testing.assert_array_equal(out.values, np.zeros((1, 4)))

    @pytest.mark.parametrize("shape", [(4,), (1, 1, 4)])
    def test_rows_only(self, shape):
        with pytest.raises(DimensionError):
            nm.l2_normalize(nm.Tensor(np.ones(shape)))

    def test_rowwise(self):
        m = nm.l2_normalize(nm.Tensor([[3.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(m.values[0], [0.6, 0.8], atol=1e-15)
        np.testing.assert_array_equal(m.values[1], [0.0, 0.0])

    def test_gradient(self):
        rng = np.random.default_rng(12)
        x = nm.Tensor(rng.uniform(-1, 1, (1, 6)), trainable=True)
        probe = rng.uniform(-1, 1, (1, 6))

        def build(tape):
            return probe_loss(nm.l2_normalize(x, tape), probe, tape)

        tape = nm.Tape()
        loss = build(tape)
        tape.backward(loss)
        numeric = finite_diff(lambda: float(build(None).values), x)
        assert rel_err(x.grad, numeric) < 1e-5

    def test_gradient_rowwise_with_degenerate_row(self):
        # zero rows are a non-differentiable point, so finite differences only
        # apply to the live rows; the degenerate branch passes gradients through
        rng = np.random.default_rng(13)
        vals = rng.uniform(-1, 1, (3, 4))
        vals[1] = 0.0
        x = nm.Tensor(vals, trainable=True)
        probe = rng.uniform(-1, 1, (3, 4))

        def build(tape):
            return probe_loss(nm.l2_normalize(x, tape), probe, tape)

        x.grad = None
        tape = nm.Tape()
        tape.backward(build(tape))
        analytic = x.grad.copy()
        numeric = finite_diff(lambda: float(build(None).values), x)
        assert rel_err(analytic[[0, 2]], numeric[[0, 2]]) < FD_TOL
        np.testing.assert_allclose(analytic[1], probe[0] / 3.0, atol=1e-12)

    @staticmethod
    def where_formulas(xv, g):
        """Forward values and backward share of the masked formulas."""
        norms = np.linalg.norm(xv, axis=1)
        live = norms > nm.NORM_EPS
        safe = np.where(live, norms, 1.0)
        yv = np.where(live[:, None], xv / safe[:, None], xv)
        inner = np.sum(yv * g, axis=1, keepdims=True)
        return yv, np.where(live[:, None], (g - yv * inner) / safe[:, None], g)

    @pytest.mark.parametrize("dead_rows", [False, True])
    def test_bitwise_equal_to_where_formulas(self, dead_rows):
        rng = np.random.default_rng(15 + dead_rows)
        xv, g = (odd_floats(rng, (300, 8)) for _ in range(2))
        if dead_rows:
            xv[rng.random(300) < 0.3] = 0.0
            xv[5] = [5e-324, -5e-324] * 4  # a subnormal row: norm below eps
            xv[7, 2] = np.nan
        else:
            xv[~np.isfinite(np.linalg.norm(xv, axis=1))] = 1.0
            xv[np.linalg.norm(xv, axis=1) <= nm.NORM_EPS, 0] = 1.0
        live = np.linalg.norm(xv, axis=1) > nm.NORM_EPS
        assert live.all() != dead_rows
        with np.errstate(all="ignore"):
            got, want = backward_share(nm.l2_normalize, xv, g), self.where_formulas(xv, g)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(bits(a), bits(b))


class TestActivations:
    def test_sigmoid_midpoint(self):
        # bpr_pair_loss's gradient is sigmoid(pos - neg) - 1 for the positive slot
        pos, neg = nm.Tensor(0.0, trainable=True), nm.Tensor(0.0, trainable=True)
        tape = nm.Tape()
        tape.backward(nm.bpr_pair_loss(pos, neg, tape))
        assert float(pos.grad) == -0.5 and float(neg.grad) == 0.5

    def test_relu_values(self):
        out = nm.relu(nm.Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 2.0])

    @pytest.mark.parametrize("shape", [(9,), (300, 8)])
    def test_relu_bitwise_equal_to_where_formulas(self, shape):
        rng = np.random.default_rng(16)
        xv, g = (odd_floats(rng, shape) for _ in range(2))
        xv.reshape(-1)[:9] = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.0]
        with np.errstate(all="ignore"):
            values, share = backward_share(nm.relu, xv, g)
            want = g * (xv > 0)
        np.testing.assert_array_equal(bits(values), bits(np.where(xv > 0, xv, 0.0)))
        np.testing.assert_array_equal(bits(share), bits(want))

    def test_gradients_away_from_kink(self):
        rng = np.random.default_rng(14)
        x = nm.Tensor(rng.uniform(0.2, 1.0, 5) * rng.choice([-1.0, 1.0], 5), trainable=True)
        probe = rng.uniform(-1, 1, 5)

        def build_relu(tape):
            return probe_loss(nm.relu(x, tape), probe, tape)

        check_gradients(build_relu, [x])

    def test_sigmoid_extreme_inputs_finite(self):
        # sigmoid(pos - neg) at -800 and 800, read from bpr_pair_loss's gradient
        pos, neg = nm.Tensor([-800.0, 800.0], trainable=True), nm.Tensor([0.0, 0.0])
        tape = nm.Tape()
        loss = nm.bpr_pair_loss(pos, neg, tape)
        tape.backward(nm.mean_all(loss, tape))
        assert np.all(np.isfinite(loss.values)) and np.all(np.isfinite(pos.grad))
        sig = 2.0 * pos.grad + 1.0
        assert 0.0 <= sig[0] < 1e-12
        assert 1.0 - 1e-12 < sig[1] <= 1.0


class TestDropout:
    def test_ratio_zero_identity(self):
        x = nm.Tensor([1.0, 2.0])
        out = nm.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_expected_value_preserved(self):
        rng = np.random.default_rng(15)
        x = nm.Tensor([2.0, -3.0, 0.5])
        acc = np.zeros(3)
        n = 100_000
        for _ in range(n):
            acc += nm.dropout(x, 0.3, rng).values
        mean = acc / n
        assert np.all(np.abs(mean - x.values) <= 0.01 * np.abs(x.values))

    def test_ratio_one_rejected(self):
        with pytest.raises(ContractViolation):
            nm.dropout(nm.Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_gradient_with_frozen_mask(self):
        x = nm.Tensor(np.random.default_rng(16).uniform(-1, 1, 6), trainable=True)
        probe = np.random.default_rng(17).uniform(-1, 1, 6)

        def build(tape):
            rng = np.random.default_rng(99)
            return probe_loss(nm.dropout(x, 0.4, rng, tape=tape), probe, tape)

        check_gradients(build, [x])


class TestBprPairLoss:
    def test_equal_scores_ln2(self):
        loss = nm.bpr_pair_loss(nm.Tensor(0.3), nm.Tensor(0.3))
        assert abs(float(loss.values) - math.log(2.0)) < 1e-12

    def test_large_gap_vanishes(self):
        loss = nm.bpr_pair_loss(nm.Tensor(20.0), nm.Tensor(0.0))
        assert float(loss.values) < 1e-8

    def test_monotone_decreasing_in_gap(self):
        gaps = np.linspace(-5, 5, 41)
        losses = [float(nm.bpr_pair_loss(nm.Tensor(g), nm.Tensor(0.0)).values) for g in gaps]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradient_at_small_gap(self):
        p = nm.Tensor(0.3, trainable=True)
        n = nm.Tensor(0.0, trainable=True)

        def build(tape):
            return nm.bpr_pair_loss(p, n, tape)

        check_gradients(build, [p, n])
        # stated closed form: -(1 - sigmoid(delta)) for the positive slot
        p.grad = None
        n.grad = None
        tape = nm.Tape()
        loss = build(tape)
        tape.backward(loss)
        s = 1.0 / (1.0 + math.exp(-0.3))
        assert abs(float(p.grad) - (s - 1.0)) < 1e-12
        assert abs(float(n.grad) - (1.0 - s)) < 1e-12


class TestStructuralOps:
    def test_gather_rows_accumulates_duplicates(self):
        m = nm.Tensor(np.arange(12.0).reshape(4, 3), trainable=True)
        tape = nm.Tape()
        rows = nm.gather_rows(m, [1, 1, 2], tape)
        loss = nm.mean_all(nm.sum_squares(rows, tape), tape)
        tape.backward(loss)
        numeric = finite_diff(
            lambda: float(nm.sum_squares(nm.gather_rows(m, [1, 1, 2])).values), m
        )
        assert rel_err(m.grad, numeric) < FD_TOL

    def test_gather_segment_mean_and_strides(self):
        rng = np.random.default_rng(20)
        x = nm.Tensor(rng.uniform(-1, 1, (6, 3)), trainable=True)
        seg = [0, 0, 1, 1, 1, 2]
        probe = rng.uniform(-1, 1, (3, 3))

        def build(tape):
            return probe_loss(nm.gather_segment_mean(x, np.arange(6), seg, 3, tape), probe, tape)

        check_gradients(build, [x])

        def build_mean(tape):
            return probe_loss(nm.gather_mean_rows(x, np.arange(6), 2, tape), probe, tape)

        check_gradients(build_mean, [x])

        probe2 = rng.uniform(-1, 1, (2, 3))

        def build_sum(tape):
            return probe_loss(nm.sum_rows_stride(x, 3, tape), probe2, tape)

        check_gradients(build_sum, [x])

    def test_gather_segment_mean_rejects_empty_segment(self):
        with pytest.raises(ContractViolation):
            nm.gather_segment_mean(nm.Tensor(np.ones((2, 2))), [0, 1], [0, 0], 2)

    def test_mul_rows_gradient(self):
        rng = np.random.default_rng(21)
        x = nm.Tensor(rng.uniform(-1, 1, (4, 3)), trainable=True)
        w = rng.uniform(0.5, 2.0, 4)
        probe = rng.uniform(-1, 1, (4, 3))

        def build(tape):
            return probe_loss(nm.mul_rows(x, w, tape), probe, tape)

        check_gradients(build, [x])

    def test_row_gather_and_matvec(self):
        rng = np.random.default_rng(22)
        m = nm.Tensor(rng.uniform(-1, 1, (3, 4)), trainable=True)
        w = nm.Tensor(rng.uniform(-1, 1, 4), trainable=True)

        def build(tape):
            row = nm.gather_rows(m, 1, tape)
            return nm.matvec(row, w, tape)

        check_gradients(build, [m, w])

        x = nm.Tensor(rng.uniform(-1, 1, (5, 4)), trainable=True)

        def build2(tape):
            return nm.mean_all(nm.matvec(x, w, tape), tape)

        check_gradients(build2, [x, w])


# every taped op, its input shapes and a call on those inputs; inputs are
# drawn away from relu's kink and the zero rows of l2_normalize
GRAD_OPS = {
    "linear": ([(4, 6), (4,), (3, 6)], lambda t, tape: nm.linear(t[0], t[1], t[2], tape)),
    "linear_no_bias": ([(4, 6), (3, 6)], lambda t, tape: nm.linear(t[0], None, t[1], tape)),
    "matvec_2d": ([(5, 4), (4,)], lambda t, tape: nm.matvec(t[0], t[1], tape)),
    "matvec_1d": ([(4,), (4,)], lambda t, tape: nm.matvec(t[0], t[1], tape)),
    "concat": ([(3, 2), (3, 4)], lambda t, tape: nm.concat(t[0], t[1], tape)),
    "add": ([(3, 4), (3, 4)], lambda t, tape: nm.add(t[0], t[1], tape)),
    "scale": ([(3, 4)], lambda t, tape: nm.scale(t[0], -1.5, tape)),
    "gather_rows": ([(4, 3)], lambda t, tape: nm.gather_rows(t[0], [1, 1, 2, 0], tape)),
    "gather_mean_rows": ([(4, 3)], lambda t, tape: nm.gather_mean_rows(t[0], [1, 3, 1, 0, 2, 2], 2, tape)),
    "sum_rows_stride": ([(6, 3)], lambda t, tape: nm.sum_rows_stride(t[0], 3, tape)),
    "gather_segment_mean": ([(4, 3)], lambda t, tape: nm.gather_segment_mean(
        t[0], [2, 0, 0, 1, 3, 1], [0, 0, 1, 1, 1, 2], 3, tape)),
    "mul_rows": ([(4, 3)], lambda t, tape: nm.mul_rows(t[0], [0.5, 2.0, -1.0, 1.5], tape)),
    "relu": ([(3, 4)], lambda t, tape: nm.relu(t[0], tape)),
    "dropout": ([(3, 4)], lambda t, tape: nm.dropout(t[0], 0.4, np.random.default_rng(99), tape)),
    "l2_normalize": ([(3, 4)], lambda t, tape: nm.l2_normalize(t[0], tape)),
    "bpr_pair_loss": ([(5,), (5,)], lambda t, tape: nm.bpr_pair_loss(t[0], t[1], tape)),
    "mean_all": ([(3, 4)], lambda t, tape: nm.mean_all(t[0], tape)),
    "sum_squares": ([(3, 4)], lambda t, tape: nm.sum_squares(t[0], tape)),
}


@pytest.mark.parametrize("op,frozen", [
    (op, frozen) for op, (shapes, _) in GRAD_OPS.items() for frozen in [None, *range(len(shapes))]
])
def test_gradient_rules_with_each_input_frozen(op, frozen):
    """Every input but ``frozen`` (None: every input) is trainable: each
    trainable input matches finite differences, the frozen one gets no
    gradient."""
    shapes, apply = GRAD_OPS[op]
    rng = np.random.default_rng(60)
    inputs = [nm.Tensor(rng.choice([-1.0, 1.0], s) * rng.uniform(0.2, 1.0, s), trainable=k != frozen)
              for k, s in enumerate(shapes)]
    probe = rng.uniform(-1, 1, apply(inputs, None).shape)

    def build(tape):
        return probe_loss(apply(inputs, tape), probe, tape)

    check_gradients(build, [t for t in inputs if t.trainable])
    if frozen is not None:
        assert inputs[frozen].grad is None


def copying_accumulate(sink, share, g):
    """``numeric._accumulate`` that writes every first contribution into a
    new array, never adopting the rule's output."""
    grad = sink.grad
    if grad is None:
        sink.grad = np.add(0.0, share, out=np.empty(sink.shape))
    else:
        grad += share


@pytest.mark.parametrize("op", GRAD_OPS)
def test_adopted_first_gradients_keep_the_copied_bits(op, monkeypatch):
    shapes, apply = GRAD_OPS[op]

    def leaf_grads():
        rng = np.random.default_rng(62)
        leaves = [nm.Tensor(rng.choice([-1.0, 1.0], s) * rng.uniform(0.2, 1.0, s), trainable=True)
                  for s in shapes]
        tape = nm.Tape()
        # every input is a recorded output, so its first gradient lands in a
        # cell; the first one's comes from an l2 term
        cells = [nm.scale(t, 1.0, tape) for t in leaves]
        out = apply(cells, tape)
        loss = nm.add(probe_loss(out, rng.uniform(-1, 1, out.shape), tape), nm.sum_squares(cells[0], tape), tape)
        tape.backward(loss)
        return [bits(t.grad).tolist() for t in leaves]

    adopted = []
    accumulate = nm._accumulate

    def counting(sink, share, g):
        accumulate(sink, share, g)
        adopted.append(sink.grad is share)

    monkeypatch.setattr(nm, "_accumulate", counting)
    got = leaf_grads()
    assert any(adopted)
    monkeypatch.setattr(nm, "_accumulate", copying_accumulate)
    assert leaf_grads() == got


def reference_segment_mean(x, idx, seg, num_segments, tape):
    """``gather_rows``, then a segment mean over ``np.add.at``: the
    composition ``gather_segment_mean`` replaces."""
    gathered = nm.gather_rows(x, idx, tape)
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)[:, None]
    acc = np.zeros((num_segments, gathered.shape[1]))
    np.add.at(acc, seg, gathered.values)
    return nm._op(tape, acc / counts, (gathered,), ((lambda g: (g / counts)[seg]),))


def reference_mean_rows(x, idx, stride, tape):
    """``gather_rows``, then numpy's mean of each run of ``stride`` rows: the
    composition ``gather_mean_rows`` replaces."""
    gathered = nm.gather_rows(x, idx, tape)
    v = gathered.values
    return nm._op(tape, v.reshape(-1, stride, v.shape[1]).mean(axis=1), (gathered,),
                  ((lambda g: np.repeat(g, stride, axis=0) / stride),))


class TestGatherFusedReductions:
    """Each fused op gives the bits of the gather-then-reduce composition it
    replaces, forward and backward, on every path of ``scatter_add`` and
    into every kind of gradient sink."""

    ROWS = 300
    # one id array per scatter_add path, ids below ROWS
    LAYOUTS = {
        "below_min_rows": lambda rng: rng.integers(0, 300, nm.SCATTER_MIN_ROWS - 28),
        "strictly_ascending": lambda rng: np.sort(rng.choice(300, 200, replace=False)),
        "sorted": lambda rng: np.sort(rng.integers(0, 300, 600)),
        "unsorted": lambda rng: rng.integers(0, 300, 600),
        "heavy_row": lambda rng: rng.permutation(np.concatenate(
            [np.full(2 * nm._TAIL_MIN_RUN, 7), rng.integers(0, 60, 200)])),
        "heavy_row_past_levels": lambda rng: rng.permutation(np.concatenate(
            [np.full(400, 7), rng.integers(0, 300, 3000)])),
    }
    SINKS = ("cell", "row_leaf", "row_leaf_l2", "second")

    @staticmethod
    def values(rng, shape):
        """Spread magnitudes, a -0.0 column (every other row of a single
        column) and a NaN row."""
        v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
        v[::1 if shape[1] > 1 else 2, 0] = -0.0
        v[5] = np.nan
        return v

    @staticmethod
    def upstream(rng, shape):
        """An output gradient whose tiny negatives divide to -0.0."""
        g = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
        g[rng.random(shape) < 0.2] = -5e-324
        return g

    @classmethod
    def run(cls, apply, x_values, sink, g, prior):
        """Forward values of ``apply(x, tape)`` and the gradient that reaches
        ``x``: a recorded output's cell, a trainable leaf's row sums (with
        or without an l2 term), or a leaf's existing dense gradient."""
        tape = nm.Tape()
        seen = []
        if sink == "cell":
            anchor = nm.Tensor(np.zeros(1), trainable=True)
            x = nm._record(tape, x_values.copy(), (anchor,), lambda grad, sinks: seen.append(grad.copy()))
        else:
            x = nm.Tensor(x_values.copy(), trainable=True)
            if sink == "second":
                x.grad = prior.copy()
        out = apply(x, tape)
        loss = nm._op(tape, np.float64(0.0), (out,), ((lambda _: g.copy()),))
        if sink == "row_leaf_l2":
            loss = nm.add(loss, nm.sum_squares(x, tape), tape)
        tape.backward(loss)
        if sink.startswith("row_leaf"):
            assert x._row_grad is not None
        return out.values, (seen[0] if sink == "cell" else x.grad)

    @classmethod
    def assert_same_bits(cls, fused, reference, d, rng, out_rows):
        x_values = cls.values(rng, (cls.ROWS, d))
        g = cls.upstream(rng, (out_rows, d))
        prior = np.where(rng.random((cls.ROWS, d)) < 0.3, -0.0, cls.values(rng, (cls.ROWS, d)))
        for sink in cls.SINKS:
            got_out, got_grad = cls.run(fused, x_values, sink, g, prior)
            want_out, want_grad = cls.run(reference, x_values, sink, g, prior)
            assert bits(got_out).tolist() == bits(want_out).tolist(), sink
            assert bits(got_grad).tolist() == bits(want_grad).tolist(), sink

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_gather_segment_mean_bits(self, layout, d):
        rng = np.random.default_rng(sorted(self.LAYOUTS).index(layout) * 10 + d)
        idx = self.LAYOUTS[layout](rng)
        # segment ids of the same layout, renumbered so every segment is hit
        _, seg = np.unique(self.LAYOUTS[layout](rng), return_inverse=True)
        n = int(seg.max()) + 1
        self.assert_same_bits(lambda x, tape: nm.gather_segment_mean(x, idx, seg, n, tape),
                              lambda x, tape: reference_segment_mean(x, idx, seg, n, tape), d, rng, n)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("stride", [1, 4, 17, 200])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_gather_mean_rows_bits(self, layout, stride, d):
        rng = np.random.default_rng(sorted(self.LAYOUTS).index(layout) * 1000 + stride * 10 + d)
        idx = self.LAYOUTS[layout](rng)
        if idx.size < stride:  # one run of every id, then the rest
            idx = np.resize(idx, stride)
        idx = idx[:idx.size // stride * stride]
        self.assert_same_bits(lambda x, tape: nm.gather_mean_rows(x, idx, stride, tape),
                              lambda x, tape: reference_mean_rows(x, idx, stride, tape),
                              d, rng, idx.size // stride)

    def test_gather_mean_rows_keeps_numpys_signed_zero(self):
        # numpy's mean sums from +0.0, so a run of -0.0 averages to +0.0
        x = nm.Tensor(np.full((4, 3), -0.0))
        want = x.values[[0, 1, 2, 3]].reshape(2, 2, 3).mean(axis=1)
        got = nm.gather_mean_rows(x, [0, 1, 2, 3], 2).values
        assert bits(got).tolist() == bits(want).tolist() == bits(np.zeros((2, 3))).tolist()

    def test_gather_mean_rows_rejects_a_partial_run(self):
        with pytest.raises(DimensionError):
            nm.gather_mean_rows(nm.Tensor(np.ones((3, 2))), [0, 1, 2], 2)


class TestTapeContract:
    def test_backward_twice_rejected(self):
        x = nm.Tensor([1.0, 2.0], trainable=True)
        tape = nm.Tape()
        loss = nm.sum_squares(x, tape)
        tape.backward(loss)
        with pytest.raises(ContractViolation):
            tape.backward(loss)

    def test_fanout_accumulates(self):
        x = nm.Tensor([1.0, 2.0], trainable=True)
        tape = nm.Tape()
        a = nm.scale(x, 2.0, tape)
        b = nm.scale(x, 3.0, tape)
        loss = nm.mean_all(nm.add(a, b, tape), tape)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.5, 2.5])

    def test_touched_parameters_tracks_trainables(self):
        p = nm.Tensor([1.0], name="p", trainable=True)
        frozen = nm.Tensor([2.0], name="frozen")
        tape = nm.Tape()
        nm.add(p, frozen, tape)
        touched = tape.touched_parameters()
        assert touched == [p]

    def test_frozen_leaves_receive_no_gradient(self):
        frozen = nm.Tensor([1.0, 2.0])
        p = nm.Tensor([3.0, 4.0], trainable=True)
        tape = nm.Tape()
        out = nm.add(frozen, p, tape)
        tape.backward(nm.mean_all(out, tape))
        assert frozen.grad is None
        assert p.grad is not None

    def test_unreached_intermediates_keep_no_gradient(self):
        x = nm.Tensor([[1.0, -2.0], [0.5, 3.0]], trainable=True)
        tape = nm.Tape()
        a = nm.scale(x, 2.0, tape)
        b = nm.relu(a, tape)
        c = nm.scale(b, 3.0, tape)  # feeds nothing: its step and b's are skipped
        loss = nm.mean_all(a, tape)
        # step the tape as backward does, keeping each gradient: relu's step
        # run on no gradient would raise
        loss.grad = np.ones(())
        for cell, step in reversed(tape._steps):
            if cell.grad is not None:
                step()
        assert c.grad is None and b.grad is None
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 0.25))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 0.5))

    @pytest.mark.parametrize("first", ["mean_all", "scale"])
    def test_first_contribution_from_a_broadcast_or_scale(self, first):
        # relu's output gets its first gradient from mean_all's broadcast
        # scalar, or from scale, and allocates its buffer from that
        rng = np.random.default_rng(31)
        x = nm.Tensor(rng.choice([-1.0, 1.0], (3, 4)) * rng.uniform(0.2, 1.0, (3, 4)), trainable=True)

        def build(tape):
            h = nm.relu(x, tape)
            return nm.mean_all(h if first == "mean_all" else nm.scale(h, -1.5, tape), tape)

        check_gradients(build, [x])

    def test_first_contribution_normalises_negative_zero(self):
        x = nm.Tensor([[-1.0, 2.0]], trainable=True)
        x.grad = np.full((1, 2), -0.0)  # -0.0 + s is s: x reads h's gradient bits
        tape = nm.Tape()
        h = nm.scale(x, 1.0, tape)
        tape.backward(nm.mean_all(nm.mul_rows(h, [-0.0], tape), tape))
        # -0.0 * 0.5 reaches h; added into zeros it reads +0.0, and x gets
        # -0.0 + 1.0 * +0.0
        assert bits(x.grad).tolist() == bits(np.zeros((1, 2))).tolist()

    def test_backward_empties_the_tape_and_keeps_only_leaf_gradients(self):
        rng = np.random.default_rng(32)
        table = nm.Tensor(rng.uniform(-1, 1, (5, 3)), trainable=True)
        w = nm.Tensor(rng.uniform(-1, 1, (2, 3)), trainable=True)
        frozen = nm.Tensor(rng.uniform(-1, 1, (4, 2)))
        tape = nm.Tape()
        rows = nm.gather_rows(table, [0, 2, 2, 4], tape)
        pre = nm.linear(w, None, rows, tape)
        h = nm.relu(pre, tape)
        mixed = nm.add(h, frozen, tape)
        fit = nm.mean_all(mixed, tape)
        l2 = nm.sum_squares(w, tape)
        loss = nm.add(fit, l2, tape)
        tape.backward(loss)
        assert tape._steps == []
        assert all(out.grad is None for out in (rows, pre, h, mixed, fit, l2, loss))
        assert table.grad is not None and w.grad is not None and frozen.grad is None

    def test_grad_and_zero_grad_act_on_a_recorded_output_before_backward(self):
        x = nm.Tensor([[1.0, -2.0]], trainable=True)
        tape = nm.Tape()
        h = nm.scale(x, 2.0, tape)
        h.zero_grad()  # no gradient yet: nothing to zero
        assert h.grad is None
        h.grad = np.full((1, 2), 3.0)
        h.zero_grad()
        np.testing.assert_array_equal(h.grad, np.zeros((1, 2)))
        h.grad += 1.0  # what the step reads
        (cell, step), = tape._steps
        assert cell.grad is h.grad
        step()
        np.testing.assert_array_equal(x.grad, np.full((1, 2), 2.0))

    def test_first_gradient_adopts_only_a_new_array_of_the_cells_shape(self):
        g = np.array([[1.0, -0.0, 3.0], [-4.0, 5.0, -0.0]])
        kept = bits(g).tolist()
        copied = {
            "the output gradient": (g, (2, 3)),
            "a view of it": (g[:, :2], (2, 2)),
            "a transposed view": (g.T, (3, 2)),
            "a broadcast row": (g[0] * 2.0, (2, 3)),
            "a numpy scalar": (np.float64(-0.0), (2, 3)),
            "a Fortran-ordered array": (np.asfortranarray(g * 2.0), (2, 3)),
        }
        for name, (share, shape) in copied.items():
            cell = nm._Cell(shape)
            nm._accumulate(cell, share, g)
            assert cell.grad is not share and not np.shares_memory(cell.grad, g), name
            assert cell.grad.flags.c_contiguous, name
            assert bits(cell.grad).tolist() == bits(0.0 + np.broadcast_to(share, shape)).tolist(), name
        assert bits(g).tolist() == kept
        fresh = g * 1.0
        cell = nm._Cell((2, 3))
        nm._accumulate(cell, fresh, g)
        assert cell.grad is fresh
        assert bits(fresh).tolist() == bits(0.0 + g).tolist()  # -0.0 became +0.0 in place
        nm._accumulate(cell, g * 2.0, g)  # a second contribution adds in place
        assert cell.grad is fresh
        np.testing.assert_array_equal(fresh, 3.0 * g)

    def test_no_nan_inf_from_finite_inputs(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            x = nm.Tensor(rng.uniform(-50, 50, 8))
            for out in (
                nm.relu(x),
                nm.l2_normalize(nm.Tensor(x.values[None])),
                nm.bpr_pair_loss(x, nm.Tensor(rng.uniform(-50, 50, 8))),
            ):
                assert np.all(np.isfinite(out.values))


def traced_pass(forward):
    """Run ``forward(tape)`` and the tape's backward under tracemalloc.

    Returns the bytes still traced when ``forward`` has returned its loss
    and the peak during backward, both above the bytes traced before.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = nm.Tape()
        loss = forward(tape)
        live = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return live, peak


class TestTapeMemory:
    MiB = 1 << 20

    def test_dropped_intermediates_are_freed(self):
        # a 16 MiB gathered block passes through ops whose rules read no
        # input values, so only relu's 2 MiB mask outlives the forward code
        n, d = 1 << 16, 32
        table = nm.Tensor(np.random.default_rng(33).uniform(-1, 1, (1024, d)), trainable=True)
        idx = np.random.default_rng(34).integers(0, 1024, n)

        def forward(tape):
            h = nm.relu(nm.scale(nm.gather_rows(table, idx, tape), 2.0, tape), tape)
            return nm.mean_all(nm.sum_rows_stride(h, 64, tape), tape)

        live, peak = traced_pass(forward)
        block = n * d * 8
        assert live < block // 4
        # a step holds its output's gradient, its rule's share and the
        # input's gradient: three blocks, and the mask
        assert peak < 3.5 * block
        assert table.grad is not None

    def test_group_batch_memory_is_bounded(self):
        # one 256-triple group batch, d=64, on 3,000 users keeps about
        # 6 MiB live after forward and peaks at about 12 MiB in backward;
        # a tape that kept every tensor would keep 23 and peak at 47
        ds = generate_synthetic(SynthConfig(num_users=3000, num_items=1500, num_groups=1500,
                                            num_latent_topics=20, seed=7))
        cfg = ModelConfig(d=64)
        params = initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng([7, 1]))
        social, hyper = build_social_graph(ds), build_hypergraph(ds)
        rng = np.random.default_rng(7)
        triples = ht.build_triples(ds.group_item[:256], ht.positives_by_entity(ds.group_item),
                                   ds.num_items, 1, rng)
        live, peak = traced_pass(lambda tape: ht.group_batch_loss(triples, params, cfg, social, hyper,
                                                                  1e-5, rng, tape))
        assert live < 10 * self.MiB
        assert peak < 20 * self.MiB


    def test_second_group_batch_peaks_below_its_gathered_blocks(self):
        # the second 256-triple group batch on the data above, after an Adam
        # step: gathering the member, common-member and neighbor blocks and
        # their gradient cells peaked at 10.7 MiB in forward and 10.5 MiB in
        # backward; fused gathers peak at about 8.6 and 9.4
        ds = generate_synthetic(SynthConfig(num_users=3000, num_items=1500, num_groups=1500,
                                            num_latent_topics=20, seed=7))
        cfg = ModelConfig(d=64)
        params = initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng([7, 1]))
        social, hyper = build_social_graph(ds), build_hypergraph(ds)
        rng = np.random.default_rng(7)
        positives = ht.positives_by_entity(ds.group_item)
        adam = ht.AdamOptimizer(1e-3)
        tracemalloc.start()
        try:
            for batch in range(2):
                triples = ht.build_triples(ds.group_item[256 * batch:256 * (batch + 1)], positives,
                                           ds.num_items, 1, rng)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                tape = nm.Tape()
                loss = ht.group_batch_loss(triples, params, cfg, social, hyper, 1e-5, rng, tape)
                forward_peak = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.reset_peak()
                tape.backward(loss)
                backward_peak = tracemalloc.get_traced_memory()[1] - base
                touched = tape.touched_parameters()
                adam.step(touched)
                for t in touched:
                    t.zero_grad()
        finally:
            tracemalloc.stop()
        assert forward_peak < 9.5 * self.MiB
        assert backward_peak < 10 * self.MiB


class TestCheckpointBlob:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(40)
        a = nm.Tensor(rng.normal(size=(3, 4)), name="a")
        b = nm.Tensor(rng.normal(size=5), name="b")
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(path, [("a", a), ("b", b)], {"seed": 7, "config_sha256": "x"})
        meta, tensors = nm.load_checkpoint(path)
        assert meta["seed"] == 7
        np.testing.assert_array_equal(tensors["a"], a.values)
        np.testing.assert_array_equal(tensors["b"], b.values)

    def test_deterministic_bytes(self, tmp_path):
        v = nm.Tensor(np.linspace(0, 1, 6).reshape(2, 3))
        p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
        nm.save_checkpoint(p1, [("v", v)], {"seed": 1})
        nm.save_checkpoint(p2, [("v", v)], {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        v = nm.Tensor(np.ones(4))
        nm.save_checkpoint(path, [("v", v)], {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(CheckpointError):
            nm.load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\0", b"garbage", np.ones(1).astype("<f8").tobytes()])
    def test_bytes_after_the_last_tensor_rejected(self, tmp_path, extra):
        path = tmp_path / "bad.bin"
        nm.save_checkpoint(path, [("v", nm.Tensor(np.ones(4)))], {})
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CheckpointError, match=f"{len(extra)} bytes after the last tensor"):
            nm.load_checkpoint(path)


def raw_checkpoint(header) -> bytes:
    """A checkpoint blob with an arbitrary JSON header and an 8-byte payload."""
    blob = json.dumps(header).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob + np.ones(1).astype("<f8").tobytes()


MALFORMED_HEADERS = {
    "header_is_a_list": [{"dtype": "<f8"}],
    "no_tensors_key": {"dtype": "<f8"},
    "non_integer_shape": {"dtype": "<f8", "tensors": [{"name": "v", "shape": ["x"]}]},
    "negative_shape": {"dtype": "<f8", "tensors": [{"name": "v", "shape": [-2]}]},
}


class TestMalformedCheckpointHeader:
    @pytest.mark.parametrize("header", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_raises_checkpoint_error(self, tmp_path, header):
        path = tmp_path / "bad.bin"
        path.write_bytes(raw_checkpoint(header))
        with pytest.raises(CheckpointError):
            nm.load_checkpoint(path)

    def test_oversized_shape_is_truncation(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(raw_checkpoint({"dtype": "<f8", "tensors": [{"name": "v", "shape": [10**18]}]}))
        with pytest.raises(CheckpointError, match="truncated"):
            nm.load_checkpoint(path)

    @pytest.mark.parametrize("hlen", [2**63, 2**64 - 1, None], ids=["2^63", "2^64-1", "file_plus_one"])
    def test_header_length_beyond_the_file(self, tmp_path, hlen):
        blob = json.dumps({"dtype": "<f8", "tensors": []}).encode("utf-8")
        # None: one byte more than the file holds, so the whole header still parses
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<Q", len(blob) + 1 if hlen is None else hlen) + blob)
        with pytest.raises(CheckpointError, match="truncated"):
            nm.load_checkpoint(path)

    def test_tensor_listed_twice(self, tmp_path):
        header = {"dtype": "<f8", "tensors": [{"name": "v", "shape": [1]}, {"name": "v", "shape": [1]}]}
        path = tmp_path / "bad.bin"
        path.write_bytes(raw_checkpoint(header) + np.full(1, 2.0).astype("<f8").tobytes())
        with pytest.raises(CheckpointError, match="twice"):
            nm.load_checkpoint(path)

    @pytest.mark.parametrize("blob", [b"[" * 100_000, b"1" * 5000], ids=["deep_nesting", "huge_int"])
    def test_header_json_beyond_parser_limits(self, tmp_path, blob):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointError):
            nm.load_checkpoint(path)


class TestScatterAdd:
    """``scatter_add`` must give exactly the bits of ``np.add.at``."""

    @staticmethod
    def assert_matches_add_at(target, idx, vals):
        want = target.copy()
        np.add.at(want, np.asarray(idx).reshape(-1), vals.reshape((np.size(idx),) + target.shape[1:]))
        got = target.copy()
        nm.scatter_add(got, idx, vals)
        np.testing.assert_array_equal(bits(got), bits(want))

    @staticmethod
    def spread_values(rng, shape):
        # magnitudes from 1e-8 to 1e8, so any change of summation order shows
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)

    @pytest.mark.parametrize("d", [None, 1, 2, 64])
    @pytest.mark.parametrize("rows,n", [(3, 5), (50, 127), (50, 128), (300, 5000), (5000, 5000), (9, 2000)])
    def test_bitwise_equal_to_add_at(self, d, rows, n):
        rng = np.random.default_rng(rows * 7919 + n + (d or 0))
        tail = () if d is None else (d,)
        target = self.spread_values(rng, (rows,) + tail)
        idx = rng.integers(0, rows, n)
        self.assert_matches_add_at(target, idx, self.spread_values(rng, (n,) + tail))

    def test_empty_index(self):
        target = np.arange(6.0).reshape(3, 2)
        self.assert_matches_add_at(target, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))

    def test_signed_zeros(self):
        rng = np.random.default_rng(50)
        for n in (40, 600):
            target = np.where(rng.random((200, 2)) < 0.5, -0.0, 0.0)
            idx = rng.integers(0, 200, n)
            vals = np.where(rng.random((n, 2)) < 0.5, -0.0, 0.0)
            self.assert_matches_add_at(target, idx, vals)

    def test_row_repeated_more_than_a_thousand_times(self):
        rng = np.random.default_rng(51)
        idx = rng.permutation(np.concatenate([np.zeros(1500, dtype=np.int64), rng.integers(0, 2000, 3000)]))
        target = self.spread_values(rng, (2000, 4))
        self.assert_matches_add_at(target, idx, self.spread_values(rng, (idx.size, 4)))

    def test_multidimensional_index(self):
        rng = np.random.default_rng(52)
        idx = rng.integers(0, 400, (300, 3))
        self.assert_matches_add_at(np.zeros((400, 2)), idx, self.spread_values(rng, (300, 3, 2)))

    @pytest.mark.parametrize("n", [20, 900])
    def test_negative_indices_wrap(self, n):
        rng = np.random.default_rng(53 + n)
        idx = rng.integers(-700, 700, n)
        self.assert_matches_add_at(self.spread_values(rng, (700, 3)), idx, self.spread_values(rng, (n, 3)))

    # index layouts for each path of scatter_add: strictly ascending (one
    # add), non-decreasing (the argsort path; segment ids with runs of
    # 1-14), a row with most entries (the np.add.at tail), sorted or not,
    # and a sorted index whose negative entries wrap to the end
    LAYOUTS = {
        "strictly_ascending": lambda rng: np.sort(rng.choice(2000, 700, replace=False)),
        "runs_of_1_to_14": lambda rng: np.repeat(np.arange(600), rng.integers(1, 15, 600)),
        "one_heavy_row_sorted": lambda rng: np.sort(np.concatenate(
            [np.arange(300), np.full(4000, 17), rng.integers(0, 40, 600)])),
        "one_heavy_row_unsorted": lambda rng: rng.permutation(np.concatenate(
            [np.arange(300), np.full(4000, 17), rng.integers(0, 40, 600)])),
        "sorted_with_negatives": lambda rng: np.sort(rng.integers(-300, 300, 3000)),
    }

    @pytest.mark.parametrize("d", [None, 3])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_index_layouts(self, layout, d):
        rng = np.random.default_rng(54)
        idx = self.LAYOUTS[layout](rng)
        tail = () if d is None else (d,)
        self.assert_matches_add_at(self.spread_values(rng, (2000,) + tail), idx,
                                   self.spread_values(rng, (idx.size,) + tail))

    @pytest.mark.parametrize("layout", ["strict", "sorted", "unsorted"])
    def test_signed_zeros_on_every_path(self, layout):
        rng = np.random.default_rng(58)
        idx = {"strict": np.arange(0, 900, 3),
               "sorted": np.repeat(np.arange(300), 3),
               "unsorted": rng.integers(0, 300, 900)}[layout]
        target = np.where(rng.random((900, 2)) < 0.5, -0.0, 0.0)
        vals = np.where(rng.random((idx.size, 2)) < 0.5, -0.0, 0.0)
        vals[rng.random(idx.size) < 0.1] = 1.0
        self.assert_matches_add_at(target, idx, vals)

    @pytest.mark.parametrize("n", [20, 900])
    @pytest.mark.parametrize("bad", [700, -701])
    def test_out_of_range_raises_index_error(self, n, bad):
        idx = np.zeros(n, dtype=np.int64)
        idx[n // 2] = bad
        with pytest.raises(IndexError):
            nm.scatter_add(np.zeros((700, 3)), idx, np.ones((n, 3)))

    # every path of scatter_add: the LAYOUTS, fewer than SCATTER_MIN_ROWS
    # entries, and no level with a heavy row or with none
    TAKE_LAYOUTS = {
        **LAYOUTS,
        "below_min_rows": lambda rng: rng.integers(0, 2000, 20),
        "levelless_heavy": lambda rng: rng.permutation(np.concatenate(
            [np.full(2 * nm._TAIL_MIN_RUN, 3), rng.integers(0, 30, 60)])),
        "levelless_light": lambda rng: rng.integers(0, 100, 200),
    }

    @pytest.mark.parametrize("layout", TAKE_LAYOUTS)
    def test_take_reads_the_named_rows(self, layout):
        rng = np.random.default_rng(63)
        idx = self.TAKE_LAYOUTS[layout](rng)
        vals = self.spread_values(rng, (50, 3))
        vals[rng.random((50, 3)) < 0.1] = -0.0
        take = rng.integers(-50, 50, idx.size)
        target = np.where(rng.random((2000, 3)) < 0.2, -0.0, self.spread_values(rng, (2000, 3)))
        want = target.copy()
        np.add.at(want, idx, vals[take])
        nm.scatter_add(target, idx, vals, take)
        assert bits(target).tolist() == bits(want).tolist()

    @pytest.mark.parametrize("bad", [50, -51])
    @pytest.mark.parametrize("layout", TAKE_LAYOUTS)
    def test_out_of_range_take_raises_index_error(self, layout, bad):
        idx = self.TAKE_LAYOUTS[layout](np.random.default_rng(64))
        take = np.zeros(idx.size, dtype=np.int64)
        take[idx.size // 2] = bad
        target = np.zeros((2000, 3))
        with pytest.raises(IndexError):
            nm.scatter_add(target, idx, np.ones((50, 3)), take)
        assert not target.any()  # nothing was added

    @staticmethod
    def heavy_tail_layout(rng):
        """Up to 200 rows repeated 1-400 times over a random background,
        sorted, unsorted or permuted: tails of heavy rows on both sides of
        the accumulate threshold, and rows with none."""
        rows = int(rng.integers(1, 3000))
        heavy = rng.integers(0, rows, int(rng.integers(1, 200)))
        idx = np.concatenate([np.repeat(heavy, rng.integers(1, 400, heavy.size)),
                              rng.integers(0, rows, int(rng.integers(0, 3000)))])
        return rows, (np.sort(idx) if rng.random() < 0.3 else rng.permutation(idx))

    def test_heavy_row_tails_with_signed_zeros(self):
        rng = np.random.default_rng(59)
        accumulated = 0
        for case in range(300):
            rows, idx = self.heavy_tail_layout(rng)
            tail = ((), (1,), (3,), (64,))[case % 4]
            target, vals = (np.where(rng.random(shape) < 0.2, rng.choice([-0.0, 0.0], shape),
                                     self.spread_values(rng, shape))
                            for shape in ((rows,) + tail, (idx.size,) + tail))
            self.assert_matches_add_at(target, idx, vals)
            counts = np.bincount(idx)
            levels = np.sum(np.cumsum(np.bincount(counts)[:0:-1])[::-1] >= nm.SCATTER_MIN_ROWS)
            accumulated += int(levels and np.sum(counts - levels >= nm._TAIL_MIN_RUN))
        # the layouts reach the accumulate path, and not only it
        assert accumulated > 300

    @staticmethod
    def levelless_layout(rng, heavy=14, light=30):
        """About 9,000 entries onto ``heavy`` rows, plus 1-5 each onto
        ``light`` rows, of 1,300: under SCATTER_MIN_ROWS distinct rows, so
        no level forms."""
        rows = rng.choice(1300, heavy + light, replace=False)
        counts = np.concatenate([rng.integers(500, 800, heavy), rng.integers(1, 6, light)])
        return rng.permutation(np.repeat(rows, counts)), rows[heavy:]

    @pytest.mark.parametrize("target_zero", [False, True])
    @pytest.mark.parametrize("d", [None, 1, 2, 3, 64])
    def test_levelless_heavy_rows(self, d, target_zero):
        rng = np.random.default_rng(60 + (d or 0) + 100 * target_zero)
        idx, _ = self.levelless_layout(rng)
        tail = () if d is None else (d,)

        def huge(shape):
            # magnitudes of 1e-300 to 1e300 with signed zeros mixed in
            out = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
            return np.where(rng.random(shape) < 0.2, rng.choice([-0.0, 0.0], shape), out)

        target = np.zeros((1300,) + tail) if target_zero else huge((1300,) + tail)
        vals = huge((idx.size,) + tail)
        # one heavy row whose target and entries are all -0.0 in column 0:
        # np.add.at keeps -0.0 there, a reduce from +0.0 would not
        row = np.bincount(idx).argmax()
        target[row] = -0.0
        vals[idx == row, ...] = np.where(np.arange(d or 1) == 0, -0.0, vals[idx == row, ...])
        for order, v in ((idx, vals), (np.sort(idx), vals[np.argsort(idx, kind="stable")])):
            self.assert_matches_add_at(target, order, v)

    @staticmethod
    def add_at_entries(monkeypatch, target, idx, vals):
        """How many entries ``scatter_add`` sends through ``np.add.at``."""
        seen = []

        class Add:
            def __getattr__(self, name):
                return getattr(np.add, name)

            def at(self, a, i, b):
                seen.append(np.size(i))
                np.add.at(a, i, b)

        class Numpy:
            add = Add()

            def __getattr__(self, name):
                return getattr(np, name)

        with monkeypatch.context() as m:
            m.setattr(nm, "np", Numpy())
            nm.scatter_add(target, idx, vals)
        return sum(seen)

    @pytest.mark.parametrize("d", [None, 64])
    def test_levelless_heavy_rows_skip_add_at(self, monkeypatch, d):
        # only the light rows' entries reach np.add.at, with or without a level
        rng = np.random.default_rng(70)
        idx, light = self.levelless_layout(rng)
        tail = () if d is None else (d,)
        vals = self.spread_values(rng, (idx.size,) + tail)
        got = self.add_at_entries(monkeypatch, np.zeros((1300,) + tail), idx, vals)
        assert got == np.isin(idx, light).sum() < 100

    def test_levelless_light_rows_take_add_at_alone(self, monkeypatch):
        # with no level and no row of _TAIL_MIN_RUN entries, the sort buys nothing
        rng = np.random.default_rng(71)
        idx = rng.permutation(np.repeat(np.arange(20), nm._TAIL_MIN_RUN - 1))
        vals = self.spread_values(rng, (idx.size, 3))
        assert self.add_at_entries(monkeypatch, np.zeros((20, 3)), idx, vals) == idx.size


class TestNumpySumOrders:
    """The numpy summation orders ``scatter_add``'s heavy rows rely on:
    ``np.add.reduce`` over axis 0 of a C-contiguous block whose rows have
    2 or more elements adds the rows one at a time, and ``np.add.accumulate``
    does at any width.  A numpy that reorders either fails here."""

    @staticmethod
    def row_by_row(a):
        total = a[0].copy()
        for row in a[1:]:
            total = total + row
        return total

    @pytest.mark.parametrize("k", [2, 3, 9, 17, 130, 640, 5000])
    @pytest.mark.parametrize("row", [(2,), (3,), (8,), (64,), (65,), (2, 3)])
    def test_axis0_reduce_adds_rows_in_order(self, k, row):
        rng = np.random.default_rng(k * 131 + sum(row))
        a = rng.choice([-1.0, 1.0], (k,) + row) * 10.0 ** rng.uniform(-150, 150, (k,) + row)
        # a -0.0 block in the first column, and signed zeros scattered
        a[..., 0] = -0.0
        a[rng.random(a.shape) < 0.2] = -0.0
        a[rng.random(a.shape) < 0.1] = 0.0
        got = np.add.reduce(a, axis=0, initial=-0.0)
        np.testing.assert_array_equal(bits(got), bits(self.row_by_row(a)))

    @pytest.mark.parametrize("k", [9, 130, 5000])
    @pytest.mark.parametrize("shape", [(), (1,)])
    def test_accumulate_adds_in_order(self, k, shape):
        rng = np.random.default_rng(k)
        a = rng.choice([-1.0, 1.0], (k,) + shape) * 10.0 ** rng.uniform(-150, 150, (k,) + shape)
        np.testing.assert_array_equal(bits(np.add.accumulate(a, axis=0)[-1]), bits(self.row_by_row(a)))


class TestSumOfSquares:
    """``sum_squares`` sums in blocks, with the bits of ``np.sum(x * x)``."""

    @pytest.mark.parametrize("shape", [(1,), (7,), (129,), (8193,), (12345, 17),
                                       (nm._SQUARES_LEAF + 1,), (3 * nm._SQUARES_LEAF + 5, 2)])
    def test_bitwise_equal_to_numpy_sum(self, shape):
        rng = np.random.default_rng(int(np.prod(shape)))
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-150, 150, shape)
        for values in (x, x[::-1], np.asfortranarray(x)):
            got = nm.sum_squares(nm.Tensor(values)).values
            assert bits(got) == bits(np.sum(values * values))


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(path, [("v", nm.Tensor(np.ones(3)))], {"seed": 1})
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with nm.atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("disk gone")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_checkpoint_failing_after_its_header(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.bin"
        tensors = [("a", nm.Tensor(np.ones(3))), ("b", nm.Tensor(np.zeros(2)))]
        nm.save_checkpoint(path, tensors, {"seed": 1})
        before = path.read_bytes()
        real = np.ascontiguousarray
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("payload")
            return real(*args, **kwargs)

        monkeypatch.setattr(nm.np, "ascontiguousarray", fail_second)
        with pytest.raises(MemoryError):
            nm.save_checkpoint(path, tensors, {"seed": 2})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_new_file_replaces_old(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with nm.atomic_write(path, encoding="utf-8") as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# 3 warm-up rounds of 64 freed 1 MiB arrays, then the minor page faults of
# 5 more rounds, per round
FAULTS_PER_ROUND = """
import resource
import numpy as np
import hypergroup

def one_round():
    arrays = [np.ones(1 << 17) for _ in range(64)]
    del arrays

for _ in range(3):
    one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    one_round()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


class TestHeapPolicy:
    @pytest.mark.skipif(not on_glibc(), reason="the heap policy applies on glibc only")
    def test_freed_arrays_come_back_without_page_faults(self):
        # glibc's adaptive defaults trim the 64 MiB each round frees, so every
        # round faults about 16k pages back in
        path = (str(Path(nm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run([sys.executable, "-c", FAULTS_PER_ROUND], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert float(out.stdout) < 100

    def test_other_platforms_leave_ctypes_alone(self, monkeypatch):
        def no_name(name):
            raise ValueError("unrecognized configuration name")

        def no_ctypes(*args, **kwargs):
            raise AssertionError("ctypes touched")

        monkeypatch.setattr(nm.os, "confstr", no_name)
        monkeypatch.setattr(nm.ctypes, "CDLL", no_ctypes)
        nm._keep_heap_warm()

    def test_glibc_sets_both_thresholds(self, monkeypatch):
        calls = []

        class Mallopt:  # takes the argtypes and restype the real one gets
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        libc = types.SimpleNamespace(mallopt=Mallopt())
        monkeypatch.setattr(nm.os, "confstr", lambda name: "glibc 2.35")
        monkeypatch.setattr(nm.ctypes, "CDLL", lambda name: libc)
        nm._keep_heap_warm()
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]


# the gradient bytes of one 256-triple group batch, d=64, on 3,000 users: the
# layer-1 encoder weight gradients sum over enough rows that a threaded
# OpenBLAS splits them, which changed their bits
GRADIENT_DIGESTS = """
import hashlib, json
import numpy as np
from hypergroup import (ModelConfig, SynthConfig, build_hypergraph, build_social_graph, generate_synthetic,
                        initialize_params)
from hypergroup.numeric import Tape
from hypergroup.training import build_triples, group_batch_loss, positives_by_entity

ds = generate_synthetic(SynthConfig(num_users=3000, num_items=1500, num_groups=1500, num_latent_topics=20,
                                    seed=7))
cfg = ModelConfig(d=64)
params = initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng([7, 1]))
rng = np.random.default_rng(7)
triples = build_triples(ds.group_item[:256], positives_by_entity(ds.group_item), ds.num_items, 1, rng)
tape = Tape()
loss = group_batch_loss(triples, params, cfg, build_social_graph(ds), build_hypergraph(ds), 1e-5, rng, tape)
tape.backward(loss)
print(json.dumps({name: None if t.grad is None else hashlib.sha256(t.grad.tobytes()).hexdigest()
                  for name, t in params.trainable_tensors()}))
"""


class TestBlasThreads:
    def test_gradients_are_the_same_bits_at_one_and_two_threads(self):
        path = (str(Path(nm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
                   "OPENBLAS_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", GRADIENT_DIGESTS], env=env, capture_output=True,
                                 text=True, check=True, timeout=300)
            digests.append(json.loads(out.stdout))
        assert digests[0] == digests[1]

    def test_a_numpy_without_the_setter_warns_once(self, monkeypatch, caplog):
        monkeypatch.setattr(nm.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        with caplog.at_level("WARNING", logger="hypergroup.numeric"):
            nm._pin_blas_threads()
        assert len(caplog.records) == 1 and "scipy_openblas_set_num_threads64_" in caplog.text


class TestWritePath:
    @pytest.mark.parametrize("writeable", [True, False])
    def test_writing_bumps_the_version_and_restores_the_flag(self, writeable):
        t = nm.Tensor(np.zeros(3))
        t.values.flags.writeable = writeable
        with t.writing() as values:
            assert values is t.values and values.flags.writeable
            values[1] = 2.0
        assert t.version == 1 and t.values.flags.writeable == writeable
        assert t.values.tolist() == [0.0, 2.0, 0.0]

    def test_writing_bumps_the_version_and_restores_the_flag_when_its_block_raises(self):
        t = nm.Tensor(np.zeros(3))
        t.values.flags.writeable = False
        with pytest.raises(KeyError):
            with t.writing() as values:
                values[0] = 1.0
                raise KeyError("stop")
        assert t.version == 1 and not t.values.flags.writeable
        assert t.values.tolist() == [1.0, 0.0, 0.0]

    @staticmethod
    def in_place_values_writes(source: str) -> list[int]:
        """Lines that subscript-assign, augment-assign or ``out=`` into a
        ``.values`` attribute."""
        def is_values(node):
            return isinstance(node, ast.Attribute) and node.attr == "values"

        lines = []
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) and is_values(node.value)
                    or isinstance(node, ast.AugAssign) and is_values(node.target)
                    or isinstance(node, ast.keyword) and node.arg == "out" and is_values(node.value)):
                lines.append(node.lineno)
        return sorted(lines)

    def test_the_guard_sees_each_kind_of_write(self):
        source = ("t.values[0] = 1\n" "t.values -= g\n" "np.add(a, b, out=t.values)\n"
                  "t.values[1:] += 2\n" "del t.values[0]\n" "t.values = v\n" "x = t.values[0]\n")
        assert self.in_place_values_writes(source) == [1, 2, 3, 4, 5]

    def test_the_package_writes_values_only_through_writing(self):
        # a write elsewhere would change an array behind a kept result
        # without bumping its version
        found = {}
        for path in sorted(Path(nm.__file__).parent.glob("*.py")):
            lines = self.in_place_values_writes(path.read_text(encoding="utf-8"))
            if lines:
                found[path.name] = lines
        assert not found, f"in-place writes to .values outside Tensor.writing: {found}"


class TestUniqueIds:
    """The package makes ids distinct through ``numeric.unique_ids``, one
    sort, and not through numpy's hashing ``np.unique`` or its set
    routines."""

    def test_matches_np_unique_of_the_concatenation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            parts = [rng.integers(0, 50, size=(int(rng.integers(0, 4)), int(rng.integers(0, 30))))
                     for _ in range(int(rng.integers(1, 4)))]
            want = np.unique(np.concatenate([p.ravel() for p in parts]))
            np.testing.assert_array_equal(nm.unique_ids(*parts), want)

    def test_graph_and_model_use_this_one(self):
        from hypergroup import graph, model
        assert graph.unique_ids is model.unique_ids is nm.unique_ids

    SET_ROUTINES = {"isin", "in1d", "union1d", "intersect1d", "setdiff1d", "setxor1d"}
    SORTING_FORMS = {"return_index", "return_inverse", "return_counts"}

    @classmethod
    def hashing_id_calls(cls, source: str) -> list[int]:
        """Lines that call ``np.unique`` without one of the keywords that
        make it sort, or one of numpy's set routines."""
        lines = []
        for node in ast.walk(ast.parse(source)):
            func = node.func if isinstance(node, ast.Call) else None
            if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "np"):
                continue
            if (func.attr in cls.SET_ROUTINES
                    or func.attr == "unique" and not cls.SORTING_FORMS & {k.arg for k in node.keywords}):
                lines.append(node.lineno)
        return sorted(lines)

    def test_the_guard_sees_each_call(self):
        source = ("np.unique(a)\n" "np.isin(a, b)\n" "np.in1d(a, b)\n" "np.union1d(a, b)\n"
                  "np.intersect1d(a, b)\n" "np.setdiff1d(a, b)\n" "np.setxor1d(a, b)\n"
                  "np.unique(a, axis=0)\n" "np.unique(a, return_index=True)\n"
                  "np.unique(a, return_inverse=True)\n" "np.unique(a, return_counts=True)\n"
                  "unique_ids(a, b)\n" "np.sort(a)\n")
        assert self.hashing_id_calls(source) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_the_package_makes_ids_distinct_by_sorting(self):
        found = {}
        for path in sorted(Path(nm.__file__).parent.glob("*.py")):
            lines = self.hashing_id_calls(path.read_text(encoding="utf-8"))
            if lines:
                found[path.name] = lines
        assert not found, f"np.unique's hashing form or a numpy set routine, in place of unique_ids: {found}"
