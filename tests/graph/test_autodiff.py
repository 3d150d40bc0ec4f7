"""Gradient correctness: autodiff vs finite differences, per op family.

Every op that carries a gradient rule is exercised inside a small graph
whose loss is reduced to a scalar; the analytic gradient must match
central differences to ~1e-4 (normalized) in float64.
"""

import numpy as np
import pytest

from repro.graph import Graph, build_training_step, differentiate
from repro.ops import (
    add,
    avg_pool1d,
    batch_matmul,
    batch_norm,
    concat,
    conv2d,
    embedding_lookup,
    matmul,
    max_pool2d,
    multiply,
    one_minus,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    softmax_cross_entropy,
    split,
    subtract,
    tanh,
    transpose,
)
from repro.symbolic import symbols

from ..helpers import gradient_check

b, h, v = symbols("b h v")
BIND = {b: 3, h: 4, v: 6}


def scalar_loss(g, t):
    return reduce_mean(g, reduce_sum(g, t, range(1, t.rank)), [0])


class TestMatmulGrads:
    @pytest.mark.parametrize("ta,tb", [(False, False), (True, False),
                                       (False, True), (True, True)])
    def test_matmul_transpose_variants(self, ta, tb):
        g = Graph()
        x = g.input("x", (b, h) if not ta else (h, b))
        w = g.parameter("w", (h, v) if not tb else (v, h))
        out = matmul(g, x, w, transpose_a=ta, transpose_b=tb)
        loss = scalar_loss(g, out)
        gradient_check(g, loss, BIND)

    def test_batch_matmul(self):
        g = Graph()
        x = g.input("x", (b, 2, h))
        w3 = g.parameter("w3", (h, h))
        # lift w into a batch by matmul with per-batch activations
        q = g.input("q", (b, h, h))
        keys = batch_matmul(g, x, q)
        loss = scalar_loss(g, matmul(
            g, reshape(g, keys, (b * 2, h)), w3
        ))
        gradient_check(g, loss, BIND)

    def test_backward_flops_twice_forward(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, v))
        out = matmul(g, x, w)
        fwd = g.total_flops()
        differentiate(g, scalar_loss(g, out))
        matmul_flops = sum(
            (op.flops() for op in g.ops if op.kind == "matmul"),
            start=g.total_flops() * 0,
        )
        # x has no grad: backward adds only dW (one matmul of equal cost)
        assert matmul_flops == 2 * (2 * b * h * v)


class TestPointwiseGrads:
    @pytest.mark.parametrize("fn", [sigmoid, tanh, relu])
    def test_activations(self, fn):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        out = fn(g, matmul(g, x, w))
        gradient_check(g, scalar_loss(g, out), BIND)

    def test_binary_same_shape(self):
        g = Graph()
        x = g.input("x", (b, h))
        w1 = g.parameter("w1", (h, h))
        w2 = g.parameter("w2", (h, h))
        a1 = matmul(g, x, w1)
        a2 = matmul(g, x, w2)
        out = add(g, multiply(g, a1, a2), subtract(g, a1, a2))
        gradient_check(g, scalar_loss(g, out), BIND)

    def test_bias_broadcast(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        bias = g.parameter("bias", (h,))
        out = add(g, matmul(g, x, w), bias)
        gradient_check(g, scalar_loss(g, out), BIND)

    def test_scale_and_one_minus(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        gate = sigmoid(g, matmul(g, x, w))
        out = add(g, scale(g, gate, 2.5), one_minus(g, gate))
        gradient_check(g, scalar_loss(g, out), BIND)


class TestShapeGrads:
    def test_concat_split_roundtrip(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, 2 * h))
        gates = matmul(g, x, w)
        left, right = split(g, gates, [h, h], axis=1)
        out = concat(g, [tanh(g, left), sigmoid(g, right)], axis=1)
        gradient_check(g, scalar_loss(g, out), BIND)

    def test_partially_consumed_split(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, 3 * h))
        gates = matmul(g, x, w)
        first, _mid, _last = split(g, gates, [h, h, h], axis=1)
        gradient_check(g, scalar_loss(g, tanh(g, first)), BIND)

    def test_reshape_transpose(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        out = matmul(g, x, w)
        out = transpose(g, out, (1, 0))
        out = reshape(g, out, (h * b,))
        gradient_check(g, scalar_loss(g, out), BIND)


class TestLossGrads:
    def test_softmax_cross_entropy(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, v))
        labels = g.input("labels", (b,))
        labels.int_bound = v
        logits = matmul(g, x, w)
        loss_vec, _probs = softmax_cross_entropy(g, logits, labels)
        loss = reduce_mean(g, loss_vec, [0])
        gradient_check(g, loss, BIND)

    def test_plain_softmax(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, v))
        probs = softmax(g, matmul(g, x, w))
        gradient_check(g, scalar_loss(g, probs * 1 if False else probs),
                       BIND)


class TestEmbeddingGrads:
    def test_embedding_scatter(self):
        g = Graph()
        table = g.parameter("table", (v, h))
        ids = g.input("ids", (b,))
        ids.int_bound = v
        w = g.parameter("w", (h, 2))
        out = matmul(g, embedding_lookup(g, table, ids), w)
        gradient_check(g, scalar_loss(g, out), BIND)


class TestConvPoolNormGrads:
    def test_conv2d_same(self):
        g = Graph()
        x = g.input("x", (b, 5, 5, 2))
        w = g.parameter("w", (3, 3, 2, 3))
        out = conv2d(g, x, w, stride=1, padding="same")
        gradient_check(g, scalar_loss(g, out), BIND, tol=2e-4)

    def test_conv2d_strided_valid(self):
        g = Graph()
        x = g.input("x", (b, 6, 6, 2))
        w = g.parameter("w", (3, 3, 2, 3))
        out = conv2d(g, x, w, stride=2, padding="valid")
        gradient_check(g, scalar_loss(g, out), BIND, tol=2e-4)

    def test_max_pool2d(self):
        g = Graph()
        x = g.input("x", (b, 6, 6, 2))
        w = g.parameter("w", (1, 1, 2, 2))
        pre = conv2d(g, x, w)
        out = max_pool2d(g, pre, window=2, stride=2)
        gradient_check(g, scalar_loss(g, out), BIND, tol=2e-4)

    def test_avg_pool1d(self):
        g = Graph()
        x = g.input("x", (b, 6, h))
        w = g.parameter("w", (h, h))
        flat = reshape(g, x, (b * 6, h))
        mixed = reshape(g, matmul(g, flat, w), (b, 6, h))
        out = avg_pool1d(g, mixed, window=2, stride=2)
        gradient_check(g, scalar_loss(g, out), BIND)

    def test_batch_norm(self):
        g = Graph()
        x = g.input("x", (b, 4, 4, 2))
        w = g.parameter("w", (1, 1, 2, 2))
        out = batch_norm(g, conv2d(g, x, w))
        gradient_check(g, scalar_loss(g, out), BIND, tol=5e-4)


class TestReduceGrads:
    def test_reduce_mean_symbolic_batch(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        out = matmul(g, x, w)
        loss = reduce_mean(g, reduce_sum(g, out, [1]), [0])
        gradient_check(g, loss, BIND)


class TestAutodiffStructure:
    def test_loss_without_params_rejected(self):
        g = Graph()
        x = g.input("x", (b, h))
        y = relu(g, x)
        with pytest.raises(ValueError):
            differentiate(g, y)

    def test_training_step_attaches_updates(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        loss = scalar_loss(g, matmul(g, x, w))
        build_training_step(g, loss)
        kinds = {op.kind for op in g.ops}
        assert "sgd_update" in kinds

    def test_eager_accumulation_keeps_single_partial(self):
        """Shared weights across time steps accumulate incrementally."""
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        state = matmul(g, x, w)
        for _ in range(4):
            state = tanh(g, matmul(g, state, w))
        grads = differentiate(g, scalar_loss(g, state))
        # the weight gradient is a chain of adds, not one fan-in
        grad = grads[w]
        assert grad.producer.kind == "add"

    def test_gradient_of_multi_consumer_activation(self):
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        mid = matmul(g, x, w)
        out = add(g, tanh(g, mid), sigmoid(g, mid))
        gradient_check(g, scalar_loss(g, out), BIND)

    def test_backward_ops_carry_their_forward_ops_tag(self):
        """Backward ops and the gradient accumulations a forward op
        causes carry its loop tag; the seed and the updates carry none.
        Finalizing freezes the tags."""
        g = Graph()
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        state = x
        for t, _ in g.unroll("cell", range(3)):
            state = tanh(g, matmul(g, state, w, name=f"mm{t}"),
                         name=f"act{t}")
        loss = scalar_loss(g, state)
        n_forward = len(g.ops)
        build_training_step(g, loss)
        g.finalize()
        assert isinstance(g.tags, tuple) and len(g.tags) == len(g.ops)
        tags = dict(zip(g.ops, g.tags))
        assert [tags[g.ops[i]] for i in range(6)] == \
            [("cell", 0)] * 2 + [("cell", 1)] * 2 + [("cell", 2)] * 2
        backward = g.ops[n_forward:]
        assert backward[0].kind == "grad_seed" and tags[backward[0]] is None
        stepped = [tags[op][1] for op in backward if tags[op] is not None]
        assert stepped == sorted(stepped, reverse=True)
        assert set(stepped) == {0, 1, 2}
        # w's partial grads from steps 1 and 0 are added in those steps
        acc = [tags[op] for op in backward
               if op.name.startswith(f"grad/{w.name}/acc")]
        assert acc == [("cell", 1), ("cell", 0)]
        assert all(tags[op] is None for op in backward
                   if op.kind == "sgd_update")
