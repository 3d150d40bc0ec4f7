"""Integration tests: cross-module consistency on scaled-down configs.

These tie the layers together the way the paper's methodology does:
symbolic counts == profiled counts == executed behaviour, and the
analysis/projection pipeline composes end to end.
"""

import numpy as np
import pytest

from repro.analysis import StepCounts, derive_symbolic, estimate_footprint
from repro.graph import evaluate_sizes, topological_order, validate_graph
from repro.hardware import V100_LIKE, roofline_time
from repro.models import (
    build_char_rhn,
    build_nmt,
    build_resnet,
    build_speech,
    build_word_lm,
)
from repro.runtime import execute_graph, profile_graph, simulate_allocator

TINY = {
    "word_lm": (build_word_lm, dict(seq_len=4, vocab=40, layers=2)),
    "char_lm": (build_char_rhn, dict(seq_len=4, vocab=20, depth=2)),
    "nmt": (build_nmt, dict(seq_len=3, vocab=30)),
    "speech": (build_speech, dict(audio_steps=8, decoder_steps=3,
                                  enc_layers=2)),
    "image": (build_resnet, dict(depth=18, image_size=16, classes=10)),
}


def tiny_model(key):
    builder, kwargs = TINY[key]
    return builder(**kwargs)


@pytest.mark.parametrize("key", sorted(TINY))
class TestEveryDomainEndToEnd:
    def _bindings(self, model):
        bindings = {model.batch: 2}
        if model.size_symbol is not None:
            bindings[model.size_symbol] = 8 if model.domain != "image" \
                else 0.125
        return bindings

    def test_validates(self, key):
        model = tiny_model(key)
        validate_graph(model.graph)

    def test_executes_with_finite_loss(self, key):
        model = tiny_model(key)
        res = execute_graph(model.graph, bindings=self._bindings(model),
                            seed=0)
        loss = float(res[model.loss])
        assert np.isfinite(loss)
        assert loss > 0  # cross-entropy of random predictions

    def test_profile_matches_symbolic_aggregates(self, key):
        """TFprof-substitute totals == exact symbolic aggregates."""
        model = tiny_model(key)
        bindings = self._bindings(model)
        prof = profile_graph(model.graph, bindings)
        assert prof.total_flops == pytest.approx(
            model.graph.total_flops().evalf(bindings), rel=1e-12
        )
        assert prof.total_bytes == pytest.approx(
            model.graph.total_bytes_accessed().evalf(bindings), rel=1e-12
        )

    def test_footprint_vs_allocator(self, key):
        """The allocator simulator must envelope the liveness estimate
        (Figure 10's two curves agree until swap)."""
        model = tiny_model(key)
        bindings = self._bindings(model)
        est = estimate_footprint(model, bindings)
        sizes = evaluate_sizes(model.graph, bindings)
        report = simulate_allocator(
            model.graph, topological_order(model.graph), sizes
        )
        assert report.peak_resident_bytes >= est.program_order_bytes
        assert report.peak_resident_bytes <= \
            est.program_order_bytes + 256 * len(model.graph.tensors)


class TestPipelineComposition:
    def test_scaling_to_hardware_projection(self):
        """Table 1 -> Table 2 constants -> Table 3 row, composed."""
        from repro.planner import choose_subbatch
        from repro.scaling import project_domain

        model = build_word_lm(seq_len=8, vocab=1000, layers=2)
        from dataclasses import replace

        fo = derive_symbolic(StepCounts(model))
        fo = replace(fo, delta=12.0, phi=50.0)
        proj = project_domain("word_lm")
        choice = choose_subbatch(fo, proj.target_params, V100_LIKE)
        rt = roofline_time(
            fo.step_flops(proj.target_params, choice.chosen),
            fo.step_bytes(proj.target_params, choice.chosen),
            V100_LIKE,
        )
        # frontier word LM is compute-bound with a many-second step
        assert not rt.memory_bound
        assert rt.step_time > 1.0

    def test_training_actually_reduces_loss(self):
        """A real sanity check of the whole executor + autodiff stack:
        a few SGD steps on a fixed batch reduce the loss."""
        from repro.graph import differentiate
        from repro.runtime import bind_shape, make_feeds

        model = build_word_lm(seq_len=3, vocab=15, layers=1,
                              training=False)
        g = model.graph
        grads = differentiate(g, model.loss)
        bindings = {model.size_symbol: 8, model.batch: 4}
        feeds = make_feeds(g, bindings, seed=11)

        rng = np.random.default_rng(5)
        params = {}
        for t in g.parameters():
            shape = bind_shape(t, bindings)
            fan = shape[0] if shape else 1
            params[t.name] = rng.standard_normal(shape) / np.sqrt(fan)

        losses = []
        lr = 0.5
        for _ in range(5):
            res = execute_graph(g, feeds, bindings, params=params)
            losses.append(float(res[model.loss]))
            for t, grad in grads.items():
                params[t.name] = params[t.name] - lr * res[grad.name]
        assert losses[-1] < losses[0]

    def test_allocator_swap_regime_on_scaled_model(self):
        """Reproduce the Fig. 10 flattening on a medium word LM."""
        model = build_word_lm(seq_len=6, vocab=500, layers=1)
        bindings = {model.size_symbol: 64, model.batch: 16}
        sizes = evaluate_sizes(model.graph, bindings)
        order = topological_order(model.graph)
        unbounded = simulate_allocator(model.graph, order, sizes)
        capped = simulate_allocator(
            model.graph, order, sizes,
            capacity_bytes=int(unbounded.peak_resident_bytes * 0.6),
        )
        assert capped.did_swap
        assert capped.peak_resident_bytes < unbounded.peak_resident_bytes
