"""Tests for folded unrolls (repro.analysis.fold).

The differential tests build char_lm and speech at registry length —
the one full build each, shared with the other tests through
``build_symbolic`` — and hold every folded count and footprint to it.
"""

from collections import OrderedDict
from functools import partial

import pytest

import repro.analysis.fold as fold_mod
import repro.analysis.sweep as sweep_mod
import repro.models.registry as registry
from repro.analysis.counters import AGGREGATES, StepCounts
from repro.analysis.fold import Fold, fold_domain
from repro.analysis.footprint import GREEDY_OP_LIMIT, estimate_footprint
from repro.errors import InternalError
from repro.graph import Graph, evaluate_sizes, liveness_trace
from repro.models.base import BuiltModel
from repro.models.cells import make_rhn_weights, rhn_step, zeros_like_state
from repro.models.registry import build_symbolic, get_domain
from repro.ops import (add, concat, reduce_mean, reduce_sum, reshape,
                       split, tanh)
from repro.symbolic import Symbol

#: one width off the registry sweep per folded domain
OFF_REGISTRY = {"char_lm": 640, "speech": 384}


@pytest.mark.parametrize("key", ["char_lm", "speech"])
def test_fold_matches_direct_build(key):
    entry = get_domain(key)
    fold = fold_domain(key)
    direct = build_symbolic(key)
    counts = StepCounts(direct)
    for agg in AGGREGATES:
        assert getattr(fold.counts, agg) is getattr(counts, agg), agg
    assert fold.op_count == len(direct.graph.ops)
    sizes = list(entry.sweep_sizes) + [OFF_REGISTRY[key]]
    for subbatch in (entry.subbatch, 8):
        for size in sizes:
            bindings = counts.bind(size, subbatch)
            expected = estimate_footprint(direct, bindings,
                                          use_greedy=False).minimal_bytes
            assert fold.footprint(bindings) == expected, (size, subbatch)


def toy_rnn(*, seq_len: int, extra_at=None, square_input=False,
            held=False):
    """A small RHN language-model-like unroll.  ``extra_at`` adds one
    op at that step only, ``square_input`` an input of seq_len²
    elements, ``held`` a large activation that every step but the last
    two reads (so the peak sits inside the run's interior)."""
    b, h = Symbol("b"), Symbol("h")
    g = Graph("toy_rnn")
    x = g.input("x", (seq_len, b, h))
    if square_input:
        g.input("side", (seq_len * seq_len,))
    if held:
        big = tanh(g, g.input("big_in", (b, h, 64)), name="big")
    pieces = split(g, x, [1] * seq_len, axis=0, name="split")
    xs = [reshape(g, p, (b, h), name=f"x{t}")
          for t, p in g.unroll("x", pieces)]
    cell = make_rhn_weights(g, h, h, 1, name="cell")
    s = zeros_like_state(g, b, h, name="s0")
    states = []
    for t, xt in g.unroll("cell", xs):
        s = rhn_step(g, xt, s, cell, name=f"cell/t{t}")
        if t == extra_at:
            s = tanh(g, s, name="extra")
        if held and t < seq_len - 2:
            s = add(g, s, reduce_sum(g, big, [2], name=f"pool{t}"),
                    name=f"held{t}")
        states.append(s)
    out = concat(g, states, axis=0, name="all")
    loss = reduce_mean(g, out, [0, 1], name="loss")
    return BuiltModel(domain="toy_rnn", graph=g, loss=loss, batch=b,
                      size_symbol=h).with_training_step()


def _toy_fold(length=12, **kwargs):
    return Fold("toy_rnn", partial(toy_rnn, **kwargs),
                [("seq_len", 6, 1)], {"seq_len": length})


@pytest.mark.parametrize("held", [False, True])
def test_toy_fold_matches_direct_build(held):
    fold = _toy_fold(held=held)
    direct = toy_rnn(seq_len=12, held=held)
    counts = StepCounts(direct)
    for agg in AGGREGATES:
        assert getattr(fold.counts, agg) is getattr(counts, agg), agg
    assert fold.op_count == len(direct.graph.ops)
    for size, subbatch in ((16, 4), (100, 3)):
        bindings = counts.bind(size, subbatch)
        assert fold.footprint(bindings) == estimate_footprint(
            direct, bindings, use_greedy=False).minimal_bytes


def test_peak_inside_a_run_interior_is_found():
    """``held`` puts the peak at the last interior step of the forward
    run (step 9 of 12), a position only the interior keys reach."""
    fold = _toy_fold(held=True)
    graph = toy_rnn(seq_len=12, held=True).graph
    bindings = fold.counts.bind(16, 4)
    trace = liveness_trace(graph, graph.ops, evaluate_sizes(graph, bindings))
    assert graph.tags[trace.index(max(trace))] == ("cell", 9)
    assert fold.footprint(bindings) == max(trace)


def test_broken_period_raises_e_int():
    """One extra op at step 7 appears only at the check point (q = 8):
    the fold refuses instead of returning a peak."""
    with pytest.raises(InternalError) as info:
        _toy_fold(extra_at=7)
    assert info.value.code == "E-INT"
    assert "toy_rnn" in info.value.message
    assert "run structure" in info.value.message


def test_irregular_interior_raises_e_int():
    with pytest.raises(InternalError, match="run structure"):
        _toy_fold(extra_at=3)


def test_non_multilinear_aggregate_raises_e_int():
    """An input of q² elements keeps the layout but not the counts."""
    with pytest.raises(InternalError) as info:
        _toy_fold(square_input=True)
    assert info.value.code == "E-INT"
    assert "io_bytes" in info.value.message


def test_footprint_checked_at_check_point(monkeypatch):
    """One byte off at the check point is refused, not returned."""
    fold = _toy_fold()
    bindings = fold.counts.bind(16, 4)
    fold.footprint(bindings)
    trace = fold_mod._trace

    def skewed(graph, binds):
        values = trace(graph, binds)
        if graph is fold.check.graph:
            values[-1] += 1
        return values

    monkeypatch.setattr(fold_mod, "_trace", skewed)
    with pytest.raises(InternalError, match="footprint"):
        fold.footprint(bindings)


def test_off_grid_length_raises_e_int():
    with pytest.raises(InternalError, match="off the fold's grid"):
        Fold("speech", get_domain("speech").build_model,
             get_domain("speech").loops,
             {"audio_steps": 302, "decoder_steps": 100})


def test_cold_sweeps_build_no_graph_above_the_limit(monkeypatch):
    """From cold caches, the char_lm and speech sweeps finalize no graph
    past GREEDY_OP_LIMIT and leave no full graph in the build cache."""
    monkeypatch.setattr(registry, "_SYMBOLIC_CACHE", {})
    monkeypatch.setattr(fold_mod, "_FOLDS", {})
    monkeypatch.setattr(sweep_mod, "_DEFAULT_SWEEPS", OrderedDict())
    monkeypatch.setattr(sweep_mod, "_SWEEP_CACHE", OrderedDict())
    finalized = []
    finalize = Graph.finalize

    def spy(graph):
        finalized.append(len(graph.ops))
        return finalize(graph)

    monkeypatch.setattr(Graph, "finalize", spy)
    for key in ("char_lm", "speech"):
        result = sweep_mod.sweep_domain(key)
        assert len(result.rows) == len(get_domain(key).sweep_sizes)
    assert finalized and max(finalized) <= GREEDY_OP_LIMIT
    assert not any(key in ("char_lm", "speech")
                   for key, _ in registry._SYMBOLIC_CACHE)
