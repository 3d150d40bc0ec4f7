"""Tests for the §4.5 in-place optimization pass."""

import pytest

from repro.graph import (
    Graph,
    evaluate_sizes,
    inplace_aliases,
    liveness_peak,
    memory_greedy_order,
    topological_order,
)
from repro.ops import add, matmul, relu, sigmoid, tanh
from repro.symbolic import symbols

b, h = symbols("b h")


def activation_chain(length=4):
    """x -> relu -> tanh -> ... : every link single-consumer."""
    g = Graph("chain")
    x = g.input("x", (16, 16))
    w = g.parameter("w", (16, 16))
    t = matmul(g, x, w)
    fns = [relu, tanh, sigmoid]
    for i in range(length):
        t = fns[i % 3](g, t)
    return g, t


class TestAliasDiscovery:
    def test_chain_fully_aliased(self):
        g, _ = activation_chain(4)
        aliases = inplace_aliases(g)
        # all four activations alias back toward the matmul output
        assert len(aliases) == 4

    def test_matmul_never_aliases(self):
        g, _ = activation_chain(1)
        aliases = inplace_aliases(g)
        for out, src in aliases.items():
            assert out.producer.kind != "matmul"

    def test_multi_consumer_input_not_aliased(self):
        g = Graph()
        x = g.input("x", (4, 4))
        w = g.parameter("w", (4, 4))
        mid = matmul(g, x, w)
        relu(g, mid)
        tanh(g, mid)  # second consumer: neither may write over mid
        aliases = inplace_aliases(g)
        assert not aliases

    def test_graph_inputs_and_weights_protected(self):
        g = Graph()
        x = g.input("x", (4, 4))
        relu(g, x)  # input buffer must survive the step
        assert not inplace_aliases(g)


class TestAliasedLiveness:
    def test_chain_peak_collapses_to_one_buffer(self):
        g, _ = activation_chain(4)
        sizes = evaluate_sizes(g)
        order = topological_order(g)
        aliases = inplace_aliases(g)
        plain = liveness_peak(g, order, sizes)
        opt = liveness_peak(g, order, sizes, aliases=aliases)
        # plain: two chain links live at each step -> peak 2 buffers;
        # aliased: the whole chain shares one buffer
        one = 16 * 16 * 4
        assert plain >= opt + one
        persistent = sum(
            sizes[t] for t in g.tensors.values()
            if t.is_persistent or t.producer is None
        )
        assert opt == persistent + one

    def test_empty_aliases_match_plain_liveness(self):
        g, _ = activation_chain(3)
        sizes = evaluate_sizes(g)
        order = topological_order(g)
        assert liveness_peak(g, order, sizes, aliases={}) == \
            liveness_peak(g, order, sizes)

    def test_never_increases_footprint(self):
        from repro.models import build_word_lm

        m = build_word_lm(seq_len=4, vocab=100, layers=1)
        g = m.graph
        sizes = evaluate_sizes(g, {m.size_symbol: 16, m.batch: 4})
        order = topological_order(g)
        aliases = inplace_aliases(g)
        assert aliases  # gradient-accumulation adds are eligible
        assert liveness_peak(g, order, sizes, aliases=aliases) <= \
            liveness_peak(g, order, sizes)

    def test_final_output_chain_stays_live(self):
        """A chain ending in a graph output is never freed."""
        g, out = activation_chain(2)
        sizes = evaluate_sizes(g)
        order = topological_order(g)
        aliases = inplace_aliases(g)
        peak = liveness_peak(g, order, sizes, aliases=aliases)
        persistent = sum(
            sizes[t] for t in g.tensors.values()
            if t.is_persistent or t.producer is None
        )
        assert peak == persistent + 16 * 16 * 4


class TestFootprintIntegration:
    def test_estimate_footprint_inplace_flag(self):
        from repro.analysis import estimate_footprint
        from repro.models import build_word_lm

        m = build_word_lm(seq_len=4, vocab=100, layers=1)
        bindings = {m.size_symbol: 16, m.batch: 4}
        plain = estimate_footprint(m, bindings)
        opt = estimate_footprint(m, bindings, inplace=True)
        assert opt.minimal_bytes <= plain.minimal_bytes


def seed_liveness_peak_aliased(graph, order, sizes, aliases):
    """The seed's aliased liveness replay, kept as the oracle.

    A chain's buffer is charged at the root's size when its first
    member is produced and freed once every member is produced and
    fully consumed; a member with no consumers keeps it live.
    """
    cache = {}

    def root(t):
        seen = []
        while t in aliases and t not in cache:
            seen.append(t)
            t = aliases[t]
        base = cache.get(t, t)
        for s in seen:
            cache[s] = base
        return base

    members = {}
    for t in graph.tensors.values():
        if t.is_persistent or t.producer is None:
            continue
        members.setdefault(root(t), []).append(t)
    persistent = sum(
        sizes[t] for t in graph.tensors.values()
        if t.is_persistent or t.producer is None
    )
    remaining = {t: len(t.consumers) for t in graph.tensors.values()}
    produced = {}
    allocated = {}
    live = 0
    peak = 0

    def chain_dead(r):
        for m in members.get(r, ()):
            if not produced.get(m, False):
                return False
            if remaining[m] > 0:
                return False
            if not m.consumers:
                return False
        return True

    for op in order:
        for out in op.outputs:
            if out.is_persistent or out.producer is None:
                continue
            produced[out] = True
            r = root(out)
            if r not in allocated:
                allocated[r] = sizes[r]
                live += sizes[r]
        peak = max(peak, live)
        seen = set()
        for t in op.inputs:
            if t.is_persistent or t.producer is None or t in seen:
                continue
            seen.add(t)
            remaining[t] -= sum(1 for c in t.consumers if c is op)
            r = root(t)
            if r in allocated and chain_dead(r):
                live -= allocated.pop(r)
    return persistent + peak


@pytest.fixture(scope="module")
def small_graphs():
    """The five registry domains at the ablations' small configs."""
    from repro.reports.ablations import _small_config, _small_size
    from repro.models.registry import DOMAINS

    out = {}
    for key, entry in DOMAINS.items():
        model = entry.build_model(**_small_config(key))
        bindings = {model.batch: 8}
        if model.size_symbol is not None:
            bindings[model.size_symbol] = _small_size(key)
        out[key] = (model.graph, evaluate_sizes(model.graph, bindings))
    g = Graph("outputs")  # two chains, each ending in a graph output
    x = g.input("x", (16, 16))
    w = g.parameter("w", (16, 16))
    relu(g, matmul(g, x, w))
    tanh(g, matmul(g, x, w))
    out["outputs"] = (g, evaluate_sizes(g))
    return out


@pytest.mark.parametrize("schedule", ["program", "greedy"])
@pytest.mark.parametrize("key", ["word_lm", "char_lm", "nmt", "speech",
                                 "image", "outputs"])
def test_aliased_peak_matches_seed_oracle(small_graphs, key, schedule):
    g, sizes = small_graphs[key]
    if schedule == "program":
        order = topological_order(g)
    else:
        order = memory_greedy_order(g, sizes)
    aliases = inplace_aliases(g)
    assert aliases
    assert liveness_peak(g, order, sizes, aliases=aliases) == \
        seed_liveness_peak_aliased(g, order, sizes, aliases)
