"""Tests for graph checkpoints (save/load round trips)."""

import json

import numpy as np
import pytest

from repro.graph import load_graph, load_graph_file, save_graph
from repro.graph import save_graph_file, validate_graph
from repro.models import (
    build_char_rhn,
    build_nmt,
    build_resnet,
    build_speech,
    build_word_lm,
)
from repro.runtime import execute_graph
from repro.symbolic import sqrt, symbols
from repro.symbolic.serialize import expr_from_json, expr_to_json

h, v, b = symbols("h v b")


class TestExprSerialization:
    @pytest.mark.parametrize("expr", [
        h,
        h + 1,
        16 * h**2 + 2 * h * v,
        sqrt(h * v) / 3,
        b * sqrt(h) / (3.65 * sqrt(h) + 64 * b),
    ])
    def test_roundtrip_structural_equality(self, expr):
        data = json.loads(json.dumps(expr_to_json(expr)))
        assert expr_from_json(data) == expr

    def test_functions_roundtrip(self):
        from repro.symbolic import Ceil, Log, Max

        expr = Max.of(Ceil.of(h / 3), Log.of(v), 5)
        assert expr_from_json(expr_to_json(expr)) == expr

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            expr_from_json({"t": "integral", "args": []})


def _tiny_models():
    return [
        (build_word_lm(seq_len=3, vocab=30, layers=1, projection=4),
         {"h": 8, "b": 2}),
        (build_char_rhn(seq_len=3, vocab=20, depth=2), {"h": 8, "b": 2}),
        (build_nmt(seq_len=2, vocab=25), {"h": 8, "b": 2}),
        (build_speech(audio_steps=4, decoder_steps=2, enc_layers=2),
         {"h": 8, "b": 2}),
        (build_resnet(depth=18, image_size=16, classes=10),
         {"w": 0.125, "b": 2}),
    ]


class TestGraphCheckpoints:
    @pytest.mark.parametrize("idx", range(5))
    def test_full_roundtrip_every_domain(self, idx):
        model, bindings = _tiny_models()[idx]
        data = json.loads(json.dumps(save_graph(model.graph)))
        g2 = load_graph(data)
        validate_graph(g2)
        # analytical identity
        assert g2.parameter_count() == model.graph.parameter_count()
        assert g2.total_flops() == model.graph.total_flops()
        assert g2.total_bytes_accessed() == \
            model.graph.total_bytes_accessed()
        # behavioural identity
        r1 = execute_graph(model.graph, bindings=bindings, seed=7)
        r2 = execute_graph(g2, bindings=bindings, seed=7)
        np.testing.assert_allclose(r1[model.loss], r2[model.loss.name])

    def test_structural_hash_survives_roundtrip(self):
        from repro.graph.serialize import structural_hash

        (word, _), (char, _) = _tiny_models()[:2]
        digest = structural_hash(word.graph)
        assert structural_hash(load_graph(save_graph(word.graph))) \
            == digest
        assert structural_hash(char.graph) != digest

    def test_file_roundtrip(self, tmp_path):
        model, _ = _tiny_models()[0]
        path = str(tmp_path / "ckpt.json")
        save_graph_file(model.graph, path)
        g2 = load_graph_file(path)
        assert len(g2.ops) == len(model.graph.ops)

    def test_int_bound_preserved(self):
        model, _ = _tiny_models()[0]
        g2 = load_graph(save_graph(model.graph))
        ids = g2.find("ids")
        assert ids.int_bound is not None

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            load_graph({"format": "v0"})

    def test_unknown_op_class_rejected(self):
        model, _ = _tiny_models()[0]
        data = save_graph(model.graph)
        data["ops"][0]["class"] = "QuantumOp"
        with pytest.raises(ValueError, match="QuantumOp"):
            load_graph(data)
