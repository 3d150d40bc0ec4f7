"""Speech recognition: attention encoder/decoder (§2.5, Fig. 5).

Architecture (Battenberg et al. hybrid attention model): a deep
bi-directional LSTM encoder over audio features with average pooling
between layers (time resolution 300 → 150 → 75), an LSTM decoder over
output characters, attention over the pooled encoder states, and a
small character-vocabulary output layer.

Most compute is in the encoder's long bi-directional unrolls — the
paper measures γ ≈ 775 FLOPs/param, between the char LM (900) and
word LM (481), because pooling shrinks the later layers' unrolls.
The tiny output vocabulary keeps weight memory low, but activation
footprint grows fast with the 300-step encoder (§4.5).
"""

from __future__ import annotations

from typing import List

from ..graph import Graph, Tensor, validate_graph
from ..ops import (
    add,
    avg_pool1d,
    batch_matmul,
    concat,
    embedding_lookup,
    matmul,
    reduce_mean,
    reshape,
    softmax,
    softmax_cross_entropy,
    split,
    tanh,
)
from ..symbolic import Symbol, as_expr
from .base import BuiltModel
from .cells import bidirectional_lstm_layer, lstm_layer, make_lstm_weights

__all__ = ["build_speech", "DEFAULT_AUDIO_STEPS", "DEFAULT_DECODER_STEPS"]

#: encoder unroll before pooling (paper: speech unrolls ~300 steps)
DEFAULT_AUDIO_STEPS = 300
#: decoder character unroll
DEFAULT_DECODER_STEPS = 100


def _stack_steps(g: Graph, steps: List[Tensor], batch, dim, *,
                 name: str) -> Tensor:
    return concat(
        g,
        [reshape(g, s, (batch, 1, dim), name=f"{name}/s3d{t}")
         for t, s in g.unroll(f"{name}/s3d", steps)],
        axis=1,
        name=name,
    )


def _unstack_steps(g: Graph, stacked: Tensor, batch, dim, *,
                   name: str) -> List[Tensor]:
    t_len = int(round(stacked.shape[1].evalf()))
    slices = split(g, stacked, [1] * t_len, axis=1, name=f"{name}/split")
    return [
        reshape(g, s, (batch, dim), name=f"{name}/s2d{t}")
        for t, s in g.unroll(f"{name}/s2d", slices)
    ]


def build_speech(
    *,
    hidden=None,
    enc_layers: int = 3,
    audio_steps: int = DEFAULT_AUDIO_STEPS,
    decoder_steps: int = DEFAULT_DECODER_STEPS,
    feature_dim: int = 40,
    vocab=30,
    training: bool = True,
    validate: bool = True,
    dtype_bytes: int = 4,
) -> BuiltModel:
    """Construct the speech model; ``hidden=None`` keeps width symbolic."""
    batch = Symbol("b")
    size_symbol = None
    if hidden is None:
        size_symbol = Symbol("h")
        hidden = size_symbol
    hidden = as_expr(hidden)
    vocab = as_expr(vocab)

    g = Graph("speech_attention", default_dtype_bytes=dtype_bytes)
    audio = g.input("audio", (batch, audio_steps, feature_dim))
    tgt_ids = g.input("tgt_ids", (batch * decoder_steps,))
    tgt_ids.int_bound = vocab
    labels = g.input("labels", (batch * decoder_steps,))
    labels.int_bound = vocab

    # --- encoder: bi-LSTM stack with inter-layer time pooling ------------
    xs = _unstack_steps(g, audio, batch, feature_dim, name="audio_steps")
    enc = xs
    for layer in range(enc_layers):
        in_dim = enc[0].shape[1]
        fwd = make_lstm_weights(g, in_dim, hidden, name=f"enc{layer}/fwd")
        bwd = make_lstm_weights(g, in_dim, hidden, name=f"enc{layer}/bwd")
        enc = bidirectional_lstm_layer(g, enc, fwd, bwd, batch,
                                       name=f"enc{layer}")
        if layer < enc_layers - 1:
            stacked = _stack_steps(g, enc, batch, 2 * hidden,
                                   name=f"enc{layer}/stack")
            pooled = avg_pool1d(g, stacked, window=2, stride=2,
                                name=f"enc{layer}/pool")
            enc = _unstack_steps(g, pooled, batch, 2 * hidden,
                                 name=f"enc{layer}/unstack")

    enc_dim = enc[0].shape[1]
    enc_len = len(enc)
    enc_stack = _stack_steps(g, enc, batch, enc_dim, name="enc_stack")

    w_attn = g.parameter("w_attn", (enc_dim, hidden))
    enc_flat = reshape(g, enc_stack, (batch * enc_len, enc_dim),
                       name="enc_flat")
    keys = reshape(g, matmul(g, enc_flat, w_attn, name="attn_keys"),
                   (batch, enc_len, hidden), name="attn_keys3d")

    # --- decoder with per-step attention context -------------------------
    embed = g.parameter("tgt_embedding", (vocab, hidden))
    flat = embedding_lookup(g, embed, tgt_ids, name="tgt_embed")
    stacked = reshape(g, flat, (decoder_steps, batch, hidden),
                      name="tgt_steps")
    slices = split(g, stacked, [1] * decoder_steps, axis=0,
                   name="tgt_split")
    ys = [
        reshape(g, s, (batch, hidden), name=f"y_t{t}")
        for t, s in g.unroll("y", slices)
    ]

    dec_w = make_lstm_weights(g, hidden, hidden, name="dec0")
    dec = lstm_layer(g, ys, dec_w, batch, name="dec0")

    w_ctx = g.parameter("w_context", (enc_dim + hidden, hidden))
    attn_vecs = []
    for t, dec_h in g.unroll("attn", dec):
        query = reshape(g, dec_h, (batch, 1, hidden), name=f"attn/q{t}")
        scores = batch_matmul(g, query, keys, transpose_b=True,
                              name=f"attn/scores{t}")
        weights = softmax(g, scores, name=f"attn/w{t}")
        ctx = batch_matmul(g, weights, enc_stack, name=f"attn/ctx{t}")
        ctx2d = reshape(g, ctx, (batch, enc_dim), name=f"attn/ctx2d{t}")
        joined = concat(g, [ctx2d, dec_h], axis=1, name=f"attn/join{t}")
        attn_vecs.append(
            tanh(g, matmul(g, joined, w_ctx, name=f"attn/vec{t}"),
                 name=f"attn/tanh{t}")
        )

    hidden_cat = concat(g, attn_vecs, axis=0, name="hidden_all")
    w_out = g.parameter("w_out", (hidden, vocab))
    b_out = g.parameter("b_out", (vocab,))
    logits = add(g, matmul(g, hidden_cat, w_out, name="logits"), b_out,
                 name="logits_biased")
    loss_vec, _ = softmax_cross_entropy(g, logits, labels, name="xent")
    loss = reduce_mean(g, loss_vec, [0], name="loss")

    model = BuiltModel(
        domain="speech",
        graph=g,
        loss=loss,
        batch=batch,
        size_symbol=size_symbol,
        meta={
            "audio_steps": audio_steps,
            "decoder_steps": decoder_steps,
            "enc_layers": enc_layers,
            "vocab": vocab,
        },
    )
    if training:
        model.with_training_step()
    if validate:
        validate_graph(g)
    return model
