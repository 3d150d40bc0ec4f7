"""Character language model: Recurrent Highway Network (paper §2.3, Fig. 3).

Architecture: character embedding → one deep RHN cell (``depth`` highway
sublayers per time step, the last sublayer's state feeding the next
step) → FC output over the small character vocabulary.

Contrasts with the word LM exactly as the paper describes: tiny
embedding/output layers (vocab ≈ 10²), long unrolls (100–300 steps),
and compute dominated by the recurrent sublayer matmuls — giving the
*largest* FLOPs/param slope of the language models (γ → 6q ≈ 900 at
q = 150).
"""

from __future__ import annotations

from ..graph import Graph, validate_graph
from ..ops import add, concat, embedding_lookup, matmul, reduce_mean, reshape
from ..ops import softmax_cross_entropy, split
from ..symbolic import Symbol, as_expr
from .base import BuiltModel
from .cells import make_rhn_weights, rhn_step, zeros_like_state

__all__ = ["build_char_rhn", "char_rhn_params", "DEFAULT_SEQ_LEN"]

#: unroll length (paper: character LMs unroll ~150 steps); γ → 6q = 900
DEFAULT_SEQ_LEN = 150


def char_rhn_params(hidden, depth: int, vocab, embed_dim=None):
    """Closed-form parameter count oracle.

    Per sublayer: R_H and R_T ([h,h]) + 2 biases; the first sublayer
    adds W_H, W_T ([e,h]).  Plus embedding [v,e] and output [h,v]+[v].
    """
    h = as_expr(hidden)
    v = as_expr(vocab)
    e = as_expr(embed_dim) if embed_dim is not None else h
    per_sub = 2 * h * h + 2 * h
    return v * e + depth * per_sub + 2 * e * h + h * v + v


def build_char_rhn(
    *,
    hidden=None,
    depth: int = 10,
    vocab=98,
    seq_len: int = DEFAULT_SEQ_LEN,
    training: bool = True,
    validate: bool = True,
    dtype_bytes: int = 4,
) -> BuiltModel:
    """Construct the char LM; ``hidden=None`` keeps width symbolic."""
    batch = Symbol("b")
    size_symbol = None
    if hidden is None:
        size_symbol = Symbol("h")
        hidden = size_symbol
    hidden = as_expr(hidden)
    vocab = as_expr(vocab)

    g = Graph("char_rhn", default_dtype_bytes=dtype_bytes)
    ids = g.input("ids", (batch * seq_len,))
    ids.int_bound = vocab
    labels = g.input("labels", (batch * seq_len,))
    labels.int_bound = vocab

    embed_table = g.parameter("embedding", (vocab, hidden))
    flat = embedding_lookup(g, embed_table, ids, name="embed")
    stacked = reshape(g, flat, (seq_len, batch, hidden), name="embed_steps")
    slices = split(g, stacked, [1] * seq_len, axis=0, name="step_split")
    xs = [
        reshape(g, s, (batch, hidden), name=f"x_t{t}")
        for t, s in g.unroll("x", slices)
    ]

    sublayers = make_rhn_weights(g, hidden, hidden, depth, name="rhn")
    s = zeros_like_state(g, batch, hidden, name="rhn/s0")
    states = []
    for t, x in g.unroll("rhn", xs):
        s = rhn_step(g, x, s, sublayers, name=f"rhn/t{t}")
        states.append(s)

    hidden_cat = concat(g, states, axis=0, name="hidden_all")
    w_out = g.parameter("w_out", (hidden, vocab))
    b_out = g.parameter("b_out", (vocab,))
    logits = add(g, matmul(g, hidden_cat, w_out, name="logits"), b_out,
                 name="logits_biased")
    loss_vec, _ = softmax_cross_entropy(g, logits, labels, name="xent")
    loss = reduce_mean(g, loss_vec, [0], name="loss")

    model = BuiltModel(
        domain="char_lm",
        graph=g,
        loss=loss,
        batch=batch,
        size_symbol=size_symbol,
        meta={"seq_len": seq_len, "depth": depth, "vocab": vocab},
    )
    if training:
        model.with_training_step()
    if validate:
        validate_graph(g)
    return model
