"""Recurrent cell builders shared by the language/translation/speech models.

Cells are built from primitive ops (matmul + pointwise), so their
algorithmic costs emerge from first principles instead of being
asserted: an LSTM layer step contributes ``16·b·h·h`` FLOPs from its
two ``[b,h]×[h,4h]`` matmuls — the ``16h²l`` term of the paper's word-LM
model (§4.2) — and its weights are re-read every unrolled time step,
which is what drives RNN bytes/param (λ) far above CNNs'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..graph import Graph, Tensor
from ..ops import (
    add,
    concat,
    matmul,
    multiply,
    one_minus,
    sigmoid,
    split,
    tanh,
)
from ..ops.shape import ZeroOp

__all__ = [
    "LSTMWeights",
    "make_lstm_weights",
    "lstm_step",
    "lstm_layer",
    "bidirectional_lstm_layer",
    "RHNWeights",
    "make_rhn_weights",
    "rhn_step",
    "GRUWeights",
    "make_gru_weights",
    "gru_step",
    "gru_layer",
    "zeros_like_state",
]


def zeros_like_state(graph: Graph, batch, hidden, *,
                     name: str = "state0") -> Tensor:
    """All-zeros initial recurrent state [batch, hidden]."""
    state = graph.tensor(name, (batch, hidden))
    graph.add_op(ZeroOp(graph.unique_name(name + "_op"), state))
    return state


@dataclass
class LSTMWeights:
    """One LSTM layer's trainable tensors (+ optional output projection)."""

    wx: Tensor          # [in_dim, 4h]
    wh: Tensor          # [h, 4h]
    bias: Tensor        # [4h]
    projection: Optional[Tensor] = None  # [h, r]

    @property
    def hidden(self):
        # gate width over 4; robust to projection (wh rows may be r)
        return self.wx.shape[1] / 4

    @property
    def out_dim(self):
        if self.projection is not None:
            return self.projection.shape[1]
        return self.hidden


def make_lstm_weights(graph: Graph, in_dim, hidden, *,
                      projection=None, name: str = "lstm") -> LSTMWeights:
    """Allocate an LSTM layer's weights (4 fused gates).

    With a projection, the recurrent state fed back each step is the
    projected output, so the recurrent matrix is [r, 4h] — the source
    of the projected LSTM's FLOP savings (Sak et al.).
    """
    wx = graph.parameter(f"{name}/wx", (in_dim, 4 * hidden))
    state_dim = hidden if projection is None else projection
    wh = graph.parameter(f"{name}/wh", (state_dim, 4 * hidden))
    bias = graph.parameter(f"{name}/bias", (4 * hidden,))
    proj = None
    if projection is not None:
        proj = graph.parameter(f"{name}/proj", (hidden, projection))
    return LSTMWeights(wx, wh, bias, proj)


def lstm_step(graph: Graph, x: Tensor, h_prev: Tensor, c_prev: Tensor,
              weights: LSTMWeights, *, name: str = "lstm_step"
              ) -> Tuple[Tensor, Tensor]:
    """One unrolled LSTM time step; returns (h, c).

    With an output projection (Sak et al. [30], used in the §6 case
    study), the emitted h is ``(o ⊙ tanh(c)) @ Wp`` with a smaller
    dimension, cutting the output-layer and next-step input costs.
    """
    hidden = weights.hidden
    gates_x = matmul(graph, x, weights.wx, name=f"{name}/gx")
    gates_h = matmul(graph, h_prev, weights.wh, name=f"{name}/gh")
    gates = add(graph, add(graph, gates_x, gates_h, name=f"{name}/gsum"),
                weights.bias, name=f"{name}/gbias")
    i_raw, f_raw, g_raw, o_raw = split(
        graph, gates, [hidden] * 4, axis=1, name=f"{name}/gates"
    )
    i = sigmoid(graph, i_raw, name=f"{name}/i")
    f = sigmoid(graph, f_raw, name=f"{name}/f")
    g = tanh(graph, g_raw, name=f"{name}/g")
    o = sigmoid(graph, o_raw, name=f"{name}/o")
    c = add(graph,
            multiply(graph, f, c_prev, name=f"{name}/fc"),
            multiply(graph, i, g, name=f"{name}/ig"),
            name=f"{name}/c")
    h = multiply(graph, o, tanh(graph, c, name=f"{name}/tc"),
                 name=f"{name}/h")
    if weights.projection is not None:
        h = matmul(graph, h, weights.projection, name=f"{name}/proj")
    return h, c


def lstm_layer(graph: Graph, xs: Sequence[Tensor], weights: LSTMWeights,
               batch, *, name: str = "lstm", reverse: bool = False
               ) -> List[Tensor]:
    """Unroll an LSTM layer over a sequence of [b, in_dim] tensors."""
    h = zeros_like_state(graph, batch, weights.out_dim, name=f"{name}/h0")
    c = zeros_like_state(graph, batch, weights.hidden, name=f"{name}/c0")
    steps = list(reversed(xs)) if reverse else list(xs)
    outputs: List[Tensor] = []
    for t, x in graph.unroll(name, steps):
        h, c = lstm_step(graph, x, h, c, weights, name=f"{name}/t{t}")
        outputs.append(h)
    if reverse:
        outputs.reverse()
    return outputs


def bidirectional_lstm_layer(graph: Graph, xs: Sequence[Tensor],
                             fwd: LSTMWeights, bwd: LSTMWeights,
                             batch, *, name: str = "bilstm"
                             ) -> List[Tensor]:
    """Forward + backward LSTM passes, concatenated per time step."""
    fwd_out = lstm_layer(graph, xs, fwd, batch, name=f"{name}/fwd")
    bwd_out = lstm_layer(graph, xs, bwd, batch, name=f"{name}/bwd",
                         reverse=True)
    return [
        concat(graph, [f, b], axis=1, name=f"{name}/cat{t}")
        for t, (f, b) in graph.unroll(f"{name}/cat", zip(fwd_out, bwd_out))
    ]


@dataclass
class RHNWeights:
    """One recurrent-highway sublayer's weights (H and T transforms)."""

    rh: Tensor                 # [h, h] recurrent H transform
    rt: Tensor                 # [h, h] recurrent T transform
    bh: Tensor                 # [h]
    bt: Tensor                 # [h]
    wh: Optional[Tensor] = None  # [in_dim, h] input H (first sublayer)
    wt: Optional[Tensor] = None  # [in_dim, h] input T (first sublayer)


def make_rhn_weights(graph: Graph, in_dim, hidden, depth: int, *,
                     name: str = "rhn") -> List[RHNWeights]:
    """Allocate an RHN cell of ``depth`` highway sublayers."""
    sublayers = []
    for d in range(depth):
        rh = graph.parameter(f"{name}/s{d}/rh", (hidden, hidden))
        rt = graph.parameter(f"{name}/s{d}/rt", (hidden, hidden))
        bh = graph.parameter(f"{name}/s{d}/bh", (hidden,))
        bt = graph.parameter(f"{name}/s{d}/bt", (hidden,))
        wh = wt = None
        if d == 0:
            wh = graph.parameter(f"{name}/s{d}/wh", (in_dim, hidden))
            wt = graph.parameter(f"{name}/s{d}/wt", (in_dim, hidden))
        sublayers.append(RHNWeights(rh, rt, bh, bt, wh, wt))
    return sublayers


def rhn_step(graph: Graph, x: Optional[Tensor], s_prev: Tensor,
             sublayers: Sequence[RHNWeights], *,
             name: str = "rhn_step") -> Tensor:
    """One RHN time step through all highway sublayers (Zilly et al.).

    s_l = h_l ⊙ t_l + s_{l-1} ⊙ (1 − t_l), with the input ``x`` feeding
    only the first sublayer — the architecture of the paper's char LM
    (Fig. 3).
    """
    s = s_prev
    for d, w in enumerate(sublayers):
        h_pre = matmul(graph, s, w.rh, name=f"{name}/s{d}/hr")
        t_pre = matmul(graph, s, w.rt, name=f"{name}/s{d}/tr")
        if d == 0 and x is not None:
            h_pre = add(graph, h_pre,
                        matmul(graph, x, w.wh, name=f"{name}/s{d}/hx"),
                        name=f"{name}/s{d}/hsum")
            t_pre = add(graph, t_pre,
                        matmul(graph, x, w.wt, name=f"{name}/s{d}/tx"),
                        name=f"{name}/s{d}/tsum")
        h_pre = add(graph, h_pre, w.bh, name=f"{name}/s{d}/hb")
        t_pre = add(graph, t_pre, w.bt, name=f"{name}/s{d}/tb")
        h = tanh(graph, h_pre, name=f"{name}/s{d}/h")
        t = sigmoid(graph, t_pre, name=f"{name}/s{d}/t")
        carry = one_minus(graph, t, name=f"{name}/s{d}/carry")
        s = add(graph,
                multiply(graph, h, t, name=f"{name}/s{d}/ht"),
                multiply(graph, s, carry, name=f"{name}/s{d}/sc"),
                name=f"{name}/s{d}/s")
    return s


@dataclass
class GRUWeights:
    """One GRU layer's trainable tensors (fused [x; h] transforms).

    Not one of the paper's five architectures, but a common recurrent
    cell with the same matmul-dominated cost structure; useful for
    extending the analysis to new models.
    """

    wz: Tensor   # [in+h, h] update gate
    wr: Tensor   # [in+h, h] reset gate
    wc: Tensor   # [in+h, h] candidate

    @property
    def hidden(self):
        return self.wz.shape[1]


def make_gru_weights(graph: Graph, in_dim, hidden, *,
                     name: str = "gru") -> GRUWeights:
    """Allocate a GRU layer's weights (z, r, candidate transforms)."""
    wz = graph.parameter(f"{name}/wz", (in_dim + hidden, hidden))
    wr = graph.parameter(f"{name}/wr", (in_dim + hidden, hidden))
    wc = graph.parameter(f"{name}/wc", (in_dim + hidden, hidden))
    return GRUWeights(wz, wr, wc)


def gru_step(graph: Graph, x: Tensor, h_prev: Tensor,
             weights: GRUWeights, *, name: str = "gru_step") -> Tensor:
    """One unrolled GRU time step; returns the new hidden state.

    h = z ⊙ c + (1 − z) ⊙ h_prev with
    c = tanh(W_c·[x; r ⊙ h_prev]), z/r = σ(W_{z,r}·[x; h_prev]).
    """
    joined = concat(graph, [x, h_prev], axis=1, name=f"{name}/join")
    z = sigmoid(graph, matmul(graph, joined, weights.wz,
                              name=f"{name}/z"), name=f"{name}/zs")
    r = sigmoid(graph, matmul(graph, joined, weights.wr,
                              name=f"{name}/r"), name=f"{name}/rs")
    gated = concat(
        graph,
        [x, multiply(graph, r, h_prev, name=f"{name}/rh")],
        axis=1,
        name=f"{name}/gjoin",
    )
    cand = tanh(graph, matmul(graph, gated, weights.wc,
                              name=f"{name}/c"), name=f"{name}/ct")
    carry = one_minus(graph, z, name=f"{name}/carry")
    return add(graph,
               multiply(graph, z, cand, name=f"{name}/zc"),
               multiply(graph, carry, h_prev, name=f"{name}/ch"),
               name=f"{name}/h")


def gru_layer(graph: Graph, xs: Sequence[Tensor], weights: GRUWeights,
              batch, *, name: str = "gru",
              reverse: bool = False) -> List[Tensor]:
    """Unroll a GRU layer over a sequence of [b, in_dim] tensors."""
    h = zeros_like_state(graph, batch, weights.hidden, name=f"{name}/h0")
    steps = list(reversed(xs)) if reverse else list(xs)
    outputs: List[Tensor] = []
    for t, x in graph.unroll(name, steps):
        h = gru_step(graph, x, h, weights, name=f"{name}/t{t}")
        outputs.append(h)
    if reverse:
        outputs.reverse()
    return outputs
