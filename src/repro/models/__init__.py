"""Model zoo: the paper's five DL application families (§2).

Each builder constructs a complete training-step compute graph —
forward, backward, and SGD updates — from the primitive op library,
with the model-size knob (hidden width / width multiplier) and subbatch
left symbolic, so the analysis layer can derive requirement formulas
once and bind them at any scale.
"""

from .base import BuiltModel
from .cells import (
    GRUWeights,
    LSTMWeights,
    RHNWeights,
    bidirectional_lstm_layer,
    gru_layer,
    gru_step,
    lstm_layer,
    lstm_step,
    make_gru_weights,
    make_lstm_weights,
    make_rhn_weights,
    rhn_step,
)
from .char_rhn import build_char_rhn, char_rhn_params
from .nmt import build_nmt
from .registry import DOMAINS, DomainEntry, build_symbolic, get_domain
from .resnet import RESNET_BLOCKS, build_resnet
from .speech import build_speech
from .word_lm import build_word_lm, word_lm_params

__all__ = [
    "BuiltModel",
    "build_word_lm",
    "word_lm_params",
    "build_char_rhn",
    "char_rhn_params",
    "build_nmt",
    "build_speech",
    "build_resnet",
    "RESNET_BLOCKS",
    "DOMAINS",
    "DomainEntry",
    "get_domain",
    "build_symbolic",
    "LSTMWeights",
    "RHNWeights",
    "GRUWeights",
    "make_lstm_weights",
    "make_rhn_weights",
    "make_gru_weights",
    "lstm_step",
    "lstm_layer",
    "bidirectional_lstm_layer",
    "rhn_step",
    "gru_step",
    "gru_layer",
]
