"""Domain registry: one entry per paper domain, with size sweeps.

Ties each of the five DL domains (Table 1 rows) to its model builder,
the sweep of model sizes used for Figures 7–10, and the subbatch size
the paper settles on for Table 3 projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import BindingError, did_you_mean
from .base import BuiltModel
from .char_rhn import build_char_rhn
from .nmt import build_nmt
from .resnet import build_resnet
from .speech import build_speech
from .word_lm import build_word_lm

__all__ = ["DomainEntry", "DOMAINS", "get_domain", "build_symbolic"]


@dataclass
class DomainEntry:
    """Everything needed to sweep and project one domain."""

    key: str
    display: str
    #: builds the model with the size knob left symbolic
    build: Callable[..., BuiltModel]
    #: size-knob values for the Fig 7–10 sweeps (hidden width or width
    #: multiplier), smallest to largest
    sweep_sizes: Sequence[float]
    #: subbatch used for fixed-subbatch sweeps (paper Table 3 column)
    subbatch: int
    #: keyword arguments forwarded to the builder
    build_kwargs: Dict[str, object] = field(default_factory=dict)
    #: the builder's unroll-length arguments, as ``(argument, first,
    #: step)``: the grid of short unrolls that
    #: :mod:`repro.analysis.fold` costs the registry length from starts
    #: at ``first`` and advances by ``step``
    loops: Tuple[Tuple[str, int, int], ...] = ()

    def build_model(self, *, training: bool = True, **overrides) -> BuiltModel:
        kwargs = dict(self.build_kwargs)
        kwargs.update(overrides)
        return self.build(training=training, **kwargs)


DOMAINS: Dict[str, DomainEntry] = {
    entry.key: entry
    for entry in [
        DomainEntry(
            key="word_lm",
            display="Word LMs (LSTM)",
            build=build_word_lm,
            sweep_sizes=(512, 768, 1024, 1536, 2048, 3072, 4096),
            subbatch=128,
        ),
        DomainEntry(
            key="char_lm",
            display="Character LMs (RHN)",
            build=build_char_rhn,
            sweep_sizes=(512, 768, 1024, 1536, 2048, 3072, 4096),
            subbatch=96,
            loops=(("seq_len", 6, 1),),
        ),
        DomainEntry(
            key="nmt",
            display="NMT (enc/dec+attn)",
            build=build_nmt,
            sweep_sizes=(512, 768, 1024, 1536, 2048, 3072),
            subbatch=96,
        ),
        DomainEntry(
            key="speech",
            display="Speech Recogn. (enc/dec+attn)",
            build=build_speech,
            sweep_sizes=(256, 512, 768, 1024, 1536, 2048),
            subbatch=128,
            # the encoder pools by 2 twice: steps of 4 keep every
            # layer's unroll exact
            loops=(("audio_steps", 20, 4), ("decoder_steps", 5, 1)),
        ),
        DomainEntry(
            key="image",
            display="Image Classification (ResNet)",
            build=build_resnet,
            sweep_sizes=(1, 2, 3, 4, 5),
            subbatch=32,
            build_kwargs={"depth": 50},
        ),
    ]
}


def get_domain(key: str) -> DomainEntry:
    """Look up a domain entry by key (word_lm/char_lm/nmt/speech/image)."""
    try:
        return DOMAINS[key]
    except KeyError:
        raise BindingError(
            f"unknown domain {key!r}; available: {sorted(DOMAINS)}",
            hint=did_you_mean(str(key), DOMAINS),
        ) from None


_SYMBOLIC_CACHE: Dict[tuple, BuiltModel] = {}


def build_symbolic(key: str, *, training: bool = True) -> BuiltModel:
    """Build (and memoize) a domain's model with symbolic size + batch.

    The one full build of a domain, at its registry unroll lengths:
    lint, ``describe``, the artifact configs and any other reader of
    the graph share it.  Sweeps of the long-unroll domains (char_lm,
    speech) do not build it; they fold short unrolls instead
    (:mod:`repro.analysis.fold`).
    """
    cache_key = (key, training)
    if cache_key not in _SYMBOLIC_CACHE:
        _SYMBOLIC_CACHE[cache_key] = get_domain(key).build_model(
            training=training
        )
    return _SYMBOLIC_CACHE[cache_key]
