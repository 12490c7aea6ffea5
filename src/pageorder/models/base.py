"""Model configuration and the shared parameter-registry base class."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from ..errors import ConfigError, DomainError
from ..numcore import LstmParams, RngStream, Tensor, glorot_uniform, no_grad

__all__ = ["Arch", "PeVariant", "ModelConfig", "Model", "LengthError", "desk_config"]


class Arch(str, Enum):
    BILSTM_POS = "bilstm_pos"
    POINTER_MLP = "pointer_mlp"
    POINTER_LSTM = "pointer_lstm"
    SEQ2SEQ = "seq2seq"
    PAIRWISE_RANK = "pairwise_rank"


class PeVariant(str, Enum):
    LEARNED = "learned"
    SINUSOIDAL = "sinusoidal"
    NONE = "none"


# Documents per padded chunk in ``order_batch``: documents are sorted by
# length and ordered in chunks of at most this many, so the encoders'
# activations and the decoders' state stay those of 32 documents however
# many documents come in.
DOCS_PER_PASS = 32


class LengthError(ValueError):
    """A document exceeds the positions a model supports."""


@dataclass(frozen=True)
class ModelConfig:
    arch: Arch
    input_dim: int
    hidden_dim: int = 128
    layers: int = 2
    heads: int = 4
    pe_variant: PeVariant = PeVariant.LEARNED  # seq2seq only
    max_len: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.hidden_dim % self.heads != 0:
            raise ConfigError(f"hidden_dim {self.hidden_dim} not divisible by heads {self.heads}")
        if self.max_len < 25:
            raise ConfigError(f"max_len must support at least 25 positions, got {self.max_len}")
        if self.layers < 1 or self.input_dim < 1:
            raise ConfigError("layers and input_dim must be positive")

    def to_dict(self) -> dict:
        return {**asdict(self), "arch": self.arch.value, "pe_variant": self.pe_variant.value}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**{**d, "arch": Arch(d["arch"]), "pe_variant": PeVariant(d["pe_variant"])})


# (layers, heads) per architecture at laptop scale; hidden_dim stays 128
_DESK_SHAPES = {
    Arch.BILSTM_POS: (2, 1),
    Arch.POINTER_MLP: (3, 1),
    Arch.POINTER_LSTM: (1, 1),
    Arch.SEQ2SEQ: (2, 4),
    Arch.PAIRWISE_RANK: (2, 4),
}


def desk_config(arch: Arch, input_dim: int, seed: int = 0, pe_variant: PeVariant = PeVariant.LEARNED) -> ModelConfig:
    """Laptop-scale defaults per architecture; ``pe_variant`` applies to seq2seq only."""
    layers, heads = _DESK_SHAPES[arch]
    if arch is not Arch.SEQ2SEQ:
        pe_variant = PeVariant.LEARNED
    return ModelConfig(arch=arch, input_dim=input_dim, layers=layers, heads=heads, pe_variant=pe_variant, seed=seed)


class Model:
    """Base class: an ordered name -> Tensor parameter registry."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self.flat: np.ndarray | None = None  # every parameter, in registry order, once flat_parameters builds it
        self._rng = RngStream(config.seed).split(config.arch.value)

    # -- parameter management -------------------------------------------

    def _add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name}")
        t = Tensor(np.asarray(data, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        return t

    def _glorot(self, name: str, shape: tuple[int, int]) -> Tensor:
        return self._add(name, glorot_uniform(self._rng.split(name), shape, dtype=self.dtype))

    def _zeros(self, name: str, shape) -> Tensor:
        return self._add(name, np.zeros(shape, dtype=self.dtype))

    def _ones(self, name: str, shape) -> Tensor:
        return self._add(name, np.ones(shape, dtype=self.dtype))

    def _normal(self, name: str, shape, std: float = 0.02) -> Tensor:
        return self._add(name, self._rng.split(name).normal(shape, std=std, dtype=self.dtype))

    def _lstm(self, prefix: str, in_dim: int, hidden: int) -> LstmParams:
        rng = self._rng.split(prefix)
        wx = self._add(f"{prefix}.wx", glorot_uniform(rng.split("wx"), (in_dim, 4 * hidden), dtype=self.dtype))
        wh = self._add(f"{prefix}.wh", glorot_uniform(rng.split("wh"), (hidden, 4 * hidden), dtype=self.dtype))
        bias = self._add(f"{prefix}.b", np.repeat([0.0, 1.0, 0.0, 0.0], hidden))  # gates i, f, g, o: forget gate open
        return LstmParams(wx, wh, bias)

    def _dense_stack(self, prefix: str, dims: list[int]) -> None:
        """Register ``{prefix}.w{i}`` of shape ``(dims[i], dims[i + 1])`` and a zero ``{prefix}.b{i}`` per layer."""
        for i in range(len(dims) - 1):
            self._glorot(f"{prefix}.w{i}", (dims[i], dims[i + 1]))
            self._zeros(f"{prefix}.b{i}", dims[i + 1])

    def _run_dense_stack(self, prefix: str, x: Tensor, layers: int, start: int = 0) -> Tensor:
        """Apply dense layers ``start`` .. ``layers - 1`` of ``prefix`` to ``x``, with a ReLU after all but the last."""
        for i in range(start, layers):
            x = x.linear(self.params[f"{prefix}.w{i}"], self.params[f"{prefix}.b{i}"], relu=i < layers - 1)
        return x

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def param_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat`` cut into one view per parameter, in registry order and in each parameter's shape."""
        ends = np.cumsum([p.data.size for p in self.params.values()], dtype=np.intp)
        return [part.reshape(p.data.shape) for part, p in zip(np.split(flat, ends[:-1]), self.params.values())]

    def flat_parameters(self) -> np.ndarray:
        """``self.flat``, built once: every ``.data`` becomes its view, so setting weights copies into ``.data``."""
        if self.flat is None:
            parts = [p.data.reshape(-1) for p in self.params.values()]
            self.flat = np.concatenate(parts) if parts else np.empty(0, self.dtype)
            for p, view in zip(self.params.values(), self.param_views(self.flat)):
                p.data = view
        return self.flat

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            raise ConfigError(f"parameter names do not match: {sorted(set(self.params) ^ set(state))}")
        for name, arr in state.items():
            if self.params[name].data.shape != arr.shape:
                raise ConfigError(f"shape mismatch for {name}")
            self.params[name].data[...] = arr  # into the view, cast to the model's dtype

    # -- the protocol: a training loss and batched inference ---------------

    def loss(self, pages: Tensor, truth_rank: np.ndarray) -> Tensor:
        """Per-document training losses ``(B,)`` of a ``(B, n, dim)`` stack of same-length documents.

        ``truth_rank[b, k]`` is the true rank of the page in slot ``k`` of document ``b``.
        """
        raise NotImplementedError

    def order(self, pages: np.ndarray) -> np.ndarray:
        """Predicted reading order of one ``(n, dim)`` document as slot indices.

        Each architecture binds it as ``order = Model.order``, so every class
        has its own ``order`` entry for a profiler to wrap.
        """
        return self.order_batch([pages])[0]

    def order_batch(self, pages) -> list[np.ndarray]:
        """Predicted reading orders of documents of any lengths, in input order.

        ``pages`` is a sequence of ``(n_i, dim)`` documents or a ``(B, n, dim)``
        stack of same-length ones; each ordering is an ``(n_i,)`` array of slots.
        Each ``length_chunks`` chunk is zero-padded to its longest document and
        ordered by one ``order_padded`` call, without gradient.
        """
        docs = [self._as_input(doc) for doc in pages]
        if not docs:
            raise ConfigError("no documents to order")
        lengths = np.array([len(doc) for doc in docs])
        orders: list = [None] * len(docs)
        with no_grad():
            for chunk in length_chunks(lengths):
                stack = np.zeros((len(chunk), lengths[chunk[0]], self.config.input_dim), dtype=self.dtype)
                for row, i in enumerate(chunk):
                    stack[row, : lengths[i]] = docs[i]
                for i, order in zip(chunk, self.order_padded(stack, lengths[chunk])):
                    orders[i] = order
        return orders

    def order_padded(self, stack: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
        """Orderings of a ``(b, n, dim)`` stack of documents, zero-padded after each one's ``lengths[i]`` pages.

        Returns one ``(lengths[i],)`` array of slots per row.
        """
        raise NotImplementedError

    def _as_input(self, pages: np.ndarray) -> np.ndarray:
        pages = np.asarray(pages, dtype=self.dtype)
        if pages.ndim != 2:
            raise ConfigError(f"expected (n_pages, dim), got {pages.shape}")
        if pages.shape[-1] != self.config.input_dim:
            raise ConfigError(f"embedding dim {pages.shape[-1]} != model input_dim {self.config.input_dim}")
        if len(pages) < 2:
            raise DomainError(f"ordering needs at least 2 pages, got {len(pages)}")
        if not np.isfinite(pages).all():
            raise DomainError("pages contain non-finite embeddings")
        return pages


def length_chunks(lengths: np.ndarray) -> list[np.ndarray]:
    """Document indices, longest first, cut into the fewest chunks of at most ``DOCS_PER_PASS``, sizes within one."""
    order = np.argsort(-lengths, kind="stable")
    return np.array_split(order, -(-len(order) // DOCS_PER_PASS))


def real_slots(lengths: np.ndarray, n: int) -> np.ndarray:
    """``(B, n)`` mask, True at the first ``lengths[i]`` slots of each row ``i``."""
    return np.arange(n) < lengths[:, None]
