"""Dense tensors with reverse-mode automatic differentiation.

Row-major numpy storage. float32 is the working precision for training and
inference; float64 is used as a reference mode by the gradient checker.
The graph is built eagerly: every operation attaches a backward closure to
its result unless recording is disabled via ``no_grad()``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DegenerateMaskError",
    "no_grad",
    "grad_enabled",
    "concat",
    "log_softmax",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class DegenerateMaskError(ValueError):
    """A softmax row has every entry masked out."""


class _GradMode(threading.local):
    """Grad mode per thread: one thread inside no_grad() must not stop another recording."""

    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Skip graph recording inside the context (inference fast path) in this thread."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def grad_enabled() -> bool:
    return _grad_mode.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def sigmoid_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function computed without overflow, in ``x``'s floating dtype, into ``out`` if given.

    With ``e = exp(-|x|)`` it divides ``max(e, x >= 0)`` by ``1 + e``: the
    numerator is 1 where ``x >= 0`` (there ``e <= 1``) and ``e`` elsewhere,
    NaN included. That is the division ``where(x >= 0, 1/(1+e), e/(1+e))``
    makes, bit for bit, without a data-dependent select.
    """
    e = np.exp(-np.abs(x))
    num = np.maximum(e, x >= 0, out=out)
    e += 1.0
    num /= e
    return num


def _swept(g: np.ndarray) -> None:
    """The closure of a node that a backward() sweep has passed and freed."""
    raise RuntimeError("backward() reached a node that an earlier backward() already swept and freed")


class Tensor:
    """A dense array node in the autodiff graph.

    ``data`` is the value, ``grad`` (same shape, allocated lazily) the
    accumulated gradient. Non-leaf tensors keep references to the tensors
    they were computed from plus a closure that routes the incoming
    gradient to them, until ``backward()`` sweeps past them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph plumbing ------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        # the first gradient is copied: ``g`` may be a read-only broadcast or
        # a view of another node's grad, which later ``+=`` must not touch
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, order="C", copy=True)
        else:
            self.grad += g

    def _adopt(self, g: np.ndarray) -> None:
        """``_accumulate`` for a freshly computed ``g`` that nothing else holds: the first is kept, not copied.

        A strided ``g`` or one of another dtype is copied as ``_accumulate`` would.
        """
        if self.grad is None and g.flags.c_contiguous and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self._accumulate(g)

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"], backward) -> "Tensor":
        out = Tensor(data)
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output that frees the graph as it goes.

        Once a node's backward has run, the node drops its closure and its parent links, so its saved
        activations and its gradient are released unless the caller still holds the tensor (which keeps
        its ``.grad``). A second sweep through a swept node raises.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = _swept
                node._parents = ()

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def _scalar(self, other):
        """A Python number as a scalar of this tensor's dtype (None for anything else).

        Arithmetic with it rounds exactly as with a 0-d array of that dtype.
        """
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return self.data.dtype.type(other)
        return None

    def __add__(self, other) -> "Tensor":
        a, b = self, self._coerce(other)
        out_data = a.data + b.data

        def _bwd(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._result(out_data, (a, b), _bwd)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return (-self) + other

    def __mul__(self, other) -> "Tensor":
        a, s = self, self._scalar(other)
        if s is not None:

            def _bwd_scalar(g: np.ndarray) -> None:
                a._accumulate(g * s)

            return Tensor._result(a.data * s, (a,), _bwd_scalar)
        b = self._coerce(other)
        out_data = a.data * b.data

        def _bwd(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return Tensor._result(out_data, (a, b), _bwd)

    __rmul__ = __mul__

    def __truediv__(self, other: float) -> "Tensor":
        return self * (1.0 / float(other))

    def __matmul__(self, other) -> "Tensor":
        """``a @ b``: ``linear`` for a 2-D ``b``, else one batched product of activations."""
        a, b = self, self._coerce(other)
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"inner dimensions mismatch: {a.shape} @ {b.shape}")
        if b.ndim == 2:
            return a.linear(b)
        out_data = np.matmul(a.data, b.data)

        def _bwd(g: np.ndarray) -> None:
            if a.requires_grad:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                b._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._result(out_data, (a, b), _bwd)

    def linear(self, w: "Tensor", b: "Tensor | None" = None, relu: bool = False) -> "Tensor":
        """The dense layer ``x @ w``, plus ``b`` if given, then ``max(·, 0)`` if ``relu``, as one graph node.

        One 2-D GEMM over the flattened leading axes, so the weight gradient is one ``(k, rows) @ (rows, m)``
        product; the bias and the ReLU act in place in its output. Values and gradients are bitwise those of
        a separate add and ReLU node after the product.
        """
        x = self
        m = w.shape[-1]
        x2 = x.data.reshape(-1, x.shape[-1])
        y = x2 @ w.data  # rejects a ``w`` whose rows do not match ``x``'s last axis
        if b is not None:
            y += b.data
        if relu:
            np.maximum(y, 0, out=y)
        out_data = y.reshape(*x.shape[:-1], m)

        def _bwd(g: np.ndarray) -> None:
            if relu:
                g = g * (out_data > 0)
            g2 = g.reshape(-1, m)
            if b is not None and b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
            if x.requires_grad:
                x._adopt((g2 @ w.data.T).reshape(x.shape))
            if w.requires_grad:
                w._adopt(x2.T @ g2)

        return Tensor._result(out_data, (x, w) if b is None else (x, w, b), _bwd)

    # -- reductions and views -------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def _bwd(g: np.ndarray) -> None:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            a._accumulate(np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=False))

        return Tensor._result(out_data, (a,), _bwd)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        a = self
        out_data = a.data.reshape(*shape)

        def _bwd(g: np.ndarray) -> None:
            a._accumulate(g.reshape(a.shape))

        return Tensor._result(out_data, (a,), _bwd)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        a = self
        axes = tuple(axes)
        out_data = np.transpose(a.data, axes)
        inverse = tuple(np.argsort(axes))

        def _bwd(g: np.ndarray) -> None:
            a._accumulate(np.transpose(g, inverse))

        return Tensor._result(out_data, (a,), _bwd)

    def __getitem__(self, index) -> "Tensor":
        a = self
        out_data = a.data[index]
        if not isinstance(out_data, np.ndarray):
            out_data = np.asarray(out_data, dtype=a.data.dtype)

        def _bwd(g: np.ndarray) -> None:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, index, g)

        return Tensor._result(out_data, (a,), _bwd)

    # -- elementwise functions ------------------------------------------

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def _bwd(g: np.ndarray) -> None:
            d = out_data * out_data
            np.subtract(1.0, d, out=d)
            np.multiply(g, d, out=d)
            a._adopt(d)

        return Tensor._result(out_data, (a,), _bwd)

    def softplus(self) -> "Tensor":
        """log(1 + exp(x)), computed without overflow."""
        a = self
        x = a.data
        out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

        def _bwd(g: np.ndarray) -> None:
            d = sigmoid_array(x)
            np.multiply(g, d, out=d)
            a._adopt(d)

        return Tensor._result(out_data, (a,), _bwd)


# -- multi-tensor and masked operations ----------------------------------


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    parts = list(tensors)
    out_data = np.concatenate([t.data for t in parts], axis=axis)
    sizes = [t.data.shape[axis] for t in parts]

    def _bwd(g: np.ndarray) -> None:
        offset = 0
        for t, size in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            if t.requires_grad:
                t._accumulate(g[tuple(sl)])
            offset += size

    return Tensor._result(out_data, parts, _bwd)


def _valid_mask(mask: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    if mask is None:
        return None
    valid = np.broadcast_to(np.asarray(mask, dtype=bool), shape)
    if not valid.any(axis=-1).all():
        raise DegenerateMaskError("softmax row with every entry masked")
    return valid


def log_softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Log-softmax over the last axis; masked entries are emitted as 0.

    Only unmasked entries are meaningful; gather labels from unmasked
    positions only.
    """
    valid = _valid_mask(mask, x.shape)
    logits = x.data if valid is None else np.where(valid, x.data, -np.inf)
    peak = logits.max(axis=-1, keepdims=True)
    lse = peak + np.log(np.exp(logits - peak).sum(axis=-1, keepdims=True))
    out_data = x.data - lse
    if valid is not None:
        out_data = np.where(valid, out_data, 0.0)
    out_data = out_data.astype(x.data.dtype, copy=False)

    def _bwd(g: np.ndarray) -> None:
        gv = g if valid is None else np.where(valid, g, 0.0)
        probs = np.exp(logits - lse)
        if valid is not None:
            probs = np.where(valid, probs, 0.0)
        x._accumulate(gv - probs * gv.sum(axis=-1, keepdims=True))

    return Tensor._result(out_data, (x,), _bwd)

