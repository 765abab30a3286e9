"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the core of the ``repro.nn`` substrate, a from-scratch
replacement for the PyTorch stack the AntiDote paper builds on.  A
:class:`Tensor` wraps a ``numpy.ndarray`` together with an optional gradient
and a record of the operation that produced it.  Calling
:meth:`Tensor.backward` on a scalar loss walks the recorded graph in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects (not tensors); the graph is
  first-order only, which is all the paper's algorithms require.
* Broadcasting follows NumPy semantics.  :func:`unbroadcast` reduces an
  upstream gradient back to the shape of the broadcast operand.
* The graph is built eagerly.  Creating tensors inside ``no_grad()`` blocks
  (or from operands that do not require grad) skips closure allocation, so
  inference is allocation-cheap.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

Number = Union[int, float]
ArrayLike = Union[np.ndarray, Number, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Mirrors ``torch.no_grad()``: operations executed inside the block produce
    tensors detached from the autograd graph, which keeps evaluation loops
    from retaining activation memory.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum-reduce ``grad`` so that it has ``shape``.

    When a forward operation broadcast an operand of ``shape`` up to the
    result shape, the chain rule requires summing the upstream gradient over
    every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original operand.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value: ArrayLike, dtype=None) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` without copying when possible."""
    if isinstance(value, Tensor):
        return value
    if dtype is None and isinstance(value, (int, float)):
        # A Python scalar operand takes Tensor's float32 default; as a
        # float64 0-d array it would promote a float32 graph to float64.
        return Tensor(value)
    return Tensor(np.asarray(value, dtype=dtype))


class Tensor:
    """A NumPy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array (or nested sequence / scalar) holding the tensor value.
        Floating point data defaults to ``float32`` unless already a float
        array of another precision.
    requires_grad:
        If ``True``, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        # Python floats (and sequences of them) carry no precision of their
        # own, so they take the float32 default; NumPy float64 data keeps
        # the precision it was given.
        python_float = arr.dtype == np.float64 and not isinstance(
            data, (np.ndarray, np.generic)
        )
        if (
            arr.dtype == np.float16
            or python_float
            or not np.issubdtype(arr.dtype, np.floating)
        ):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, dtype=np.float32, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, dtype=np.float32, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @classmethod
    def from_op(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create the result of a differentiable op.

        ``backward`` receives the upstream gradient and is responsible for
        calling :meth:`accumulate_grad` on each parent.  When grad mode is
        off, or no parent requires grad, the result is detached.
        """
        parents = tuple(parents)
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer (if required)."""
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones, which is only valid for scalar outputs —
        matching the usual loss-driven training loop.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)

        # Topological order via iterative DFS (recursion-free: deep CNNs
        # easily exceed Python's default recursion limit).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self.accumulate_grad(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g)
            b.accumulate_grad(g)

        return Tensor.from_op(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(-g)

        return Tensor.from_op(-a.data, (a,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g * b.data)
            b.accumulate_grad(g * a.data)

        return Tensor.from_op(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g / b.data)
            b.accumulate_grad(-g * a.data / (b.data * b.data))

        return Tensor.from_op(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g * exponent * np.power(a.data, exponent - 1))

        return Tensor.from_op(np.power(a.data, exponent), (a,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError("matmul supports 2-D operands only; reshape first")

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g @ b.data.T)
            b.accumulate_grad(a.data.T @ g)

        return Tensor.from_op(a.data @ b.data, (a, b), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g * out_data)

        return Tensor.from_op(out_data, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g / a.data)

        return Tensor.from_op(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        a = self
        keep = a.data > 0

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g * keep)

        return Tensor.from_op(a.data * keep, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g * out_data * (1.0 - out_data))

        return Tensor.from_op(out_data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g * (1.0 - out_data * out_data))

        return Tensor.from_op(out_data, (a,), backward)

    def abs(self) -> "Tensor":
        a = self
        sign = np.sign(a.data)

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g * sign)

        return Tensor.from_op(np.abs(a.data), (a,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> None:
            grad = g
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            a.accumulate_grad(np.broadcast_to(grad, a.data.shape))

        return Tensor.from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= a.data.shape[ax]

        def backward(g: np.ndarray) -> None:
            grad = g / count
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            a.accumulate_grad(np.broadcast_to(grad, a.data.shape))

        return Tensor.from_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.max(axis=axis, keepdims=True)
        mask = a.data == out_data
        # Split gradient evenly among ties, matching subgradient convention.
        counts = mask.sum(axis=axis, keepdims=True)

        def backward(g: np.ndarray) -> None:
            grad = g
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            elif axis is None and not keepdims:
                grad = np.full_like(a.data, float(np.asarray(g)))
                a.accumulate_grad(grad * mask / counts)
                return
            a.accumulate_grad(np.broadcast_to(grad, a.data.shape) * mask / counts)

        result = out_data if keepdims else a.data.max(axis=axis, keepdims=False)
        return Tensor.from_op(result, (a,), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.data.shape

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g.reshape(original))

        return Tensor.from_op(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inverse = tuple(np.argsort(axes))

        def backward(g: np.ndarray) -> None:
            a.accumulate_grad(g.transpose(inverse))

        return Tensor.from_op(a.data.transpose(axes), (a,), backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        lead = self.data.shape[:start_dim]
        return self.reshape(*lead, -1)

    def __getitem__(self, index) -> "Tensor":
        a = self

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(a.data)
            np.add.at(grad, index, g)
            a.accumulate_grad(grad)

        return Tensor.from_op(a.data[index], (a,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two axes of an NCHW tensor symmetrically."""
        if padding == 0:
            return self
        a = self
        pad_width = ((0, 0),) * (a.data.ndim - 2) + ((padding, padding), (padding, padding))

        def backward(g: np.ndarray) -> None:
            slices = tuple(
                slice(None) if before == 0 else slice(before, -after or None)
                for before, after in pad_width
            )
            a.accumulate_grad(g[slices])

        return Tensor.from_op(np.pad(a.data, pad_width), (a,), backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> np.ndarray:
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other) -> np.ndarray:
        return self.data < (other.data if isinstance(other, Tensor) else other)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            tensor.accumulate_grad(g[tuple(index)])

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor.from_op(data, tensors, backward)
