"""Dense networks with hand-derived backprop, Adam, and flat weights.

Fixed-topology MLPs are all the agents need, so there is no autograd graph:
forward caches each layer's activations, and backward replays the chain rule
exactly, computing only the gradients its caller reads. Everything is
float64; the nets are tiny and determinism plus gradient-check headroom
matter more than speed.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import weakref
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "linear")


@dataclass
class Mlp:
    """Per-layer weights (in, out), biases (out,), and activation names.

    All parameters live in one contiguous f64 vector `params`, in the order
    [W0, b0, W1, b1, ...]; every weight and bias is a view into it. The
    constructor copies the given arrays into a fresh vector.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.bind(np.empty(sum(w.size + b.size
                               for w, b in zip(self.weights, self.biases))))

    def bind(self, params: np.ndarray) -> None:
        """Copy the parameters into `params` and keep them there."""
        views, off = [], 0
        for w, b in zip(self.weights, self.biases):
            for a in (w, b):
                view = params[off:off + a.size].reshape(a.shape)
                view[...] = a
                views.append(view)
                off += a.size
        self.params = params
        self.weights, self.biases = views[0::2], views[1::2]

    def copy(self) -> "Mlp":
        return Mlp(self.weights, self.biases, list(self.activations))


def pack(*nets: Mlp) -> np.ndarray:
    """Move the parameters of `nets` into one new shared vector, in order."""
    store = shared_zeros(sum(net.params.size for net in nets))
    off = 0
    for net in nets:
        size = net.params.size
        net.bind(store[off:off + size])
        off += size
    return store


# data address -> f64 array made by shared_zeros; forked children inherit
# both the mappings and this table, so an address means the same memory
_shared = weakref.WeakValueDictionary()


def shared_zeros(shape) -> np.ndarray:
    """Zeroed f64 array in anonymous shared memory.

    A process forked after the array is made writes the same pages, so its
    updates are seen by the parent and the other children.
    """
    count = int(np.prod(shape))
    root = np.frombuffer(mmap.mmap(-1, 8 * max(count, 1)), count=count)
    _shared[root.__array_interface__["data"][0]] = root
    return root.reshape(shape)


def shared_arrays() -> dict:
    """shared_zeros's live arrays by address: what a process forked now maps."""
    return dict(_shared)


def shared_ref(obj, mapped: dict):
    """(address, offset, shape, strides) of an array that lies in memory
    of the shared_arrays() table `mapped`, or None for any other object."""
    if type(obj) is not np.ndarray:
        return None
    root = obj
    while isinstance(root.base, np.ndarray):
        root = root.base
    addr = root.__array_interface__["data"][0]
    if mapped.get(addr) is not root:
        return None
    return (addr, obj.__array_interface__["data"][0] - addr, obj.shape,
            obj.strides)


def from_shared_ref(ref) -> np.ndarray:
    """The view a shared_ref describes, in this process's shared memory."""
    addr, offset, shape, strides = ref
    return np.ndarray(shape, float, _shared[addr], offset, strides)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments for one flat parameter vector."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float) -> "AdamState":
        """Zero moments in shared memory, shaped like `params`."""
        return cls(lr=lr, m=shared_zeros(params.shape),
                   v=shared_zeros(params.shape))


@dataclass
class FlatWeights:
    """All parameters of one or more networks as a single f64 vector.

    `shapes` and `offsets` describe where each array lives in `values`;
    `activations` lists the layer activations of every network in order.
    """

    values: np.ndarray
    shapes: list[tuple[int, ...]]
    offsets: list[int]
    activations: list[str] = field(default_factory=list)

    def layout(self) -> tuple:
        return (tuple(self.shapes), tuple(self.offsets), tuple(self.activations))

    def layout_hash(self) -> str:
        blob = json.dumps([list(map(list, self.shapes)), self.offsets,
                           self.activations]).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def init_mlp(rng, dims: list[int], output_activation: str = "linear",
             hidden_activation: str = "relu") -> Mlp:
    """He-uniform initialized MLP; biases start at zero.

    A sigmoid output layer is scaled down by 10x so initial outputs sit near
    0.5 rather than saturating, which keeps early actions inside the share
    budget instead of slamming against it.
    """
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    for act in (hidden_activation, output_activation):
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}")
    weights, biases, acts = [], [], []
    n_layers = len(dims) - 1
    for i in range(n_layers):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / fan_in)
        act = output_activation if i == n_layers - 1 else hidden_activation
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        if i == n_layers - 1 and act == "sigmoid":
            w *= 0.1
        weights.append(w)
        biases.append(np.zeros(fan_out))
        acts.append(act)
    return Mlp(weights, biases, acts)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    # relu and linear return z's own memory
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        e = np.exp(-np.abs(z))
        d = 1.0 + e
        return np.where(z >= 0, 1.0 / d, e / d)
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _delta(name: str, g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """`g` times the activation's derivative at the layer output `a`, in
    place; a relu output is positive exactly where its input is."""
    if name == "relu":
        g *= a > 0.0
    elif name == "sigmoid":
        g *= a * (1.0 - a)
    return g


def forward(net: Mlp, x: np.ndarray):
    """Run the network on a batch; returns (output, cache), and the cache
    feeds backward().

    `x` is 2-D with one sample per row, so a single sample is a batch of
    one; any other shape is refused. The output has one row per sample.
    The cache lists the layer activations [x, h1, ..., output]; all but `x`
    are fresh arrays, and `x` is never written.
    """
    h = np.asarray(x, dtype=float)
    if h.ndim != 2 or h.shape[1] != net.weights[0].shape[0]:
        raise ValueError(f"input of shape {h.shape} is not a batch of "
                         f"width {net.weights[0].shape[0]}")
    cache = [h]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = h @ w
        z += b
        h = _activate(act, z)
        cache.append(h)
    return h, cache


def backward(net: Mlp, cache, output_grad: np.ndarray, input_cols=None):
    """Exact gradients of a scalar loss given dL/d(output), which carries any
    batch averaging and is not written. Returns a fresh vector: the
    parameter gradient summed over the batch, laid out like `params`.
    Given `input_cols` (an index or slice), returns instead only those
    columns of dL/d(input), one row per batch row, and computes no parameter
    gradient."""
    g = np.array(output_grad, dtype=float)
    if g.shape != cache[-1].shape:
        raise ValueError("output_grad shape does not match the cached forward")
    if len(cache) != len(net.weights) + 1 or any(
            a.shape[1] != w.shape[1] for a, w in zip(cache[1:], net.weights)):
        raise ValueError("cache does not match this network")
    grad = np.empty_like(net.params) if input_cols is None else None
    dz = _delta(net.activations[-1], g, cache[-1])
    end = net.params.size
    for i in range(len(net.weights) - 1, -1, -1):
        w = net.weights[i]
        if grad is not None:
            dz.sum(axis=0, out=grad[end - w.shape[1]:end])
            end -= w.shape[1] + w.size
            np.matmul(cache[i].T, dz,
                      out=grad[end:end + w.size].reshape(w.shape))
        if i > 0:
            dz = _delta(net.activations[i - 1], dz @ w.T, cache[i])
    if grad is not None:
        return grad
    # the full product, then the columns: slicing W0 first rounds differently
    return (dz @ net.weights[0].T)[:, input_cols]


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on the flat `params`.

    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), evaluated in that order in
    two scratch rows made for the call.
    """
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("params/grad/state sizes differ")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    step, denom = np.empty((2, params.size))
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=step)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=denom)
    denom *= grad
    v += denom
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, bc1, out=step)
    step *= state.lr
    step /= denom
    params -= step


def flatten_mlp(*nets: Mlp) -> FlatWeights:
    """Copy the parameters of `nets`, in order, into one FlatWeights."""
    shapes, offsets, activations = [], [], []
    off = 0
    for net in nets:
        for w, b in zip(net.weights, net.biases):
            for a in (w, b):
                shapes.append(a.shape)
                offsets.append(off)
                off += a.size
        activations.extend(net.activations)
    values = np.concatenate([net.params for net in nets])
    return FlatWeights(values, shapes, offsets, activations)
