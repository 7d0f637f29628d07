"""Plain-numpy multilayer perceptrons with exact gradients.

Every network in the package (inverse network, data-model networks,
quantile networks) is the same flat-parameter tanh MLP defined here.
Parameters live in a single 1-d float64 vector so samplers and optimizers
can treat a network as a point in R^P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a fully connected network.

    layer_widths includes input and output, so a 2-10-10-1 network is
    (2, 10, 10, 1).  Hidden layers apply tanh; the output layer is linear.

    out_scale multiplies the output-layer weight matrix (not its biases) in
    the forward pass.  A small value lets the stored weights sit at the
    magnitude the sparsity prior favors while the effective output map
    stays proportionally smaller.
    """

    layer_widths: tuple[int, ...]
    seed: int = 0
    out_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError(
                f"need input, at least one hidden, and output layer, got widths {self.layer_widths}"
            )
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError(f"zero or negative layer width in {self.layer_widths}")
        object.__setattr__(self, "out_scale", float(self.out_scale))
        if not np.isfinite(self.out_scale) or self.out_scale <= 0.0:
            raise ValueError(f"out_scale must be positive and finite, got {self.out_scale}")

    @property
    def d_in(self) -> int:
        return self.layer_widths[0]

    @property
    def d_out(self) -> int:
        return self.layer_widths[-1]


def param_count(spec: MlpSpec) -> int:
    """Total number of parameters: sum over layers of d_l * (d_{l-1} + 1)."""
    w = spec.layer_widths
    return sum(w[l] * (w[l - 1] + 1) for l in range(1, len(w)))


def _layer_slices(spec: MlpSpec) -> list[tuple[slice, slice, tuple[int, int]]]:
    # per layer: (weight slice, bias slice, weight shape), weights row-major (d_l, d_{l-1})
    out = []
    pos = 0
    w = spec.layer_widths
    for l in range(1, len(w)):
        n_w = w[l] * w[l - 1]
        out.append((slice(pos, pos + n_w), slice(pos + n_w, pos + n_w + w[l]), (w[l], w[l - 1])))
        pos += n_w + w[l]
    return out


@dataclass
class MlpParams:
    """A network: its architecture plus one flat parameter vector.

    The layer views into flat are built once per vector; an optimizer that
    updates flat in place keeps them valid.
    """

    spec: MlpSpec
    flat: np.ndarray = field(repr=False)
    _views_of: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _views: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64)
        if self.flat.ndim != 1 or self.flat.shape[0] != param_count(self.spec):
            raise ValueError(
                f"flat vector has length {self.flat.shape}, spec needs {param_count(self.spec)}"
            )
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("non-finite parameter values")

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views (W_l, b_l) into the flat vector, W_l of shape (d_l, d_{l-1})."""
        if self._views_of is not self.flat:
            self._views = [
                (self.flat[ws].reshape(shape), self.flat[bs])
                for ws, bs, shape in _layer_slices(self.spec)
            ]
            self._views_of = self.flat
        return self._views


def mlp_init(spec: MlpSpec) -> MlpParams:
    """Glorot-uniform weights, zero biases, deterministic in spec.seed.

    Weights of layer l are drawn uniform on +-sqrt(6 / (d_{l-1} + d_l)).
    """
    rng = np.random.default_rng(spec.seed)
    flat = np.zeros(param_count(spec))
    w = spec.layer_widths
    for (ws, _, shape), l in zip(_layer_slices(spec), range(1, len(w))):
        bound = np.sqrt(6.0 / (w[l - 1] + w[l]))
        flat[ws] = rng.uniform(-bound, bound, size=shape[0] * shape[1])
    return MlpParams(spec, flat)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, numerically safe on both tails."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_input(params: MlpParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[-1] != params.spec.d_in:
        raise ValueError(
            f"input shape {x.shape} does not match network input width {params.spec.d_in}"
        )
    return x


def mlp_forward_batch(params: MlpParams, x: np.ndarray, head: bool = True) -> list[np.ndarray]:
    """Forward pass for a batch x of shape (n, d_in).

    Returns the activations [x, hidden_1, ..., output], each (n, d_l); the
    (n, d_out) output is the last entry.  With head=False the list ends at
    the last hidden layer a, which the linear output layer would map to
    out_scale * a @ W.T + b.  mlp_backward_batch takes the list as it is.
    """
    acts = [_check_input(params, x)]
    layers = params.layers()
    a = acts[0]
    for W, b in layers[:-1]:
        a = np.tanh(a @ W.T + b)
        acts.append(a)
    if head:
        W, b = layers[-1]
        acts.append((a @ W.T) * params.spec.out_scale + b)
    return acts


def mlp_backward_batch(
    params: MlpParams,
    acts: list[np.ndarray],
    out_grads: np.ndarray,
    head: bool = True,
    need_params: bool = True,
    need_input: bool = True,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Batched backward pass through the activations of mlp_forward_batch.

    acts is the list the forward returned for these params (with or without
    the head); the forward is never recomputed.  out_grads has one row per
    observation; the parameter gradient is the sum over rows (each row is an
    independent additive loss term), the input gradient is returned per row.
    With head=False out_grads are gradients at the last hidden activations,
    shape (n, d_{L-1}), and the output-layer slots of the parameter gradient
    are left zero for the caller to fill.  A gradient not needed
    (need_params, need_input) is not computed and comes back as None.
    """
    layers = params.layers()
    last = len(layers) - 1
    if len(acts) < last + 1:
        raise ValueError(f"need the input and {last} hidden activations, got {len(acts)} arrays")
    grads = np.asarray(out_grads, dtype=np.float64)
    width = params.spec.layer_widths[-1 if head else -2]
    if grads.shape != (acts[0].shape[0], width):
        raise ValueError(f"out_grads shape {grads.shape} != ({acts[0].shape[0]}, {width})")
    s = params.spec.out_scale
    # per-layer (weight, bias) gradients, output layer first
    pieces = []
    if head:
        if need_params:
            # out_scale multiplies the output weight matrix only, so it enters
            # that layer's weight gradient and the signal flowing past it
            pieces.append(((grads.T @ acts[last]).ravel() * s, grads.sum(axis=0)))
        grads = (grads @ layers[last][0]) * s
    elif need_params:
        pieces.append((np.zeros(layers[last][0].size), np.zeros(layers[last][1].size)))
    # grads is the gradient at the last hidden activations from here on
    for l in range(last - 1, -1, -1):
        delta = grads * (1.0 - acts[l + 1] * acts[l + 1])  # tanh' from its output
        if need_params:
            pieces.append(((delta.T @ acts[l]).ravel(), delta.sum(axis=0)))
        grads = delta @ layers[l][0] if l > 0 or need_input else None
    if not need_params:
        return None, grads
    return np.concatenate([g for pair in reversed(pieces) for g in pair]), grads
