"""Plain-numpy multilayer perceptrons with exact gradients.

Every network in the package (inverse network, data-model networks,
quantile networks) is the same flat-parameter tanh MLP defined here.
Parameters live in a single 1-d float64 vector so samplers and optimizers
can treat a network as a point in R^P.  The sampler's networks train
through the passes below; the quantile networks are made and evaluated
here but trained in a layout of cqr's own (see fidte.cqr).

A network keeps one set of arrays its passes write, whatever the row count
(see MlpParams): one array per hidden activation of the forward, and one
scratch for the gradients the backward propagates below the output layer.
Each is allocated at the network's row capacity, the most rows any of its
passes has run on, and a pass on fewer rows works in their leading rows, so
a sampler's full-data and minibatch passes write the same arrays once it
has run on all its rows.  A pass on more rows drops them all at once.
The backward writes each hidden layer's delta over that layer's activation,
so the activations a forward returned are spent once a backward has run
through them.  The gradient at the last hidden layer has its slot in the
scratch (hidden_grad_array), so a caller that forms it for a head=False
backward writes it there.  The backward pass forms each bias gradient by
whichever of einsum and .sum(axis=0) is cheaper where the two agree bit for
bit (see _column_sums), so its results are those of a plain numpy sum.
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
    """

    layer_widths: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ValueError(
                f"need input, at least one hidden, and output layer, got widths {self.layer_widths}"
            )
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError(f"zero or negative layer width in {self.layer_widths}")

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

    A pass writes one set of arrays, whatever its row count n.  They are of
    two kinds: "act", each hidden activation, which the forward writes and
    the backward overwrites with that layer's delta; and "grad", one scratch
    shared by the gradients the backward propagates below the output layer,
    each spent into its layer's delta before the next is written.  The
    network has one row capacity, the most rows any pass, forward or
    backward, has run on; each array is allocated on first use at the
    capacity times its width, and a pass on n rows writes its leading n
    rows.  A pass on more rows raises the capacity and drops every array at
    once.  So the hidden activations that mlp_forward_batch returns and the
    input gradient that mlp_backward_batch returns stay valid until the next
    pass of the same params, on any row count; after a backward through them
    the activations hold its deltas.  A caller that keeps one across such a
    pass copies it.  The leading (n, d_{L-1}) block of the scratch is the
    gradient at the last hidden layer (hidden_grad_array): a head=True
    backward writes it there, and a head=False backward reads its out_grads
    before it overwrites the scratch, so a caller may form them there.  The
    output layer's values and the parameter gradient are new arrays on
    every pass.
    """

    spec: MlpSpec
    flat: np.ndarray = field(repr=False)
    _views_of: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _views: list = field(default_factory=list, init=False, repr=False, compare=False)
    _capacity: int = field(default=0, init=False, repr=False, compare=False)
    _storage: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _arrays: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _pass_array(self, kind: str, l: int, n: int) -> np.ndarray:
        """The (n, d_l) array that passes on n rows write for kind at layer l.

        kind is "act", the activation of hidden layer l, which the backward
        overwrites with the gradient at its pre-activation; or "grad", the
        gradient propagated to layer l's output (layer 0 being the input).
        It is the leading n * d_l values of kind's storage: one flat array
        per activation, and one for every gradient, as wide as the widest
        layer below the output, each allocated on first use at the row
        capacity, so a network allocates only what its passes write.  The
        view for each row count is kept, so a pass looks it up once.
        """
        key = (kind, l, n)
        arr = self._arrays.get(key)
        if arr is None:
            if n > self._capacity:
                self._capacity = n
                self._storage.clear()
                self._arrays.clear()
            widths = self.spec.layer_widths
            store = (kind, l) if kind == "act" else kind
            base = self._storage.get(store)
            if base is None:
                width = widths[l] if kind == "act" else max(widths[:-1])
                base = self._storage[store] = np.empty(self._capacity * width)
            arr = self._arrays[key] = base[: n * widths[l]].reshape(n, widths[l])
        return arr


def hidden_grad_array(params: MlpParams, n: int) -> np.ndarray:
    """The (n, d_{L-1}) block of params' gradient scratch that holds the
    gradient at the last hidden layer of a pass on n rows.

    A caller of a head=False backward may write its out_grads here: the
    backward reads them into its top layer's delta before anything
    overwrites the scratch.  What is written here lasts until the next
    backward of params, or its next pass on more rows than it has run on
    (see MlpParams).
    """
    return params._pass_array("grad", len(params.spec.layer_widths) - 2, n)


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


def mlp_forward_batch(params: MlpParams, x: np.ndarray, head: bool = True) -> list[np.ndarray]:
    """Forward pass for a batch x of shape (n, d_in).

    Returns the activations [x, hidden_1, ..., output], each (n, d_l); the
    (n, d_out) output is the last entry.  With head=False the list ends at
    the last hidden layer a, which the linear output layer would map to
    a @ W.T + b.  mlp_backward_batch takes the list as it is, and spends it.
    The hidden activations are params' arrays, overwritten by its next pass
    on any row count or by a backward through them (see MlpParams); the
    output is a new array.
    """
    acts = [x]
    layers = params.layers()
    n = x.shape[0]
    a = x
    for l, (W, b) in enumerate(layers[:-1], start=1):
        h = np.matmul(a, W.T, out=params._pass_array("act", l, n))
        h += b
        a = np.tanh(h, out=h)
        acts.append(a)
    if head:
        W, b = layers[-1]
        out = a @ W.T
        out += b
        acts.append(out)
    return acts


def _column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0), bit for bit, by the cheaper call where the two agree.

    On a C-ordered array more than one column wide, einsum and sum both add
    the rows in order, and einsum costs a half to a third as much at the row
    counts here.  On a single column sum adds pairwise, as it does down each
    column of a column-ordered array; einsum differs there in the last bit
    (from 3 rows on), so those keep sum.
    """
    if a.shape[1] > 1 and a.flags.c_contiguous:
        return np.einsum("ij->j", a)
    return a.sum(axis=0)


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
    the head); the forward is never recomputed.  The pass spends acts: it
    writes each hidden layer's delta, (1 - a*a) * g, over that layer's
    activation a once the layers above are done with it, so after it
    returns the hidden entries of acts hold the deltas, and a caller that
    needs the activations again runs a fresh forward or copies them first.
    The input and the output entries are left as they are.

    out_grads has one row per observation; the parameter gradient is the
    sum over rows (each row is an independent additive loss term), the input
    gradient is returned per row.  Each bias gradient is the column sum of
    an (n, d_l) array, formed by _column_sums, so it equals .sum(axis=0) bit
    for bit at every width.
    With head=False out_grads are gradients at the last hidden activations,
    shape (n, d_{L-1}), and may be hidden_grad_array(params, n), which the
    top layer's delta reads before the next gradient overwrites it; the
    output-layer slots of the parameter gradient are left zero for the
    caller to fill.  A gradient not needed
    (need_params, need_input) is not computed and comes back as None.  The
    parameter gradient is a new array; the input gradient is params'
    scratch, overwritten by its next pass on any row count (see MlpParams).
    """
    layers = params.layers()
    last = len(layers) - 1
    grads = out_grads
    n = grads.shape[0]
    pg = None
    if need_params:
        # one flat gradient, each layer's (weight, bias) gradient written
        # into its views of it
        pg = np.zeros(params.flat.size)
        slots = [(pg[ws].reshape(shape), pg[bs]) for ws, bs, shape in _layer_slices(params.spec)]
    if head:
        if need_params:
            np.matmul(grads.T, acts[last], out=slots[last][0])
            slots[last][1][:] = _column_sums(grads)
        grads = np.matmul(grads, layers[last][0], out=hidden_grad_array(params, n))
    # grads is the gradient at the last hidden activations from here on
    for l in range(last - 1, -1, -1):
        # tanh' from its output, 1 - a^2, times the gradient at a, written
        # over a: the layers below read only their own activations
        delta = np.multiply(acts[l + 1], acts[l + 1], out=acts[l + 1])
        np.subtract(1.0, delta, out=delta)
        delta *= grads
        if need_params:
            np.matmul(delta.T, acts[l], out=slots[l][0])
            slots[l][1][:] = _column_sums(delta)
        if l > 0 or need_input:
            grads = np.matmul(delta, layers[l][0], out=params._pass_array("grad", l, n))
        else:
            grads = None
    return pg, grads
