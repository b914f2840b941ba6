"""Small differentiable score models with hand-coded gradients.

Each model owns one float64 vector ``flat`` that holds all its parameters
in checkpoint order (``W, b``; ``W1, b1, W2, b2``). The named arrays are
reshaped views into it, so the optimizer, the divergence check and
checkpoints work on ``flat`` alone and only this module knows the layout.

Attacks need input gradients and the trainer needs parameter gradients, so
both are explicit. ``forward_vjp(X)`` returns the scores at ``X`` with a
``Pullback`` that maps a score cotangent to both, reusing what that one
forward pass computed (the MLP's hidden activation) instead of computing
it again. All arrays are float64; batches are row-major ``(batch, dim)``.

Attacks make one pass per iterate, so the passes update their arrays in
place: each intermediate is one fresh buffer that the next operation
overwrites (``out=``, ``+=``, ``*=``), never a chain of freed temporaries.
Freeing several large temporaries at once lets glibc return the top of the
heap to the kernel, and the next pass then faults those pages in again.
The in-place forms do the same floating-point operations in the same
order, so every value is bit-identical to the expression form.
"""

import math
import os
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import _checks as check


class Pullback(NamedTuple):
    """Gradients at the points of one forward pass. ``inputs(ds)`` maps a
    score cotangent ``ds`` of shape ``(batch, n_labels)`` to the input
    gradient ``(batch, dim)``; ``params(ds)`` maps it to one flat parameter
    gradient laid out like the model's ``flat``. Valid until the parameters
    change."""

    inputs: Callable
    params: Callable


class _FlatModel:
    """Packs the dataclass fields, in declaration order, into one vector
    ``flat`` and rebinds each field to a view of it."""

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, f.name)) for f in fields(self)]
        self.flat = np.concatenate([a.ravel() for a in arrays],
                                   dtype=np.float64)
        i = 0
        for f, a in zip(fields(self), arrays):
            setattr(self, f.name, self.flat[i:i + a.size].reshape(a.shape))
            i += a.size

    def get_flat(self):
        return self.flat.copy()

    def set_flat(self, flat):
        self.flat[:] = flat


@dataclass
class LinearModel(_FlatModel):
    """Per-label affine scores ``W x + b``."""

    W: np.ndarray  # (n_labels, dim)
    b: np.ndarray  # (n_labels,)

    @property
    def n_labels(self):
        return self.W.shape[0]

    @property
    def dim(self):
        return self.W.shape[1]

    def forward(self, X):
        s = X @ self.W.T
        s += self.b
        return s

    def forward_vjp(self, X):
        W = self.W
        return self.forward(X), Pullback(
            inputs=lambda ds: ds @ W,
            params=lambda ds: np.concatenate([(ds.T @ X).ravel(),
                                              ds.sum(axis=0)]))

    def header_dims(self):
        return [self.dim, self.n_labels]


@dataclass
class MLPModel(_FlatModel):
    """Two-layer perceptron with tanh hidden activation."""

    W1: np.ndarray  # (dim, hidden)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (hidden, n_labels)
    b2: np.ndarray  # (n_labels,)

    @property
    def n_labels(self):
        return self.W2.shape[1]

    @property
    def dim(self):
        return self.W1.shape[0]

    @property
    def hidden(self):
        return self.W1.shape[1]

    def _hidden(self, X):
        """The hidden activation ``tanh(X W1 + b1)`` in one buffer."""
        Z = X @ self.W1
        Z += self.b1
        return np.tanh(Z, out=Z)

    def _scores(self, Z):
        s = Z @ self.W2
        s += self.b2
        return s

    def forward(self, X):
        return self._scores(self._hidden(X))

    def forward_vjp(self, X):
        W1, W2 = self.W1, self.W2
        Z = self._hidden(X)

        def hidden_grad(ds):
            dZ = ds @ W2.T
            slope = Z * Z
            dZ *= np.subtract(1.0, slope, out=slope)
            return dZ

        def params(ds):
            dZ = hidden_grad(ds)
            return np.concatenate([(X.T @ dZ).ravel(), dZ.sum(axis=0),
                                   (Z.T @ ds).ravel(), ds.sum(axis=0)])

        return self._scores(Z), Pullback(
            inputs=lambda ds: hidden_grad(ds) @ W1.T, params=params)

    def header_dims(self):
        return [self.dim, self.hidden, self.n_labels]


def init_linear(dim, n_labels, seed=0):
    check.sizes(dim=dim)
    check.sizes(2, n_labels=n_labels)
    rng = np.random.default_rng(seed)
    return LinearModel(rng.normal(scale=1.0 / math.sqrt(dim),
                                  size=(n_labels, dim)), np.zeros(n_labels))


def init_mlp(dim, hidden, n_labels, seed=0):
    check.sizes(dim=dim, hidden=hidden)
    check.sizes(2, n_labels=n_labels)
    rng = np.random.default_rng(seed)
    return MLPModel(
        rng.normal(scale=1.0 / math.sqrt(dim), size=(dim, hidden)),
        np.zeros(hidden),
        rng.normal(scale=1.0 / math.sqrt(hidden), size=(hidden, n_labels)),
        np.zeros(n_labels),
    )


# checkpoint format: one text header line "compsum-model <kind> <dims...>",
# then all parameters as raw little-endian float64 in declaration order
_MAGIC = "compsum-model"


def write_atomic(path, data):
    """Write the bytes ``data`` to the sibling ``<path>.tmp`` and rename it
    onto ``path``. On any failure the sibling is removed and ``path`` keeps
    what it held before."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model, path):
    kind = "linear" if isinstance(model, LinearModel) else "mlp"
    dims = " ".join(str(d) for d in model.header_dims())
    write_atomic(path, f"{_MAGIC} {kind} {dims}\n".encode("ascii")
                 + model.flat.astype("<f8").tobytes())


# per checkpoint kind: the header's dims and the parameter shapes they give
_KINDS = {"linear": (("dim", "labels"), lambda dim, n: [(n, dim), (n,)]),
          "mlp": (("dim", "hidden", "labels"),
                  lambda dim, h, n: [(dim, h), (h,), (h, n), (n,)])}


def load_model(path):
    """Read a checkpoint. The header is checked, and the float count it
    describes compared with the body's size, before any array is built."""
    with open(path, "rb") as fh:
        line = fh.readline().decode("ascii", errors="replace").strip()
        body = fh.read()

    def bad(why):
        return ValueError(f"bad checkpoint header {line!r} in {path}: {why}")

    header = line.split()
    if len(header) < 2 or header[0] != _MAGIC:
        raise bad(f"expected '{_MAGIC} <kind> <dims...>'")
    kind, dims = header[1], header[2:]
    if kind not in _KINDS:
        raise bad(f"unknown model kind {kind!r}")
    names, shapes_of = _KINDS[kind]
    if len(dims) != len(names):
        raise bad(f"a {kind} model takes {len(names)} dims "
                  f"({', '.join(names)}), got {len(dims)}")
    if not all(d.isdigit() and int(d) > 0 for d in dims):
        raise bad("dims must be positive integers")
    shapes = shapes_of(*map(int, dims))
    size = sum(math.prod(shape) for shape in shapes)
    if len(body) != 8 * size:
        raise bad(f"it describes {size} floats ({8 * size} bytes), but the "
                  f"body holds {len(body)} bytes")
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise ValueError(f"checkpoint {path} holds non-finite parameters")
    model = (LinearModel if kind == "linear" else MLPModel)(
        *map(np.zeros, shapes))
    model.set_flat(flat)
    return model
