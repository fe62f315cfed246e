"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: every operation appends a record to the active Graph and
the recorded closures are replayed in reverse by :func:`backward`.  The
engine is deliberately small -- it provides exactly the primitives the
planning/generation model needs, all in 64-bit floats so that central
finite differences can certify every backward rule.

Broadcasting for binary elementwise ops is limited to numpy-compatible
cases where one operand has a size-1 axis (or fewer leading axes); the
gradient is summed back over the broadcast axes.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(ValueError):
    """Input lies outside an op's mathematical domain (e.g. log(x<=0))."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


class ParameterError(ValueError):
    """An op hyperparameter (temperature, bin count, ...) is invalid."""


class Tensor:
    """Shape + float64 values + accumulated gradient.

    ``grad`` has the tensor's own shape; it is all-zero right after
    creation and after :meth:`zero_grad`, and the optimizer updates
    ``data`` in place.
    """

    __slots__ = ("data", "requires_grad", "_grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.requires_grad = requires_grad
        self._grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        if self._grad is None:  # g + 0.0 is a fresh array, bitwise equal to zeros + g
            self._grad = g + 0.0 if g.shape == self.data.shape else np.zeros_like(self.data) + g
        else:
            self._grad += g

    def _accumulate_at(self, idx, g: np.ndarray) -> None:
        """Add ``g`` into ``grad[idx]``; ``idx`` names each entry at most once."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        self._grad[idx] += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class OpRecord:
    """One node of the computation graph (append order = topological order):
    its output and backward rule, which holds what the rule reads.

    A node has one output, or two (``out2``, as for :func:`lstm_cell`);
    ``backward_fn`` gets the first output's gradient, which is None when
    only the second one has a gradient.
    """

    __slots__ = ("kind", "out", "out2", "backward_fn")

    def __init__(self, kind: str, out: Tensor, backward_fn: Callable[[np.ndarray | None], None],
                 out2: Tensor | None = None):
        self.kind = kind
        self.out = out
        self.out2 = out2
        self.backward_fn = backward_fn


class Graph:
    """Append-only tape of OpRecords, rebuilt per forward; one backward spends it."""

    def __init__(self):
        self.nodes: list[OpRecord] = []
        self.spent = False


_active_graph = Graph()
_grad_enabled = True


@contextmanager
def graph_scope(graph: Graph | None = None):
    """Temporarily record onto ``graph`` (a fresh one by default)."""
    global _active_graph
    prev = _active_graph
    _active_graph = graph if graph is not None else Graph()
    try:
        yield _active_graph
    finally:
        _active_graph = prev


@contextmanager
def no_grad():
    """Disable recording; ops produce constant tensors (fast forward)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def param(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def const(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def _tracking(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over ``inputs`` goes on the tape: recording is on and
    some input requires grad."""
    return _grad_enabled and any([t.requires_grad for t in inputs])


def _make(kind: str, inputs: Sequence[Tensor], data: np.ndarray,
          backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    track = _tracking(inputs)
    out = Tensor(data, track)
    if track:
        _active_graph.nodes.append(OpRecord(kind, out, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes the forward pass broadcast."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast(ufunc, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """ufunc(a, b) under numpy broadcasting; shapes that do not broadcast
    raise ShapeError."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.add, a, b, "add")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make("add", (a, b), data, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.subtract, a, b, "sub")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.shape))

    return _make("sub", (a, b), data, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.multiply, a, b, "mul")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make("mul", (a, b), data, bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast(np.divide, a, b, "div")

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make("div", (a, b), data, bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        if a.requires_grad:
            a._accumulate(-g)

    return _make("neg", (a,), -a.data, bw)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return _make("tanh", (a,), data, bw)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """Overflow-free logistic exp(min(x, 0)) / (exp(-|x|) + 1): 1 / (1 + e)
    for x >= 0 and e / (1 + e) below, with e = exp(-|x|), bitwise as
    where(x >= 0, 1, e) / (1 + e) gives it (NaN stays NaN).  ``out`` and
    ``tmp`` are optional buffers of x's shape."""
    den = np.copysign(x, -1.0, out=out)
    np.exp(den, out=den)
    den += 1.0
    num = np.minimum(x, 0.0, out=tmp)
    np.exp(num, out=num)
    return np.divide(num, den, out=den)


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * data * (1.0 - data))

    return _make("sigmoid", (a,), data, bw)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g * data)

    return _make("exp", (a,), data, bw)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        bad = float(a.data.min())
        raise DomainError(f"log of non-positive value (min entry {bad})")
    data = np.log(a.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _make("log", (a,), data, bw)


# ---------------------------------------------------------------------------
# reductions / structure


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _make("matmul", (a, b), data, bw)


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        a._accumulate(np.broadcast_to(gg, a.shape).copy())

    return _make("sum", (a,), data, bw)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make("reshape", (a,), data, bw)


def swap_last2(a: Tensor) -> Tensor:
    if a.data.ndim < 2:
        raise ShapeError(f"swap_last2 needs >=2-d input, got {a.shape}")
    data = np.swapaxes(a.data, -1, -2).copy()

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, -1, -2))

    return _make("swap_last2", (a,), data, bw)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = list(itertools.accumulate([p.shape[axis] for p in parts], initial=0))

    def bw(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, stop)
                p._accumulate(g[tuple(idx)])

    return _make("concat", tuple(parts), data, bw)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx].copy()

    def bw(g):
        if a.requires_grad:
            a._accumulate_at(idx, g)

    return _make("narrow", (a,), data, bw)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0 (embedding lookup); scatter-add backward."""
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def bw(g):
        if a.requires_grad:
            # one bincount over flat (row, column) slots adds the rows in
            # order from zero, bitwise as np.add.at does
            rows, width = a.shape[0], int(np.prod(a.shape[1:]))
            slots = (idx.reshape(-1, 1) % rows) * width + np.arange(width)
            full = np.bincount(slots.reshape(-1), weights=g.reshape(-1), minlength=a.size)
            a._accumulate(full.reshape(a.shape))

    return _make("take_rows", (a,), data, bw)


def gather_last(a: Tensor, indices) -> Tensor:
    """Pick one entry per row of a 2-d tensor; returns shape (rows, 1)."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_last expects a 2-d tensor, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    rows = np.arange(a.shape[0])
    data = a.data[rows, idx].reshape(-1, 1)

    def bw(g):
        if a.requires_grad:
            a._accumulate_at((rows, idx), g[:, 0])

    return _make("gather_last", (a,), data, bw)


def scatter_cols(weights: Tensor, ids, size: int) -> Tensor:
    """Add the weights of every row into ``size`` columns: out[..., v] sums
    weights[..., j] over the j with ids[j] == v, in order of j, so repeated
    ids add up.  One row of ``ids`` serves every weight row, and ids index
    columns as numpy indices do (as in :func:`take_rows`, a negative id
    counts from the end); the backward is the gather g[..., ids]."""
    w = weights.data
    ids = np.asarray(ids, dtype=np.intp)
    if ids.shape != w.shape[-1:]:
        raise ShapeError(f"scatter_cols: ids {ids.shape} do not fit weights {w.shape}")
    data = np.zeros(w.shape[:-1] + (size,))
    try:
        np.add.at(data, (..., ids), w)
    except IndexError:
        raise ShapeError(f"scatter_cols: ids past the end of {size} columns") from None

    def bw(g):
        if weights.requires_grad:
            weights._accumulate(g[..., ids])

    return _make("scatter_cols", (weights,), data, bw)


def _lstm_gate_grads(dh, dc, i, f, g, o, tc, c_in, dgates) -> np.ndarray:
    """One LSTM step's backward: the gate gradients into ``dgates`` from
    those reaching h' and c' (``dh``, ``dc``; None for none, and then the
    output-gate columns are left alone); returns the entering c's."""
    hid = i.shape[-1]
    if dh is not None:
        term = (dh * o) * (1.0 - tc * tc)
        dc = term if dc is None else dc + term
        dgates[..., 3 * hid:] = (dh * tc) * o * (1.0 - o)
    dgates[..., :hid] = (dc * g) * i * (1.0 - i)
    dgates[..., hid:2 * hid] = (dc * c_in) * f * (1.0 - f)
    dgates[..., 2 * hid:3 * hid] = (dc * i) * (1.0 - g * g)
    return dc * f


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, wx: Tensor, wh: Tensor,
              b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step as one tape node with two outputs, (h', c').

    Gates are (x @ wx + h @ wh) + b in the order (input, forget, cell,
    output), with one sigmoid over the whole gate row.  Forward and
    backward use the numpy expressions, in the order, that the same step
    composed of matmul/add/sigmoid/narrow/tanh/mul ops would, so the two
    agree bitwise; the inputs' gradients accumulate as c, b, (h, wh),
    (x, wx).
    """
    hid = wh.shape[0]
    if (x.data.ndim != 2 or x.shape[1] != wx.shape[0] or h.shape[1] != hid
            or c.shape[1] != hid or wx.shape[1] != 4 * hid or wh.shape[1] != 4 * hid):
        raise ShapeError(f"lstm_cell: x {x.shape}, h {h.shape}, c {c.shape} do not fit "
                         f"wx {wx.shape}, wh {wh.shape}")
    gates = (x.data @ wx.data + h.data @ wh.data) + b.data
    sig = _sigmoid(gates)
    i, f, o = sig[:, :hid], sig[:, hid:2 * hid], sig[:, 3 * hid:]
    g = np.tanh(gates[:, 2 * hid:3 * hid])
    c2 = f * c.data + i * g
    tc = np.tanh(c2)
    track = _tracking((x, h, c, wx, wh, b))
    h_out = Tensor(o * tc, requires_grad=track)
    c_out = Tensor(c2, requires_grad=track)
    if not track:
        return h_out, c_out

    def bw(dh):
        dgates = np.zeros_like(gates)
        dc = _lstm_gate_grads(dh, c_out._grad, i, f, g, o, tc, c.data, dgates)
        if c.requires_grad:
            c._accumulate(_unbroadcast(dc, c.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(dgates, b.shape))
        for inp, w in ((h, wh), (x, wx)):
            if inp.requires_grad:
                inp._accumulate(_unbroadcast(dgates @ w.data.swapaxes(-1, -2), inp.shape))
            if w.requires_grad:
                w._accumulate(_unbroadcast(inp.data.swapaxes(-1, -2) @ dgates, w.shape))

    _active_graph.nodes.append(OpRecord("lstm_cell", h_out, bw, out2=c_out))
    return h_out, c_out


class LSTMDirection(NamedTuple):
    """One direction of :func:`lstm_lockstep`: its cell weights and whether
    it runs each row from its last token back."""

    wx: Tensor
    wh: Tensor
    b: Tensor
    reverse: bool = False


def lstm_lockstep(x: Tensor, h0: Tensor, c0: Tensor, directions: Sequence[LSTMDirection],
                  lengths: Sequence[int] | None = None) -> Tensor:
    """D independent LSTM recurrences over the same (B, T, E) input as one
    ``lstm_seq`` tape node; returns (B, T, D*H), direction d's states in
    columns d*H:(d+1)*H.  Every direction starts from (h0, c0).

    ``lengths`` (T for every row by default) counts each row's tokens.  A
    reversed direction runs row b's time lengths[b]-1-s at step s and then
    its padding in order, so a padded row gets the states it would alone.

    Each step is :func:`lstm_cell`'s arithmetic on a (D, B, .) stack, each
    direction at its own times: one stacked matmul against the (D, H, 4H)
    recurrent weights and one set of elementwise ops.  x @ wx is one GEMM
    per direction over all steps.  The backward runs the stacked recurrence
    for the gate gradients only, puts them back in their (row, time) slots,
    then forms each direction's x, wx and wh gradients with one GEMM each
    and b's with one sum (the fused-RNN layout of Appleyard et al. 2016,
    arXiv 1604.01946).  Directions accumulate into the shared x, h0 and c0
    last one first, so the result is bitwise that of D one-direction nodes
    recorded in order.
    """
    dirs = list(directions)
    n_dir, hid = len(dirs), dirs[0].wh.shape[0]
    if (x.data.ndim != 3 or x.shape[1] == 0 or h0.shape != (x.shape[0], hid)
            or c0.shape != h0.shape
            or any(d.wx.shape != (x.shape[2], 4 * hid) or d.wh.shape != (hid, 4 * hid)
                   or d.b.shape[-1] != 4 * hid for d in dirs)):
        weights = ", ".join(f"wx {d.wx.shape}, wh {d.wh.shape}, b {d.b.shape}" for d in dirs)
        raise ShapeError(f"lstm_lockstep: x {x.shape}, h0 {h0.shape}, c0 {c0.shape} do not "
                         f"fit {weights}")
    bsz, steps, emb = x.shape
    lens = steps if lengths is None else np.asarray(lengths)
    if lengths is not None and (lens.shape != (bsz,) or lens.dtype.kind not in "iu"
                                or min(lengths) < 1 or max(lengths) > steps):
        raise ShapeError(f"lstm_lockstep: lengths {lengths} do not fit x {x.shape}")
    # flat slot b*T + t of a batch-major (B*T)-row matrix holds row b at
    # time t; back[s] holds a reversed direction's slots at step s
    s_col = np.arange(steps)[:, None]
    back = (np.where(s_col < lens, lens - 1 - s_col, s_col) + np.arange(0, bsz * steps, steps)
            if any(d.reverse for d in dirs) else None)
    track = _tracking((x, h0, c0, *[t for d in dirs for t in d[:3]]))
    x2 = x.data.reshape(bsz * steps, emb)
    xw = np.empty((steps, n_dir, bsz, 4 * hid))  # row s: each direction's step s
    for d, direction in enumerate(dirs):
        xw_d = x2 @ direction.wx.data
        xw[:, d] = (xw_d[back] if direction.reverse
                    else xw_d.reshape(bsz, steps, 4 * hid).transpose(1, 0, 2))
    whs = np.array([d.wh.data for d in dirs])
    bs = np.array([d.b.data.reshape(1, 4 * hid) for d in dirs])
    # per step, in one slot when not recording: sigmoid(i, f, o) and tanh(g)
    # in one row, and the c leaving (the backward recomputes tanh(c)); h leaving
    kept = steps if track else 1
    act_all = np.empty((kept, n_dir, bsz, 4 * hid))
    i_all, f_all, g_all, o_all = (act_all[..., k * hid:(k + 1) * hid] for k in range(4))
    c_all = np.empty((kept, n_dir, bsz, hid))
    h_all = np.empty((steps, n_dir, bsz, hid))
    sig_tmp, tmp = np.empty((n_dir, bsz, 4 * hid)), np.empty((n_dir, bsz, hid))
    slots = zip(act_all, i_all, f_all, g_all, o_all, c_all)
    if not track:
        slots = itertools.repeat(next(slots))
    h, c = h0.data[None], c0.data[None]  # broadcast over the directions
    for (act, i, f, g, o, c2), h2, xw_s in zip(slots, h_all, xw):
        gates = h @ whs
        gates += xw_s
        gates += bs
        _sigmoid(gates, out=act, tmp=sig_tmp)
        np.tanh(gates[..., 2 * hid:3 * hid], out=g)
        fc = np.multiply(f, c, out=tmp)
        c = np.multiply(i, g, out=c2)  # c2 may be c's slot: c is read above
        c += fc
        h = np.multiply(o, np.tanh(c, out=tmp), out=h2)
    hs = np.empty((bsz, steps, n_dir * hid))
    for d, direction in enumerate(dirs):
        cols = slice(d * hid, (d + 1) * hid)
        if direction.reverse:
            hs.reshape(bsz * steps, n_dir * hid)[back, cols] = h_all[:, d]
        else:
            hs[:, :, cols] = h_all[:, d].transpose(1, 0, 2)
    out = Tensor(hs, requires_grad=track)
    if not track:
        return out

    def bw(gout):
        # each direction's slots at step s: every T-th row from s, or back[s]
        at = [back if d.reverse else [slice(s, None, steps) for s in range(steps)]
              for d in dirs]
        gout, hs2 = gout.reshape(bsz * steps, -1), hs.reshape(bsz * steps, -1)
        dgates = np.empty((n_dir, bsz * steps, 4 * hid))  # batch-major, as the GEMMs read it
        dg = np.empty((n_dir, bsz, 4 * hid))
        dh = np.zeros((n_dir, bsz, hid))
        dc = np.zeros((n_dir, bsz, hid))
        whts = whs.transpose(0, 2, 1)
        tc_all = np.tanh(c_all)
        for s in range(steps - 1, -1, -1):
            for d in range(n_dir):
                dh[d] += gout[at[d][s], d * hid:(d + 1) * hid]
            c_in = c_all[s - 1] if s else c0.data
            dc = _lstm_gate_grads(dh, dc, i_all[s], f_all[s], g_all[s], o_all[s],
                                  tc_all[s], c_in, dg)
            for d in range(n_dir):
                dgates[d, at[d][s]] = dg[d]
            dh = dg @ whts
        for d in range(n_dir - 1, -1, -1):
            wx, wh, b, _ = dirs[d]
            if h0.requires_grad:
                h0._accumulate(dh[d])
            if c0.requires_grad:
                c0._accumulate(dc[d])
            dg2 = dgates[d]
            if b.requires_grad:
                b._accumulate(_unbroadcast(dg2, b.shape))
            if wh.requires_grad:  # the state entering each step, from the states leaving
                hd, h_in = hs2[:, d * hid:(d + 1) * hid], np.empty((bsz * steps, hid))
                h_in[at[d][0]] = h0.data
                for s in range(1, steps):
                    h_in[at[d][s]] = hd[at[d][s - 1]]
                wh._accumulate(h_in.T @ dg2)
            if x.requires_grad:
                x._accumulate((dg2 @ wx.data.T).reshape(x.shape))
            if wx.requires_grad:
                wx._accumulate(x2.T @ dg2)

    _active_graph.nodes.append(OpRecord("lstm_seq", out, bw))
    return out


# ---------------------------------------------------------------------------
# normalizers / sampling


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; entries sum to 1 within 1e-9."""
    if not np.isfinite(a.data).all():
        raise NumericError("softmax input contains NaN or infinity")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            a._accumulate(data * (g - dot))

    return _make("softmax", (a,), data, bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not np.isfinite(a.data).all():
        raise NumericError("log_softmax input contains NaN or infinity")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bw(g):
        if a.requires_grad:
            a._accumulate(g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _make("log_softmax", (a,), data, bw)


def gumbel_softmax_sample(logits: Tensor, temperature: float, noise) -> Tensor:
    """softmax((logits + noise) / temperature); gradient reaches logits only.

    ``noise`` holds standard Gumbel draws, injected explicitly so tests and
    reruns are reproducible; it is treated as a constant.
    """
    if temperature <= 0.0:
        raise ParameterError(f"gumbel temperature must be positive, got {temperature}")
    n = noise.data if isinstance(noise, Tensor) else noise
    return softmax(div(add(logits, const(n)), const(temperature)))


def sample_gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard Gumbel draws via -log(-log(U)), U uniform on (0, 1)."""
    u = rng.random(shape)
    return -np.log(-np.log(np.clip(u, 1e-300, 1.0 - 1e-16)))


# ---------------------------------------------------------------------------
# backward / verification


def backward(root: Tensor) -> None:
    """Reverse traversal of the active graph seeding d(root)/d(root) = 1.

    Every leaf reachable from ``root`` with requires_grad gets its grad
    populated; unreachable leaves keep zero grad and grads accumulate.  The
    walk drops each record (and the arrays it saved) and its outputs' grads
    once the record has run, so the graph is spent: a second pass raises.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    g = _active_graph
    if g.spent:
        raise RuntimeError("backward over a spent graph: record the forward in a new graph_scope")
    g.spent = True
    root._accumulate(np.ones_like(root.data))
    nodes = g.nodes
    while nodes:
        rec = nodes.pop()
        out, out2 = rec.out, rec.out2
        if out._grad is not None or (out2 is not None and out2._grad is not None):
            rec.backward_fn(out._grad)
        out._grad = None
        if out2 is not None:
            out2._grad = None


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               step: float = 1e-5) -> float:
    """Max over parameters of the relative error between the analytic and
    central-difference gradients, compared per parameter tensor:
    ||analytic - numeric|| / max(||analytic||, ||numeric||, 1e-8).

    The norm-level comparison is deliberate: double-precision forward
    round-off (~1e-9 absolute after thousands of ops) swamps individual
    coordinates whose true gradient is legitimately tiny, while any wrong
    backward rule still shows up at O(1).  ``f`` must rebuild the scalar
    loss from scratch on every call and be deterministic given the current
    parameter values.
    """
    with graph_scope():
        loss = f()
        for p in params:
            p.zero_grad()
        backward(loss)
        analytic = [p.grad.reshape(-1).copy() for p in params]

    worst = 0.0
    with no_grad():
        for p, ana in zip(params, analytic):
            flat = p.data.reshape(-1)  # a view: writes move the parameter
            numeric = np.zeros_like(ana)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                f_plus = f().item()
                flat[i] = keep - step
                f_minus = f().item()
                flat[i] = keep
                numeric[i] = (f_plus - f_minus) / (2.0 * step)
            gap = float(np.linalg.norm(ana - numeric))
            scale = max(float(np.linalg.norm(ana)), float(np.linalg.norm(numeric)), 1e-8)
            worst = max(worst, gap / scale)
    return worst


def clip_global_norm(tensors: Sequence[Tensor], max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for t in tensors:
        if t._grad is not None:
            total += float((t._grad * t._grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for t in tensors:
            if t._grad is not None:
                t._grad *= scale
    return norm
