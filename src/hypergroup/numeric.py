"""Dense float64 numeric kernel with per-pass reverse-mode gradients.

All model math is expressed through the operations in this module.  An
operation is a forward value, computed eagerly on numpy arrays, plus one
gradient rule per input: rule k maps the output's gradient to input k's
share.  With a :class:`Tape`, the operation records one backward step
that adds the shares, in input order, into the inputs that need
gradients (a row gather instead scatter-adds into its input's buffer).
Replaying the steps in reverse order of recording is a valid
reverse topological traversal because the forward pass builds the graph
sequentially.

Model math runs on rows: a 2-D array whose rows are independent
vectors, one per entity of a mini-batch.  ``linear`` and
``l2_normalize`` take rows only and raise :class:`DimensionError` on
any other shape.

Exact-order contract: a fast kernel may replace a plain numpy expression
only if it performs the same float operations in the same order, so
results match bit for bit and a config plus seed keeps reproducing the
same checkpoints.  :func:`scatter_add`, which accumulates row-gather
gradients and the sums of the gather-fused reductions, adds each target
row's entries one at a time in index order, exactly as ``np.add.at``
does; a sort-then-sum or ``np.add.reduceat`` would reassociate the sums
and is not allowed.  With a ``take`` index it reads entry k's row as
``vals[take[k]]``, so an entry list that repeats rows is never built.
Strictly ascending indices take one fancy-indexed add, and the rest pay
one stable argsort, unless ``np.add.at`` alone is cheaper.  A heavy row,
one with at least ``_TAIL_MIN_RUN`` entries past the levels that
``SCATTER_MIN_ROWS`` rows share, is summed by one row reduce over its
entries, also when no level forms: numpy adds a block's rows one at a
time.  Rows of one element take an accumulate instead, since numpy sums
a single column pairwise.  :func:`sum_squares` walks the top of numpy's
own pairwise-summation tree and leaves each cache-sized leaf to numpy.

Gather-fused reductions.  :func:`gather_segment_mean` and
:func:`gather_mean_rows` average rows of ``x[idx]`` without building
``x[idx]``: the forward pass reads rows through ``idx``, and the backward
pass scatter-adds ``0.0 + g/count`` through ``idx`` with ``take``.  These
are the bits of :func:`gather_rows` followed by a segment mean (by
``np.add.at``) or by numpy's mean over runs, so neither the gathered
block nor its gradient cell exists.

Gradients exist on demand.  A trainable leaf gets a zero gradient when a
recorded operation reads it, so the optimizer steps every touched
parameter, zero gradient included.  The leaf holds it as row sums while
only row gathers feed it, after at most one :func:`sum_squares` (the l2
term, whose backward step runs first): that step keeps its factor
``c = 2*g`` in place of the table-sized ``c*x``, a row new to the sums is
seeded with ``0.0 + c*x[row]`` (zeros without l2), and each gather
scatter-adds into the sums in the order above.  A gather's rows join the
held ones by one :func:`unique_ids` union, all of whose rows are seeded
and then the held ones given their sums back.  Those are the bits the
dense buffer gets.  Any other contribution, and any read of
``Tensor.grad``, first turns the sums into that dense buffer, and the
leaf stays dense from then on; ``zero_grad`` drops the rows.

The graph keeps only what gradient rules read.  A recorded output holds
its gradient in a small cell, and a backward step references that cell,
the cells and trainable leaves it feeds, and the arrays its rules read
(``linear``'s inputs, ``l2_normalize``'s output, masks, indices), never a
tensor; so an intermediate is freed as soon as the forward code drops
it.  A cell's first contribution ``s`` becomes ``0.0 + s``, the bits of
adding ``s`` into zeros: in place when a rule returned ``s`` as a new
C-contiguous array of the cell's shape, else in a new array (when ``s``
is the step's own output gradient, a view of it, or a broadcast).  A
backward step whose output received no gradient is skipped.  Each step
leaves the tape as it runs and then frees its output's gradient, so
after backward the tape is empty, only trainable leaves hold gradients,
and a recorded output's ``grad`` reads None, as a non-leaf tensor's does
in PyTorch.  Given a ``rebuild`` callable, ``linear`` keeps that
instead of its input and calls it in the weight's gradient rule.

Heap policy.  Every batch builds and frees tens of MB of gathered rows,
gradient and scatter buffers (a sparse-train group batch peaks at about
21 MiB of them in backward).  Under glibc's adaptive defaults the free
top of the heap goes back to the OS after a batch, and the next batch
page-faults every page in again.  So on glibc, importing this module
fixes the mmap threshold at 32 MiB (glibc's 64-bit ceiling; fixing it
also ends the adaptive threshold) and the trim threshold at 256 MiB:
freed arrays of up to 32 MiB stay in the heap and are reused, and larger
ones are still mapped and unmapped per call.  The cost is up to 256 MiB
of freed heap kept by the process.  Where an array lives cannot change
a float, so results are the same bits either way.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import os
import struct
from contextlib import ExitStack, contextmanager
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CheckpointError,
    ContractViolation,
    DimensionError,
)

NORM_EPS = 1e-12

# mallopt(3) parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_warm() -> None:
    """Apply the module's heap policy on glibc; elsewhere do nothing."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc without the name
        return
    if not version or not version.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread, whatever
    ``OPENBLAS_NUM_THREADS`` says, or warn that it cannot: a large product
    sums in another order on two threads than on one."""
    try:
        set_threads = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        logging.getLogger(__name__).warning(
            "numpy exports no scipy_openblas_set_num_threads64_; BLAS bits may vary with the thread count")
        return
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = None
    set_threads(1)


_keep_heap_warm()
_pin_blas_threads()


class Tensor:
    """A dense float64 array plus an optional gradient.

    ``trainable`` marks optimizer-visible leaves.  Outputs of recorded
    operations receive gradients regardless; leaves only when trainable,
    so frozen inputs never accumulate gradient work.

    ``grad`` reads and assigns the gradient as a dense array.  A trainable
    leaf may hold it as row sums instead (see the module docstring); a
    read turns those into the dense array first.  A recorded output's
    gradient lives in the cell the tape shares, where ``grad`` and
    :meth:`zero_grad` act on it; it reads None once backward has
    propagated it.

    :meth:`writing` is the package's one path for writing ``values`` in
    place, and ``version`` counts its writes.  A reader that caches a
    result computed from ``values`` (a tower's item projection) marks the
    array read-only and keeps the array and its version: a write through
    :meth:`writing` bumps the version, a rebound ``values`` is another
    object, and any other in-place write raises numpy's read-only error.
    """

    __slots__ = ("values", "_grad", "_row_grad", "_cell", "name", "trainable", "version")

    def __init__(self, values, name: str | None = None, trainable: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self._row_grad: _RowGrad | None = None  # when set, it is the gradient
        self._cell: _Cell | None = None  # a recorded output's gradient
        self.name = name
        self.trainable = trainable
        self.version = 0

    @contextmanager
    def writing(self):
        """Yield ``values`` writeable for the block, then restore its
        writeable flag and bump ``version``, also when the block raises."""
        values = self.values
        writeable = values.flags.writeable
        values.flags.writeable = True
        try:
            yield values
        finally:
            self.version += 1
            values.flags.writeable = writeable

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray | None:
        if self._cell is not None:
            return self._cell.grad
        if self._row_grad is not None:
            self._densify()
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        if self._cell is not None:
            self._cell.grad = value
        else:
            self._row_grad = None
            self._grad = value

    def zero_grad(self) -> None:
        """Zero the gradient in place, if there is one."""
        if self._row_grad is not None:
            self._row_grad = _RowGrad()
        elif self.grad is not None:
            self.grad.fill(0.0)

    def _live_row_grad(self) -> _RowGrad:
        """The row gradient, whose l2 share is read from ``values`` when
        used, so a write since the backward pass leaves no gradient."""
        rg = self._row_grad
        if rg.c is not None and rg.version != self.version:
            raise ContractViolation(f"the l2 gradient of {self.name or 'a tensor'} was taken "
                                    "before its values were written; it no longer exists")
        return rg

    def _densify(self) -> None:
        """Replace the row gradient by the dense array it stands for."""
        rg = self._live_row_grad()
        self._row_grad = None
        self._grad = rg.seed(self.values)
        if rg.rows.size:
            self._grad[rg.rows] = rg.sums

    def _grad_for_step(self, max_width: int):
        """The gradient an optimizer step reads, or None: the row gradient
        itself when ``values`` is C-contiguous with rows of 1 to
        ``max_width`` elements, else the dense array."""
        v = self.values
        if self._row_grad is not None and v.flags.c_contiguous and v.ndim and 0 < v.size <= max_width * len(v):
            return self._live_row_grad()
        return self.grad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "tensor"
        return f"Tensor({label}, shape={self.values.shape})"


def unique_ids(*arrays) -> np.ndarray:
    """Sorted distinct values of the given id arrays together.

    Same result as ``np.unique`` of their concatenation, by one sort and
    a neighbour comparison.  On int64 ids, ``np.unique`` without a
    ``return_*`` flag hashes instead; with numpy 2.4.6 on one AVX-512 Xeon
    core it took 0.066 against 0.009 ms at 1,000 random ids, 2.26 against
    0.37 ms at 30,000 and 99.6 against 3.5 ms at 300,000.
    """
    ids = np.concatenate([np.ravel(a) for a in arrays])
    ids.sort()  # in place: the concatenation is already a copy
    keep = np.empty(ids.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


_NO_ROWS = np.zeros(0, dtype=np.int64)


class _RowGrad:
    """A trainable leaf's gradient as distinct-row sums.

    It stands for the dense array ``0.0 + c*x`` (zeros while ``c`` is
    None; ``c*x`` is the share of :func:`sum_squares`) with the sorted,
    distinct ``rows`` replaced by ``sums``.  A row enters ``sums`` seeded
    with its dense value, and :func:`gather_rows` scatter-adds into it, so
    each row gets the bits of adding the same terms into the dense array.
    """

    __slots__ = ("c", "sumsq", "version", "rows", "sums")

    def __init__(self):
        self.c = None  # 2*g of the l2 term, once its backward step ran
        self.sumsq = None  # the l2 term's forward value, sum(x*x)
        self.version = None  # the tensor's version when ``c`` was set
        self.rows = _NO_ROWS
        self.sums = None

    def seed(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The dense gradient of rows ``x`` before any gather's share,
        ``0.0 + c*x`` or zeros, in ``out`` or a new array."""
        if out is None:
            out = np.empty_like(x)
        if self.c is None:
            out.fill(0.0)
        else:
            np.multiply(x, self.c, out=out)
            out += 0.0
        return out

    def add(self, x: np.ndarray, idx: np.ndarray, g: np.ndarray, take=None) -> None:
        """Scatter-add ``g`` (or ``g[take]``) at rows ``idx`` of ``x``
        (range-checked), as :func:`scatter_add` does."""
        idx = idx.reshape(-1)
        if not idx.size:
            return
        if idx.min() < 0:
            idx = np.where(idx < 0, idx + len(x), idx)
        rows = unique_ids(self.rows, idx)
        if rows.size > self.rows.size:
            sums = self.seed(x[rows])
            if self.rows.size:
                sums[np.searchsorted(rows, self.rows)] = self.sums
            self.rows, self.sums = rows, sums
        scatter_add(self.sums, np.searchsorted(self.rows, idx), g, take)

    def block(self, x: np.ndarray, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        """The gradient of rows ``r0:r1`` of C-contiguous ``x``, flat in the
        front of ``out``."""
        part = out[:(r1 - r0) * (x.size // len(x))]
        dense = self.seed(x[r0:r1], part.reshape((r1 - r0,) + x.shape[1:]))
        lo, hi = np.searchsorted(self.rows, (r0, r1))
        if hi > lo:
            dense[self.rows[lo:hi] - r0] = self.sums[lo:hi]
        return part

    def finite(self, x: np.ndarray) -> bool:
        """Whether every entry of the dense gradient is finite."""
        if self.sums is not None and not np.all(np.isfinite(self.sums)):
            return False
        c, sumsq = self.c, self.sumsq
        if c is None:
            return True
        # |c*x_i| <= |c|*sqrt(sum(x*x)); the factor 2 covers the sum's and
        # the root's rounding, and a finite sum has no NaN or Inf summand
        if math.isfinite(sumsq) and math.isfinite(2.0 * abs(c) * math.sqrt(sumsq)):
            return True
        step = max(1, _SQUARES_LEAF * len(x) // x.size)
        return all(np.all(np.isfinite(self.seed(x[r:r + step]))) for r in range(0, len(x), step))


class _Cell:
    """The gradient of a recorded output, held apart from its values so
    that the tape keeps the gradient slot and not the array."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self.shape = shape


class Tape:
    """Record of one forward pass, replayable exactly once for gradients.

    A step holds its output's gradient cell, never the output tensor
    (see the module docstring), and :meth:`backward` frees each
    intermediate gradient once propagated.

    Also tracks which trainable tensors participated in the pass; the
    training loop uses this both for regularization scope and to restrict
    optimizer updates to touched parameters.
    """

    def __init__(self):
        self._steps: list[tuple[_Cell, object]] = []
        self._touched: dict[int, Tensor] = {}
        self._consumed = False

    def record(self, cell: _Cell, step) -> None:
        """Queue ``step``, which propagates the gradient in ``cell`` to the
        inputs of the output that owns it."""
        self._steps.append((cell, step))

    def touch(self, tensor: Tensor) -> None:
        if tensor.trainable:
            self._touched.setdefault(id(tensor), tensor)

    def touched_parameters(self) -> list[Tensor]:
        """Trainable tensors that participated, in first-touch order."""
        return list(self._touched.values())

    def backward(self, loss: Tensor) -> None:
        """Populate the gradients of the trainable leaves from ``loss``.

        Each step leaves the tape as it runs, and the gradient it
        propagated is freed, so afterwards the tape is empty and every
        recorded output's ``grad`` reads None.
        """
        if self._consumed:
            raise ContractViolation("backward() may run only once per forward pass")
        self._consumed = True
        if loss.values.ndim != 0:
            raise ContractViolation("backward() expects a scalar loss")
        loss.grad = np.ones_like(loss.values)
        steps = self._steps
        while steps:
            cell, step = steps.pop()
            if cell.grad is not None:  # else no gradient reached the output
                step()
                cell.grad = None


def _record(tape: Tape | None, values, inputs: Sequence[Tensor], backward) -> Tensor:
    """A tensor of ``values``.  With a tape, and an input that needs a
    gradient, it gets a cell, and the tape records ``backward(g, sinks)``
    with ``g`` the cell's gradient and one sink per input: the input when
    trainable, its cell when recorded, else None."""
    out = Tensor(values)
    if tape is None:
        return out
    sinks = [t if t.trainable else t._cell for t in inputs]
    for t in inputs:
        tape.touch(t)
        if t.trainable and t._grad is None and t._row_grad is None:
            t._row_grad = _RowGrad()
    if all(s is None for s in sinks):
        return out
    cell = out._cell = _Cell(out.values.shape)
    tape.record(cell, lambda: backward(cell.grad, sinks))
    return out


def _accumulate(sink, share, g) -> None:
    """``sink.grad += share`` for a tensor or cell.  The first contribution
    becomes ``0.0 + share``, the same bits as adding ``share`` into zeros
    (``-0.0`` becomes ``+0.0``, a broadcast ``share`` fills the shape): in
    place when ``share`` is a new C-contiguous array of ``sink``'s shape
    that owns its data and is not the output gradient ``g``, else in a new
    array.  Reading a leaf's ``grad`` makes a row gradient dense first.
    """
    grad = sink.grad
    if grad is not None:
        grad += share
    elif (type(share) is np.ndarray and share is not g and share.base is None and share.shape == sink.shape
          and share.dtype == np.float64 and share.flags.c_contiguous):
        sink.grad = np.add(0.0, share, out=share)
    else:
        sink.grad = np.add(0.0, share, out=np.empty(sink.shape))


def _op(tape: Tape | None, values, inputs: Sequence[Tensor], rules) -> Tensor:
    """The output of an operation: forward ``values``, and a backward step
    that adds ``rules[k](g)`` into each input k needing a gradient."""

    def backward(g, sinks):
        for sink, rule in zip(sinks, rules):
            if sink is not None:
                _accumulate(sink, rule(g), g)

    return _record(tape, values, inputs, backward)


# ---------------------------------------------------------------------------
# linear algebra


def linear(w: Tensor, b: Tensor | None, x: Tensor, tape: Tape | None = None, rebuild=None) -> Tensor:
    """Affine map ``W x + b`` applied to each row x of a 2-D input.

    ``b`` may be None for a pure linear layer.  ``rebuild``, when given,
    returns a tensor with ``x``'s values again: the weight's gradient rule
    calls it in backward, so the tape does not hold ``x``'s values.
    """
    wv, xv = w.values, x.values
    if wv.ndim != 2:
        raise DimensionError(f"weight must be 2-D, got shape {wv.shape}")
    out_dim, in_dim = wv.shape
    if xv.ndim != 2 or xv.shape[1] != in_dim:
        raise DimensionError(f"linear: weight {wv.shape} does not accept input {xv.shape}")
    yv = xv @ wv.T
    w_rule = (lambda g: g.T @ xv) if rebuild is None else (lambda g: g.T @ rebuild().values)
    x_rule = lambda g: g @ wv
    if b is None:
        return _op(tape, yv, (w, x), (w_rule, x_rule))
    if b.values.shape != (out_dim,):
        raise DimensionError(f"bias shape {b.values.shape} does not match output dim {out_dim}")
    return _op(tape, yv + b.values, (w, b, x), (w_rule, lambda g: g.sum(axis=0), x_rule))


def matvec(x: Tensor, w: Tensor, tape: Tape | None = None) -> Tensor:
    """Row-wise dot products: ``[B, n] @ [n] -> [B]`` (or ``[n] @ [n] -> scalar``)."""
    xv, wv = x.values, w.values
    if xv.shape[-1] != wv.shape[0]:
        raise DimensionError(f"matvec: {xv.shape} incompatible with {wv.shape}")
    if xv.ndim == 2:
        rules = (lambda g: np.multiply.outer(g, wv)), (lambda g: g @ xv)
    else:
        rules = (lambda g: g * wv), (lambda g: g * xv)
    return _op(tape, xv @ wv, (x, w), rules)


# ---------------------------------------------------------------------------
# scatter-add

# Below this many entries ``np.add.at`` is faster than the sort that
# ``scatter_add`` pays for, and an occurrence level with fewer rows costs
# more as its own fancy-indexed add than inside the ``np.add.at`` tail.
SCATTER_MIN_ROWS = 128
# A run with this many entries past the last level sums them by one
# accumulate; a shorter one costs less inside the tail's ``np.add.at``.
_TAIL_MIN_RUN = 32


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    # numpy sorts keys of 16 bits or less stably by radix sort
    return np.argsort(keys.astype(np.uint16) if bound <= 1 << 16 else keys, kind="stable")


def scatter_add(target: np.ndarray, idx, vals, take=None) -> None:
    """``target[idx[k]] += vals[k]`` for every k, bitwise equal to ``np.add.at``;
    with ``take``, entry k adds ``vals[take[k]]``, never building ``vals[take]``
    whole.

    ``np.add.at`` adds the entries of one row one at a time in index
    order, ``((t + v1) + v2) + ...``; float addition is not associative,
    so a sort-then-sum (or ``np.add.reduceat``) gives other bits.  This
    keeps the order.  Strictly ascending indices add once per row, by one
    ``target[idx] += vals``.  Otherwise one stable argsort groups the
    entries into one run per row, in index order within a run.  With the
    runs ordered longest first, level j (occurrence j of every row with more
    than j entries) is a prefix of the runs, and it is added by one
    ``buf[:count] += vals`` after level j - 1, into a compact buffer that
    is gathered from ``target`` once and written back once.  Occurrences
    past the last level of at least ``SCATTER_MIN_ROWS`` rows (every
    occurrence, when no level is that wide) form the tail of a few heavy
    rows.  A row with at least ``_TAIL_MIN_RUN`` of them sums its buffer
    row and then those entries, in index order: by one ``np.add.reduce``
    over axis 0 from ``initial=-0.0`` (so that a column of -0.0 sums to
    -0.0), which numpy runs one row at a time for rows of 2 or more
    elements, or by one ``np.add.accumulate`` for rows of one element,
    which ``reduce`` would sum pairwise.  The other rows' tail entries go
    through one ``np.add.at``, which adds each row's entries in index
    order too.  With no level and no row that heavy, one ``np.add.at``
    takes every entry, unsorted.
    ``idx`` may have any shape; ``vals`` holds one row per index, or with
    ``take`` (as many entries as ``idx``) the rows it names.  Negative
    indices wrap as in numpy; out-of-range ones raise IndexError.
    """
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    n = idx.size
    if take is None:
        vals = np.asarray(vals).reshape((n,) + target.shape[1:])
    else:
        vals = np.asarray(vals).reshape((-1,) + target.shape[1:])
        take = np.asarray(take, dtype=np.int64).reshape(-1)

    def rows(at=slice(None)):
        """The rows of entries ``at``; a new array when ``at`` is an index array."""
        return vals[at] if take is None else vals[take[at]]

    size = target.shape[0]
    if n < SCATTER_MIN_ROWS:
        np.add.at(target, idx, rows())
        return
    lo, hi = int(idx.min()), int(idx.max())
    if lo < -size or hi >= size:
        bad = lo if lo < -size else hi
        raise IndexError(f"index {bad} is out of bounds for axis 0 with size {size}")
    if lo < 0:
        idx = np.where(idx < 0, idx + size, idx)
    if np.diff(idx).min() > 0:
        target[idx] += rows()
        return
    # each run: its row, its entry count and where it starts in sorted order
    counts = np.bincount(idx)
    run_rows = np.flatnonzero(counts)
    lens = counts[run_rows]
    starts = np.cumsum(lens) - lens
    # level j holds every row with more than j entries
    level_sizes = np.cumsum(np.bincount(lens)[:0:-1])[::-1]
    levels = level_sizes[level_sizes >= SCATTER_MIN_ROWS].tolist()
    longest = int(lens.max())
    if not levels and longest < _TAIL_MIN_RUN:
        np.add.at(target, idx, rows())
        return
    order = _stable_argsort(idx, size)
    by_len = _stable_argsort(longest - lens, longest)
    first, dst = starts[by_len], run_rows[by_len]
    # level by level, occurrence j of runs 0 .. level_sizes[j] - 1: the
    # entry's run (its row of the buffer) and its position in sorted order
    ends = np.cumsum(level_sizes)
    run = np.arange(n) - np.repeat(ends - level_sizes, level_sizes)
    at = first[run] + np.repeat(np.arange(level_sizes.size), level_sizes)
    src = order[at]
    buf = target[dst]
    done = 0
    for count in levels:
        buf[:count] += rows(src[done:done + count])
        done += count
    if done < n:
        # the tail: fewer than SCATTER_MIN_ROWS runs have entries left
        rest = lens[by_len] - len(levels)
        heavy = np.flatnonzero(rest >= _TAIL_MIN_RUN)
        tail_run, tail_src = run[done:], src[done:]
        if heavy.size:
            # numpy reduces axis 0 of a C-contiguous block one row at a
            # time when rows have 2 or more elements, but sums a single
            # column pairwise; accumulate is sequential at any width.  The
            # reduce starts from -0.0, which changes no sum, so a column of
            # -0.0 stays -0.0 (from add's identity +0.0 it would not)
            wide = target[0].size > 1
            for r in heavy.tolist():
                at = first[r] + len(levels)
                acc = rows(order[at:at + rest[r]])
                acc[0] = buf[r] + acc[0]
                if wide:
                    buf[r] = np.add.reduce(acc, axis=0, initial=-0.0)
                else:
                    buf[r] = np.add.accumulate(acc, axis=0, out=acc)[-1]
            short = rest[tail_run] < _TAIL_MIN_RUN
            tail_run, tail_src = tail_run[short], tail_src[short]
        np.add.at(buf, tail_run, rows(tail_src))
    target[dst] = buf


# ---------------------------------------------------------------------------
# structural operations


def concat(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Concatenate along the last axis; the backward pass splits the gradient."""
    av, bv = a.values, b.values
    if av.ndim != bv.ndim or (av.ndim == 2 and av.shape[0] != bv.shape[0]):
        raise DimensionError(f"concat: incompatible shapes {av.shape} and {bv.shape}")
    axis = av.ndim - 1
    split = av.shape[axis]
    return _op(tape, np.concatenate([av, bv], axis=axis), (a, b),
               ((lambda g: g[..., :split]), (lambda g: g[..., split:])))


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Element-wise sum of two equally shaped tensors."""
    if a.values.shape != b.values.shape:
        raise DimensionError(f"add: incompatible shapes {a.values.shape} and {b.values.shape}")
    return _op(tape, a.values + b.values, (a, b), (lambda g: g,) * 2)


def scale(x: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    """Multiply by a plain-float constant."""
    c = float(c)
    return _op(tape, c * x.values, (x,), (lambda g: c * g,))


def _scatter_rows(sink, idx: np.ndarray, vals: np.ndarray, take=None) -> None:
    """Scatter-add ``vals`` (or ``vals[take]``) at rows ``idx`` of a sink's
    gradient, or into its row sums while it holds them."""
    if isinstance(sink, Tensor) and sink._row_grad is not None:
        sink._row_grad.add(sink.values, idx, vals, take)
        return
    if sink.grad is None:
        sink.grad = np.zeros(sink.shape)
    scatter_add(sink.grad, idx, vals, take)


def gather_rows(x: Tensor, idx, tape: Tape | None = None) -> Tensor:
    """Select rows ``x[idx]``; the backward pass scatter-adds into ``x``'s
    gradient, or into its row sums while it holds them.

    Repeated indices accumulate, which is what embedding lookups need.
    """
    idx = np.asarray(idx, dtype=np.int64)
    return _record(tape, x.values[idx], (x,), lambda g, sinks: _scatter_rows(sinks[0], idx, g))


def gather_mean_rows(x: Tensor, idx, stride: int, tape: Tape | None = None) -> Tensor:
    """Average each consecutive run of ``stride`` rows of ``x[idx]``:
    ``x[idx].reshape(B, stride, d).mean(axis=1)`` bit for bit, without the
    gathered ``[B*stride, d]`` block.

    numpy's mean adds the ``stride`` slices into zeros in order and divides
    by ``stride``, and so does this, one slice of ``B`` rows at a time; a
    single column numpy sums pairwise, so it is gathered and averaged as
    numpy does.  The backward pass scatter-adds ``0.0 + g/stride``, the
    gradient the gathered block would have received, through ``idx`` into
    ``x``'s gradient, each run's row read once per entry.
    """
    xv = x.values
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    if xv.ndim != 2 or stride < 1 or idx.size % stride != 0:
        raise DimensionError(f"gather_mean_rows: {idx.size} rows of {xv.shape} not divisible by {stride}")
    groups = idx.size // stride
    if xv.shape[1] == 1:
        mean = xv[idx].reshape(groups, stride, 1).mean(axis=1)
    else:
        runs = idx.reshape(groups, stride)
        mean = np.zeros((groups, xv.shape[1]))
        for j in range(stride):
            mean += xv[runs[:, j]]
        mean /= stride

    def backward(g, sinks):
        share = g / stride
        share += 0.0
        _scatter_rows(sinks[0], idx, share, np.arange(idx.size) // stride)

    return _record(tape, mean, (x,), backward)


def sum_rows_stride(x: Tensor, stride: int, tape: Tape | None = None) -> Tensor:
    """Sum each consecutive run of ``stride`` rows: ``[B*S, d] -> [B, d]``."""
    xv = x.values
    if xv.ndim != 2 or xv.shape[0] % stride != 0:
        raise DimensionError(f"sum_rows_stride: shape {xv.shape} not divisible by {stride}")
    groups = xv.shape[0] // stride
    return _op(tape, xv.reshape(groups, stride, xv.shape[1]).sum(axis=1), (x,),
               (lambda g: np.repeat(g, stride, axis=0),))


def gather_segment_mean(x: Tensor, idx, segment_ids, num_segments: int, tape: Tape | None = None) -> Tensor:
    """Mean of the rows ``x[idx]`` per segment id, without the gathered
    block; every segment must receive >= 1 row.

    The forward pass scatter-adds each ``x[idx[k]]`` into segment
    ``segment_ids[k]`` of a zero buffer, in ``scatter_add``'s order, and
    divides by the counts.  The backward pass scatter-adds ``0.0 +
    g/count``, the gradient the gathered block would have received, through
    ``idx`` into ``x``'s gradient.
    """
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    seg = np.asarray(segment_ids, dtype=np.int64)
    xv = x.values
    if xv.ndim != 2 or seg.shape != idx.shape:
        raise DimensionError("gather_segment_mean: ids must map one per gathered row of a 2-D input")
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)[:, None]
    if np.any(counts == 0):
        raise ContractViolation("gather_segment_mean: every segment needs at least one row")
    acc = np.zeros((num_segments, xv.shape[1]))
    scatter_add(acc, seg, xv, idx)
    acc /= counts

    def backward(g, sinks):
        share = g / counts
        share += 0.0
        _scatter_rows(sinks[0], idx, share, seg)

    return _record(tape, acc, (x,), backward)


def mul_rows(x: Tensor, weights, tape: Tape | None = None) -> Tensor:
    """Scale each row of ``x`` by a plain-float weight (weights are constants)."""
    w = np.asarray(weights, dtype=np.float64)
    xv = x.values
    if xv.ndim != 2 or w.shape != (xv.shape[0],):
        raise DimensionError("mul_rows: need one weight per row")
    return _op(tape, xv * w[:, None], (x,), (lambda g: g * w[:, None],))


# ---------------------------------------------------------------------------
# element-wise nonlinearities


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Element-wise max(0, x): ``np.where(x > 0, x, 0.0)``, bit for bit.

    ``fmax`` turns NaN into 0.0 and may keep a -0.0, which adding 0.0
    turns into +0.0.  Unlike ``np.where`` on a mask, it does not branch.
    """
    mask = x.values > 0
    yv = np.fmax(x.values, 0.0)
    yv += 0.0
    return _op(tape, yv, (x,), (lambda g: g * mask,))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # evaluated piecewise to stay finite for large |v|
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def dropout(x: Tensor, ratio: float, rng: np.random.Generator, tape: Tape | None = None) -> Tensor:
    """Inverted dropout: zero with probability ``ratio``, scale survivors.

    Identity for ratio 0; the expected value of the output equals the
    input.  Inference scores through ``model.MlpTower.item_scores``, which
    has no dropout.
    """
    if not 0.0 <= ratio < 1.0:
        raise ContractViolation(f"dropout ratio must be in [0, 1), got {ratio}")
    if ratio == 0.0:
        return x
    keep = rng.random(x.values.shape) >= ratio
    factor = 1.0 / (1.0 - ratio)
    return _op(tape, np.where(keep, x.values * factor, 0.0), (x,),
               (lambda g: np.where(keep, g * factor, 0.0),))


def l2_normalize(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Scale each row of a 2-D input to unit L2 norm; rows with norm <= eps
    pass through unchanged.
    """
    xv = x.values
    if xv.ndim != 2:
        raise DimensionError(f"l2_normalize expects 2-D input, got {xv.shape}")
    norms = np.linalg.norm(xv, axis=1)
    live = norms > NORM_EPS
    safe = np.where(live, norms, 1.0)
    # a dead row's divisor is 1.0, and x / 1.0 is x bit for bit
    yv = xv / safe[:, None]
    dead = not live.all()

    def rule(g):
        inner = np.sum(yv * g, axis=1, keepdims=True)
        share = (g - yv * inner) / safe[:, None]
        # with every row live the mask would select every share
        return np.where(live[:, None], share, g) if dead else share

    return _op(tape, yv, (x,), (rule,))


# ---------------------------------------------------------------------------
# losses and reductions


def bpr_pair_loss(score_pos: Tensor, score_neg: Tensor, tape: Tape | None = None) -> Tensor:
    """Pairwise ranking loss ``-ln sigmoid(pos - neg)``, element-wise.

    Computed as ``log(1 + exp(neg - pos))`` via logaddexp for stability.
    """
    pv, nv = score_pos.values, score_neg.values
    if pv.shape != nv.shape:
        raise DimensionError(f"bpr_pair_loss: incompatible shapes {pv.shape} and {nv.shape}")
    delta = pv - nv
    s = _sigmoid(delta)
    return _op(tape, np.logaddexp(0.0, -delta), (score_pos, score_neg),
               ((lambda g: g * (s - 1.0)), (lambda g: g * (1.0 - s))))


def mean_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Mean over all elements, producing a scalar."""
    inv = 1.0 / x.values.size
    return _op(tape, x.values.mean(), (x,), (lambda g: g * inv,))


# Elements per leaf of sum_squares' blocked sum: a leaf and its squares
# stay in cache.
_SQUARES_LEAF = 1 << 14


def _sum_of_squares(xv: np.ndarray):
    """``np.sum(xv * xv)``, bit for bit, without the squares' temporary.

    numpy sums a contiguous array pairwise: halve ``n``, round the half
    down to a multiple of 8, and recurse, down to blocks of at most 128
    summed by eight running sums.  This runs the top of that tree in
    Python and hands each leaf of at most ``_SQUARES_LEAF`` squares to
    numpy's own sum, which finishes the tree below it.
    """
    if not xv.flags.c_contiguous or xv.size <= _SQUARES_LEAF:
        return np.sum(xv * xv)
    flat = xv.reshape(-1)
    squares = np.empty(_SQUARES_LEAF)

    def tree(lo: int, n: int):
        if n <= _SQUARES_LEAF:
            leaf = flat[lo:lo + n]
            return np.add.reduce(np.multiply(leaf, leaf, out=squares[:n]))
        half = n // 2 - n // 2 % 8
        return tree(lo, half) + tree(lo + half, n - half)

    return tree(0, flat.size)


def sum_squares(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of squared entries, producing a scalar.

    The gradient ``2*g*x`` of a leaf holding row sums is kept as the
    factor ``c = 2*g``; each row takes its share when it enters the sums,
    and the rest when the gradient is read or stepped.
    """
    xv = x.values
    total = _sum_of_squares(xv)

    def backward(g, sinks):
        (t,) = sinks
        c = 2.0 * g
        rg = t._row_grad if isinstance(t, Tensor) else None
        if rg is not None and rg.c is None and not rg.rows.size:
            rg.c, rg.sumsq, rg.version = c, float(total), t.version
        else:
            _accumulate(t, c * xv, g)

    return _record(tape, total, (x,), backward)


# ---------------------------------------------------------------------------
# artifact files


@contextmanager
def atomic_writes(paths, mode: str = "w", **open_kwargs):
    """Open a temporary file beside each of ``paths``, yield their handles,
    and move every temporary onto its path once the block completes.

    Every temporary is written, flushed and fsynced before the first one
    moves, so a failure in the block or in any flush leaves all the old
    files as they were: readers see the old set or the complete new one.
    If anything raises, the temporary files are removed.
    """
    paths = [os.fspath(p) for p in paths]
    tmps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        with ExitStack() as stack:
            handles = [stack.enter_context(open(tmp, mode, **open_kwargs)) for tmp in tmps]
            yield handles
            for fh in handles:
                fh.flush()
                os.fsync(fh.fileno())
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """:func:`atomic_writes` for one file: readers see the old file or the
    complete new one, never a partial write."""
    with atomic_writes([path], mode, **open_kwargs) as (fh,):
        yield fh


CHECKPOINT_DTYPE = "<f8"


def save_checkpoint(path, named_tensors: Iterable[tuple[str, Tensor]], meta: dict | None = None) -> None:
    """Write tensors as a JSON header line followed by raw little-endian floats."""
    items = [(name, t.values) for name, t in named_tensors]
    header = dict(meta or {})
    header["dtype"] = CHECKPOINT_DTYPE
    header["tensors"] = [{"name": name, "shape": list(v.shape)} for name, v in items]
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, v in items:
            fh.write(np.ascontiguousarray(v, dtype=CHECKPOINT_DTYPE).tobytes())


def _tensor_specs(header, path) -> list[tuple[str, tuple[int, ...]]]:
    """``(name, shape)`` of every tensor a checkpoint header lists."""
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header in {path} is not a JSON object")
    if header.get("dtype") != CHECKPOINT_DTYPE:
        raise CheckpointError(f"unsupported checkpoint dtype {header.get('dtype')!r}")
    specs = header.get("tensors")
    if not isinstance(specs, list):
        raise CheckpointError(f"checkpoint header in {path} has no tensor list")
    out = {}
    for spec in specs:
        name = spec.get("name") if isinstance(spec, dict) else None
        shape = spec.get("shape") if isinstance(spec, dict) else None
        if (not isinstance(name, str) or not isinstance(shape, list)
                or not all(type(s) is int and s >= 0 for s in shape)):
            raise CheckpointError(f"malformed tensor entry in checkpoint header of {path}: {spec!r}")
        if name in out:
            raise CheckpointError(f"checkpoint header of {path} lists tensor {name!r} twice")
        out[name] = tuple(shape)
    return list(out.items())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint blob back into ``(meta, {name: array})``.

    Any malformed header or payload, bytes after the last tensor included,
    raises :class:`CheckpointError`.
    """
    try:
        with open(path, "rb") as fh:
            raw_len = fh.read(8)
            if len(raw_len) != 8:
                raise CheckpointError(f"truncated checkpoint header in {path}")
            (hlen,) = struct.unpack("<Q", raw_len)
            remaining = os.fstat(fh.fileno()).st_size - fh.tell()
            if hlen > remaining:
                raise CheckpointError(f"truncated checkpoint header in {path}")
            remaining -= hlen
            try:
                header = json.loads(fh.read(hlen).decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise CheckpointError(f"malformed checkpoint header in {path}: {exc}") from exc
            tensors: dict[str, np.ndarray] = {}
            for name, shape in _tensor_specs(header, path):
                size = 8 * math.prod(shape)
                if size > remaining:
                    raise CheckpointError(f"truncated payload for tensor {name!r}")
                remaining -= size
                buf = fh.read(size)
                tensors[name] = np.frombuffer(buf, dtype=CHECKPOINT_DTYPE).reshape(shape).copy()
            if remaining:
                raise CheckpointError(f"{remaining} bytes after the last tensor in {path}")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    meta = {k: v for k, v in header.items() if k not in ("dtype", "tensors")}
    return meta, tensors
