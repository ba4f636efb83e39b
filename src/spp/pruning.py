"""Scoring, mask construction, and the pruned layer: kept values plus a mask.

A mask is one C-contiguous ``bool`` keep matrix (True where the weight is
kept); on disk it serializes as uint8 with the same bytes.  Two scoring
rules are provided: plain magnitude, and activation-weighted magnitude where
each column's score is scaled by the calibration norm of the matching input
feature (``collect_calibration`` returns those norms as one (1, n) row).
Tie-breaks everywhere are lexicographic by (row, col): the earliest index is
kept, so mask construction is a pure function of the scores.

Unstructured masks are built by selection, not by sorting: ``np.partition``
finds the cut (the n_zero-th lowest score) in linear time, every score below
the cut is zeroed, and among the scores equal to the cut the remaining count
is zeroed starting from the largest flat index.  That is the same mask a full
sort by (score ascending, index descending) would give.

N:M masks are built by counting ranks, not by sorting each group: an entry is
kept when fewer than n_keep entries of its group rank before it, b ranking
before a when s_b > s_a, or when s_b == s_a and b is the earlier column
(-0.0 and +0.0 tie).  That is the stable descending order of the group.  The
count takes one comparison per column pair, M(M-1)/2 per group, each run
across every group at once; a per-group sort costs one NumPy call per group.
At 512x512 the count is the faster up to M = 32, about even at M = 64 and
slower past it.

A ``PrunedLayer`` holds its weight as its kept values, row-major (the kept
order) as store v2 writes them, beside its mask; it is +0.0 everywhere else,
so a pruned layer cannot break its mask.  ``PrunedLayer.weight`` makes the
dense weight, for oracles and for the low-rank merge, which is dense.

Products against a pruned weight (``PrunedLayer.apply`` and the adapters)
run on the mask's slot layout, ``SparseMask.slots``: the kept positions in
padded slot-major (ELL) order, for the weight and for its transpose.  It is
built from the keep matrix on first use and cached on the mask, so every
layer that shares a mask shares one layout; the kept values are gathered
into it on each call, by their rank in the kept order.  The transposed half
is built on its own first use, by a product against the transposed weight
(an input gradient), so a network's first layer never holds it.  The flat
positions of the kept entries (``SparseMask.positions``) are cached for
prune and ``PrunedLayer.weight``; the layout, training and the SPP merge
never read them.  The low-rank merge does: it makes the dense weight, and
its re-prune is an ``apply_mask``.
"""

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PatternError, ShapeError
from .numerics import as_matrix, slot_matmul


@dataclass(frozen=True)
class Unstructured:
    """Keep all but the globally lowest-scoring fraction ``ratio`` of entries."""

    ratio: float

    def __post_init__(self):
        if not (0.0 <= self.ratio < 1.0):
            raise PatternError(f"ratio must lie in [0, 1), got {self.ratio}")

    @classmethod
    def matching(cls, zeros: int, total: int) -> "Unstructured":
        """The pattern that zeroes exactly ``zeros`` of ``total`` entries.

        zeros / total can round so that ``int(ratio * total)`` falls one
        short (15 / 22 gives 14); the ratio then steps up one float at a time.
        """
        ratio = zeros / total
        while int(ratio * total) < zeros:
            ratio = math.nextafter(ratio, 1.0)
        return cls(ratio)

    def label(self) -> str:
        return "unstructured"


@dataclass(frozen=True)
class NofM:
    """Keep the ``n_keep`` highest-scoring entries in each group of ``m_group``.

    Groups are contiguous column runs within one row.
    """

    n_keep: int
    m_group: int

    def __post_init__(self):
        if self.m_group < 2 or not (0 < self.n_keep < self.m_group):
            raise PatternError(
                f"need 0 < n_keep < m_group with m_group >= 2, "
                f"got {self.n_keep}:{self.m_group}"
            )

    @property
    def ratio(self) -> float:
        """The zero fraction of every group."""
        return 1.0 - self.n_keep / self.m_group

    def groups(self, cols: int) -> int:
        """Groups per row of ``cols`` columns; PatternError unless m_group divides cols."""
        if cols % self.m_group != 0:
            raise PatternError(
                f"{self.label()} needs cols divisible by {self.m_group}, got {cols}"
            )
        return cols // self.m_group

    def label(self) -> str:
        return f"{self.n_keep}:{self.m_group}"


def parse_pattern(text: str, ratio: float = 0.5):
    """Parse a pattern flag value: "N:M" or "unstructured" (with ratio)."""
    if text == "unstructured":
        return Unstructured(ratio)
    match = re.fullmatch(r"(\d+):(\d+)", text)
    if match is None:
        raise PatternError(
            f"pattern must be 'N:M' or 'unstructured', got {text!r}"
        )
    return NofM(int(match.group(1)), int(match.group(2)))


@dataclass
class SparseMask:
    """A keep matrix plus the pattern it claims to satisfy.

    ``mask`` is stored as a C-contiguous bool array; any numeric input whose
    entries are exactly 0 or 1 is accepted.  The constructor checks structure
    only (2-D, binary entries, group divisibility).  Whether the mask
    actually complies with its pattern is ``verify_mask``'s job, so damaged
    masks remain constructible and reportable.
    """

    mask: np.ndarray
    pattern: Unstructured | NofM

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got ndim={mask.ndim}")
        if mask.shape[0] < 1 or mask.shape[1] < 1:
            raise ShapeError(f"mask must have positive dimensions, got {mask.shape}")
        if mask.dtype != bool:
            # NaN equals neither, so it is rejected too.
            if not ((mask == 0) | (mask == 1)).all():
                raise ValueError("mask entries must be exactly 0 or 1")
            mask = mask != 0
        self.mask = np.ascontiguousarray(mask)
        if isinstance(self.pattern, NofM):
            self.pattern.groups(self.mask.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @cached_property
    def positions(self) -> np.ndarray:
        """Flat positions i * n + j of the kept entries in kept order, built once.

        For prune and ``PrunedLayer.weight``, and so for the low-rank merge,
        which makes the dense weight and re-prunes it with ``apply_mask``.
        The slot layout, training and the SPP merge do not read them, so a
        mask that is only trained on or SPP-merged never holds them.

        Boolean indexing by the mask gives the same order, but slower (best
        of 30, 2-core x86 VM, NumPy 2.4.6): at 1024x1024, 25% kept, 0.75 ms
        to build these and 0.43 ms per ``take`` against 4.6-5.0 ms for
        ``w[mask]``; at 512x512, half kept, 0.19 + 0.14 ms against
        1.5-1.8 ms.  With boolean indexing in ``apply_mask`` and ``weight``
        recovery-64's ``merge_s`` went 110 -> 147 us (median of 10
        alternating runs, slower in all 10), so the cache stays.
        """
        return np.flatnonzero(self.mask)

    @cached_property
    def slots(self) -> "SlotLayout":
        """The kept entries in slot order, built on first use and then kept.

        Built from the mask, not from the weight, so a kept weight that is
        zero stays kept.  Prune, attach, merge and verify never use it.
        """
        return SlotLayout.of(self)


def _leading(counts: np.ndarray, k: int) -> np.ndarray:
    """(rows, k) bool: True at row i's first ``counts[i]`` entries.

    Runs of True and False repeated into place.  The comparison
    ``arange(k) < counts[:, None]`` is shorter, but NumPy 2.4 gives each
    broadcast operand of a ufunc an 8,192-element buffer: 128 KiB beside
    a mask of rows * k bytes.
    """
    runs = np.stack([counts, k - counts], axis=1).ravel()
    return np.repeat(np.tile([True, False], counts.size), runs).reshape(counts.size, k)


def _slot_major(counts: np.ndarray, vals: np.ndarray, pad) -> np.ndarray:
    """``vals``, one per kept entry in kept order, in padded slot-major order.

    ``counts`` holds each row's kept count.  Returns (K, rows), K the largest
    count: entry [t, i] is the value of the t-th kept entry of row i, and
    ``pad`` past a row's last.  The kept order is (row, slot) order, so the
    values fill the transposed view's leading ``counts[i]`` entries of each
    row, one boolean assignment that builds no index array.
    """
    out = np.full((int(counts.max()), counts.size), pad, dtype=vals.dtype)
    out.T[_leading(counts, out.shape[0])] = vals
    return out


@dataclass(frozen=True, eq=False)
class SlotLayout:
    """Padded slot-major (ELL) layout of the kept entries of an (m, n) mask.

    K is the largest number of kept entries in a row and Kt in a column.
    The rank of a kept entry is its index in the kept order (row-major).

    keep:   the (m, n) keep matrix it is built from, the mask's own array.
    idx:    (K, m), idx[t, i] is the t-th kept column of row i, ascending.
            Slots past a row's last kept entry read column 0 (padded slots).
            Slot t of row i holds rank start_i + t, start_i being the rank of
            row i's first kept entry, so the row slots need no rank array.
    pads:   flat indices t * m + i of the padded slots.

    The transposed half, which only products against the transposed weight
    (input gradients) read, is built on first use:

    idx_t:  (Kt, n), the same as idx for the transposed weight: the kept rows
            of each column, ascending, and row 0 in padded slots.
    rank_t: (Kt, n), the rank of the entry at each transposed slot, and the
            kept count, one past the last rank, in padded slots.
    """

    keep: np.ndarray
    idx: np.ndarray
    pads: np.ndarray

    @classmethod
    def of(cls, mask: SparseMask) -> "SlotLayout":
        keep = mask.mask
        counts = np.count_nonzero(keep, axis=1)
        cols = np.flatnonzero(keep)
        cols %= keep.shape[1]  # i * n + j gives j
        idx = _slot_major(counts, cols, 0)
        del cols
        pads = np.flatnonzero(~_leading(counts, idx.shape[0]).T)
        return cls(keep=keep, idx=idx, pads=pads)

    @cached_property
    def idx_t(self) -> np.ndarray:
        rows = np.flatnonzero(self.keep.T)
        rows %= self.keep.shape[0]  # j * m + i gives i
        return _slot_major(np.count_nonzero(self.keep, axis=0), rows, 0)

    @cached_property
    def rank_t(self) -> np.ndarray:
        n = self.keep.shape[1]
        cols = np.flatnonzero(self.keep)
        cols %= n
        # A stable sort by column lists the ranks column by column, rows
        # ascending: the transposed kept order.  On keys of at most 16 bits
        # NumPy sorts by radix, in O(nnz) time and memory.
        order = np.argsort(cols.astype(np.min_scalar_type(n - 1)), kind="stable")
        del cols
        return _slot_major(np.count_nonzero(self.keep, axis=0), order, order.size)

    def _filled(self) -> np.ndarray:
        """(K, m) bool: True at the slots that hold a kept entry."""
        filled = np.ones(self.idx.shape, dtype=bool)
        filled.ravel()[self.pads] = False
        return filled

    def values(self, kept: np.ndarray) -> np.ndarray:
        """The kept values ``kept`` at every slot, (K, m), 0.0 in padded slots.

        The filled slots in (i, t) order take the kept values in kept order.
        """
        k, m = self.idx.shape
        if not self.pads.size:  # every row keeps K entries: 4x faster than the fill at 2:4
            return kept.reshape(m, k).T.copy()
        out = np.zeros((k, m))
        out.T[self._filled().T] = kept
        return out

    def ranked(self, vals: np.ndarray) -> np.ndarray:
        """``vals`` (K, m), one per slot, in kept order: the inverse of ``values``.

        Padded slots are dropped.  A view, not a copy, when no slot is
        padded and ``vals`` is the transpose of a C-contiguous (m, K) array.
        """
        if not self.pads.size:
            return vals.T.ravel()
        return vals.T[self._filled().T]

    def values_t(self, kept: np.ndarray) -> np.ndarray:
        """The kept values ``kept`` at every transposed slot, (Kt, n), 0.0 in padded slots."""
        out = kept.take(self.rank_t, mode="clip")
        out[self.rank_t == kept.size] = 0.0
        return out


@dataclass
class PrunedLayer:
    """A frozen pruned weight: its kept values (1-D, finite, kept order) and its mask.

    The constructor also takes the dense (m, n) weight, which must be +-0.0
    off the mask: a nonzero there is a ValueError naming the first such
    (row, col), and a -0.0 becomes +0.0.
    """

    values: np.ndarray
    mask: SparseMask

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 2:  # a dense weight, which must hold nothing off its mask
            layer = apply_mask(values, self.mask)
            if np.count_nonzero(layer.values) != np.count_nonzero(values):
                row, col = off_mask(values, self.mask)[0]
                raise ValueError(f"weight is nonzero off its mask at ({row}, {col})")
            self.values = layer.values
            return
        count = np.count_nonzero(self.mask.mask)
        if values.shape != (count,):
            raise ShapeError(f"kept values of shape {values.shape} for {count} kept entries")
        if not np.isfinite(values).all():
            raise ValueError("weight contains non-finite entries")
        self.values = np.ascontiguousarray(values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    @property
    def weight(self) -> np.ndarray:
        """The dense (m, n) weight, +0.0 off the mask; a fresh array on every read."""
        out = np.zeros(self.shape)
        out.ravel()[self.mask.positions] = self.values
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``x @ W.T`` over the kept entries; bit-identical to the dense product."""
        slots = self.mask.slots
        return slot_matmul(x, slots.idx, slots.values(self.values))

    def apply_transpose(self, g: np.ndarray) -> np.ndarray:
        """``g @ W`` over the kept entries; bit-identical to the dense product."""
        slots = self.mask.slots
        return slot_matmul(g, slots.idx_t, slots.values_t(self.values))


def collect_calibration(xs: np.ndarray) -> np.ndarray:
    """Column-wise L2 norms over a batch of layer inputs, as a (1, n) row.

    col_norms[j] = sqrt(sum_i xs[i][j]^2), accumulated in ascending row order.
    """
    xs = as_matrix(xs, "calibration batch")
    acc = np.zeros((1, xs.shape[1]), dtype=np.float64)
    for i in range(xs.shape[0]):
        acc += xs[i] * xs[i]
    return np.sqrt(acc)


def score_magnitude(w: np.ndarray) -> np.ndarray:
    """Importance = |w|."""
    return np.abs(as_matrix(w, "weight"))


def score_wanda(w: np.ndarray, col_norms: np.ndarray) -> np.ndarray:
    """Importance = |w| scaled per column by the (1, n) calibration norms."""
    w = as_matrix(w, "weight")
    col_norms = as_matrix(col_norms, "col_norms")
    if col_norms.shape[0] != 1:
        raise ShapeError(f"col_norms must be a (1, n) row, got {col_norms.shape}")
    if (col_norms < 0).any():
        raise ValueError("col_norms must be non-negative")
    if col_norms.shape[1] != w.shape[1]:
        raise ShapeError(
            f"calibration covers {col_norms.shape[1]} input features, "
            f"weight has {w.shape[1]}"
        )
    return np.abs(w) * col_norms


def build_mask(
    scores: np.ndarray,
    pattern: Unstructured | NofM,
    row_wise: bool = False,
) -> SparseMask:
    """Construct the keep/drop mask implied by ``scores`` under ``pattern``.

    N:M keeps the top n_keep per contiguous group of m_group within each row.
    Unstructured zeroes the floor(ratio * count) lowest-scoring entries over
    the whole matrix, or per row when ``row_wise`` is set; N:M raises
    ValueError if it is set.  Score ties keep the entry with the smaller
    (row, col) index.
    """
    scores = as_matrix(scores, "scores")
    rows, cols = scores.shape
    if isinstance(pattern, NofM):
        if row_wise:
            raise ValueError("row_wise applies to unstructured pruning only")
        groups = scores.reshape(rows * pattern.groups(cols), pattern.m_group)
        return SparseMask(_keep_top(groups, pattern.n_keep).reshape(rows, cols), pattern)

    ranked = scores if row_wise else scores.reshape(1, rows * cols)
    keep = _zero_lowest(ranked, int(pattern.ratio * ranked.shape[1]))
    return SparseMask(keep.reshape(rows, cols), pattern)


def _keep_top(groups: np.ndarray, n_keep: int) -> np.ndarray:
    """Keep-mask of the ``n_keep`` top scores of each row of ``groups`` (g, m).

    ``before[k]`` counts the entries of its group that rank before entry k:
    the higher scores, and the equal ones in earlier columns.  Each column
    pair a < b is one comparison across every group at once, on a copy with
    the groups' columns as rows.
    """
    m = groups.shape[1]
    by_col = groups.T.copy()
    before = np.empty(by_col.shape, dtype=np.min_scalar_type(m))
    # Entry b starts with the b earlier columns ranked before it; each one
    # that b beats then moves from b's count to its own.
    before[:] = np.arange(m, dtype=before.dtype)[:, None]
    beats = np.empty(by_col.shape[1], dtype=bool)
    # A bool's bytes are 0 and 1, so its uint8 view adds without a cast.
    step = beats.view(np.uint8)
    for b in range(1, m):
        for a in range(b):
            np.greater(by_col[b], by_col[a], out=beats)
            before[a] += step
            before[b] -= step
    keep = np.empty(groups.shape, dtype=bool)
    np.less(before.T, n_keep, out=keep)
    return keep


def _zero_lowest(scores: np.ndarray, n_zero: int) -> np.ndarray:
    """Keep-mask zeroing the ``n_zero`` lowest scores of each row.

    Among scores tied at the cut, the larger column index is zeroed first, so
    the earliest index survives.
    """
    if n_zero == 0:
        return np.ones(scores.shape, dtype=bool)
    rows, cols = scores.shape
    cut = np.partition(scores, n_zero - 1, axis=1)[:, n_zero - 1 : n_zero]
    keep = scores >= cut
    need = n_zero - (cols - np.count_nonzero(keep, axis=1))
    # Tied entries in row-major order; rank each from the right end of its row.
    tied = np.flatnonzero(scores == cut)
    tie_rows = tied // cols
    row_ends = np.cumsum(np.bincount(tie_rows, minlength=rows))
    from_right = row_ends[tie_rows] - np.arange(tied.size)
    keep.ravel()[tied[from_right <= need[tie_rows]]] = False
    return keep


def _dense(w: np.ndarray, mask: SparseMask) -> np.ndarray:
    """``w`` as a float64 array of ``mask``'s shape."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != mask.shape:
        raise ShapeError(f"weight {w.shape} and mask {mask.shape} differ")
    return w


def apply_mask(w: np.ndarray, mask: SparseMask) -> PrunedLayer:
    """Zero the masked-out entries of ``w``: the layer of its kept entries (finite)."""
    return PrunedLayer(_dense(w, mask).take(mask.positions), mask)


def off_mask(w: np.ndarray, mask: SparseMask) -> list[tuple[int, int]]:
    """The (row, col), row-major, of each nonzero of the finite dense ``w`` off ``mask``."""
    bad = ~mask.mask & (_dense(as_matrix(w, "weight"), mask) != 0.0)
    # argwhere scans the whole matrix even when nothing is set; any() is cheap.
    return [(int(r), int(c)) for r, c in np.argwhere(bad)] if bad.any() else []


@dataclass
class MaskReport:
    """Outcome of checking a layer against its declared mask and pattern."""

    ok: bool
    pattern_ok: bool
    violations: list[tuple[int, int]] = field(default_factory=list)
    nnz: int = 0
    zeros: int = 0
    total: int = 0
    ratio: float = 0.0
    label: str = ""


def verify_mask(layer: PrunedLayer) -> MaskReport:
    """Check a layer's mask against its pattern and count its nonzeros; it has no violations."""
    return mask_report(layer.mask, int(np.count_nonzero(layer.values)))


def mask_report(mask: SparseMask, nnz: int, violations=()) -> MaskReport:
    """The report on a weight with ``nnz`` nonzeros and ``violations`` under ``mask``.

    Checks the mask against its declared pattern; ``violations`` are the
    positions, as ``off_mask`` gives them, where the weight breaks its mask.
    """
    keep = mask.mask
    pattern = mask.pattern
    total = keep.size
    zeros = total - int(np.count_nonzero(keep))

    rows, cols = keep.shape
    if isinstance(pattern, NofM):
        groups = keep.reshape(rows, pattern.groups(cols), pattern.m_group)
        # Adding the m column slices is several times faster than a reduce
        # over a short last axis.  The counts must be integers: bool + bool
        # is a logical or.
        group_sums = np.zeros(groups.shape[:2], dtype=np.intp)
        for k in range(pattern.m_group):
            group_sums += groups[:, :, k]
        pattern_ok = bool((group_sums == pattern.n_keep).all())
    else:
        expected = {int(pattern.ratio * total), rows * int(pattern.ratio * cols)}
        pattern_ok = zeros in expected

    return MaskReport(
        ok=(not violations) and pattern_ok,
        pattern_ok=pattern_ok,
        violations=list(violations),
        nnz=nnz,
        zeros=zeros,
        total=total,
        ratio=zeros / total,
        label=pattern.label(),
    )
