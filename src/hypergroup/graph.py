"""Social graph and group hypergraph as CSR arrays, plus the layer sampler.

Both graphs use compressed sparse rows (CSR): row ``r`` of a flat array
is the slice ``indptr[r]:indptr[r + 1]``, and every row is sorted by id
(ids are made distinct by one sort, :func:`~hypergroup.numeric.unique_ids`).

Groups act as hyperedges over the user set.  Two hyperedges are adjacent
when they share at least one member.  The hypergraph is three CSR
structures and nothing more: the group -> members incidence, the user ->
groups inverted index, and the hyperedge adjacency, which holds neighbor
ids only.  The adjacency is built from every group pair sharing a
member: by a ``G x G`` pair bitmap when its ``G ** 2`` bytes are no
more than the 8 bytes per expanded pair of int64 pair keys (dense
overlap), and by sorting those keys otherwise; both paths give the same
arrays (see :func:`build_hypergraph`).  Neither the shared-member sets nor their sizes (the overlap
weights) are stored; :func:`shared_members` computes the sets on demand,
for the group pairs a forward pass actually sampled, from the one member
listing of the groups the pass reaches, and a weight is the size of its
set.  The hyperedge encoder asks a group graph three things,
``degrees``, ``neighbor_ids`` and ``members_of``, which
:class:`TransientHypergraphView` answers too.

Both encoders sample a fixed number of neighbors per node, in the style of
GraphSAGE.  :func:`sample_neighbors` draws them for every node of one
layer in one call:

- a pool with at least ``size`` entries is sampled uniformly without
  replacement;
- a smaller, nonempty pool is sampled with replacement;
- an empty pool yields no neighbor (offset -1).

Both graphs answer ``neighbor_ids(nodes, offsets)`` for a sampled layer,
where an empty slot names the node itself; the social encoder uses that
self-neighbor, the hyperedge encoder sends a zero-weight message from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import InteractionDataset
from .errors import ContractViolation
from .numeric import unique_ids

# group pairs expanded at once while building the hyperedge adjacency;
# bounds the build's temporary arrays when some users belong to many groups
PAIR_BLOCK = 1 << 22


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + n)`` over paired starts and lengths."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def _indptr(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """Row offsets of a CSR array whose entries belong to the sorted ``rows``."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=num_rows))))


def _pick(starts: np.ndarray, offsets: np.ndarray, values: np.ndarray, fill) -> np.ndarray:
    """``values[starts[r] + offsets[r, k]]`` per slot; ``fill`` where an offset is -1."""
    out = np.array(np.broadcast_to(fill, offsets.shape), dtype=np.int64)
    hit = offsets >= 0
    out[hit] = values[(starts[:, None] + offsets)[hit]]
    return out


class _Adjacency:
    """Row access to an ``indptr``/``indices`` adjacency."""

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def degrees(self, nodes: np.ndarray) -> np.ndarray:
        return self.indptr[nodes + 1] - self.indptr[nodes]

    def neighbor_ids(self, nodes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Neighbors at the sampled ``offsets``; an empty slot (-1) names the node itself."""
        return _pick(self.indptr[nodes], offsets, self.indices, nodes[:, None])


@dataclass
class SocialGraph(_Adjacency):
    """Symmetric user adjacency: row ``u`` of ``indices`` lists u's friends."""

    indptr: np.ndarray
    indices: np.ndarray


@dataclass
class Hypergraph(_Adjacency):
    """Groups as hyperedges over users, as three CSR structures.

    - ``member_indptr``/``member_ids``: each group's members.
    - ``group_indptr``/``group_ids``: the inverted index, each user's groups.
    - ``indptr``/``indices``: the hyperedge adjacency.  Row ``g`` lists
      the other groups that share a member with ``g``, as int32 ids
      whenever every group id fits.
    """

    member_indptr: np.ndarray
    member_ids: np.ndarray
    group_indptr: np.ndarray
    group_ids: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.member_indptr) - 1

    def overlaps(self, g: int) -> np.ndarray:
        """Shared-member counts, aligned with :meth:`neighbors`."""
        nbrs = self.neighbors(g)
        _, pairs = common_members(self, np.full(nbrs.size, g), nbrs)
        return np.bincount(pairs, minlength=nbrs.size)

    def members_of(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Members of each group as ``(users, rows)``: ``users[k]`` belongs
        to ``groups[rows[k]]``, ascending within a row."""
        sizes = self.member_indptr[groups + 1] - self.member_indptr[groups]
        users = self.member_ids[_ranges(self.member_indptr[groups], sizes)]
        return users, np.repeat(np.arange(len(groups)), sizes)

    def overlap_counts(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Groups holding any of the distinct ``users``, and how many of them each holds."""
        sizes = self.group_indptr[users + 1] - self.group_indptr[users]
        groups = self.group_ids[_ranges(self.group_indptr[users], sizes)]
        return np.unique(groups, return_counts=True)


class TransientHypergraphView:
    """A hypergraph with one extra hyperedge spliced in asymmetrically.

    The transient edge, numbered ``base.num_groups``, sees the existing
    groups that share members with it; existing groups keep their original
    neighborhoods, so their representations match the pristine model.
    The view reads the base arrays without copying them: the transient row
    (its members and its incident groups, with how many members each
    shares) comes from the base's inverted index.
    """

    def __init__(self, base: Hypergraph, members):
        self._base = base
        self.transient_index = base.num_groups
        self._members = unique_ids(np.asarray(members, dtype=np.int64))
        self._pool, self._shared = base.overlap_counts(self._members)

    @property
    def has_known_neighbors(self) -> bool:
        return bool(self._pool.size)

    @property
    def exact_group(self) -> int | None:
        """The lowest-id existing group with exactly these members, if any."""
        size = self._members.size
        sizes = self._base.member_indptr[self._pool + 1] - self._base.member_indptr[self._pool]
        exact = self._pool[(self._shared == size) & (sizes == size)]
        return int(exact[0]) if exact.size else None

    def degrees(self, groups: np.ndarray) -> np.ndarray:
        out = np.full(groups.size, self._pool.size, dtype=np.int64)
        base = groups != self.transient_index
        out[base] = self._base.degrees(groups[base])
        return out

    def neighbor_ids(self, groups: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        ids = np.empty(offsets.shape, dtype=np.int64)
        base = groups != self.transient_index
        ids[base] = self._base.neighbor_ids(groups[base], offsets[base])
        ids[~base] = _pick(np.zeros((~base).sum(), dtype=np.int64), offsets[~base],
                           self._pool, self.transient_index)
        return ids

    def members_of(self, groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        base = np.flatnonzero(groups != self.transient_index)
        here = np.flatnonzero(groups == self.transient_index)
        users, rows = self._base.members_of(groups[base])
        return (np.concatenate([users, np.tile(self._members, here.size)]),
                np.concatenate([base[rows], np.repeat(here, self._members.size)]))


def build_social_graph(ds: InteractionDataset) -> SocialGraph:
    """Symmetric adjacency from the dataset's social edges."""
    n, span = ds.num_users, max(ds.num_users, 1)
    edges = np.fromiter(chain.from_iterable(ds.social_edges), dtype=np.int64,
                        count=2 * len(ds.social_edges)).reshape(-1, 2)
    keys = unique_ids(edges[:, 0] * span + edges[:, 1], edges[:, 1] * span + edges[:, 0])
    return SocialGraph(indptr=_indptr(keys // span, n), indices=keys % span)


def build_hypergraph(ds: InteractionDataset) -> Hypergraph:
    """Incidence, inverted index and hyperedge adjacency.

    Every group pair sharing at least one member gets a symmetric pair of
    adjacency entries.  The pairs come from each user's group list: a user
    in ``d`` groups names ``d * (d - 1) / 2`` pairs (a pair repeats once
    per shared member), so the build is quadratic in the number of groups
    per user.  With ``G`` groups and ``E`` such expanded pairs, the
    adjacency is laid out by one of two paths, which give the same arrays:

    - ``G ** 2 <= 8 * E`` (dense overlap): every pair and its mirror is
      marked in a ``G x G`` boolean bitmap, whose rows read off as the
      ascending ids of each row.  The bitmap never takes more bytes than
      the int64 pair keys it replaces, and nothing is sorted.
    - otherwise: the distinct int64 pair keys are sorted, and both
      directions of each pair are laid out from them.

    ``indices`` is int32 whenever every group id fits; ``indptr`` is int64.
    """
    num_groups, span = ds.num_groups, max(ds.num_users, 1)
    sizes = [len(m) for m in ds.memberships]
    owner = np.repeat(np.arange(num_groups), sizes)
    flat = np.fromiter(chain.from_iterable(ds.memberships), dtype=np.int64, count=owner.size)
    # sorted by (group, user); repeats dropped
    owner, member_ids = np.divmod(unique_ids(owner * span + flat), span)
    by_user = np.argsort(member_ids, kind="stable")  # keeps groups ascending within a user
    group_ids = owner[by_user]
    group_indptr = _indptr(member_ids[by_user], ds.num_users)
    member_indptr = _indptr(owner, num_groups)
    indptr, indices = _adjacency(owner, member_ids, by_user, group_ids, group_indptr, member_indptr)
    return Hypergraph(
        member_indptr=member_indptr,
        member_ids=member_ids,
        group_indptr=group_indptr,
        group_ids=group_ids,
        indptr=indptr,
        indices=indices,
    )


def _adjacency(owner, member_ids, by_user, group_ids, group_indptr, member_indptr):
    """Hyperedge adjacency ``(indptr, indices)`` of the groups sharing a
    member, by :func:`_bitmap_csr` or by sorting the pair keys for
    :func:`_symmetric_csr`, as :func:`_use_bitmap` chooses."""
    num_groups = len(member_indptr) - 1
    dtype = np.int32 if num_groups <= 1 << 31 else np.int64
    expanded, blocks = _group_pairs(owner, member_ids, by_user, group_ids, group_indptr, member_indptr)
    if _use_bitmap(num_groups, expanded):
        return _bitmap_csr(blocks, num_groups, dtype)
    # each block's distinct keys; no key repeats across blocks, which
    # concatenate in key order
    keys = np.concatenate([np.zeros(0, dtype=np.int64)]
                          + [unique_ids(a * num_groups + b) for a, b in blocks])
    a, b = np.divmod(keys, num_groups)
    del keys  # not held through the CSR assembly, the sort path's peak
    return _symmetric_csr(a, b, num_groups, dtype)


def _use_bitmap(num_groups: int, expanded: int) -> bool:
    """Whether a ``num_groups ** 2``-byte pair bitmap costs no more than
    the int64 keys of ``expanded`` group pairs."""
    return num_groups * num_groups <= 8 * expanded


def _group_pairs(owner, member_ids, by_user, group_ids, group_indptr, member_indptr):
    """Every group pair ``a < b`` sharing a member, as ``(count, blocks)``.

    A membership ``(a, u)`` pairs ``a`` with every later group in u's
    list, so a pair appears once per shared member and ``count`` counts
    the pairs with these repeats.  ``blocks`` yields them as ``(a, b)``
    arrays of about ``PAIR_BLOCK`` pairs at a time, expanding the
    memberships of consecutive ``a``; so the repeats of a pair fall in
    one block and ``a`` ascends from block to block.
    """
    num_groups = len(member_indptr) - 1
    rank = np.empty_like(by_user)
    rank[by_user] = np.arange(by_user.size)  # position of each membership in the inverted index
    later = group_indptr[member_ids + 1] - 1 - rank
    expanded = np.concatenate(([0], np.cumsum(later)))[member_indptr]  # pairs before each group

    def blocks():
        a0 = 0
        while a0 < num_groups:
            a1 = max(a0 + 1, int(np.searchsorted(expanded, expanded[a0] + PAIR_BLOCK, side="right")) - 1)
            e0, e1 = member_indptr[a0], member_indptr[a1]
            reps = later[e0:e1]
            yield np.repeat(owner[e0:e1], reps), group_ids[_ranges(rank[e0:e1] + 1, reps)]
            a0 = a1

    return int(expanded[-1]), blocks()


def _bitmap_csr(blocks, num_rows, dtype):
    """CSR of both directions of the pairs in ``blocks``, from a bitmap.

    Each pair ``(a, b)`` marks cells ``a * num_rows + b`` and ``b *
    num_rows + a``, repeats included.  The marked cells of a row are its
    ids, ascending, and its count of them gives ``indptr``.  The ids are
    read a band of rows at a time, so only the bitmap and ``indices``
    are held whole.
    """
    seen = np.zeros(num_rows * num_rows, dtype=bool)
    for a, b in blocks:
        seen[a * num_rows + b] = True
        seen[b * num_rows + a] = True
        del a, b  # not held through the extraction
    seen = seen.reshape(num_rows, num_rows)
    counts = np.count_nonzero(seen, axis=1)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.empty(int(indptr[-1]), dtype=dtype)
    band = max(1, PAIR_BLOCK // max(num_rows, 1))
    for r0 in range(0, num_rows, band):
        r1 = min(r0 + band, num_rows)
        cells = np.flatnonzero(seen[r0:r1])  # (r - r0) * num_rows + id
        starts = np.repeat(np.arange(r1 - r0) * num_rows, counts[r0:r1])
        np.subtract(cells, starts, out=indices[indptr[r0]:indptr[r1]])
    return indptr, indices


def _symmetric_csr(a, b, num_rows, dtype):
    """CSR of both directions of the pairs ``a < b``, given sorted by ``(a, b)``.

    Row ``r`` holds its entries below ``r`` (from pairs ``(x, r)``) and then
    those above it (from pairs ``(r, x)``), so every row comes out sorted
    without sorting both directions together.
    """
    n_above = np.bincount(a, minlength=num_rows)
    n_below = np.bincount(b, minlength=num_rows)
    indptr = np.concatenate(([0], np.cumsum(n_above + n_below)))
    indices = np.empty(2 * a.size, dtype=dtype)
    below = np.argsort(b, kind="stable")  # the pairs by (b, a)
    indices[np.arange(a.size) + (np.cumsum(n_above) - n_above)[b[below]]] = a[below]
    indices[np.arange(a.size) + np.cumsum(n_below)[a]] = b
    return indptr, indices


def common_members(hyper, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Members shared by each group pair ``(a[k], b[k])``, as ``(users, pairs)``.

    ``users[j]`` is shared by pair ``pairs[j]``; users ascend within a pair
    and pairs ascend.  ``hyper`` is a :class:`Hypergraph` or anything with
    its ``members_of``, which lists the groups of both arrays once for
    :func:`shared_members`.
    """
    groups = unique_ids(a, b)
    users, rows = hyper.members_of(groups)
    return shared_members(users, rows, np.searchsorted(groups, a), np.searchsorted(groups, b))


def shared_members(users: np.ndarray, rows: np.ndarray, a: np.ndarray, b: np.ndarray):
    """:func:`common_members` of the listed groups ``(a[k], b[k])``.

    ``(users, rows)`` is one ``members_of`` listing, and ``a`` and ``b``
    index the groups it lists.  The listing is keyed ``row * span + user``
    and sorted (a view may list its rows out of order); each pair takes its
    ``a`` group's members and keeps those whose key under ``b`` is there.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    span = int(users.max(initial=-1)) + 1
    keys = np.sort(rows * span + users)
    listed_rows, listed_users = np.divmod(keys, span)
    indptr = _indptr(listed_rows, int(max(a.max(initial=-1), rows.max(initial=-1))) + 1)
    sizes = indptr[a + 1] - indptr[a]
    found = listed_users[_ranges(indptr[a], sizes)]
    pairs = np.repeat(np.arange(a.size), sizes)
    wanted = b[pairs] * span + found
    pos = np.searchsorted(keys, wanted)
    keep = pos < keys.size
    keep[keep] = keys[pos[keep]] == wanted[keep]
    return found[keep], pairs[keep]


def sample_neighbors(degrees: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` neighbor slots for every node of one layer.

    ``degrees[r]`` is the pool size of row ``r``.  Returns an int64
    ``[len(degrees), size]`` array of offsets into each row's pool:
    uniform without replacement when the pool holds at least ``size``
    entries, uniform with replacement when it is smaller but nonempty,
    and -1 when it is empty.

    The draws are exactly those of one ``rng.choice(n, size,
    replace=False)`` (or ``rng.integers(0, n, size)`` for a smaller pool)
    per nonempty row, in row order, on any bit generator, wherever
    ``choice`` takes Floyd's algorithm: for a pool of at most 10,000 or a
    sample of at most 1/50 of the pool, so for every sample of at most 200.
    Floyd's round ``k`` draws from ``[0, n - size + k]`` and takes ``n -
    size + k`` itself on a repeat; a Fisher-Yates shuffle of the picks
    follows (from ``[0, size - 1]`` down to ``[0, 1]``).  Every one of
    these is numpy's bounded-integer draw, so the whole layer comes from
    one ``rng.integers`` call over an array of exclusive bounds in the same
    order; a bound of 1 (the range ``[0, 0]``) consumes nothing and stands
    for a draw numpy does not make.  Where ``choice`` tail-shuffles
    instead, these draws stay uniform and seeded, but are not ``choice``'s.
    """
    if size < 1:
        raise ContractViolation(f"sample size must be >= 1, got {size}")
    degrees = np.asarray(degrees, dtype=np.int64).reshape(-1)
    floyd = degrees >= size
    k = np.arange(2 * size - 1)[:, None]
    bounds = np.empty((2 * size - 1, degrees.size), dtype=np.int64)
    bounds[:size] = np.where(floyd, degrees - size + 1 + k[:size], np.maximum(degrees, 1))
    bounds[size:] = np.where(floyd, 2 * size - k[size:], 1)
    # column r holds row r's bounds in numpy's order; integers draws the
    # transposed [rows, 2 * size - 1] array in C order, one row after another
    draws = np.ascontiguousarray(rng.integers(0, bounds.T).T)

    picks = draws[:size]
    for j in range(1, size):
        seen = floyd & (picks[:j] == picks[j]).any(axis=0)
        picks[j] = np.where(seen, degrees - size + j, picks[j])
    at = np.arange(degrees.size)
    for t in range(size - 1):
        i = size - 1 - t
        swap = np.where(floyd, draws[size + t], i)
        held = picks[i].copy()
        picks[i] = picks[swap, at]
        picks[swap, at] = held
    return np.where(degrees[:, None] > 0, picks.T, -1)

