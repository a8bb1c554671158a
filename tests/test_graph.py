"""Social graph, hypergraph and neighbor-sampling tests."""

import numpy as np
import pytest

from hypergroup import graph as hg
from hypergroup.data import InteractionDataset, SynthConfig, generate_synthetic
from hypergroup.errors import ContractViolation


def make_ds(num_users, memberships, social_edges=()):
    return InteractionDataset(
        num_users=num_users,
        num_items=1,
        num_groups=len(memberships),
        social_edges=set(social_edges),
        user_item=[(0, 0)],
        group_item=[],
        memberships=[list(m) for m in memberships],
    )


def brute_force_adjacency(memberships):
    """O(k^2) pairwise-intersection reference for hypergraph adjacency."""
    k = len(memberships)
    sets = [set(m) for m in memberships]
    adj = {g: {} for g in range(k)}
    for a in range(k):
        for b in range(a + 1, k):
            common = sets[a] & sets[b]
            if common:
                adj[a][b] = common
                adj[b][a] = common
    return adj


def rows(graph, n):
    return [graph.neighbors(r).tolist() for r in range(n)]


def adjacency_with_common_members(h, g):
    """``{neighbor: (weight, common-member set)}`` for row ``g`` of ``h``."""
    nbrs = h.neighbors(g)
    users, pair = hg.common_members(h, np.full(nbrs.size, g), nbrs)
    return {
        int(b): (int(w), set(users[pair == k].tolist()))
        for k, (b, w) in enumerate(zip(nbrs, h.overlaps(g)))
    }


class TestSocialGraph:
    def test_single_edge_symmetry(self):
        ds = make_ds(2, [[0]], social_edges={(0, 1)})
        g = hg.build_social_graph(ds)
        assert rows(g, 2) == [[1], [0]]

    def test_no_edges(self):
        ds = make_ds(3, [[0]])
        g = hg.build_social_graph(ds)
        assert rows(g, 3) == [[], [], []]
        assert len(g.indptr) - 1 == 3

    def test_random_graph_matches_edge_set_oracle(self):
        rng = np.random.default_rng(0)
        n = 80
        edges = set()
        while len(edges) < 1000:
            a, b = rng.integers(n, size=2)
            if a != b:
                edges.add((min(int(a), int(b)), max(int(a), int(b))))
        ds = make_ds(n, [[0]], social_edges=edges)
        g = hg.build_social_graph(ds)
        expected = [[] for _ in range(n)]
        for a, b in edges:
            expected[a].append(b)
            expected[b].append(a)
        assert rows(g, n) == [sorted(lst) for lst in expected]

    def test_neighbor_lists_sorted(self):
        ds = make_ds(5, [[0]], social_edges={(0, 4), (0, 2), (0, 1)})
        g = hg.build_social_graph(ds)
        assert g.neighbors(0).tolist() == [1, 2, 4]


class TestHypergraph:
    def test_shared_single_member(self):
        ds = make_ds(8, [[3, 4, 5], [4, 6, 7]])
        h = hg.build_hypergraph(ds)
        assert adjacency_with_common_members(h, 0) == {1: (1, {4})}

    def test_two_common_members(self):
        ds = make_ds(5, [[1, 2, 3], [1, 2, 4]])
        h = hg.build_hypergraph(ds)
        assert adjacency_with_common_members(h, 0) == {1: (2, {1, 2})}

    def test_matches_brute_force_on_random_instances(self, monkeypatch):
        rng = np.random.default_rng(1)
        for trial in range(10):
            num_users = int(rng.integers(10, 100))
            num_groups = int(rng.integers(2, 200))
            memberships = []
            for _ in range(num_groups):
                size = int(rng.integers(1, min(8, num_users) + 1))
                memberships.append(sorted(rng.choice(num_users, size=size, replace=False).tolist()))
            # odd trials expand the group pairs in many small blocks
            monkeypatch.setattr(hg, "PAIR_BLOCK", 7 if trial % 2 else 1 << 22)
            ds = make_ds(num_users, memberships)
            oracle = brute_force_adjacency(memberships)
            for bitmap in (False, True):
                h = build_by_path(monkeypatch, ds, bitmap)
                for g in range(num_groups):
                    got = adjacency_with_common_members(h, g)
                    assert {b: common for b, (_, common) in got.items()} == oracle[g]
                    for weight, common in got.values():
                        assert weight == len(common)
                    assert h.members_of(np.array([g]))[0].tolist() == memberships[g]

    def test_symmetry_and_no_self_adjacency(self, monkeypatch):
        rng = np.random.default_rng(2)
        for _ in range(100):
            num_users = int(rng.integers(4, 30))
            num_groups = int(rng.integers(2, 15))
            memberships = [
                sorted(rng.choice(num_users, size=int(rng.integers(1, 5)), replace=False).tolist())
                for _ in range(num_groups)
            ]
            for bitmap in (False, True):
                h = build_by_path(monkeypatch, make_ds(num_users, memberships), bitmap)
                for g in range(num_groups):
                    nbrs = h.neighbors(g).tolist()
                    assert nbrs == sorted(set(nbrs))
                    for b, (weight, common) in adjacency_with_common_members(h, g).items():
                        assert b != g
                        assert weight >= 1
                        assert common <= set(memberships[g])
                        assert common <= set(memberships[b])
                        back = adjacency_with_common_members(h, b)
                        assert back[g] == (weight, common)

    def test_both_paths_give_the_same_arrays(self, monkeypatch):
        # random memberships from sparse to dense overlap, then the edge
        # cases: no shared member (no pair at all), one group, zero groups
        rng = np.random.default_rng(6)
        cases = []
        for trial in range(40):
            num_users = int(rng.integers(2, 60))
            size_cap = int(rng.integers(1, min(10, num_users) + 1))
            cases.append((num_users, [
                sorted(rng.choice(num_users, size=int(rng.integers(1, size_cap + 1)),
                                  replace=False).tolist())
                for _ in range(int(rng.integers(1, 80)))
            ]))
        cases += [(9, [[0, 1], [2, 3, 4], [5], [6, 7, 8]]), (3, [[0, 2]]), (3, [])]
        for trial, (num_users, memberships) in enumerate(cases):
            ds = make_ds(num_users, memberships)
            # odd cases mark one bitmap (and sort the keys) in many small blocks
            monkeypatch.setattr(hg, "PAIR_BLOCK", 7 if trial % 2 else 1 << 22)
            by_sort = build_by_path(monkeypatch, ds, False)
            by_bitmap = build_by_path(monkeypatch, ds, True)
            nodes = np.arange(len(memberships))
            for h in (by_sort, by_bitmap):
                assert h.indptr.dtype == np.int64 and h.indices.dtype == np.int32
                assert h.indptr.tolist() == adjacency_indptr(memberships)
                # sampled ids stay int64 whatever ``indices`` holds
                first = np.where(h.degrees(nodes) > 0, 0, -1)[:, None]
                assert h.neighbor_ids(nodes, first).dtype == np.int64
            assert np.array_equal(by_sort.indptr, by_bitmap.indptr)
            assert np.array_equal(by_sort.indices, by_bitmap.indices)

    def test_selection_on_the_benchmark_shapes(self, monkeypatch):
        # dense hub overlap takes the bitmap, 200 sparse topics the sort;
        # the bitmap's num_groups ** 2 bytes never exceed the 8 bytes per
        # expanded pair of the int64 keys it replaces
        hub = dict(num_users=3000, num_items=2000, num_groups=1200, num_latent_topics=2,
                   overlap_strength=0.8)
        sparse = dict(num_users=20000, num_items=10000, num_groups=10000, num_latent_topics=200)
        chosen = []
        choose = hg._use_bitmap

        def record(num_groups, expanded):
            chosen.append((num_groups, expanded, choose(num_groups, expanded)))
            return chosen[-1][2]

        monkeypatch.setattr(hg, "_use_bitmap", record)
        for shape, bitmap in ((hub, True), (sparse, False)):
            ds = generate_synthetic(SynthConfig(seed=0, **shape))
            hg.build_hypergraph(ds)
            num_groups, expanded, took = chosen.pop()
            groups_per_user = np.bincount(np.concatenate(ds.memberships), minlength=ds.num_users)
            assert num_groups == ds.num_groups
            assert expanded == int((groups_per_user * (groups_per_user - 1) // 2).sum())
            assert took is bitmap
            assert (num_groups ** 2 <= 8 * expanded) is bitmap

    def test_degree_sum_equals_membership_sum(self):
        # the inverted index lists, for every user, exactly its groups
        rng = np.random.default_rng(3)
        for _ in range(100):
            num_users = int(rng.integers(4, 25))
            memberships = [
                sorted(rng.choice(num_users, size=int(rng.integers(1, 4)), replace=False).tolist())
                for _ in range(int(rng.integers(1, 10)))
            ]
            h = hg.build_hypergraph(make_ds(num_users, memberships))
            degree = np.diff(h.group_indptr)
            assert int(degree.sum()) == sum(len(m) for m in memberships)
            for u in range(num_users):
                row = h.group_ids[h.group_indptr[u]:h.group_indptr[u + 1]].tolist()
                assert row == [g for g, m in enumerate(memberships) if u in m]

    def test_common_members_match_set_intersections(self):
        # every pair of a built hypergraph, disjoint pairs and (g, g) included;
        # then a view, whose members_of lists base rows before transient rows,
        # with the transient id anywhere in either array
        rng = np.random.default_rng(4)
        for _ in range(40):
            num_users = int(rng.integers(2, 30))
            memberships = [
                sorted(rng.choice(num_users, size=int(rng.integers(1, min(6, num_users) + 1)),
                                  replace=False).tolist())
                for _ in range(int(rng.integers(1, 12)))
            ]
            h = hg.build_hypergraph(make_ds(num_users, memberships))
            a, b = np.meshgrid(np.arange(h.num_groups), np.arange(h.num_groups), indexing="ij")
            assert_common_members(h, memberships, a.ravel(), b.ravel())
            members = sorted(rng.choice(num_users, size=int(rng.integers(1, num_users + 1)),
                                        replace=False).tolist())
            view = hg.TransientHypergraphView(h, members)
            t = view.transient_index
            a = np.concatenate([rng.integers(0, t + 1, size=40), [t, 0, t, t]])
            b = np.concatenate([rng.integers(0, t + 1, size=40), [0, t, t, t - 1]])
            assert_common_members(view, memberships + [members], a, b)
        empty = np.zeros(0, dtype=np.int64)
        users, pairs = hg.common_members(h, empty, empty)
        assert users.size == pairs.size == 0


    def test_one_listing_gives_the_pairwise_listings_common_members(self):
        # shared_members works from one members_of listing of the groups the
        # pairs reach; listing both groups of every pair gave these sets, in
        # this order, for a base graph, and pair by pair for a view
        rng = np.random.default_rng(5)
        for _ in range(40):
            num_users = int(rng.integers(2, 40))
            memberships = [
                sorted(rng.choice(num_users, size=int(rng.integers(1, min(8, num_users) + 1)),
                                  replace=False).tolist())
                for _ in range(int(rng.integers(1, 30)))
            ]
            h = hg.build_hypergraph(make_ds(num_users, memberships))
            a, b = rng.integers(0, h.num_groups, (2, 200))
            want = pairwise_common_members(h, a, b)
            assert [x.tolist() for x in hg.common_members(h, a, b)] == [x.tolist() for x in want]
            groups = hg.unique_ids(a, b)
            listed = hg.shared_members(*h.members_of(groups), np.searchsorted(groups, a),
                                       np.searchsorted(groups, b))
            assert [x.tolist() for x in listed] == [x.tolist() for x in want]

            view = hg.TransientHypergraphView(h, rng.choice(num_users, int(rng.integers(1, num_users + 1))))
            a, b = rng.integers(0, view.transient_index + 1, (2, 200))
            users, pairs = pairwise_common_members(view, a, b)
            order = np.argsort(pairs, kind="stable")  # the view listed base pairs first
            want = [users[order].tolist(), pairs[order].tolist()]
            assert [x.tolist() for x in hg.common_members(view, a, b)] == want
            groups = hg.unique_ids(a, b)
            listed = hg.shared_members(*view.members_of(groups), np.searchsorted(groups, a),
                                       np.searchsorted(groups, b))
            assert [x.tolist() for x in listed] == want
            # the forward pass's pairs join two groups, lower id first, so the
            # transient edge only ever ends a pair, and no reordering occurs
            two = a != b
            low, high = np.minimum(a, b)[two], np.maximum(a, b)[two]
            assert ([x.tolist() for x in hg.common_members(view, low, high)]
                    == [x.tolist() for x in pairwise_common_members(view, low, high)])


def build_by_path(monkeypatch, ds, bitmap):
    """``build_hypergraph`` with its adjacency path forced to the bitmap or the sort."""
    monkeypatch.setattr(hg, "_use_bitmap", lambda num_groups, expanded: bitmap)
    return hg.build_hypergraph(ds)


def adjacency_indptr(memberships):
    """Row offsets of the brute-force adjacency."""
    oracle = brute_force_adjacency(memberships)
    return np.concatenate(([0], np.cumsum([len(oracle[g]) for g in range(len(memberships))]))).tolist()


def pairwise_common_members(hyper, a, b):
    """Common members from both groups' member lists of every pair."""
    users, rows = hyper.members_of(a)
    b_users, b_rows = hyper.members_of(b)
    span = int(max(users.max(initial=-1), b_users.max(initial=-1))) + 1
    keys, b_keys = rows * span + users, np.sort(b_rows * span + b_users)
    pos = np.searchsorted(b_keys, keys)
    keep = pos < b_keys.size
    keep[keep] = b_keys[pos[keep]] == keys[keep]
    return users[keep], rows[keep]


def assert_common_members(graph, memberships, a, b):
    """``common_members`` lists each pair's set intersection, ascending."""
    users, pairs = hg.common_members(graph, a, b)
    for k, (g, h) in enumerate(zip(a.tolist(), b.tolist())):
        assert users[pairs == k].tolist() == sorted(set(memberships[g]) & set(memberships[h]))


def uniformity_gap(sample, rows=20_000, pool=10, size=4, seed=0):
    """Largest distance of an id's mean count per row from ``size / pool``
    (its share of rows when no row repeats an id), and whether any row
    repeated an id."""
    picks = sample(np.full(rows, pool), size, np.random.default_rng(seed))
    share = np.bincount(picks.ravel(), minlength=pool) / rows
    repeats = any(len(set(r)) < size for r in picks.tolist())
    return float(np.max(np.abs(share - size / pool))), repeats


def biased_floyd(degrees, size, rng):
    """Floyd's rounds, but a repeat re-draws only its own slot as
    ``(t + 1) % n``: no repeats, yet high ids come up too rarely."""
    n = np.asarray(degrees)
    picks = np.full((n.size, size), -1)
    for k in range(size):
        t = rng.integers(0, n - size + k + 1)
        while True:
            seen = (picks[:, :k] == t[:, None]).any(axis=1)
            if not seen.any():
                break
            t = np.where(seen, (t + 1) % n, t)
        picks[:, k] = t
    return picks


class TestSampleNeighbors:
    def test_small_pool_samples_with_replacement(self):
        rng = np.random.default_rng(4)
        out = hg.sample_neighbors([2], size=4, rng=rng)
        assert out.shape == (1, 4)
        assert set(out.ravel().tolist()) <= {0, 1}
        social = hg.build_social_graph(make_ds(10, [[0]], social_edges={(3, 7), (3, 9)}))
        users = np.array([3])
        ids = social.neighbor_ids(users, hg.sample_neighbors(social.degrees(users), 4, rng))
        assert set(ids.ravel().tolist()) <= {7, 9}

    def test_empty_pool_returns_self(self):
        out = hg.sample_neighbors([0], size=3, rng=np.random.default_rng(0))
        assert out.tolist() == [[-1, -1, -1]]
        social = hg.build_social_graph(make_ds(6, [[0]], social_edges={(1, 2)}))
        assert social.neighbor_ids(np.array([5]), out).tolist() == [[5, 5, 5]]
        h = hg.build_hypergraph(make_ds(4, [[0, 1], [2, 3]]))
        assert h.neighbor_ids(np.array([1]), out).tolist() == [[1, 1, 1]]

    def test_seeded_replay(self):
        degrees = [10, 3, 0, 7]
        a = hg.sample_neighbors(degrees, 4, np.random.default_rng(123))
        b = hg.sample_neighbors(degrees, 4, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_draws_match_numpy_row_by_row(self):
        # a layer draws what one rng.choice / rng.integers call per nonempty
        # row would, and leaves the generator in the same state, on any bit
        # generator, wherever choice takes Floyd's algorithm: for every
        # sample of at most 200.
        def per_row(degrees, size, rng):
            out = np.full((len(degrees), size), -1)
            for r, n in enumerate(degrees):
                if n >= size:
                    out[r] = rng.choice(n, size=size, replace=False)
                elif n:
                    out[r] = rng.integers(0, n, size=size)
            return out

        def check(degrees, size, make_rng, buffered):
            ref, got = make_rng(), make_rng()
            if buffered:  # leave half of a 64-bit output in the generator
                ref.integers(0, 5)
                got.integers(0, 5)
            want = per_row(list(degrees), size, ref)
            np.testing.assert_array_equal(hg.sample_neighbors(degrees, size, got), want)
            np.testing.assert_equal(got.bit_generator.state, ref.bit_generator.state)

        pick = np.random.default_rng(8)
        generators = (np.random.PCG64, np.random.MT19937, np.random.Philox)
        for trial in range(400):
            size = int(pick.integers(1, 7))
            # pools below, at and above the sample size, around numpy's
            # large-pool threshold, large enough that Lemire's bounded draw
            # rejects values, and beyond 32 bits
            edge = [0, 1, size - 1, size, size + 1, 10000, 10001, 3 << 30, (1 << 32) + 5]
            degrees = (pick.integers(0, 600, size=int(pick.integers(0, 30))) if trial % 3
                       else pick.choice(edge, size=int(pick.integers(0, 12))))
            bitgen = generators[trial % len(generators)]
            check(degrees, size, lambda: np.random.Generator(bitgen(trial)), trial % 2)
        # numpy's choice keeps Floyd's algorithm for a pool above 10000 while
        # the sample is at most 1/50 of it
        for n, size in ((10001, 200), (20000, 400)):
            check(np.array([n, 3, 0, n]), size, lambda: np.random.default_rng(n), False)
        for bitgen in generators[1:]:
            check(np.array([9, 2, 0, 5]), 4, lambda: np.random.Generator(bitgen(3)), False)
        # beyond that choice tail-shuffles; the layer keeps its own draws,
        # still distinct, in range and replayed by the seed
        for n, size in ((10001, 201), (20000, 401)):
            degrees = np.array([n, 3, 0, n])
            out = hg.sample_neighbors(degrees, size, np.random.default_rng(n))
            np.testing.assert_array_equal(out, hg.sample_neighbors(degrees, size, np.random.default_rng(n)))
            for row in out[[0, 3]].tolist():
                assert len(set(row)) == size and 0 <= min(row) and max(row) < n
            assert 0 <= out[1].min() and out[1].max() < 3 and (out[2] == -1).all()

    def test_without_replacement_when_pool_large(self):
        rng = np.random.default_rng(5)
        out = hg.sample_neighbors(np.full(200, 8), 5, rng)
        for row in out.tolist():
            assert len(row) == len(set(row)) == 5
            assert set(row) <= set(range(8))
        # a pool of exactly the sample size is returned whole
        assert all(sorted(r) == [0, 1, 2, 3] for r in hg.sample_neighbors(np.full(50, 4), 4, rng).tolist())

    def test_length_always_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            degrees = rng.integers(0, 12, size=int(rng.integers(0, 9)))
            size = int(rng.integers(1, 9))
            out = hg.sample_neighbors(degrees, size, rng)
            assert out.shape == (degrees.size, size)
            for n, row in zip(degrees, out.tolist()):
                assert all(0 <= x < n for x in row) if n else row == [-1] * size

    def test_size_zero_rejected(self):
        with pytest.raises(ContractViolation):
            hg.sample_neighbors([1], 0, np.random.default_rng(0))

    def test_layer_sampler_is_uniform_without_replacement(self):
        gap, repeats = uniformity_gap(hg.sample_neighbors)
        assert not repeats
        assert gap <= 0.02, f"an id's share is {gap:.3f} away from 0.40"
        # the check has the power to reject a biased way of avoiding repeats
        biased_gap, biased_repeats = uniformity_gap(biased_floyd)
        assert not biased_repeats and biased_gap > 0.02
        # a pool smaller than the sample is drawn from uniformly with
        # replacement: each of 3 ids comes up 4/3 times per row on average
        gap, repeats = uniformity_gap(hg.sample_neighbors, pool=3, size=4)
        assert repeats
        assert gap <= 0.03, f"an id's mean count is {gap:.3f} away from 1.33"
