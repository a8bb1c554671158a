"""Dataset loading, splitting and synthesis tests."""

import builtins
import codecs
import errno
import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from hypergroup import data as hd
from hypergroup.errors import ConfigError, DataError, IntegrityError, ParseError


def write_dataset_dir(tmp_path, social="", user_item="", group_members="", group_item=""):
    (tmp_path / "social.tsv").write_text(social, encoding="utf-8")
    (tmp_path / "user_item.tsv").write_text(user_item, encoding="utf-8")
    (tmp_path / "group_members.tsv").write_text(group_members, encoding="utf-8")
    (tmp_path / "group_item.tsv").write_text(group_item, encoding="utf-8")
    return tmp_path


class TestLoadDataset:
    def test_symmetrization_collapses_to_one_pair(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            social="alice\tbob\n",
            user_item="alice\ti1\nbob\ti1\n",
            group_members="g0\talice\n",
            group_item="g0\ti1\n",
        )
        ds = hd.load_dataset(tmp_path)
        assert ds.num_users == 2
        assert ds.social_edges == {(0, 1)}

    def test_reverse_orientation_also_collapses(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            social="a\tb\nb\ta\n",
            user_item="a\tx\n",
            group_members="g\ta\n",
            group_item="g\tx\n",
        )
        ds = hd.load_dataset(tmp_path)
        assert ds.social_edges == {(0, 1)}

    def test_unknown_member_is_integrity_error(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            social="a\tb\n",
            user_item="a\ti\n",
            group_members="g0\tu_missing\n",
            group_item="g0\ti\n",
        )
        with pytest.raises(IntegrityError, match="u_missing"):
            hd.load_dataset(tmp_path)

    def test_missing_file_named(self, tmp_path):
        write_dataset_dir(tmp_path, social="a\tb\n")
        (tmp_path / "group_item.tsv").unlink()
        with pytest.raises(DataError, match="group_item.tsv"):
            hd.load_dataset(tmp_path)

    def test_malformed_line_reports_number(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            social="a\tb\n",
            user_item="a\ti\nnot-a-pair\n",
            group_members="g\ta\n",
            group_item="g\ti\n",
        )
        with pytest.raises(ParseError, match="user_item.tsv:2"):
            hd.load_dataset(tmp_path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            social="# comment\n\na\tb\n",
            user_item="a\ti\n",
            group_members="g\tb\n",
            group_item="g\ti\n",
        )
        ds = hd.load_dataset(tmp_path)
        assert ds.num_users == 2 and ds.num_items == 1 and ds.num_groups == 1

    def test_duplicates_are_dropped(self, tmp_path, caplog):
        write_dataset_dir(
            tmp_path,
            social="a\tb\n",
            user_item="a\ti\na\ti\n",
            group_members="g\ta\n",
            group_item="g\ti\ng\ti\n",
        )
        with caplog.at_level("WARNING"):
            ds = hd.load_dataset(tmp_path)
        assert len(ds.user_item) == 1 and len(ds.group_item) == 1
        assert "duplicate" in caplog.text

    def test_round_trip(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_dataset_dir(
            src,
            social="carol\tdan\ndan\terin\n",
            user_item="carol\tpizza\ndan\tsushi\nerin\tpizza\n",
            group_members="lunch\tcarol\nlunch\tdan\ndinner\tdan\ndinner\terin\n",
            group_item="lunch\tpizza\ndinner\tsushi\n",
        )
        ds = hd.load_dataset(src)
        dst = tmp_path / "dst"
        hd.save_dataset(ds, dst)
        ds2 = hd.load_dataset(dst)
        assert ds2 == ds
        assert ds2.id_maps.users == ds.id_maps.users
        assert ds2.id_maps.items == ds.id_maps.items
        assert ds2.id_maps.groups == ds.id_maps.groups

    def test_idempotent_load(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            social="a\tb\n",
            user_item="a\ti\nb\tj\n",
            group_members="g\ta\ng\tb\n",
            group_item="g\ti\n",
        )
        assert hd.load_dataset(tmp_path) == hd.load_dataset(tmp_path)

    def test_group_interaction_without_members_rejected(self, tmp_path):
        write_dataset_dir(
            tmp_path,
            social="a\tb\n",
            user_item="a\ti\n",
            group_members="g\ta\n",
            group_item="g\ti\nghost\ti\n",
        )
        with pytest.raises(IntegrityError, match="no members"):
            hd.load_dataset(tmp_path)

    def test_single_member_group_warns(self, tmp_path, caplog):
        # one warning with the count, however many groups have one member
        write_dataset_dir(
            tmp_path,
            social="a\tb\n",
            user_item="a\ti\n",
            group_members="g\ta\nh\tb\nk\ta\nk\tb\n",
            group_item="g\ti\n",
        )
        with caplog.at_level("WARNING"):
            ds = hd.load_dataset(tmp_path)
        assert ds.memberships == [[0], [1], [0, 1]]
        singles = [r for r in caplog.records if "single member" in r.getMessage()]
        assert len(singles) == 1 and "2 group(s)" in singles[0].getMessage()

    def test_derived_ids_follow_first_seen_order_across_files(self, tmp_path, caplog):
        # users: social.tsv, then user_item.tsv; items: user_item.tsv, then
        # group_item.tsv; groups: group_members.tsv, then group_item.tsv
        write_dataset_dir(
            tmp_path,
            social="b\ta\na\ta\n",
            user_item="c\tx\nb\ty\nc\tx\n",
            group_members="h\tc\nh\ta\nh\tc\ng\tb\n",
            group_item="g\tz\nh\tx\n",
        )
        with caplog.at_level("WARNING"):
            ds = hd.load_dataset(tmp_path)
        assert ds.id_maps == hd.IdMaps(users={"b": 0, "a": 1, "c": 2},
                                       items={"x": 0, "y": 1, "z": 2},
                                       groups={"h": 0, "g": 1})
        assert ds.social_edges == {(0, 1)}
        assert ds.user_item == [(2, 0), (0, 1)]
        assert ds.group_item == [(1, 2), (0, 0)]
        assert ds.memberships == [[2, 1], [0]]
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 1 social self-loop(s)",
            "dropped 1 duplicate user-item pair(s)",
            "group 'h' lists member 'c' more than once; ignoring repeat",
            "1 group(s) have a single member",
        ]
        # a group seen only in group_item.tsv comes after every member-file
        # group, and has no members
        ghost = tmp_path / "ghost"
        ghost.mkdir()
        write_dataset_dir(ghost, social="a\tb\n", user_item="a\ti\n",
                          group_members="h\ta\ng\tb\n", group_item="k\ti\nh\ti\n")
        with pytest.raises(IntegrityError, match="group 'k' has no members"):
            hd.load_dataset(ghost)

    def test_invalid_utf8_is_parse_error_naming_the_file(self, tmp_path):
        write_dataset_dir(tmp_path, social="a\tb\n", user_item="a\ti\n",
                          group_members="g\ta\n", group_item="g\ti\n")
        (tmp_path / "group_members.tsv").write_bytes(b"g\ta\ng\t\xff\xfe\n")
        with pytest.raises(ParseError, match="group_members.tsv"):
            hd.load_dataset(tmp_path)

    @pytest.mark.parametrize("name", hd.DATA_FILES)
    @pytest.mark.parametrize("plain", [True, False])
    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path, name, plain):
        files = {"social": "u1\tu2\n", "user_item": "u1\ti1\nu2\ti1\n",
                 "group_members": "g\tu1\ng\tu2\n", "group_item": "g\ti1\n"}
        if not plain:  # a comment sends the file down the line-by-line path
            files = {k: v + "# end\n" for k, v in files.items()}
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        want, got = write_dataset_dir(tmp_path / "plain", **files), write_dataset_dir(tmp_path / "bom", **files)
        (got / name).write_bytes(codecs.BOM_UTF8 + (got / name).read_bytes())
        assert hd.load_dataset(got) == hd.load_dataset(want)
        assert (got / hd.ID_MAP_FILE).read_bytes() == (want / hd.ID_MAP_FILE).read_bytes()
        # a bad byte after the mark is still named by its line
        (got / name).write_bytes(codecs.BOM_UTF8 + b"u1\tu2\nu1\t\xff\n")
        with pytest.raises(ParseError, match=f"{name}:2: not valid UTF-8"):
            hd.load_dataset(got)

    def test_one_big_group_loads_in_linear_time(self, tmp_path):
        # repeats are found in a set of seen pairs, not by scanning the
        # group's list: 30k members load in about 0.14 s on a 2-vCPU x86-64
        # host, where the list scan took about 6 s
        n = 30_000
        write_dataset_dir(tmp_path, social="u0\tu1\n",
                          user_item="".join(f"u{k}\ti\n" for k in range(n)),
                          group_members="".join(f"g\tu{k}\n" for k in range(n)),
                          group_item="g\ti\n")
        start = time.perf_counter()
        ds = hd.load_dataset(tmp_path)
        assert time.perf_counter() - start < 1.5
        assert len(ds.memberships[0]) == n


def write_small_dataset(root):
    return write_dataset_dir(root, social="a\tb\n", user_item="a\ti\nb\tj\n",
                             group_members="g\ta\ng\tb\n", group_item="g\ti\n")


GOOD_MAPS = {"users": {"a": 0, "b": 1}, "items": {"i": 0, "j": 1}, "groups": {"g": 0}}


class TestIdMapFile:
    @pytest.mark.parametrize("text,message", [
        (json.dumps([GOOD_MAPS]), "root is not a JSON object"),
        (json.dumps("maps"), "root is not a JSON object"),
        (json.dumps(dict(GOOD_MAPS, users=[["a", 0], ["b", 1]])), "'users' is not a JSON object"),
        (json.dumps(dict(GOOD_MAPS, items=3)), "'items' is not a JSON object"),
        (json.dumps(dict(GOOD_MAPS, groups=None)), "'groups' is not a JSON object"),
        (json.dumps(dict(GOOD_MAPS, users={"a": 0, "b": None})), "id_map.json"),
        (json.dumps(dict(GOOD_MAPS, users={"a": 0, "b": float("inf")})), "id_map.json"),
        ("[" * 100_000, "id_map.json"),
        (json.dumps(dict(GOOD_MAPS, users={"a": 0.9, "b": 1})), "users index 0.9 is not an integer"),
        (json.dumps(dict(GOOD_MAPS, items={"i": 0, "j": "1"})), "items index '1' is not an integer"),
        (json.dumps(dict(GOOD_MAPS, groups={"g": 0.0})), "groups index 0.0 is not an integer"),
    ], ids=["root_list", "root_string", "users_list", "items_number", "groups_null",
            "null_index", "infinite_index", "deep_nesting", "fractional_index", "string_index",
            "float_index"])
    def test_malformed_map_is_data_error(self, tmp_path, text, message):
        write_small_dataset(tmp_path)
        (tmp_path / "id_map.json").write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            hd.load_dataset(tmp_path)

    def test_derived_map_is_written_and_reused(self, tmp_path):
        write_small_dataset(tmp_path)
        first = hd.load_dataset(tmp_path)
        assert json.loads((tmp_path / "id_map.json").read_text(encoding="utf-8")) == GOOD_MAPS
        assert hd.load_dataset(tmp_path).id_maps == first.id_maps

    @pytest.mark.parametrize("code", [errno.EACCES, errno.EROFS], ids=["EACCES", "EROFS"])
    def test_read_only_directory_loads_with_one_warning(self, tmp_path, monkeypatch, caplog, code):
        writable = tmp_path / "writable"
        writable.mkdir()
        want = hd.load_dataset(write_small_dataset(writable))
        ro = tmp_path / "read_only"
        ro.mkdir()
        write_small_dataset(ro)
        real_open = builtins.open

        # root ignores directory permissions, so refuse writes at open()
        def refuse_writes(file, mode="r", *args, **kwargs):
            writes = set(mode) & set("wax+")
            if writes and isinstance(file, (str, os.PathLike)) and Path(file).parent == ro:
                raise OSError(code, os.strerror(code), os.fspath(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refuse_writes)
        monkeypatch.setattr(io, "open", refuse_writes)
        with caplog.at_level("WARNING"):
            ds = hd.load_dataset(ro)
        assert ds == want and ds.id_maps == want.id_maps
        assert sorted(p.name for p in ro.iterdir()) == sorted(hd.DATA_FILES)
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "id_map.json" in warnings[0].getMessage()

    def test_failed_write_leaves_no_partial_map(self, tmp_path, monkeypatch):
        write_small_dataset(tmp_path)

        def broken_disk(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "fsync", broken_disk)
        with pytest.raises(OSError):
            hd.load_dataset(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(hd.DATA_FILES)

    def test_failed_save_leaves_the_previous_files(self, tmp_path, monkeypatch):
        first = hd.generate_synthetic(hd.SynthConfig(num_users=12, num_items=9, num_groups=4, seed=1))
        second = hd.generate_synthetic(hd.SynthConfig(num_users=12, num_items=9, num_groups=4, seed=2))
        hd.save_dataset(first, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def broken_disk(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "fsync", broken_disk)
        with pytest.raises(OSError):
            hd.save_dataset(second, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_save_failing_midway_replaces_no_file(self, tmp_path, monkeypatch):
        # the five files move as a set: two flushed files must not replace
        # their old versions when the third one fails
        first = hd.generate_synthetic(hd.SynthConfig(num_users=12, num_items=9, num_groups=4, seed=1))
        second = hd.generate_synthetic(hd.SynthConfig(num_users=12, num_items=9, num_groups=4, seed=2))
        hd.save_dataset(first, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_fsync = os.fsync
        calls = []

        def third_fails(fd):
            calls.append(fd)
            if len(calls) == 3:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", third_fails)
        with pytest.raises(OSError):
            hd.save_dataset(second, tmp_path)
        assert len(calls) == 3
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestSplit:
    def make_ds(self, n_group_pairs=100, n_user_pairs=40):
        rng = np.random.default_rng(0)
        group_item = [(int(rng.integers(10)), i % 50) for i in range(n_group_pairs)]
        group_item = list(dict.fromkeys(group_item))
        user_item = [(int(rng.integers(20)), i % 50) for i in range(n_user_pairs)]
        user_item = list(dict.fromkeys(user_item))
        return hd.InteractionDataset(
            num_users=20,
            num_items=50,
            num_groups=10,
            social_edges={(0, 1)},
            user_item=user_item,
            group_item=group_item,
            memberships=[[g % 20, (g + 1) % 20] for g in range(10)],
        )

    def test_exact_ratios_at_100(self):
        ds = self.make_ds()
        n = len(ds.group_item)
        train, val, test = hd.split_interactions(ds, hd.SplitSpec(seed=3))
        assert len(val.group_item) == int(n * 0.1 + 1e-9)
        assert len(test.group_item) == int(n * 0.1 + 1e-9)
        assert len(train.group_item) == n - len(val.group_item) - len(test.group_item)

    def test_ten_rows_split_8_1_1(self):
        ds = self.make_ds()
        ds.group_item = ds.group_item[:10]
        train, val, test = hd.split_interactions(ds, hd.SplitSpec(seed=1))
        assert (len(train.group_item), len(val.group_item), len(test.group_item)) == (8, 1, 1)

    def test_deterministic(self):
        ds = self.make_ds()
        a = hd.split_interactions(ds, hd.SplitSpec(seed=42))
        b = hd.split_interactions(ds, hd.SplitSpec(seed=42))
        for x, y in zip(a, b):
            assert x.group_item == y.group_item
            assert x.user_item == y.user_item

    def test_partition_property(self):
        ds = self.make_ds()
        train, val, test = hd.split_interactions(ds, hd.SplitSpec(seed=9))
        combined = sorted(train.group_item + val.group_item + test.group_item)
        assert combined == sorted(ds.group_item)
        assert set(train.group_item).isdisjoint(val.group_item)
        assert set(train.group_item).isdisjoint(test.group_item)
        assert set(val.group_item).isdisjoint(test.group_item)

    def test_memberships_and_social_replicated(self):
        ds = self.make_ds()
        train, val, test = hd.split_interactions(ds, hd.SplitSpec(seed=5))
        for part in (train, val, test):
            assert part.memberships == ds.memberships
            assert part.social_edges == ds.social_edges
            # shared, not copied: a split treats the structure as read-only
            assert part.memberships is ds.memberships
            assert part.social_edges is ds.social_edges
            assert part.id_maps is ds.id_maps

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError):
            hd.SplitSpec(train_ratio=0.7, val_ratio=0.1, test_ratio=0.1).validate()
        with pytest.raises(ConfigError):
            hd.SplitSpec(train_ratio=1.0, val_ratio=0.0, test_ratio=0.0).validate()

    def test_empty_split_warns(self, caplog):
        ds = self.make_ds()
        spec = hd.SplitSpec(train_ratio=0.98, val_ratio=0.0100000001, test_ratio=0.0099999999, seed=0)
        ds.group_item = ds.group_item[:12]
        with caplog.at_level("WARNING"):
            hd.split_interactions(ds, spec)
        assert "no group-item interactions" in caplog.text


class TestSynthetic:
    def test_determinism(self):
        cfg = hd.SynthConfig(num_users=40, num_items=30, num_groups=12, seed=11)
        assert hd.generate_synthetic(cfg) == hd.generate_synthetic(cfg)

    def test_invariants_hold_across_configs(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            cfg = hd.SynthConfig(
                num_users=int(rng.integers(6, 60)),
                num_items=int(rng.integers(6, 40)),
                num_groups=int(rng.integers(2, 20)),
                avg_group_size=float(rng.uniform(1.0, 5.0)),
                num_latent_topics=int(rng.integers(1, 5)),
                overlap_strength=float(rng.uniform(0, 1)),
                seed=int(rng.integers(1_000_000)),
            )
            ds = hd.generate_synthetic(cfg)
            ds.validate()
            assert ds.num_users == cfg.num_users

    def test_infeasible_config_rejected(self):
        with pytest.raises(ConfigError):
            hd.generate_synthetic(
                hd.SynthConfig(num_users=3, num_items=5, num_groups=2, avg_group_size=10)
            )

    def test_zero_overlap_means_tiny_intersections(self):
        cfg = hd.SynthConfig(
            num_users=3000,
            num_items=60,
            num_groups=1000,
            avg_group_size=3.0,
            num_latent_topics=3,
            overlap_strength=0.0,
            seed=5,
        )
        ds = hd.generate_synthetic(cfg)
        # Monte-Carlo estimate of mean pairwise intersection size via the
        # identity  sum_pairs |A . B| = sum_u C(deg_u, 2)
        deg = np.zeros(cfg.num_users)
        for members in ds.memberships:
            for u in members:
                deg[u] += 1
        mass = float(np.sum(deg * (deg - 1) / 2))
        pairs = cfg.num_groups * (cfg.num_groups - 1) / 2
        assert mass / pairs < 0.05

    def test_high_overlap_means_larger_intersections(self):
        lo = hd.generate_synthetic(
            hd.SynthConfig(num_users=300, num_items=30, num_groups=60,
                           overlap_strength=0.0, seed=7)
        )
        hi = hd.generate_synthetic(
            hd.SynthConfig(num_users=300, num_items=30, num_groups=60,
                           overlap_strength=0.9, seed=7)
        )

        def mean_intersection(ds):
            deg = np.zeros(ds.num_users)
            for members in ds.memberships:
                for u in members:
                    deg[u] += 1
            pairs = ds.num_groups * (ds.num_groups - 1) / 2
            return float(np.sum(deg * (deg - 1) / 2)) / pairs

        assert mean_intersection(hi) > 5 * mean_intersection(lo)

    def test_loadable_after_save(self, tmp_path):
        ds = hd.generate_synthetic(hd.SynthConfig(num_users=25, num_items=18, num_groups=8, seed=3))
        hd.save_dataset(ds, tmp_path)
        ds2 = hd.load_dataset(tmp_path)
        assert ds2 == ds

    def test_single_topic_model_ranks_like_chance(self):
        # permutation-test oracle: with one latent topic every item is equally
        # preferred, so a trained model's held-out NDCG@5 must fall inside the
        # 99% interval of the rank-uniform null distribution
        from hypergroup.evaluation import evaluate
        from hypergroup.graph import build_hypergraph, build_social_graph
        from hypergroup.model import ModelConfig, initialize_params
        from hypergroup.training import TrainConfig, train

        ds = hd.generate_synthetic(hd.SynthConfig(
            num_users=40, num_items=30, num_groups=50, avg_group_size=3.0,
            num_latent_topics=1, overlap_strength=0.4,
            interactions_per_user=8.0, interactions_per_group=4.0, seed=17))
        tr, _va, te = hd.split_interactions(ds, hd.SplitSpec(seed=3))
        social, hyper = build_social_graph(tr), build_hypergraph(tr)
        cfg = ModelConfig(d=8, k_ipm=1, s_ipm=2, k_hrl=1, s_hrl=2,
                          mlp_hidden=(8,), dropout=0.0)
        params = initialize_params(cfg, ds.num_users, ds.num_items, np.random.default_rng(1))
        train(tr, social, hyper, params, cfg,
              TrainConfig(learning_rate=3e-3, batch_size=64, epochs=30, seed=2))
        report = evaluate(params, cfg, social, hyper, te, cutoffs=(5,), eval_seed=0)
        observed = report.metrics[5].ndcg

        rng = np.random.default_rng(0)
        draws = rng.integers(1, ds.num_items + 1, size=(20000, report.num_test_cases))
        null_means = np.where(draws <= 5, 1.0 / np.log2(draws + 1.0), 0.0).mean(axis=1)
        lo, hi = np.quantile(null_means, [0.005, 0.995])
        assert lo <= observed <= hi
