"""Command-line interface tests: flows, determinism, exit codes."""

import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypergroup import cli
from hypergroup import model as hm
from hypergroup.data import SplitSpec, load_dataset, split_interactions
from hypergroup.evaluation import rank_items
from hypergroup.graph import build_hypergraph, build_social_graph
from hypergroup.model import load_params, score_items_for_embedding


SYNTH_CFG = {
    "num_users": 24,
    "num_items": 15,
    "num_groups": 10,
    "avg_group_size": 3.0,
    "num_latent_topics": 3,
    "overlap_strength": 0.6,
    "interactions_per_user": 5.0,
    "interactions_per_group": 2.0,
    "seed": 3,
}

RUN_CFG = {
    "model": {"d": 8, "k_ipm": 1, "s_ipm": 2, "k_hrl": 1, "s_hrl": 2, "dropout": 0.0},
    "train": {"learning_rate": 0.003, "batch_size": 64, "epochs": 3, "seed": 5},
}


@pytest.fixture()
def data_dir(tmp_path):
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG))
    out = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def write_run_cfg(tmp_path, run_cfg=None, name="run"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(run_cfg or RUN_CFG))
    return cfg_path


def run_train(tmp_path, data_dir, out_name="run", extra=(), run_cfg=None):
    cfg_path = write_run_cfg(tmp_path, run_cfg, out_name)
    out = tmp_path / out_name
    rc = cli.main(
        ["train", "--data", str(data_dir), "--config", str(cfg_path), "--out", str(out), *extra]
    )
    assert rc == 0
    return out


class TestSynth:
    def test_output_loads_and_matches_counts(self, data_dir):
        ds = load_dataset(data_dir)
        assert ds.num_users == SYNTH_CFG["num_users"]
        assert ds.num_items == SYNTH_CFG["num_items"]
        assert ds.num_groups == SYNTH_CFG["num_groups"]

    def test_fixed_seed_identical_files(self, tmp_path, data_dir):
        cfg_path = tmp_path / "synth2.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        out2 = tmp_path / "data2"
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("social.tsv", "user_item.tsv", "group_members.tsv", "group_item.tsv"):
            assert (data_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_config_usage_error(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"num_users": 2, "num_items": 3, "num_groups": 1,
                                        "avg_group_size": 50}))
        rc = cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1


class TestTrain:
    def test_writes_artifacts_and_manifest(self, tmp_path, data_dir):
        out = run_train(tmp_path, data_dir)
        for name in ("checkpoint.bin", "manifest.json", "loss.csv", "train_report.json"):
            assert (out / name).is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["variant"] == "FULL"
        assert len(manifest["dataset_fingerprint"]) == 64

    def test_byte_identical_checkpoints_for_same_seed(self, tmp_path, data_dir):
        out1 = run_train(tmp_path, data_dir, "run1", extra=["--seed", "7"])
        out2 = run_train(tmp_path, data_dir, "run2", extra=["--seed", "7"])
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()
        assert (out1 / "manifest.json").read_text() == (out2 / "manifest.json").read_text()

    def test_variant_flag_recorded_and_tensors_omitted(self, tmp_path, data_dir):
        out = run_train(tmp_path, data_dir, "runh", extra=["--variant", "h"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["variant"] == "NO_HRL"
        params, cfg, _ = load_params(out / "checkpoint.bin")
        assert cfg.variant == "NO_HRL"
        assert not any(n.startswith("hrl_") for n, _ in params.named_tensors())

    def test_missing_data_dir_exits_2(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(RUN_CFG))
        rc = cli.main(["train", "--data", str(tmp_path / "nope"), "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_required_flag_exits_1(self, capsys):
        assert cli.main(["train", "--data", "somewhere"]) == 1
        assert "error" in capsys.readouterr().err

    def test_all_positive_entity_exits_2_before_training(self, tmp_path, capsys):
        # every user holds all 4 items, so no user-item pair has a negative
        src = tmp_path / "data"
        src.mkdir()
        (src / "social.tsv").write_text("a\tb\nc\td\n")
        (src / "user_item.tsv").write_text("".join(f"{u}\ti{k}\n" for u in "abcd" for k in range(4)))
        (src / "group_members.tsv").write_text("g0\ta\ng0\tb\ng1\tc\ng1\td\n")
        (src / "group_item.tsv").write_text("g0\ti0\ng1\ti1\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"model": {"d": 4}, "train": {"epochs": 1, "seed": 1}}))
        out = tmp_path / "out"
        rc = cli.main(["train", "--data", str(src), "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err == ("hypergroup: data error: user 'b''s training positives cover all 4 items; "
                       "no negatives exist\n")
        assert not (out / "checkpoint.bin").exists()

    def test_memberless_group_exits_2_naming_its_raw_id(self, tmp_path, capsys):
        # group k appears only in group_item.tsv, so it has no members
        src = tmp_path / "data"
        src.mkdir()
        (src / "social.tsv").write_text("a\tb\n")
        (src / "user_item.tsv").write_text("a\ti\nb\tj\n")
        (src / "group_members.tsv").write_text("h\ta\ng\tb\n")
        (src / "group_item.tsv").write_text("k\ti\nh\tj\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"model": {"d": 4}, "train": {"epochs": 1, "seed": 1}}))
        rc = cli.main(["train", "--data", str(src), "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "hypergroup: data error: group 'k' has no members\n"

    def test_strategy_flag_applies(self, tmp_path, data_dir):
        out = run_train(tmp_path, data_dir, "rj", extra=["--strategy", "joint"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["strategy"] == "JOINT"

    @pytest.mark.parametrize("flag", ["s", "sh"])
    def test_every_variant_trains_and_evaluates(self, tmp_path, data_dir, flag):
        out = run_train(tmp_path, data_dir, f"rv_{flag}", extra=["--variant", flag])
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(data_dir), "--topn", "5"])
        assert rc == 0

    def test_variant_u_is_gone(self, tmp_path, data_dir, capsys):
        # the run without the user task is --strategy group-only
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(RUN_CFG))
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data_dir), "--config", str(cfg_path),
                       "--out", str(tmp_path / "run"), "--variant", "u"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "--variant" in err


def blas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS runs, as OpenBLAS reads it
    back (forcing ``Prescott`` reads back ``Katmai``)."""
    get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    get.restype = ctypes.c_char_p
    return get().decode()


# the golden run in a fresh process, so OPENBLAS_CORETYPE picks its kernel;
# prints the kernel read back and the checkpoint's digest
GOLDEN_RUN = """
import hashlib, sys
from pathlib import Path
from test_cli import blas_core
from hypergroup import cli

tmp = Path(sys.argv[1])
assert cli.main(["synth", "--config", str(tmp / "synth.json"), "--out", str(tmp / "data")]) == 0
assert cli.main(["train", "--data", str(tmp / "data"), "--config", str(tmp / "run.json"),
                 "--out", str(tmp / "run")]) == 0
print(blas_core(), hashlib.sha256((tmp / "run" / "checkpoint.bin").read_bytes()).hexdigest())
"""


class TestGoldenDigest:
    """A fixed run's checkpoint bytes are pinned across kernel changes.

    The exact-order contract of ``numeric`` lets a faster kernel replace a
    slower one only when every float operation stays the same, so the
    checkpoint of a fixed config and seed must not move.  This run is big
    enough that ``scatter_add`` takes its path for strictly ascending
    indices, its level path for all others, sorted or not, and its
    accumulate path for the tails of heavy rows.  It goes through JOINT
    training with Adam, dropout, l2 and two layers of each encoder, and
    the user and item tables hold their gradients as row sums.  Its tables
    are too small for ``sum_squares``' blocked sum.

    The digests belong to the numpy and OpenBLAS build they were recorded
    with (numpy 2.4.6, scipy-openblas 0.3.31 on x86-64), one per kernel
    family that build runs: each family may round a matrix product
    differently and so gives another, equally valid, digest.  They are
    keyed by the family OpenBLAS reads back, oldest first.  A host whose
    family has no entry fails, naming the family and the digest it got.
    """

    SYNTH = {"num_users": 400, "num_items": 60, "num_groups": 300, "avg_group_size": 4.0,
             "num_latent_topics": 4, "overlap_strength": 0.6, "interactions_per_user": 5.0,
             "interactions_per_group": 2.0, "seed": 11}
    RUN = {"model": {"d": 8, "k_ipm": 2, "s_ipm": 3, "k_hrl": 2, "s_hrl": 3, "dropout": 0.2},
           "train": {"learning_rate": 0.01, "batch_size": 128, "epochs": 2, "l2_reg": 0.001,
                     "strategy": "JOINT", "optimizer": "ADAM", "seed": 7}}
    DIGESTS = {
        "Katmai": "7f8ba253d90cb898fb9b3edf2ea3bfc5325cd29d43371c1f99577163f4d0c941",
        "Nehalem": "6328a3efaa8ffbb53faf56cf109ec0f5112001d026a5a52fe1d262661ca93da9",
        "Sandybridge": "3638cf39c3bbb7638bf20ffd4c9055b174fd953fd55a0adbdd506012dc37c40c",
        "Haswell": "233156009461bb0da0e8d5c41d2c8ac195912c8f0a9fed3f4643aa75cbf48b56",
        "SkylakeX": "c3f08a909805ebefd9f8073fd024ea46e0ae1f5809afad6388ffcfc73c576470",
    }

    def test_checkpoint_digest_is_pinned(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(self.SYNTH))
        data = tmp_path / "data"
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
        out = run_train(tmp_path, data, run_cfg=self.RUN)
        core, digest = blas_core(), hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest()
        assert self.DIGESTS.get(core) == digest, f"OpenBLAS kernel {core} gave digest {digest}"

    @pytest.mark.parametrize("kernel", list(DIGESTS))
    def test_each_recorded_kernel_gives_its_digest(self, tmp_path, kernel):
        # a kernel newer than the host's own may need instructions the CPU
        # lacks; where OpenBLAS falls back to an older one, that one's
        # digest must match
        (tmp_path / "synth.json").write_text(json.dumps(self.SYNTH))
        (tmp_path / "run.json").write_text(json.dumps(self.RUN))
        path = (str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).parent),
                os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "OPENBLAS_CORETYPE": kernel}
        out = subprocess.run([sys.executable, "-c", GOLDEN_RUN, str(tmp_path)], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        core, digest = out.stdout.splitlines()[-1].split()
        host, families = blas_core(), list(self.DIGESTS)
        assert host in families, f"OpenBLAS kernel {host} has no recorded digest"
        if families.index(kernel) <= families.index(host):
            assert core == kernel
        assert self.DIGESTS.get(core) == digest, f"OpenBLAS kernel {core} gave digest {digest}"


class TestGoldenOutputs:
    """The serving and reporting paths of the golden-digest run are pinned too.

    ``recommend`` stdout is pinned for an exact group, for a member set that
    overlaps known groups without matching one (the transient hyperedge),
    and for users who are in no group (the member average); one ``eval
    --out`` report is pinned as well.  Same numpy/BLAS caveat as
    :class:`TestGoldenDigest`.
    """

    RECOMMEND = {
        "exact": "55470e9782dad5e72e1dafd3d08383680d50c2212d0b2c3342a39582db81c99b",
        "overlap": "7de628ba0def1a86b138aee06dde8030ed1845958cc87956cad701ccdd9955af",
        "groupless": "bbf04e354904f928ee5cad6196e0bd119b6d5553822f37f51d82156df0025d04",
    }
    EVAL = "97010bf10b8bc361c1a1037bdbd4cebb8c59cfc2746c832294a4a2589e2d0618"

    @pytest.fixture(scope="class")
    def golden(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("golden")
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(TestGoldenDigest.SYNTH))
        data = tmp_path / "data"
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
        out = run_train(tmp_path, data, run_cfg=TestGoldenDigest.RUN)
        return data, out / "checkpoint.bin"

    @staticmethod
    def member_sets(ds):
        """Exact, overlapping and groupless member sets, checked to take their paths."""
        hyper = build_hypergraph(ds)
        grouped = sorted(set().union(*map(set, ds.memberships)))
        sets = {
            "exact": list(ds.memberships[0]),
            "overlap": [ds.memberships[0][0], ds.memberships[1][0], ds.memberships[2][0]],
            "groupless": sorted(set(range(ds.num_users)) - set(grouped))[:2],
        }
        kinds = {name: hm.TransientHypergraphView(hyper, members) for name, members in sets.items()}
        assert kinds["exact"].exact_group == 0
        assert kinds["overlap"].exact_group is None and kinds["overlap"].has_known_neighbors
        assert len(sets["groupless"]) == 2 and not kinds["groupless"].has_known_neighbors
        return sets

    @pytest.mark.parametrize("kind", ["exact", "overlap", "groupless"])
    def test_recommend_digest_is_pinned(self, golden, capsys, kind):
        data, ckpt = golden
        ds = load_dataset(data)
        names = ds.id_maps.reverse("users")
        members = ",".join(names[u] for u in self.member_sets(ds)[kind])
        capsys.readouterr()
        assert cli.main(["recommend", "--checkpoint", str(ckpt), "--data", str(data),
                         "--members", members, "--topn", "20", "--seed", "13"]) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == self.RECOMMEND[kind]

    def test_eval_report_digest_is_pinned(self, golden, tmp_path):
        data, ckpt = golden
        report = tmp_path / "report.json"
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--topn", "1,5,10", "--strata", "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.EVAL


class TestEval:
    def test_json_report_with_requested_cutoffs(self, tmp_path, data_dir, capsys):
        out = run_train(tmp_path, data_dir)
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(data_dir), "--topn", "5,10"])
        assert rc == 0
        stdout = capsys.readouterr().out
        blob = json.loads(stdout[stdout.index("{"):])
        assert set(blob["metrics"]) == {"5", "10"}

    def test_deterministic_reports(self, tmp_path, data_dir, capsys):
        out = run_train(tmp_path, data_dir)
        args = ["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data_dir),
                "--topn", "5", "--out", str(tmp_path / "r1.json")]
        assert cli.main(args) == 0
        args[-1] = str(tmp_path / "r2.json")
        assert cli.main(args) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_users_target_runs(self, tmp_path, data_dir, capsys):
        out = run_train(tmp_path, data_dir)
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(data_dir), "--topn", "5", "--target", "users"])
        assert rc == 0
        stdout = capsys.readouterr().out
        blob = json.loads(stdout[stdout.index("{"):])
        assert blob["target"] == "users"

    def test_strata_flag_emits_bins(self, tmp_path, data_dir, capsys):
        out = run_train(tmp_path, data_dir)
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(data_dir), "--topn", "5", "--strata"])
        assert rc == 0
        stdout = capsys.readouterr().out
        blob = json.loads(stdout[stdout.index("{"):])
        assert "group_size" in blob["strata"]
        assert "item_activity" in blob["strata"]

    @pytest.mark.parametrize("split,target", [("train", "users"), ("all", "groups")])
    def test_test_cases_among_excluded_positives_exit_1(self, tmp_path, data_dir, capsys, split, target):
        # the split shares its pairs with train: excluding them would report zeros
        out = run_train(tmp_path, data_dir)
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data_dir),
                       "--split", split, "--target", target, "--exclude-train-positives"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "excluded training positive" in err

    @pytest.mark.parametrize("target", ["groups", "users"])
    def test_excluded_positive_clash_names_raw_ids(self, tmp_path, data_dir, capsys, target):
        # the data's ids are not its dense indices: the refusal names the ids
        src = tmp_path / "named"
        src.mkdir()
        prefixes = {"social.tsv": "uu", "user_item.tsv": "ui", "group_members.tsv": "gu", "group_item.tsv": "gi"}
        for name, (a, b) in prefixes.items():
            rows = [line.split("\t") for line in (data_dir / name).read_text().splitlines()]
            (src / name).write_text("".join(f"{a}{x}\t{b}{y}\n" for x, y in rows))
        out = run_train(tmp_path, src)
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(src),
                       "--split", "all", "--target", target, "--exclude-train-positives"])
        err = capsys.readouterr().err
        assert rc == 1
        entity = target[:-1]
        named = re.fullmatch(f"hypergroup: config error: {entity} '({entity[0]}\\d+)' has item '(i\\d+)' "
                             "both as a test case and as an excluded training positive\n", err)
        assert named and f"{named[1]}\t{named[2]}\n" in (src / f"{entity}_item.tsv").read_text()

    def test_split_without_cases_exits_2(self, tmp_path, capsys):
        # 5 group-item pairs over 4 groups: the val split gets none of them
        src = tmp_path / "data"
        src.mkdir()
        (src / "social.tsv").write_text("a\tb\nc\td\n")
        (src / "user_item.tsv").write_text("".join(f"{u}\ti{k}\n" for u in "abcd" for k in (4, 5)))
        (src / "group_members.tsv").write_text("g0\ta\ng0\tb\ng1\tb\ng1\tc\ng2\tc\ng2\td\ng3\ta\ng3\td\n")
        (src / "group_item.tsv").write_text("g0\ti0\ng1\ti1\ng2\ti2\ng3\ti3\ng0\ti1\n")
        out = run_train(tmp_path, src, run_cfg={"model": {"d": 4}, "train": {"epochs": 1, "seed": 1}})
        _, val, _ = split_interactions(load_dataset(src), SplitSpec(seed=1))
        assert not val.group_item
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(src),
                       "--split", "val"])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("hypergroup: data error: ") and "val" in err

    def test_checkpoint_dataset_mismatch_exits_2(self, tmp_path, data_dir):
        out = run_train(tmp_path, data_dir)
        other_cfg = dict(SYNTH_CFG, num_users=30, seed=9)
        cfg_path = tmp_path / "other.json"
        cfg_path.write_text(json.dumps(other_cfg))
        other_data = tmp_path / "other_data"
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(other_data)]) == 0
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(other_data), "--topn", "5"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["eval", "recommend"])
    def test_checkpoint_with_bytes_after_its_tensors_exits_2(self, tmp_path, data_dir, capsys, command):
        out = run_train(tmp_path, data_dir)
        padded = tmp_path / "padded.bin"
        padded.write_bytes((out / "checkpoint.bin").read_bytes() + b"7 bytes")
        member = load_dataset(data_dir).id_maps.reverse("users")[0]
        extra = ["--members", member] if command == "recommend" else []
        capsys.readouterr()
        rc = cli.main([command, "--checkpoint", str(padded), "--data", str(data_dir), *extra])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "7 bytes after the last tensor" in captured.err


class TestRecommend:
    def test_existing_group_matches_eval_pathway(self, tmp_path, data_dir, capsys):
        out = run_train(tmp_path, data_dir)
        ds = load_dataset(data_dir)
        g = max(range(ds.num_groups), key=lambda i: len(ds.memberships[i]))
        user_names = ds.id_maps.reverse("users")
        members = ",".join(user_names[u] for u in ds.memberships[g])
        rc = cli.main(["recommend", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(data_dir), "--members", members,
                       "--topn", "5", "--seed", "13"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if "\t" in l]
        got_items = [l.split("\t")[0] for l in lines]

        params, model_cfg, _ = load_params(out / "checkpoint.bin")
        social = build_social_graph(ds)
        hyper = build_hypergraph(ds)
        fp = hm.ForwardPass(params, model_cfg, social, hyper, np.random.default_rng(13))
        emb = fp.group_vectors([g]).values[0]
        scores = score_items_for_embedding(emb, params, params.group_mlp, model_cfg)
        item_names = ds.id_maps.reverse("items")
        want_items = [item_names[int(v)] for v in rank_items(scores)[:5]]
        assert got_items == want_items

    def test_unknown_member_exits_2(self, tmp_path, data_dir, capsys):
        out = run_train(tmp_path, data_dir)
        rc = cli.main(["recommend", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(data_dir), "--members", "who-is-this", "--topn", "3"])
        assert rc == 2
        assert "who-is-this" in capsys.readouterr().err

    def test_novel_member_set_runs(self, tmp_path, data_dir, capsys):
        out = run_train(tmp_path, data_dir)
        ds = load_dataset(data_dir)
        user_names = ds.id_maps.reverse("users")
        in_any = set().union(*[set(m) for m in ds.memberships])
        pool = sorted(set(range(ds.num_users)))
        picks = [u for u in pool if u in in_any][:2] + [u for u in pool if u not in in_any][:1]
        members = ",".join(user_names[u] for u in picks)
        rc = cli.main(["recommend", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(data_dir), "--members", members, "--topn", "4"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if "\t" in l]
        assert len(lines) == 4


class TestRecommendSingleUser:
    def test_groupless_user_scores_via_group_tower(self, tmp_path, capsys):
        # build a dataset where user "loner" has interactions but no group
        src = tmp_path / "data"
        src.mkdir()
        (src / "social.tsv").write_text("a\tb\nb\tc\nloner\ta\n")
        (src / "user_item.tsv").write_text("a\ti0\nb\ti1\nc\ti2\nloner\ti3\n")
        (src / "group_members.tsv").write_text("g\ta\ng\tb\nh\tb\nh\tc\n")
        (src / "group_item.tsv").write_text("g\ti0\nh\ti2\ng\ti1\nh\ti1\ng\ti2\nh\ti0\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "model": {"d": 4, "k_ipm": 1, "s_ipm": 2, "k_hrl": 1, "s_hrl": 2, "dropout": 0.0},
            "train": {"learning_rate": 0.003, "batch_size": 8, "epochs": 2, "seed": 1},
            "split": {"train_ratio": 0.5, "val_ratio": 0.25, "test_ratio": 0.25},
        }))
        out = tmp_path / "out"
        assert cli.main(["train", "--data", str(src), "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        rc = cli.main(["recommend", "--checkpoint", str(out / "checkpoint.bin"),
                       "--data", str(src), "--members", "loner", "--topn", "2",
                       "--seed", "3"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if "\t" in l]

        ds = load_dataset(src)
        params, model_cfg, _ = load_params(out / "checkpoint.bin")
        social = build_social_graph(ds)
        u = ds.id_maps.users["loner"]
        fp = hm.ForwardPass(params, model_cfg, social, None, np.random.default_rng(3))
        emb = fp.member_vectors([u]).values[0]
        scores = score_items_for_embedding(emb, params, params.group_mlp, model_cfg)
        item_names = ds.id_maps.reverse("items")
        want = [item_names[int(v)] for v in rank_items(scores)[:2]]
        assert [l.split("\t")[0] for l in lines] == want


class TestNodeFeaturesFile:
    def test_precomputed_features_are_loaded_frozen(self, tmp_path, data_dir):
        import numpy as np
        from hypergroup import numeric as nm

        ds = load_dataset(data_dir)
        feats = np.random.default_rng(0).normal(size=(ds.num_users, 8))
        feature_path = tmp_path / "features.bin"
        nm.save_checkpoint(feature_path, [("node_features", nm.Tensor(feats))], {})
        run_cfg = dict(RUN_CFG)
        run_cfg["node_features_file"] = str(feature_path)
        out = run_train(tmp_path, data_dir, "rf", run_cfg=run_cfg)
        params, _, _ = load_params(out / "checkpoint.bin")
        np.testing.assert_array_equal(params.node_features.values, feats)


class TestWriteFailures:
    def test_out_under_a_regular_file_exits_2(self, tmp_path, data_dir, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(RUN_CFG))
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data_dir), "--config", str(cfg_path),
                       "--out", str(blocker / "run")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("hypergroup: data error: ")

    def test_unwritable_id_map_exits_2(self, tmp_path, data_dir, capsys):
        # a directory in the id map's place: loading tries to write the map
        (data_dir / "id_map.json").unlink()
        (data_dir / "id_map.json").mkdir()
        out = tmp_path / "run"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(RUN_CFG))
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data_dir), "--config", str(cfg_path),
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("hypergroup: data error: ")
        assert not out.exists()


class TestSplitRecord:
    def test_checkpoint_and_manifest_record_the_split_spec(self, tmp_path, data_dir):
        run_cfg = dict(RUN_CFG, split={"train_ratio": 0.7, "val_ratio": 0.2, "test_ratio": 0.1})
        out = run_train(tmp_path, data_dir, "rs", run_cfg=run_cfg)
        want = {"train_ratio": 0.7, "val_ratio": 0.2, "test_ratio": 0.1, "seed": 5}
        _, _, meta = load_params(out / "checkpoint.bin")
        assert meta["split"] == want
        assert json.loads((out / "manifest.json").read_text())["config"]["split"] == want

    def test_checkpoint_with_a_broken_split_block_exits_2(self, tmp_path, data_dir, capsys):
        out = run_train(tmp_path, data_dir)
        params, cfg, meta = load_params(out / "checkpoint.bin")
        broken = tmp_path / "broken.bin"
        hm.save_params(broken, params, cfg, meta["seed"], extra_meta={"split": {"train_ratio": 0.8}})
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(broken), "--data", str(data_dir), "--topn", "5"])
        assert rc == 2
        assert "split" in capsys.readouterr().err

    def test_checkpoint_without_a_split_block_takes_only_split_all(self, tmp_path, data_dir, capsys):
        # with no recorded split, a named split cannot be re-derived; scoring
        # every interaction under its name would pass off train pairs as test
        out = run_train(tmp_path, data_dir)
        params, cfg, meta = load_params(out / "checkpoint.bin")
        bare = tmp_path / "bare.bin"
        hm.save_params(bare, params, cfg, meta["seed"])
        for split in ("train", "val", "test"):
            capsys.readouterr()
            rc = cli.main(["eval", "--checkpoint", str(bare), "--data", str(data_dir), "--split", split])
            assert rc == 2
            assert capsys.readouterr().err == (f"hypergroup: data error: checkpoint {bare} records no split; "
                                               "only --split all applies\n")
        assert cli.main(["eval", "--checkpoint", str(bare), "--data", str(data_dir), "--split", "all"]) == 0


class TestIntegerConfigFields:
    """A value of the wrong type for any config field (a float or a bool
    where an integer goes; a string, a bool or a non-finite number where a
    float goes), an unknown field, a section that is no JSON object or a
    value outside its field's declared bounds is a one-line error.  The
    class keeps its first name, from when it covered integer fields only."""

    @pytest.mark.parametrize("section,name,value", [
        ("model", "d", 8.0), ("model", "s_hrl", 2.0), ("model", "k_ipm", True),
        ("model", "mlp_hidden", [2.5]), ("train", "batch_size", 16.0), ("train", "epochs", True),
        ("train", "user_budget", 32.0), ("train", "user_budget", -1), ("split", "seed", 1.5),
        ("train", "learning_rate", "0.1"), ("train", "learning_rate", True),
        ("train", "learning_rate", float("nan")), ("train", "l2_reg", float("inf")),
        ("split", "train_ratio", "0.8"), ("model", "normalize_overlap_weights", True),
        ("train", "seed", -1), ("split", "seed", -1), ("train", "early_stop_patience", -3),
        ("model", "variant", "NO_USER_TASK"), ("model", "s_ipm", 201), ("model", "s_hrl", 201),
    ])
    def test_run_config_exits_1(self, tmp_path, data_dir, capsys, section, name, value):
        run_cfg = dict(RUN_CFG, split={})
        run_cfg[section] = dict(run_cfg[section], **{name: value})
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(run_cfg))
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data_dir), "--config", str(cfg_path),
                       "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and name in err

    def test_sample_size_ceiling_is_accepted(self, tmp_path, data_dir):
        run_cfg = dict(RUN_CFG, model=dict(RUN_CFG["model"], s_ipm=200, s_hrl=200),
                       train=dict(RUN_CFG["train"], epochs=1))
        out = run_train(tmp_path, data_dir, run_cfg=run_cfg)
        assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(data_dir)]) == 0

    @pytest.mark.parametrize("section", ["model", "train", "split"])
    def test_non_object_section_exits_1(self, tmp_path, data_dir, capsys, section):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(dict(RUN_CFG, **{section: [1, 2]})))
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data_dir), "--config", str(cfg_path),
                       "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and section in err

    @pytest.mark.parametrize("name,value", [("num_users", 30.0), ("seed", True), ("avg_group_size", "3"),
                                            ("seed", -3), ("interactions_per_user", -1), ("social_degree", -2),
                                            ("interactions_per_group", 1e300), ("cross_topic_noise", 1.5),
                                            ("num_users", 10**20), ("num_items", 10**20)])
    def test_synth_config_exits_1(self, tmp_path, capsys, name, value):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(dict(SYNTH_CFG, **{name: value})))
        rc = cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and name in err

    @pytest.mark.parametrize("block,name,value", [
        ("config", "k_ipm", 1.0), ("config", "d", 8.0), ("config", "s_hrl", 2.5),
        ("config", "mlp_hidden", [8.5, 4]), ("split", "seed", 1.5),
        ("config", "residual_w", True), ("config", "normalize_overlap_weights", False),
        ("config", "variant", "NO_USER_TASK"), ("config", "s_ipm", 201), ("config", "s_hrl", 201),
    ])
    def test_checkpoint_exits_2(self, tmp_path, data_dir, capsys, block, name, value):
        out = run_train(tmp_path, data_dir)
        params, cfg, meta = load_params(out / "checkpoint.bin")
        broken = tmp_path / "broken.bin"
        hm.save_params(broken, params, cfg, meta["seed"],
                       extra_meta={block: dict(meta[block], **{name: value})})
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(broken), "--data", str(data_dir), "--topn", "5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and name in err

    def test_edited_checkpoint_config_exits_2(self, tmp_path, data_dir, capsys):
        # valid values of the same tensor shapes, so only the stored hash tells
        out = run_train(tmp_path, data_dir)
        params, cfg, meta = load_params(out / "checkpoint.bin")
        edited = tmp_path / "edited.bin"
        hm.save_params(edited, params, cfg, meta["seed"],
                       extra_meta={"config": dict(meta["config"], residual_w=1.0, s_hrl=50), "split": meta["split"]})
        capsys.readouterr()
        rc = cli.main(["eval", "--checkpoint", str(edited), "--data", str(data_dir), "--topn", "5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and "config_sha256" in err


class TestFailureLines:
    """Failures that numpy raises or warns about still end a run in one line."""

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 22.4 GiB for an array with shape (300, 10000000) and data type float64"),
        MemoryError(),
    ])
    def test_failed_allocation_exits_1(self, tmp_path, data_dir, capsys, monkeypatch, error):
        def allocate(rng, shape):
            raise error

        monkeypatch.setattr(hm, "_glorot", allocate)
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data_dir), "--config", str(write_run_cfg(tmp_path)),
                       "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("hypergroup: out of memory: ") and len(err.splitlines()) == 1
        assert str(error) in err
        assert not (tmp_path / "run").exists()

    @staticmethod
    def train_in_a_fresh_process(tmp_path, synth_cfg, learning_rate):
        """``train`` in a fresh process, where numpy's warnings and the
        package's log records reach stderr as they would for a user."""
        (tmp_path / "synth.json").write_text(json.dumps(synth_cfg))
        data_dir = tmp_path / "data"
        assert cli.main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(data_dir)]) == 0
        cfg_path = write_run_cfg(tmp_path, dict(RUN_CFG, train=dict(RUN_CFG["train"], learning_rate=learning_rate)))
        path = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        return subprocess.run([sys.executable, "-m", "hypergroup.cli", "train", "--data", str(data_dir),
                               "--config", str(cfg_path), "--out", str(tmp_path / "run")],
                              env=env, capture_output=True, text=True, timeout=300)

    # groups of 1.2 members on average: the loader warns of single-member groups
    SINGLES = dict(SYNTH_CFG, avg_group_size=1.2)

    def test_diverging_run_prints_only_its_failure(self, tmp_path):
        # on data whose loading warns of nothing (no single-member group)
        out = self.train_in_a_fresh_process(tmp_path, dict(SYNTH_CFG, avg_group_size=4.0), 1e308)
        assert out.returncode == 3
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("hypergroup: numeric failure: non-finite")
        assert not (tmp_path / "run").exists()

    def test_diverging_run_on_single_member_groups_prints_only_its_failure(self, tmp_path):
        out = self.train_in_a_fresh_process(tmp_path, self.SINGLES, 1e308)
        assert out.returncode == 3
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("hypergroup: numeric failure: non-finite")
        assert not (tmp_path / "run").exists()

    def test_a_successful_run_still_warns_of_single_member_groups_once(self, tmp_path):
        out = self.train_in_a_fresh_process(tmp_path, self.SINGLES, RUN_CFG["train"]["learning_rate"])
        assert out.returncode == 0
        (line,) = out.stderr.splitlines()
        assert re.fullmatch(r"[1-9]\d* group\(s\) have a single member", line)
        assert (tmp_path / "run" / "checkpoint.bin").exists()


class TestConfigFiles:
    """A run or synth config file that is not the documented JSON object
    is a one-line error, never a traceback."""

    @pytest.mark.parametrize("command", ["train", "synth"])
    @pytest.mark.parametrize("blob", [b'{"seed": "\xff"}', b"[" * 100_000], ids=["not_utf8", "deep_nesting"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, command, blob):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(blob)
        extra = ["--data", str(tmp_path)] if command == "train" else []
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"), *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("hypergroup: data error: ")

    @pytest.mark.parametrize("key,value", [
        ("modle", {"d": 8}), ("node_features_file", [1]), ("node_features_file", {"path": "f.bin"}),
        ("node_features_file", ""),
    ])
    def test_bad_top_level_key_exits_1(self, tmp_path, data_dir, capsys, key, value):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(dict(RUN_CFG, **{key: value})))
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data_dir), "--config", str(cfg_path),
                       "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and key in err


class TestCountFlags:
    """``--topn`` takes positive integers (eval: a comma-separated list)."""

    @pytest.mark.parametrize("command,value", [
        ("eval", "5,x"), ("eval", "0"), ("eval", ","), ("recommend", "-1"), ("recommend", "0"),
        ("recommend", "x"),
    ])
    def test_bad_count_exits_1(self, tmp_path, capsys, command, value):
        extra = ["--members", "a"] if command == "recommend" else []
        rc = cli.main([command, "--checkpoint", str(tmp_path / "c.bin"), "--data", str(tmp_path),
                       *extra, "--topn", value])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "--topn" in err


class TestSeeds:
    """A seed is a non-negative integer, from a flag or from a checkpoint."""

    @pytest.mark.parametrize("command,value", [
        ("train", "-1"), ("eval", "-1"), ("recommend", "-2"), ("eval", "1.5"), ("recommend", "x"),
    ])
    def test_bad_seed_flag_exits_1(self, tmp_path, capsys, command, value):
        extra = {"train": ["--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "run")],
                 "eval": ["--checkpoint", str(tmp_path / "c.bin")],
                 "recommend": ["--checkpoint", str(tmp_path / "c.bin"), "--members", "a"]}[command]
        rc = cli.main([command, "--data", str(tmp_path), *extra, "--seed", value])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "--seed" in err

    @pytest.mark.parametrize("command", ["eval", "recommend"])
    @pytest.mark.parametrize("value", [-1, 1.5, "3", True])
    def test_bad_checkpoint_seed_exits_2(self, tmp_path, data_dir, capsys, command, value):
        out = run_train(tmp_path, data_dir)
        params, cfg, meta = load_params(out / "checkpoint.bin")
        broken = tmp_path / "broken.bin"
        hm.save_params(broken, params, cfg, 0, extra_meta={"split": meta["split"], "seed": value})
        member = load_dataset(data_dir).id_maps.reverse("users")[0]
        extra = ["--members", member] if command == "recommend" else []
        capsys.readouterr()
        rc = cli.main([command, "--checkpoint", str(broken), "--data", str(data_dir), *extra])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1 and "seed" in err


class TestUsageAndVersion:
    def test_no_command_exits_1(self):
        assert cli.main([]) == 1

    def test_unknown_command_exits_1(self):
        assert cli.main(["frobnicate"]) == 1

    def test_version_exits_0(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "hypergroup" in capsys.readouterr().out
