"""The dataset loader's two parse paths against the line-by-line loader
it replaced.

``load_dataset`` splits a plain file (every line two whitespace-free
fields around one tab, none starting with ``#``) in one call and runs a
line loop over any other; it then builds the record with array
operations.  The oracle below is the earlier loader, kept verbatim: one
line at a time, per-pair dict lookups, ``dict.fromkeys`` dedupe and a
per-row membership loop.  Both must give the same record, id map, warnings
and errors; only the text of the UTF-8 refusal differs, because it now
names the line of the first bad byte.
"""

import errno
import json
import logging
import tempfile
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypergroup import cli
from hypergroup import data as hd
from hypergroup.errors import DataError, IntegrityError, ParseError

# ---------------------------------------------------------------------------
# the oracle: the line-by-line loader


def oracle_read_pairs(path: Path) -> list[tuple[str, str]]:
    pairs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split("\t")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ParseError(f"{path.name}:{lineno}: expected two tab-separated fields")
                pairs.append((parts[0], parts[1]))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path.name}: not valid UTF-8: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return pairs


def oracle_first_seen(*columns) -> dict[str, int]:
    return {raw: i for i, raw in enumerate(dict.fromkeys(chain(*columns)))}


def oracle_lookup(ids, raws, file, kind) -> list[int]:
    try:
        return [ids[raw] for raw in raws]
    except KeyError as exc:
        raise IntegrityError(f"{file}: unknown {kind} id {exc.args[0]!r}") from None


def oracle_dedupe(pairs, label):
    out = list(dict.fromkeys(pairs))
    if len(out) != len(pairs):
        hd.log.warning("dropped %d duplicate %s pair(s)", len(pairs) - len(out), label)
    return out


def oracle_load(dir_path) -> hd.InteractionDataset:
    root = Path(dir_path)
    social_raw, user_item_raw, members_raw, group_item_raw = (oracle_read_pairs(root / n) for n in hd.DATA_FILES)

    map_path = root / hd.ID_MAP_FILE
    if map_path.is_file():
        maps = hd._read_id_map(map_path)
    else:
        maps = hd.IdMaps(
            users=oracle_first_seen(chain.from_iterable(social_raw), (u for u, _ in user_item_raw)),
            items=oracle_first_seen((v for _, v in user_item_raw), (v for _, v in group_item_raw)),
            groups=oracle_first_seen((g for g, _ in members_raw), (g for g, _ in group_item_raw)),
        )
        try:
            with hd.atomic_write(map_path, encoding="utf-8") as fh:
                fh.write(hd._id_map_text(maps))
        except OSError as exc:
            if not isinstance(exc, PermissionError) and exc.errno != errno.EROFS:
                raise
            hd.log.warning("cannot write %s (%s); using the derived id map", map_path, exc)

    ends = oracle_lookup(maps.users, chain.from_iterable(social_raw), hd.SOCIAL_FILE, "user")
    edges = list(zip(ends[::2], ends[1::2]))
    social = {(a, b) if a < b else (b, a) for a, b in edges if a != b}
    loops = sum(a == b for a, b in edges)
    if loops:
        hd.log.warning("dropped %d social self-loop(s)", loops)

    ui_users = oracle_lookup(maps.users, (u for u, _ in user_item_raw), hd.USER_ITEM_FILE, "user")
    ui_items = oracle_lookup(maps.items, (v for _, v in user_item_raw), hd.USER_ITEM_FILE, "item")
    user_item = oracle_dedupe(list(zip(ui_users, ui_items)), "user-item")
    gi_groups = oracle_lookup(maps.groups, (g for g, _ in group_item_raw), hd.GROUP_ITEM_FILE, "group")
    gi_items = oracle_lookup(maps.items, (v for _, v in group_item_raw), hd.GROUP_ITEM_FILE, "item")
    group_item = oracle_dedupe(list(zip(gi_groups, gi_items)), "group-item")

    memberships = [[] for _ in range(len(maps.groups))]
    member_groups = oracle_lookup(maps.groups, (g for g, _ in members_raw), hd.GROUP_MEMBERS_FILE, "group")
    seen = set()
    for (g, u), gi in zip(members_raw, member_groups):
        ui = maps.users.get(u)
        if ui is None:
            raise IntegrityError(f"{hd.GROUP_MEMBERS_FILE}: member {u!r} of group {g!r} appears in no user file")
        if (gi, ui) in seen:
            hd.log.warning("group %r lists member %r more than once; ignoring repeat", g, u)
            continue
        seen.add((gi, ui))
        memberships[gi].append(ui)
    for g, members in enumerate(memberships):
        if not members:
            raise IntegrityError(f"group {hd.entity_name(maps, 'groups', g)} has no members")

    ds = hd.InteractionDataset(
        num_users=len(maps.users), num_items=len(maps.items), num_groups=len(maps.groups),
        social_edges=social, user_item=user_item, group_item=group_item,
        memberships=memberships, id_maps=maps,
    )
    singles = sum(len(members) == 1 for members in memberships)
    if singles:
        hd.log.warning("%d group(s) have a single member", singles)
    return ds


# ---------------------------------------------------------------------------
# running both loaders


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(load, root: Path, files, id_map=None):
    """What ``load`` makes of ``files`` (four byte strings) in a fresh
    ``root``: its record or error, its warnings and the id map it leaves."""
    root.mkdir(parents=True)
    for name, blob in zip(hd.DATA_FILES, files):
        (root / name).write_bytes(blob)
    if id_map is not None:
        (root / hd.ID_MAP_FILE).write_bytes(id_map)
    logger = logging.getLogger("hypergroup")
    handler, level = _Warnings(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        ds = load(root)
    except DataError as exc:
        result = (type(exc), str(exc))
    else:
        # repr tells a tuple from a list and an int from a numpy int
        result = (ds, vars(ds.id_maps), type(ds.social_edges), repr(sorted(ds.social_edges)),
                  repr(ds.user_item), repr(ds.group_item), repr(ds.memberships))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    map_path = root / hd.ID_MAP_FILE
    return result, handler.messages, map_path.read_bytes() if map_path.is_file() else None


def assert_same(root: Path, files, id_map=None):
    """Both loaders agree on ``files``; returns this loader's outcome."""
    got = outcome(hd.load_dataset, root / "new", files, id_map)
    want = outcome(oracle_load, root / "old", files, id_map)
    (result, messages, map_bytes), (want_result, want_messages, want_map) = got, want
    if result[0] is ParseError and "not valid UTF-8" in result[1]:
        # the refusal now names its line; a large file's oracle may report
        # an earlier malformed line first (see the mixed case below)
        assert want_result[0] is ParseError and want_result[1].split(":")[0] == result[1].split(":")[0]
        assert ": not valid UTF-8: " in result[1] and result[1].split(":")[1].isdigit()
    else:
        assert result == want_result
    assert messages == want_messages
    assert map_bytes == want_map
    return got


# ---------------------------------------------------------------------------
# cases


# a small valid world, with ids that need no escaping
BASE = ("a\tb\nb\tc\n", "a\ti\nb\tj\nc\ti\n", "g\ta\ng\tb\nh\tc\n", "g\ti\nh\tj\n")


CASES = {
    # (the four files, whether every file is plain)
    "plain": (BASE, True),
    "crlf": (tuple(f.replace("\n", "\r\n") for f in BASE), True),
    "lone_cr": (tuple(f.replace("\n", "\r") for f in BASE), True),
    "mixed_ends_no_trailing_newline": (("a\tb\r\nb\tc", "a\ti\rb\tj\nc\ti", "g\ta\ng\tb\r\nh\tc", "g\ti\rh\tj"), True),
    "comments_blanks_padding": (("# who knows whom\na\tb\n\n  b\tc  \n", "a\ti\n\t\nb\tj \n c\ti\n#\n",
                                 "g\ta\n   \ng\tb\nh\tc\n\n", "# g\ng\ti\nh\tj"), False),
    "interior_space": (("a b\tc\n", "a b\ti\nc\tj\n", "g\ta b\nh\tc\n", "g\ti\nh\tj\n"), False),
    "hash_inside_ids": (("a#b\tc\n", "a#b\ti\nc\t#j\n", "g\ta#b\ng\tc\n", "g\ti\ng\t#j\n"), True),
    "hash_first_is_a_comment": (("a\tb\n#c\td\n", "a\ti\nb\tj\n", "g\ta\n#h\tb\n", "g\ti\n"), False),
    "nel_and_line_separator": (("a\tb\x85\n\u2028b\tc\n", "a\x85b\ti\nb\tj\u2028x\nc\ti\n",
                                "g\ta\u2028b\nh\tc\n", "g\ti\u2028\nh\tj\n"), False),
    "self_loops_duplicates_repeats": (("a\tb\nb\ta\na\ta\nc\tc\nb\tc\n", "a\ti\nb\tj\na\ti\nc\ti\na\ti\n",
                                       "g\ta\ng\tb\ng\ta\nh\tc\nh\tc\n", "g\ti\nh\tj\ng\ti\n"), True),
    # enough rows of two groups in turn that the member order within a
    # group rests on a stable sort
    "interleaved_groups": (("u0\tu1\n", "".join(f"u{k}\ti\n" for k in range(40)),
                            "".join(f"{'gh'[k % 2]}\tu{39 - k}\n" for k in range(40)), "g\ti\nh\ti\n"), True),
    "single_member_groups": (BASE[:2] + ("g\ta\nh\tc\nk\tb\nk\ta\n", "g\ti\nk\tj\n"), True),
    # only the last line is odd: a blank one, or a tab before the missing end
    "odd_last_line": ((BASE[0] + "\n", "a\ti\nb\tj\nc\ti\t") + BASE[2:], False),
    "malformed_line": ((BASE[0], "a\ti\na\ti\tj\n") + BASE[2:], False),
    "field_missing": ((BASE[0], "a\ti\n\tj\n") + BASE[2:], False),
    "unknown_member": (BASE[:2] + ("g\ta\ng\ta\nh\tzed\nh\tc\n", BASE[3]), True),
    "group_without_members": (BASE[:3] + ("g\ti\nghost\tj\n",), True),
}


def with_header(files):
    """``files`` with a comment line first, which sends every file down
    the line path."""
    return tuple("# header\n" + f for f in files)


class _Spy:
    """Records what the whole-text check says of each file."""

    def __init__(self, check):
        self.check, self.said = check, []

    def __call__(self, text):
        plain = self.check(text)
        self.said.append(plain)
        return plain


@pytest.mark.parametrize("with_map", [False, True], ids=["derived_map", "given_map"])
@pytest.mark.parametrize("path", ["whole_text", "lines"])
@pytest.mark.parametrize("case", list(CASES))
def test_both_loaders_agree(tmp_path, monkeypatch, case, path, with_map):
    files, plain = CASES[case]
    if path == "lines":
        files = with_header(files)
    blobs = tuple(f.encode("utf-8") for f in files)
    # the map the oracle derives from the same files, if it gets that far
    id_map = outcome(oracle_load, tmp_path / "derive", blobs)[2] if with_map else None
    spy = _Spy(hd._is_plain)
    monkeypatch.setattr(hd, "_is_plain", spy)
    assert_same(tmp_path, blobs, id_map)
    assert spy.said
    if path == "lines":
        assert not any(spy.said)
    else:
        assert all(spy.said) == plain


def test_unknown_id_in_a_given_map(tmp_path):
    maps = {"users": {"a": 0, "b": 1}, "items": {"i": 0}, "groups": {"g": 0}}
    files = tuple(f.encode() for f in ("a\tb\n", "a\ti\nb\tj\n", "g\ta\n", "g\ti\n"))
    (result, _, _) = assert_same(tmp_path, files, json.dumps(maps).encode())
    assert result == (IntegrityError, "user_item.tsv: unknown item id 'j'")


# ---------------------------------------------------------------------------
# the UTF-8 refusal


def big_user_item(bad_line: int, lines: int = 2400) -> bytes:
    rows = [f"u{k}\ti{k % 50}\n".encode() for k in range(lines)]
    rows[bad_line - 1] = b"u\xff\ti0\n"
    return b"".join(rows)


def test_utf8_refusal_names_the_line_past_the_first_chunk(tmp_path, capsys):
    # the earlier loader named a position counted from its 8 KiB chunk
    blob = big_user_item(2001)
    (tmp_path / "social.tsv").write_text("u0\tu1\n")
    (tmp_path / "user_item.tsv").write_bytes(blob)
    (tmp_path / "group_members.tsv").write_text("g\tu0\n")
    (tmp_path / "group_item.tsv").write_text("g\ti0\n")
    at = blob.index(b"\xff")
    assert at > 8192
    with pytest.raises(ParseError, match=rf"^user_item\.tsv:2001: not valid UTF-8: .* position {at}:"):
        hd.load_dataset(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": {"d": 4}, "train": {"epochs": 1, "seed": 1}}))
    capsys.readouterr()
    rc = cli.main(["train", "--data", str(tmp_path), "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and "user_item.tsv:2001: not valid UTF-8" in err


def test_utf8_refusal_line_counts_every_line_end(tmp_path):
    files = (b"a\tb\n", b"a\ti\r\nb\tj\rc\ti\n\r\nc\t\xffj\n", b"g\ta\n", b"g\ti\n")
    (result, _, _) = assert_same(tmp_path, files)
    assert result[1].startswith("user_item.tsv:5: not valid UTF-8: ")


def test_malformed_line_and_bad_bytes_in_one_file(tmp_path):
    # the earlier loader decoded 8 KiB at a time and reported the malformed
    # line 2; the whole file is decoded first now, so the bad bytes win
    blob = big_user_item(2001).replace(b"u1\ti1\n", b"u1 i1\n", 1)
    files = (b"u0\tu1\n", blob, b"g\tu0\n", b"g\ti0\n")
    old, new = tmp_path / "old", tmp_path / "new"
    assert outcome(oracle_load, old, files)[0] == (ParseError, "user_item.tsv:2: expected two tab-separated fields")
    (result, _, _) = outcome(hd.load_dataset, new, files)
    assert result[0] is ParseError and result[1].startswith("user_item.tsv:2001: not valid UTF-8: ")
    # in a file under 8 KiB both report the bad bytes
    small = (b"u0\tu1\n", b"u0\ti0\nu1 i1\nu\xff\ti0\n", b"g\tu0\n", b"g\ti0\n")
    (result, _, _) = assert_same(tmp_path / "small", small)
    assert result[1].startswith("user_item.tsv:3: not valid UTF-8: ")


# ---------------------------------------------------------------------------
# one int object per id


def distinct_ints(ds) -> int:
    ints = chain(chain.from_iterable(ds.social_edges), chain.from_iterable(ds.user_item),
                 chain.from_iterable(ds.group_item), chain.from_iterable(ds.memberships))
    return len({id(v) for v in ints})


@pytest.mark.parametrize("with_map", [False, True], ids=["derived_map", "given_map"])
def test_record_shares_one_int_per_id(tmp_path, with_map):
    ds = hd.generate_synthetic(hd.SynthConfig(num_users=600, num_items=500, num_groups=300, seed=3))
    hd.save_dataset(ds, tmp_path)
    if not with_map:
        (tmp_path / hd.ID_MAP_FILE).unlink()
    loaded = hd.load_dataset(tmp_path)
    assert distinct_ints(loaded) <= loaded.num_users + loaded.num_items + loaded.num_groups
    assert all(type(v) is int for v in chain.from_iterable(loaded.user_item))


# ---------------------------------------------------------------------------
# a property over the fuzz alphabet


# test_fuzz's ids and lines, plus ids with an interior space, a "#" or a
# character that str.strip removes, padded lines and all three line ends
ids = st.sampled_from(["a", "b", "c", "g", "h", "i", "j", "é", "a b", "a#b", "#b", "x\x85y", "\u2028a"])
line = st.one_of(
    st.tuples(ids, ids).map("\t".join),
    st.sampled_from(["", "  ", "# note", "a\x00\tb", " a\tb ", "a\tb\u2028", "a\tb\tc", "a b", "\ta", "a\t\x85"]),
)
# a line without an end runs into the next one, or ends the file
text_file = st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r", ""])), max_size=6).map(
    lambda rows: "".join(text + end for text, end in rows))
any_file = st.one_of(
    text_file.map(str.encode),
    st.tuples(text_file, st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]), text_file).map(
        lambda t: t[0].encode() + t[1] + t[2].encode()),
)
# files of id rows alone load more often
row_file = st.lists(st.tuples(ids, ids).map("\t".join), min_size=1, max_size=6).map(
    lambda rows: "".join(row + "\n" for row in rows).encode())


@given(files=st.one_of(st.tuples(*[row_file] * 4), st.tuples(*[any_file] * 4)))
@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
def test_loaders_agree_on_fuzzed_files(files):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same(Path(tmp), files)
