"""Interaction datasets: loading, validation, splitting and synthesis.

On-disk layout is a directory of four UTF-8 tab-separated files
(``social.tsv``, ``user_item.tsv``, ``group_members.tsv``,
``group_item.tsv``) plus an ``id_map.json`` sidecar mapping raw string IDs
to the dense indices used in memory.  The sidecar is written on first load
and honored on subsequent loads so indices stay stable across round trips.
"""

from __future__ import annotations

import codecs
import errno
import json
import logging
import re
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, IntegrityError, ParseError, bounded, check_fields
from .numeric import atomic_write, atomic_writes

log = logging.getLogger(__name__)

SOCIAL_FILE = "social.tsv"
USER_ITEM_FILE = "user_item.tsv"
GROUP_MEMBERS_FILE = "group_members.tsv"
GROUP_ITEM_FILE = "group_item.tsv"
ID_MAP_FILE = "id_map.json"
DATA_FILES = (SOCIAL_FILE, USER_ITEM_FILE, GROUP_MEMBERS_FILE, GROUP_ITEM_FILE)

# the most entities of one kind a synthetic set may hold: a larger count is
# refused in one line here instead of failing inside generate_synthetic's
# numpy allocations, and every index fits in int32
_MAX_ENTITIES = 2**31 - 1
# the largest mean numpy's Generator.poisson accepts
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass
class IdMaps:
    """Raw string ID -> dense index, one map per entity class."""

    users: dict[str, int]
    items: dict[str, int]
    groups: dict[str, int]

    def reverse(self, kind: str) -> list[str]:
        mapping = getattr(self, kind)
        out = [""] * len(mapping)
        for raw, idx in mapping.items():
            out[idx] = raw
        return out


def entity_name(maps: IdMaps | None, kind: str, index: int) -> str:
    """How a refusal names entity ``index`` of ``kind`` (``"users"``,
    ``"items"`` or ``"groups"``): its raw id when there are id maps, else
    the index."""
    return str(index) if maps is None else repr(maps.reverse(kind)[index])


@dataclass
class InteractionDataset:
    """Users, items and groups with their four interaction relations.

    All indices are dense and 0-based.  ``social_edges`` stores each
    unordered pair once as ``(lo, hi)``; ``memberships[g]`` lists the
    member users of group ``g``.
    """

    num_users: int
    num_items: int
    num_groups: int
    social_edges: set[tuple[int, int]]
    user_item: list[tuple[int, int]]
    group_item: list[tuple[int, int]]
    memberships: list[list[int]]
    id_maps: IdMaps | None = field(default=None, compare=False)

    def validate(self) -> None:
        """Raise :class:`IntegrityError` if any structural invariant fails
        (loaded and generated records hold them by construction)."""
        if len(self.memberships) != self.num_groups:
            raise IntegrityError("memberships must list every group")
        for a, b in self.social_edges:
            if a == b:
                raise IntegrityError(f"social self-loop on user {a}")
            if not (0 <= a < b < self.num_users):
                raise IntegrityError(f"social edge ({a},{b}) out of range or unordered")
        for u, v in self.user_item:
            if not (0 <= u < self.num_users and 0 <= v < self.num_items):
                raise IntegrityError(f"user-item pair ({u},{v}) out of range")
        for g, v in self.group_item:
            if not (0 <= g < self.num_groups and 0 <= v < self.num_items):
                raise IntegrityError(f"group-item pair ({g},{v}) out of range")
        for g, members in enumerate(self.memberships):
            if len(members) == 0:
                raise IntegrityError(f"group {g} has no members")
            for u in members:
                if not 0 <= u < self.num_users:
                    raise IntegrityError(f"group {g} member {u} out of range")
            if len(set(members)) != len(members):
                raise IntegrityError(f"group {g} lists a member twice")
        if len(set(self.user_item)) != len(self.user_item):
            raise IntegrityError("duplicate user-item pairs")
        if len(set(self.group_item)) != len(self.group_item):
            raise IntegrityError("duplicate group-item pairs")


@dataclass(frozen=True)
class SplitSpec:
    """Ratios for the train/validation/test partition plus the shuffle seed."""

    train_ratio: float = bounded(0.8, gt=0, lt=1)
    val_ratio: float = bounded(0.1, gt=0, lt=1)
    test_ratio: float = bounded(0.1, gt=0, lt=1)
    seed: int = bounded(0, ge=0)

    def validate(self) -> None:
        check_fields(self)
        total = self.train_ratio + self.val_ratio + self.test_ratio
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {total}")


@dataclass(frozen=True)
class SynthConfig:
    """Controls for the synthetic generator with planted topic structure.

    ``organizer_influence`` concentrates a group's interactions on a small
    signature subset of its organizer's topic items (the organizer being
    the member ``u`` with the smallest ``(u * 2654435761) % 2**32``), so
    group behavior carries member-identity signal beyond the plain topic.
    """

    num_users: int = bounded(ge=1, le=_MAX_ENTITIES)
    num_items: int = bounded(ge=1, le=_MAX_ENTITIES)
    num_groups: int = bounded(ge=1, le=_MAX_ENTITIES)
    avg_group_size: float = bounded(4.5, ge=1)
    num_latent_topics: int = bounded(3, ge=1)
    overlap_strength: float = bounded(0.5, ge=0, le=1)
    interactions_per_user: float = bounded(6.0, ge=0, le=_POISSON_LAM_MAX)
    interactions_per_group: float = bounded(2.0, ge=0, le=_POISSON_LAM_MAX)
    social_degree: float = bounded(4.0, ge=0, le=_POISSON_LAM_MAX)
    cross_topic_noise: float = bounded(0.05, ge=0, le=1)
    organizer_influence: float = bounded(0.0, ge=0, le=1)
    seed: int = bounded(0, ge=0)

    def validate(self) -> None:
        check_fields(self)
        if self.avg_group_size > self.num_users:
            raise ConfigError("avg_group_size cannot exceed num_users")
        if self.num_latent_topics > min(self.num_users, self.num_items):
            raise ConfigError("more topics than users or items")


# ---------------------------------------------------------------------------
# loading and saving


# a plain line: two whitespace-free fields around one tab, the first not
# starting with "#"
_PLAIN_LINE = r"[^\s#]\S*\t\S+(?:\n|\Z)"
_PLAIN_FIRST = re.compile(_PLAIN_LINE)
_ODD_NEXT = re.compile(r"\n(?!" + _PLAIN_LINE + ")")


def _is_plain(text: str) -> bool:
    """Whether every line of ``text`` is plain, so that its fields are exactly
    ``text.split()``. Each line is matched on its own, so the regex engine
    keeps no state that grows with the file."""
    end = len(text) - text.endswith("\n")
    return _PLAIN_FIRST.match(text, 0, end) is not None and _ODD_NEXT.search(text, 0, end) is None


def _read_pairs(path: Path) -> list[str]:
    """Both fields of every data line of ``path``, flat: ``[a0, b0, a1, b1, ...]``,
    after one leading UTF-8 byte order mark.  A plain file is split in one
    call, any other line by line."""
    try:
        raw = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"{path.name}:{lineno}: not valid UTF-8: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if _is_plain(text):
        return text.split()
    fields = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"{path.name}:{lineno}: expected two tab-separated fields")
        fields += parts
    return fields


def _read_id_map(path: Path) -> IdMaps:
    try:
        blob = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(blob, dict):
            raise DataError(f"malformed {path}: the root is not a JSON object")
        maps = {}
        for kind in ("users", "items", "groups"):
            maps[kind] = m = blob[kind]
            if not isinstance(m, dict):
                raise DataError(f"malformed {path}: {kind!r} is not a JSON object")
            bad = [v for v in m.values() if type(v) is not int]
            if bad:
                raise DataError(f"malformed {path}: {kind} index {bad[0]!r} is not an integer")
    except (KeyError, ValueError, RecursionError) as exc:
        raise DataError(f"malformed {path}: {exc}") from exc
    for kind, m in maps.items():
        if sorted(m.values()) != list(range(len(m))):
            raise IntegrityError(f"{ID_MAP_FILE} {kind} indices are not dense")
    return IdMaps(**maps)


def _id_map_text(maps: IdMaps) -> str:
    blob = {"users": maps.users, "items": maps.items, "groups": maps.groups}
    return json.dumps(blob, sort_keys=True, indent=1)


def _first_seen(*columns) -> dict[str, int]:
    """Dense indices for raw ids in the order they first appear."""
    return {raw: i for i, raw in enumerate(dict.fromkeys(chain(*columns)))}


def _int_pool(ids: dict[str, int]) -> np.ndarray:
    """The map's own index objects as an object array, each at its index:
    a record built by indexing it holds one ``int`` per id."""
    pool = np.empty(len(ids), dtype=object)
    pool[np.fromiter(ids.values(), np.int64, len(ids))] = list(ids.values())
    return pool


def _lookup(ids: dict[str, int], raws: list[str], file: str, kind: str) -> np.ndarray:
    """Dense indices of ``raws``; the first raw id missing from ``ids`` raises."""
    try:
        return np.fromiter(map(ids.__getitem__, raws), np.int64, len(raws))
    except KeyError as exc:
        raise IntegrityError(f"{file}: unknown {kind} id {exc.args[0]!r}") from None


def _first_rows(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Ascending indices of the first ``(a, b)`` row of each value, for
    ``b`` in ``[0, n)``."""
    first = np.unique(a * n + b, return_index=True)[1]
    first.sort()
    return first


def _pairs(a_pool: np.ndarray, a: np.ndarray, b_pool: np.ndarray, b: np.ndarray,
           label: str) -> list[tuple[int, int]]:
    """The ``(a, b)`` rows as pool ints, without repeats, in first-seen
    order; logs how many went."""
    keep = _first_rows(a, b, len(b_pool))
    if len(keep) != len(a):
        log.warning("dropped %d duplicate %s pair(s)", len(a) - len(keep), label)
    return list(zip(a_pool[a[keep]].tolist(), b_pool[b[keep]].tolist()))


def load_dataset(dir_path) -> InteractionDataset:
    """Load the four TSV files, remapping raw string IDs to dense indices.

    A missing ``id_map.json`` is derived in first-seen order and written
    back next to the data files (a read-only directory only logs a
    warning); an existing one is reused verbatim.  Users are numbered as
    they appear in ``social.tsv``, then ``user_item.tsv``; items in
    ``user_item.tsv``, then ``group_item.tsv``; groups in
    ``group_members.tsv``, then ``group_item.tsv``.
    Social edges are symmetrized, self-loops and duplicates are dropped
    with a logged count, and memberships referring to unknown users raise,
    as does a group without members; the rest of
    :meth:`InteractionDataset.validate` holds by construction.

    A file whose every line is two plain fields around a tab is split in
    one call, any other line by line; both give the same record, which
    array operations build from the id map's own ints.  A leading UTF-8
    byte order mark is dropped.  Bytes that are not UTF-8 are a
    :class:`ParseError` naming the line of the first bad byte.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise DataError(f"dataset directory not found: {root}")
    for name in DATA_FILES:
        if not (root / name).is_file():
            raise DataError(f"missing data file: {root / name}")
    social_raw, user_item_raw, members_raw, group_item_raw = (_read_pairs(root / n) for n in DATA_FILES)

    map_path = root / ID_MAP_FILE
    if map_path.is_file():
        maps = _read_id_map(map_path)
    else:
        maps = IdMaps(
            users=_first_seen(social_raw, user_item_raw[0::2]),
            items=_first_seen(user_item_raw[1::2], group_item_raw[1::2]),
            groups=_first_seen(members_raw[0::2], group_item_raw[0::2]),
        )
        try:
            with atomic_write(map_path, encoding="utf-8") as fh:
                fh.write(_id_map_text(maps))
        except OSError as exc:
            if not isinstance(exc, PermissionError) and exc.errno != errno.EROFS:
                raise
            log.warning("cannot write %s (%s); using the derived id map", map_path, exc)
    users, items = _int_pool(maps.users), _int_pool(maps.items)

    ends = _lookup(maps.users, social_raw, SOCIAL_FILE, "user")
    a, b = ends[0::2], ends[1::2]
    edges = a != b
    social = set(zip(users[np.minimum(a, b)[edges]].tolist(), users[np.maximum(a, b)[edges]].tolist()))
    if not edges.all():
        log.warning("dropped %d social self-loop(s)", len(a) - np.count_nonzero(edges))

    ui_users = _lookup(maps.users, user_item_raw[0::2], USER_ITEM_FILE, "user")
    ui_items = _lookup(maps.items, user_item_raw[1::2], USER_ITEM_FILE, "item")
    user_item = _pairs(users, ui_users, items, ui_items, "user-item")
    gi_groups = _lookup(maps.groups, group_item_raw[0::2], GROUP_ITEM_FILE, "group")
    gi_items = _lookup(maps.items, group_item_raw[1::2], GROUP_ITEM_FILE, "item")
    group_item = _pairs(_int_pool(maps.groups), gi_groups, items, gi_items, "group-item")

    member_groups = _lookup(maps.groups, members_raw[0::2], GROUP_MEMBERS_FILE, "group")
    member_users = members_raw[1::2]
    member_ids = np.fromiter(map(maps.users.get, member_users, repeat(-1)), np.int64, len(member_users))
    unknown = np.flatnonzero(member_ids < 0)
    rows = int(unknown[0]) if unknown.size else len(member_ids)
    # the rows before the first unknown member still warn of their repeats
    keep = _first_rows(member_groups[:rows], member_ids[:rows], len(users))
    repeats = np.ones(rows, dtype=bool)
    repeats[keep] = False
    for row in np.flatnonzero(repeats).tolist():
        log.warning("group %r lists member %r more than once; ignoring repeat",
                    members_raw[2 * row], member_users[row])
    if unknown.size:
        raise IntegrityError(f"{GROUP_MEMBERS_FILE}: member {member_users[rows]!r} of group "
                             f"{members_raw[2 * rows]!r} appears in no user file")
    member_groups, member_ids = member_groups[keep], member_ids[keep]
    sizes = np.bincount(member_groups, minlength=len(maps.groups))
    if not sizes.all():
        raise IntegrityError(f"group {entity_name(maps, 'groups', int(np.argmin(sizes)))} has no members")
    flat = users[member_ids[np.argsort(member_groups, kind="stable")]].tolist()
    stops = np.cumsum(sizes).tolist()
    memberships = [flat[lo:hi] for lo, hi in zip([0, *stops], stops)]

    ds = InteractionDataset(
        num_users=len(maps.users),
        num_items=len(maps.items),
        num_groups=len(maps.groups),
        social_edges=social,
        user_item=user_item,
        group_item=group_item,
        memberships=memberships,
        id_maps=maps,
    )
    singles = np.count_nonzero(sizes == 1)
    if singles:
        log.warning("%d group(s) have a single member", singles)
    return ds


def save_dataset(ds: InteractionDataset, dir_path) -> None:
    """Write the four TSV files plus the ID-map sidecar, replaced as a set:
    a save that fails leaves every previous file as it was.

    Raw string IDs from ``ds.id_maps`` are used when available so a saved
    dataset reloads to an identical in-memory structure.
    """
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    maps = ds.id_maps or IdMaps(
        users={str(i): i for i in range(ds.num_users)},
        items={str(i): i for i in range(ds.num_items)},
        groups={str(i): i for i in range(ds.num_groups)},
    )
    u_raw = maps.reverse("users")
    v_raw = maps.reverse("items")
    g_raw = maps.reverse("groups")

    tables = {
        SOCIAL_FILE: ((u_raw[a], u_raw[b]) for a, b in sorted(ds.social_edges)),
        USER_ITEM_FILE: ((u_raw[u], v_raw[v]) for u, v in ds.user_item),
        GROUP_MEMBERS_FILE: ((g_raw[g], u_raw[u]) for g, members in enumerate(ds.memberships) for u in members),
        GROUP_ITEM_FILE: ((g_raw[g], v_raw[v]) for g, v in ds.group_item),
    }
    with atomic_writes([root / name for name in (*tables, ID_MAP_FILE)], encoding="utf-8") as handles:
        for fh, rows in zip(handles, tables.values()):
            fh.writelines(f"{a}\t{b}\n" for a, b in rows)
        handles[-1].write(_id_map_text(maps))


# ---------------------------------------------------------------------------
# splitting


def _partition(pairs: list[tuple[int, int]], spec: SplitSpec, rng: np.random.Generator):
    """``(train, val, test)`` lists of ``pairs``, in their original order."""
    n = len(pairs)
    n_val = int(n * spec.val_ratio + 1e-9)
    n_test = int(n * spec.test_ratio + 1e-9)
    order = rng.permutation(n)
    label = np.zeros(n, dtype=np.int8)
    label[order[:n_val]] = 1
    label[order[n_val:n_val + n_test]] = 2
    parts = ([], [], [])
    for p, k in zip(pairs, label.tolist()):
        parts[k].append(p)
    return parts


def split_interactions(ds: InteractionDataset, spec: SplitSpec):
    """Partition user-item and group-item interactions by the split ratios.

    Remainders after flooring go to train; the partition is deterministic
    for a fixed seed.  Every split shares the source's social edges,
    memberships and id maps (the same objects, not copies), so callers
    treat them as read-only.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    ui_parts = _partition(ds.user_item, spec, rng)
    gi_parts = _partition(ds.group_item, spec, rng)

    if len(ds.group_item) >= 10:
        for name, part in zip(("train", "val", "test"), gi_parts):
            if not part:
                log.warning("%s split received no group-item interactions", name)

    return tuple(replace(ds, user_item=ui, group_item=gi) for ui, gi in zip(ui_parts, gi_parts))


# ---------------------------------------------------------------------------
# synthetic data


def generate_synthetic(cfg: SynthConfig) -> InteractionDataset:
    """Generate a dataset with planted topic structure.

    Users and items are assigned to latent topics; social edges connect
    mostly same-topic users; groups draw members from their topic's pool,
    preferring a small per-topic hub with probability ``overlap_strength``
    (more hub draws mean more shared members across groups); interactions
    go to same-topic items except for occasional noise.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    m, n, k, t = cfg.num_users, cfg.num_items, cfg.num_groups, cfg.num_latent_topics

    user_topic = np.arange(m) % t
    item_topic = np.arange(n) % t
    topic_users = [np.flatnonzero(user_topic == i) for i in range(t)]
    topic_items = [np.flatnonzero(item_topic == i) for i in range(t)]

    def pick_item(topic: int) -> int:
        if rng.random() < cfg.cross_topic_noise:
            return int(rng.integers(n))
        return int(rng.choice(topic_items[topic]))

    social: set[tuple[int, int]] = set()
    for u in range(m):
        pool = topic_users[user_topic[u]]
        pool = pool[pool != u]
        if pool.size == 0:
            continue
        deg = min(pool.size, max(1, int(rng.poisson(cfg.social_degree))))
        for w in rng.choice(pool, size=deg, replace=False):
            social.add((min(u, int(w)), max(u, int(w))))

    hub_size = max(2, int(round(cfg.avg_group_size)))
    hubs = [pool[: min(hub_size, pool.size)] for pool in topic_users]

    signatures: dict[int, np.ndarray] = {}
    if cfg.organizer_influence > 0.0:
        for u in range(m):
            pool = topic_items[user_topic[u]]
            size = min(4, pool.size)
            signatures[u] = rng.choice(pool, size=size, replace=False)

    memberships: list[list[int]] = []
    for g in range(k):
        topic = g % t
        pool = topic_users[topic]
        size = 1 + int(rng.poisson(max(0.0, cfg.avg_group_size - 1.0)))
        size = min(size, pool.size)
        chosen: list[int] = []
        available_hub = list(hubs[topic])
        available_pool = list(pool)
        while len(chosen) < size:
            use_hub = available_hub and rng.random() < cfg.overlap_strength
            source = available_hub if use_hub else available_pool
            pick = int(source[rng.integers(len(source))])
            if pick in chosen:
                if use_hub:
                    available_hub.remove(pick)
                else:
                    available_pool.remove(pick)
                continue
            chosen.append(pick)
        memberships.append(sorted(chosen))

    user_item: set[tuple[int, int]] = set()
    for u in range(m):
        count = max(1, int(rng.poisson(cfg.interactions_per_user)))
        for _ in range(count):
            user_item.add((u, pick_item(int(user_topic[u]))))

    group_item: set[tuple[int, int]] = set()
    for g in range(k):
        members = memberships[g]
        # organizer = member with minimal multiplicative hash, a stable
        # pseudo-uniform pick that any holder of the member set can recompute
        organizer = min(members, key=lambda u: (u * 2654435761) % (1 << 32))
        count = max(1, int(rng.poisson(cfg.interactions_per_group)))
        for _ in range(count):
            if cfg.organizer_influence > 0.0 and rng.random() < cfg.organizer_influence:
                group_item.add((g, int(rng.choice(signatures[organizer]))))
            else:
                group_item.add((g, pick_item(g % t)))

    return InteractionDataset(
        num_users=m,
        num_items=n,
        num_groups=k,
        social_edges=social,
        user_item=sorted(user_item),
        group_item=sorted(group_item),
        memberships=memberships,
    )
