"""Forward model: user embeddings from the social graph, group embeddings
as hyperedge embeddings over the membership hypergraph, and the two MLP
scoring towers.

A :class:`ForwardPass` owns the neighbor samples of one forward
evaluation: every (entity, layer) pair is sampled exactly once per pass,
shared across all places the entity appears in that pass.  Both encoders
draw their sample tree the same way, each layer's samples for all its
nodes in one :func:`~hypergroup.graph.sample_neighbors` call, and the
pass works on sorted id arrays: :func:`~hypergroup.numeric.unique_ids`
collects the nodes a layer needs and ``np.searchsorted`` maps ids to rows
(the social encoder's first layer reads the frozen node features by user
id itself).  Common-member sets, and with them the overlap weights, are
computed only for the group pairs the pass sampled.  Training runs a
fresh pass per mini-batch; evaluation runs one pass under a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numeric as nm
from .errors import (CheckpointError, ConfigError, ContractViolation, DimensionError, bounded, check_fields,
                     load_config)
from .graph import (
    Hypergraph,
    SocialGraph,
    TransientHypergraphView,
    sample_neighbors,
    shared_members,
)
from .numeric import Tape, Tensor, unique_ids

VARIANTS = ("FULL", "NO_IPM", "NO_HRL", "NO_BOTH")

VARIANT_FLAGS = {
    "full": "FULL",
    "s": "NO_IPM",
    "h": "NO_HRL",
    "sh": "NO_BOTH",
}


def uses_ipm(variant: str) -> bool:
    return variant in ("FULL", "NO_HRL")


def uses_hrl(variant: str) -> bool:
    return variant in ("FULL", "NO_IPM")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters; fully determines tensor shapes."""

    d: int = bounded(128, ge=1)
    k_ipm: int = bounded(1, ge=0)
    k_hrl: int = bounded(2, ge=0)
    s_ipm: int = bounded(4, ge=0, le=200)
    s_hrl: int = bounded(4, ge=0, le=200)
    mlp_hidden: tuple[int, ...] | None = bounded(None, ge=1)
    dropout: float = bounded(0.1, ge=0, lt=1)
    residual_w: float = bounded(0.5, ge=0, le=1)
    variant: str = "FULL"

    def validate(self) -> None:
        check_fields(self)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if uses_ipm(self.variant) and (self.k_ipm < 1 or self.s_ipm < 1):
            raise ConfigError("k_ipm and s_ipm must be >= 1 for the social encoder")
        if uses_hrl(self.variant) and (self.k_hrl < 1 or self.s_hrl < 1):
            raise ConfigError("k_hrl and s_hrl must be >= 1 for the hyperedge encoder")

    def hidden_widths(self) -> tuple[int, ...]:
        if self.mlp_hidden is not None:
            return tuple(self.mlp_hidden)
        return (self.d, max(1, self.d // 2))


def config_hash(cfg: ModelConfig) -> str:
    canon = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# :meth:`MlpTower.item_scores` runs a tower over blocks of items that start
# at multiples of this size, the remainder merged into the last block, so
# no matrix product has fewer rows than this unless the whole table does.
# Every OpenBLAS kernel family the golden digests record gives each row the
# same bits at this size as over the whole table; a smaller size or a
# separate tail block does not.
SCORE_BLOCK = 1024


@dataclass
class MlpTower:
    """Hidden (weight, bias) layers plus a final projection vector.

    The tower also keeps the item projection ``P`` of :meth:`item_scores`
    with the tensors, arrays and versions it was computed from.
    """

    hidden: list[tuple[Tensor, Tensor]]
    out: Tensor
    _held: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def item_scores(self, entity_emb: np.ndarray, items: Tensor) -> np.ndarray:
        """Inference scores of one entity embedding against every item, in a
        new array.

        The first layer reads ``[entity ‖ item]``, so its weight splits as
        ``W1 = [W_e | W_i]`` and the item half ``P = items @ W_i.T`` is kept
        across calls.  An entity then costs ``c = W_e @ e + b1``,
        ``h1 = max(P + c, 0)`` and the remaining layers; a tower without
        hidden layers splits its output vector the same way.  Entities are
        scored one at a time, so an entity's scores do not depend on which
        other entities a caller scores.  The layers after ``P`` run over
        blocks of items that start at multiples of :data:`SCORE_BLOCK`, the
        remainder merged into the last block, each block through fresh
        per-layer activations with the bias and ``np.maximum`` applied in
        place: every product has 1,024-2,047 rows (all rows of a table
        under two blocks), a row's bits equal those of one pass over the
        whole table, and no temporary is larger than one block's
        activations.  ``np.maximum`` keeps NaN, so a
        non-finite parameter or item row shows up as a non-finite score.
        Dropout is the identity at inference; the training path runs
        :func:`mlp_forward` instead, on the tape.

        ``P`` is reused while the item table and ``W1`` are the same tensors
        holding the same arrays at the same versions as when ``P`` was
        computed.  Computing ``P`` marks both arrays read-only, so they
        change only through :meth:`Tensor.writing`, which bumps the version;
        every other tower array is read live on each call.
        """
        first = self.hidden[0][0] if self.hidden else self.out
        d = items.shape[1]
        if first.shape[-1] != 2 * d:
            raise DimensionError(f"tower input width {first.shape[-1]} != 2 x item width {d}")
        e = np.asarray(entity_emb, dtype=np.float64)
        if e.shape != (d,):
            raise DimensionError(f"entity embedding shape {e.shape} != ({d},)")
        reads, versions = (items, items.values, first, first.values), (items.version, first.version)
        held = self._held
        if held is None or held[1] != versions or any(a is not b for a, b in zip(reads, held[0])):
            self._held = None  # the old P is freed before the new one is made
            items.values.flags.writeable = first.values.flags.writeable = False
            self._held = (reads, versions, items.values @ first.values[..., d:].T)
        p = self._held[2]
        c = first.values[..., :d] @ e + (self.hidden[0][1].values if self.hidden else 0.0)
        if not self.hidden:
            return p + c
        n = p.shape[0]
        scores = np.empty(n)
        starts = range(0, max(n - SCORE_BLOCK, 0) + 1, SCORE_BLOCK)
        for lo, hi in zip(starts, [*starts[1:], n]):
            h = p[lo:hi] + c
            np.maximum(h, 0.0, out=h)
            for w, b in self.hidden[1:]:
                h = h @ w.values.T
                h += b.values
                np.maximum(h, 0.0, out=h)
            np.matmul(h, self.out.values, out=scores[lo:hi])
        return scores


@dataclass
class ModelParams:
    """All model tensors by name, in checkpoint order (:func:`param_layout`).

    ``node_features`` is frozen; everything else trains.  The attributes
    set on construction name the same tensors by role.
    """

    num_users: int
    num_items: int
    tensors: dict[str, Tensor]

    def __post_init__(self):
        t = self.tensors
        self.node_features = t.get("node_features")
        self.user_latent = t["user_latent"]
        self.item_embeddings = t["item_embeddings"]
        self.ipm_layers = self._layers("ipm_w")
        self.hrl_layers = self._layers("hrl_w")
        self.group_mlp, self.user_mlp = (
            MlpTower(hidden=list(zip(self._layers(f"{p}_w"), self._layers(f"{p}_b"))), out=t[f"{p}_out"])
            for p in ("group_mlp", "user_mlp")
        )

    def drop_projections(self) -> None:
        """Free both towers' kept item projections ``P``; the next
        :meth:`MlpTower.item_scores` call of each computes its own anew."""
        self.group_mlp._held = self.user_mlp._held = None

    def _layers(self, prefix: str) -> list[Tensor]:
        """The tensors whose names start with ``prefix``, in order."""
        return [t for name, t in self.tensors.items() if name.startswith(prefix)]

    def named_tensors(self):
        """All tensors in canonical checkpoint order."""
        return self.tensors.items()

    def trainable_tensors(self):
        for name, t in self.named_tensors():
            if t.trainable:
                yield name, t


def param_layout(cfg: ModelConfig, num_users: int, num_items: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every tensor's ``(name, shape)`` under ``cfg``, in checkpoint order.

    The social encoder (``node_features``, ``ipm_w*``) exists only for
    variants that use it, as does the hyperedge encoder (``hrl_w*``).
    Each scoring tower holds ``{prefix}_w{i}``/``{prefix}_b{i}`` per hidden
    layer and the projection ``{prefix}_out``.
    """
    d = cfg.d
    layout = [("node_features", (num_users, d))] if uses_ipm(cfg.variant) else []
    layout += [("user_latent", (num_users, d)), ("item_embeddings", (num_items, d))]
    if uses_ipm(cfg.variant):
        layout += [(f"ipm_w{i}", (d, 2 * d)) for i in range(1, cfg.k_ipm + 1)]
    if uses_hrl(cfg.variant):
        layout += [(f"hrl_w{i}", (d, 2 * d)) for i in range(1, cfg.k_hrl + 1)]
    widths = (2 * d,) + cfg.hidden_widths()
    for prefix in ("group_mlp", "user_mlp"):
        for i, (w_in, w_out) in enumerate(zip(widths, widths[1:]), start=1):
            layout += [(f"{prefix}_w{i}", (w_out, w_in)), (f"{prefix}_b{i}", (w_out,))]
        layout.append((f"{prefix}_out", (widths[-1],)))
    return layout


def _params(cfg: ModelConfig, num_users: int, num_items: int, values: dict[str, np.ndarray]) -> ModelParams:
    tensors = {name: Tensor(v, name=name, trainable=name != "node_features") for name, v in values.items()}
    return ModelParams(num_users, num_items, tensors)


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_out, fan_in = (shape[0], shape[1]) if len(shape) == 2 else (1, shape[0])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def initialize_params(
    cfg: ModelConfig,
    num_users: int,
    num_items: int,
    rng: np.random.Generator,
    node_features: np.ndarray | None = None,
) -> ModelParams:
    """Glorot-initialized parameters for the configured variant.

    Tensors are drawn in checkpoint order; tower biases start at zero.
    ``node_features`` may supply precomputed frozen input features;
    otherwise they are drawn here and frozen.
    """
    cfg.validate()
    values = {}
    for name, shape in param_layout(cfg, num_users, num_items):
        if name == "node_features" and node_features is not None:
            if node_features.shape != shape:
                raise ConfigError(f"node features shape {node_features.shape} != {shape}")
            values[name] = np.array(node_features, dtype=np.float64)
        elif "_mlp_b" in name:
            values[name] = np.zeros(shape)
        else:
            values[name] = _glorot(rng, shape)
    return _params(cfg, num_users, num_items, values)


def save_params(path, params: ModelParams, cfg: ModelConfig, seed: int, extra_meta: dict | None = None) -> None:
    meta = {
        "config": asdict(cfg),
        "config_sha256": config_hash(cfg),
        "seed": int(seed),
        "num_users": params.num_users,
        "num_items": params.num_items,
    }
    if extra_meta:
        meta.update(extra_meta)
    nm.save_checkpoint(path, list(params.named_tensors()), meta)


def load_params(path) -> tuple[ModelParams, ModelConfig, dict]:
    """Rebuild params and config from a checkpoint blob, its config hash checked."""
    meta, tensors = nm.load_checkpoint(path)
    try:
        cfg = load_config(ModelConfig, "config", meta["config"], complete=True)
        num_users, num_items = meta["num_users"], meta["num_items"]
    except (KeyError, ConfigError) as exc:
        raise CheckpointError(f"checkpoint {path} has no usable config block: {exc}") from exc
    if meta.get("config_sha256") != config_hash(cfg):
        raise CheckpointError(f"checkpoint {path} config_sha256 is missing or does not match its config block")
    for key, n in (("num_users", num_users), ("num_items", num_items)):
        if type(n) is not int or n < 0:
            raise CheckpointError(f"checkpoint {key} must be a non-negative integer, got {n!r}")
    values = {}
    for name, shape in param_layout(cfg, num_users, num_items):
        if name not in tensors:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        values[name] = tensors.pop(name)
        if values[name].shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {values[name].shape}, config implies {shape}")
    if tensors:
        raise CheckpointError(f"checkpoint holds unexpected tensors: {sorted(tensors)}")
    return _params(cfg, num_users, num_items, values), cfg, meta


# ---------------------------------------------------------------------------
# forward pass


class ForwardPass:
    """One forward evaluation over shared neighbor samples.

    An instance serves one call to one of its public methods, and a second
    call raises :class:`ContractViolation`; build a new pass per mini-batch
    or per evaluation sweep.
    """

    def __init__(
        self,
        params: ModelParams,
        cfg: ModelConfig,
        social: SocialGraph | None,
        hyper: Hypergraph | None,
        rng: np.random.Generator,
        tape: Tape | None = None,
        training: bool = False,
    ):
        self.params = params
        self.cfg = cfg
        self.social = social
        self.hyper = hyper
        self.rng = rng
        self.tape = tape
        self.training = training
        self._used = False

    def _request(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Claim the pass for its one request: ``ids`` flat as int64, and their sorted distinct ids."""
        if self._used:
            raise ContractViolation("a ForwardPass instance serves a single request")
        self._used = True
        ids = _ids(ids)
        return ids, unique_ids(ids)

    # -- both encoders ------------------------------------------------------

    def _sample_tree(self, graph, nodes: np.ndarray, K: int, S: int):
        """Sample the K layers below sorted unique ``nodes``, layer K first.

        ``needed[i]``: sorted nodes whose layer-i output is used; ``nbrs[i]``:
        their sampled neighbors, S per row (the node itself in an empty
        slot); ``live[i]``: the slots that hold a real neighbor.
        """
        needed, nbrs, live = [nodes] * (K + 1), [nodes] * (K + 1), [nodes] * (K + 1)
        for i in range(K, 0, -1):
            offsets = sample_neighbors(graph.degrees(needed[i]), S, self.rng)
            nbrs[i], live[i] = graph.neighbor_ids(needed[i], offsets), offsets >= 0
            needed[i - 1] = unique_ids(needed[i], nbrs[i])
        return needed, nbrs, live

    def _encode(self, w: Tensor, x: Tensor) -> Tensor:
        """One encoder layer: ``l2_normalize(relu(w x))`` of ``x = [own ‖ agg]``."""
        return nm.l2_normalize(nm.relu(nm.linear(w, None, x, self.tape), self.tape), self.tape)

    # -- users ------------------------------------------------------------

    def _ipm_forward(self, users: np.ndarray) -> Tensor:
        """Social-graph embeddings for sorted unique ``users`` (one row each)."""
        cfg, params, tape, social = self.cfg, self.params, self.tape, self.social
        if social is None:
            raise ConfigError("social graph required for the social encoder")
        K, S = cfg.k_ipm, cfg.s_ipm
        needed, nbrs, _ = self._sample_tree(social, users, K, S)

        # layer 1 reads the frozen features by user id; the rows of a
        # later layer's input align with needed[i - 1]
        h = params.node_features
        for i in range(1, K + 1):
            own_ids, nbr_ids = needed[i], nbrs[i].ravel()
            if i > 1:
                own_ids = np.searchsorted(needed[i - 1], own_ids)
                nbr_ids = np.searchsorted(needed[i - 1], nbr_ids)
            x = nm.concat(nm.gather_rows(h, own_ids, tape), nm.gather_mean_rows(h, nbr_ids, S, tape), tape)
            h = self._encode(params.ipm_layers[i - 1], x)
        return h

    def _member_rows(self, users: np.ndarray) -> Tensor:
        """Member embeddings for sorted unique ``users``."""
        latent = nm.gather_rows(self.params.user_latent, users, self.tape)
        if not uses_ipm(self.cfg.variant):
            return latent
        z = self._ipm_forward(users)
        return nm.add(z, latent, self.tape)

    def _align(self, rows: Tensor, uniq: np.ndarray, requested: np.ndarray) -> Tensor:
        if np.array_equal(requested, uniq):
            return rows
        return nm.gather_rows(rows, np.searchsorted(uniq, requested), self.tape)

    def member_vectors(self, users) -> Tensor:
        """Shared user embeddings (social output plus latent rows)."""
        users, uniq = self._request(users)
        return self._align(self._member_rows(uniq), uniq, users)

    # -- groups -----------------------------------------------------------

    def _member_average(self, members: np.ndarray, rows: np.ndarray,
                        num_groups: int) -> tuple[Tensor, Tensor, np.ndarray]:
        """Mean member embedding of each of ``num_groups`` groups listed as
        ``members_of`` lists them, with the member rows it averaged and
        their sorted user ids."""
        users = unique_ids(members)
        member_rows = self._member_rows(users)
        mean = nm.gather_segment_mean(member_rows, np.searchsorted(users, members), rows, num_groups, self.tape)
        return mean, member_rows, users

    def _hrl_forward(self, groups: np.ndarray) -> tuple[Tensor, Tensor]:
        """Hyperedge embeddings for sorted unique ``groups``.

        Returns ``(x, z)``: the aggregation-initialized representation and
        the final hyperedge-encoder output, row-aligned with ``groups``.
        """
        cfg, params, tape, hyper = self.cfg, self.params, self.tape, self.hyper
        K, S = cfg.k_hrl, cfg.s_hrl
        needed, nbrs, live = self._sample_tree(hyper, groups, K, S)
        base_groups = needed[0]

        # every live sampled pair once, as a (low id, high id) key; a
        # pair's overlap weight is the number of members it shares.  Both
        # ends of every pair lie in base_groups, so one listing of their
        # members serves the common members and the member average
        span = int(base_groups[-1]) + 1
        keys = {i: np.minimum(needed[i][:, None], nbrs[i]) * span + np.maximum(needed[i][:, None], nbrs[i])
                for i in range(1, K + 1)}
        pairs = unique_ids(*[keys[i][live[i]] for i in keys])
        members, rows = hyper.members_of(base_groups)
        common, pair_rows = shared_members(members, rows, np.searchsorted(base_groups, pairs // span),
                                           np.searchsorted(base_groups, pairs % span))
        overlap = np.bincount(pair_rows, minlength=pairs.size)

        x0, member_rows, users = self._member_average(members, rows, base_groups.size)
        if pairs.size:
            l_rows = nm.gather_segment_mean(member_rows, np.searchsorted(users, common), pair_rows,
                                            pairs.size, tape)
        else:
            l_rows = Tensor(np.zeros((1, cfg.d)))
        del member_rows

        m = x0
        for i in range(1, K + 1):
            prev = needed[i - 1]
            # an empty slot reads pair row 0 and weighs 0
            l_idx = np.where(live[i], np.searchsorted(pairs, keys[i]), 0)
            w = np.zeros(l_idx.shape)
            w[live[i]] = overlap[l_idx[live[i]]]
            msg = nm.add(nm.gather_rows(m, np.searchsorted(prev, nbrs[i].ravel()), tape),
                         nm.gather_rows(l_rows, l_idx.ravel(), tape), tape)
            agg = nm.sum_rows_stride(nm.mul_rows(msg, w.ravel(), tape), S, tape)
            del msg
            x = nm.concat(nm.gather_rows(m, np.searchsorted(prev, needed[i]), tape), agg, tape)
            del agg
            m = self._encode(params.hrl_layers[i - 1], x)
        return self._align(x0, base_groups, groups), m

    def group_vectors(self, groups) -> Tensor:
        """Final group embeddings under the configured variant."""
        groups, uniq = self._request(groups)
        if not uses_hrl(self.cfg.variant):
            emb = self._member_average(*self.hyper.members_of(uniq), uniq.size)[0]
        else:
            x, z = self._hrl_forward(uniq)
            w = self.cfg.residual_w
            emb = nm.add(nm.scale(z, w, self.tape), nm.scale(x, 1.0 - w, self.tape), self.tape)
        return self._align(emb, uniq, groups)


def _ids(ids) -> np.ndarray:
    return np.asarray(ids, dtype=np.int64).reshape(-1)


def mlp_forward(
    tower: MlpTower,
    x: Tensor,
    cfg: ModelConfig,
    rng: np.random.Generator,
    tape: Tape | None = None,
) -> Tensor:
    """Run one scoring tower: hidden relu layers with dropout, then project."""
    h = x
    for w, b in tower.hidden:
        h = nm.relu(nm.linear(w, b, h, tape), tape)
        h = nm.dropout(h, cfg.dropout, rng, tape)
    return nm.matvec(h, tower.out, tape)


# ---------------------------------------------------------------------------
# ad-hoc groups


def transient_group_embedding(members, params: ModelParams, cfg: ModelConfig,
                              social: SocialGraph | None, hyper: Hypergraph,
                              rng: np.random.Generator) -> np.ndarray:
    """Embedding for an ad-hoc member set.

    A member set matching an existing group exactly reuses that group's
    standard pathway.  Otherwise the hyperedge encoder runs only when the
    set shares members with known groups; an unconnected set falls back to
    the plain member average.  Repeats and order in ``members`` do not
    matter.
    """
    member_ids = unique_ids(_ids(members))
    if not member_ids.size:
        raise ContractViolation("a transient group needs at least one member")
    if member_ids[0] < 0 or member_ids[-1] >= params.num_users:
        raise ContractViolation(f"transient group members must lie in [0, {params.num_users})")
    view = TransientHypergraphView(hyper, member_ids)
    exact = view.exact_group
    fp = ForwardPass(params, cfg, social, hyper if exact is not None else view, rng)
    if exact is not None:
        return fp.group_vectors([exact]).values[0]
    if uses_hrl(cfg.variant) and view.has_known_neighbors:
        return fp.group_vectors([view.transient_index]).values[0]
    return fp.member_vectors(member_ids).values.mean(axis=0)


def score_items_for_embedding(entity_emb: np.ndarray, params: ModelParams,
                              tower: MlpTower, cfg: ModelConfig) -> np.ndarray:
    """Inference scores of one entity embedding against every item, through
    :meth:`MlpTower.item_scores`; ``cfg`` is unused."""
    return tower.item_scores(entity_emb, params.item_embeddings)
