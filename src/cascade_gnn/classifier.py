"""The four-layer propagation classifier, its checkpoints, and its sample type
``PreparedGraph``, built by ``propagation.build_propagation_graph``.  A
sample holds its nodes compactly: 33 dense columns, and row numbers into
its build's one embedding table for the three embedding blocks.  The
(n, 633) matrix the network reads, ``PreparedGraph.features``, is laid out
from them once per forward pass.  ``prepare_graph`` masks a sample's
inactive feature groups by recording them on a sample that shares its
arrays; the layout writes their column ranges +0.0.

Pipeline: GC1(F->hidden)+SELU -> channel-pair mean pool (hidden->hidden/2)
-> GC2+SELU -> global mean pool -> FC1+SELU -> FC2 -> 2 raw scores.
Softmax is applied only at inference; training uses the hinge margin of
the two scores with AMSGrad and mini-batches of one graph.
"""
from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from . import nn
from .autograd import Tensor
from .dataio import _embedding
from .features import FEATURE_GROUPS, WIDTH, node_matrix
# roc_auc stays a module global: perfbench/traced.py times it through this module
from .metrics import auc_or_none, roc_auc  # noqa: F401
from .nn import EdgeArrays
from .optim import NumericError, OptimizerState, amsgrad_step
from .types import (EMBEDDING_DIM, ConfigError, check_fields, positive_int, positive_number,
                    rng_seed)

VALIDATION_EVERY = 500

DEFAULT_ITERATIONS = {"url_wise": 25_000, "cascade_wise": 50_000}


def feature_groups(value) -> tuple[str, ...]:
    """Active feature groups, comma-separated (flag) or a list (config file)."""
    if isinstance(value, str):
        value = [g.strip() for g in value.split(",") if g.strip()]
    elif not (isinstance(value, (list, tuple)) and all(isinstance(g, str) for g in value)):
        raise ValueError(f"must be a string or a list of strings, got {value!r}")
    groups = tuple(value)
    unknown = set(groups) - set(FEATURE_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}; "
                         f"choose from {', '.join(FEATURE_GROUPS)}")
    if not groups:
        raise ValueError("no feature group given")
    repeated = sorted({g for g in groups if groups.count(g) > 1})
    if repeated:
        raise ValueError(f"feature groups given more than once: {', '.join(repeated)}")
    return groups


@dataclass(frozen=True)
class ModelConfig:
    hidden: int = 64
    fc1: int = 32
    out: int = 2
    learning_rate: float = 5e-4
    iterations: int = 25_000
    seed: int = 0
    active_groups: tuple[str, ...] = FEATURE_GROUPS

    # the rules of the fields a config file sets, which the CLI applies too
    RULES = {"learning_rate": positive_number, "iterations": positive_int, "seed": rng_seed,
             "active_groups": feature_groups}

    def __post_init__(self):
        check_fields(self, self.RULES)
        if self.out != 2:
            raise ConfigError("the classifier is binary; out must be 2")
        if self.hidden % 2 != 0:
            raise ConfigError("hidden width must be even for channel-pair pooling")


def param_shapes(config: ModelConfig, f_in: int) -> tuple[tuple[str, tuple[int, int]], ...]:
    """Each parameter's name and shape for ``f_in`` input features, in the
    order ``init_params`` draws them, which is also their order in
    ``ModelParams.flat``, in the gradient vector, in ``OptimizerState.layout``
    and in a checkpoint."""
    hidden, fc1 = config.hidden, config.fc1
    attn = (2 * hidden + nn.NUM_EDGE_FLAGS, 1)
    return (("gc1.weight", (f_in, hidden)), ("gc1.attn", attn), ("gc1.bias", (1, hidden)),
            ("gc2.weight", (hidden // 2, hidden)), ("gc2.attn", attn),
            ("gc2.bias", (1, hidden)),
            ("fc1.weight", (hidden, fc1)), ("fc1.bias", (1, fc1)),
            ("fc2.weight", (fc1, config.out)), ("fc2.bias", (1, config.out)))


@dataclass(eq=False)
class ModelParams:
    """Every parameter value in one float64 vector, ``flat``; ``named`` maps
    each name of ``param_shapes`` to a reshaped view into it, in that order."""

    flat: np.ndarray
    named: dict[str, np.ndarray]


def init_params(config: ModelConfig, f_in: int) -> ModelParams:
    """Glorot-uniform weights and attention vectors and zero biases, for
    ``f_in`` input features."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 71)))
    shapes = param_shapes(config, f_in)
    flat = np.zeros(sum(rows * cols for _, (rows, cols) in shapes))
    named, start = {}, 0
    for name, shape in shapes:
        view = named[name] = flat[start:start + shape[0] * shape[1]].reshape(shape)
        start += view.size
        if not name.endswith(".bias"):
            view[...] = nn.glorot(rng, shape)
    return ModelParams(flat, named)


def _gat(named: dict, layer: str) -> tuple:
    """The weight, attention vector and bias of GAT ``layer``, from ``named``."""
    return named[f"{layer}.weight"], named[f"{layer}.attn"], named[f"{layer}.bias"]


@dataclass(frozen=True, eq=False)
class PreparedGraph:
    """One sample, keyed by URL (url-wise) or cascade ID: node features,
    messages, label, node times and authors.

    The build holds the node features as ``encode_node_features`` returns
    them: ``dense``, the (n, 33) columns of the computed blocks, and
    ``rows``, each node's (n, 3) rows of ``table``, the build's one
    read-only embedding table, which every sample of the build shares.  A
    sample made from a plain (n, F) matrix holds all of it in ``dense``,
    with no ``rows`` and no ``table``.  ``masked`` names the feature groups
    whose columns ``features`` lays out as +0.0, in ``FEATURE_GROUPS``
    order; the arrays hold them unmasked."""

    key: str
    url_id: str
    dense: np.ndarray
    edges: EdgeArrays
    label: int  # 0 true, 1 fake
    times: tuple[float, ...] = ()
    authors: tuple[str, ...] = ()
    rows: np.ndarray | None = None
    table: np.ndarray | None = None
    masked: tuple[str, ...] = ()

    @property
    def features(self) -> np.ndarray:
        """The (n, width) matrix the network reads, its masked groups'
        columns +0.0: laid out anew from the dense columns and the table rows
        at each call, or the plain matrix, copied when masked."""
        if self.rows is None and not self.masked:
            return self.dense
        return node_matrix(self.dense, self.rows, self.table, self.masked)

    @property
    def width(self) -> int:
        """The columns of ``features``, read without laying it out."""
        return self.dense.shape[1] + (0 if self.rows is None else
                                      EMBEDDING_DIM * self.rows.shape[1])

    def prefix(self, hours: float) -> PreparedGraph:
        """The sample cut ``hours`` after ``times[0]``, the time ``truncate`` measures
        from: nodes are in time order, so the cut is a node prefix and equals
        a fresh build at ``hours``.  Its arrays are views of this sample's,
        and it masks the same groups."""
        n = bisect.bisect_right(self.times, self.times[0] + hours * 3600.0)
        if n == len(self.times):
            return self
        e = self.edges
        keep = (e.src < n) & (e.dst < n)
        return replace(self, dense=self.dense[:n],
                       rows=None if self.rows is None else self.rows[:n],
                       edges=EdgeArrays(e.src[keep], e.dst[keep], e.flags[keep], n),
                       times=self.times[:n], authors=self.authors[:n])


def prepare_graph(sample: PreparedGraph, active_groups) -> PreparedGraph:
    """The sample with its inactive feature groups masked, and the groups it
    masks already: a sample that shares its arrays and records the groups,
    whose columns of ``features`` are +0.0.  ``sample`` itself when that
    masks no new group.  Masking needs the full layout: a sample of another
    width raises ``ValueError``."""
    masked = tuple(g for g in FEATURE_GROUPS if g in sample.masked or g not in active_groups)
    if masked == sample.masked:
        return sample
    if sample.width != WIDTH:
        raise ValueError(f"cannot mask a sample of {sample.width} feature columns: "
                         f"the feature layout has {WIDTH}")
    return replace(sample, masked=masked)


def _forward_tensors(features: Tensor, edges: EdgeArrays,
                     tensors: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """The network on the autograd tape, over a ``Tensor`` per parameter
    name: the reference that ``loss_and_grads`` reproduces bit for bit."""
    h1 = ag.selu(nn.gat_forward(features, edges, *_gat(tensors, "gc1")))
    pooled = nn.mean_pool_channels(h1, 2)
    h2 = ag.selu(nn.gat_forward(pooled, edges, *_gat(tensors, "gc2")))
    readout = nn.global_mean_pool(h2)
    fc1 = ag.selu(nn.fc_forward(readout, tensors["fc1.weight"], tensors["fc1.bias"]))
    scores = nn.fc_forward(fc1, tensors["fc2.weight"], tensors["fc2.bias"])
    return scores, h2


def _network_forward(features: np.ndarray, edges: EdgeArrays, params: ModelParams):
    """The network on arrays; returns (scores (1, 2), node embeddings, cache)."""
    p = params.named
    out1, gat1 = nn.gat_layer(features, edges, *_gat(p, "gc1"))
    h1, selu1 = nn.selu(out1)
    out2, gat2 = nn.gat_layer(nn.pair_pool(h1), edges, *_gat(p, "gc2"))
    h2, selu2 = nn.selu(out2)
    readout = nn.mean_pool(h2)
    pre_fc1 = nn.fc(readout, p["fc1.weight"], p["fc1.bias"])
    fc1, selu3 = nn.selu(pre_fc1)
    scores = nn.fc(fc1, p["fc2.weight"], p["fc2.bias"])
    cache = (gat1, selu1, gat2, selu2, readout, pre_fc1, selu3, fc1)
    return scores, h2, cache


def loss_and_grads(sample: PreparedGraph, params: ModelParams
                   ) -> tuple[float, np.ndarray | None]:
    """Hinge loss of one sample and the gradient of every parameter, as one
    vector laid out as ``ModelParams.flat``.

    The gradient is None when the hinge is inactive: it is then exactly
    zero, so no backward pass runs, and ``amsgrad_step`` takes None as that
    zero.  A zero loss over a non-finite forward pass raises
    ``NumericError``, as the tape's NaN gradient would.
    """
    edges, p = sample.edges, params.named
    scores, h2, cache = _network_forward(sample.features, edges, params)
    gat1, selu1, gat2, selu2, readout, pre_fc1, selu3, fc1 = cache
    loss, g_scores = nn.hinge(scores, sample.label)
    if g_scores is None:
        # the tape multiplies its zero gradient by the activations, and
        # 0 * inf is NaN, which amsgrad_step rejects: keep rejecting it
        activations = (gat1.wh, gat1.alpha, gat2.h, gat2.wh, gat2.alpha, h2, readout,
                       pre_fc1, scores)
        if not all(np.isfinite(a).all() for a in activations):
            raise NumericError("non-finite activation in a zero-loss forward pass")
        return loss, None
    g = {}
    g_fc1, g["fc2.weight"], g["fc2.bias"] = nn.fc_backward(g_scores, fc1, p["fc2.weight"])
    g_readout, g["fc1.weight"], g["fc1.bias"] = nn.fc_backward(
        nn.selu_backward(g_fc1, selu3), readout, p["fc1.weight"])
    g_out2 = nn.selu_backward(nn.mean_pool_backward(g_readout, h2.shape[0]), selu2)
    g_pooled, (g["gc2.weight"], g["gc2.attn"], g["gc2.bias"]) = nn.gat_layer_backward(
        g_out2, edges, gat2)
    g_out1 = nn.selu_backward(nn.pair_pool_backward(g_pooled), selu1)
    _, (g["gc1.weight"], g["gc1.attn"], g["gc1.bias"]) = nn.gat_layer_backward(
        g_out1, edges, gat1, input_grad=False)
    return loss, np.concatenate([g[name] for name in p], axis=None)


def forward(sample: PreparedGraph, params: ModelParams):
    """Run the network; returns (scores, probabilities, node_embeddings)."""
    scores, h2, _ = _network_forward(sample.features, sample.edges, params)
    scores = scores.reshape(2)
    return scores, nn.softmax(scores), h2


def fake_score(scores: np.ndarray) -> float:
    """Ranking score for the positive (fake) class.

    A diverged network can overflow its scores; that raises ``NumericError``
    here, so every validation and test scorer reports it the same way.
    """
    score = float(scores[1] - scores[0])
    if not np.isfinite(score):
        raise NumericError(f"non-finite score {score} (class scores {scores[0]}, {scores[1]})")
    return score


@dataclass
class TrainResult:
    params: ModelParams
    loss_trace: list[float]
    val_auc_trace: list[tuple[int, float]]
    best_iteration: int
    best_val_auc: float | None
    opt_state: OptimizerState | None = None


def _validation_auc(val: list[PreparedGraph], params: ModelParams) -> float | None:
    return auc_or_none((fake_score(forward(s, params)[0]) for s in val),
                       [s.label for s in val])


def train(train_set: list[PreparedGraph], val_set: list[PreparedGraph],
          config: ModelConfig) -> TrainResult:
    """Single-graph AMSGrad steps with uniform sampling.

    Validation AUC is evaluated every 500 iterations (and at the end);
    the returned parameters are the snapshot with the best validation
    AUC.  When the validation set cannot score an AUC the final
    parameters are returned.
    """
    if not train_set:
        raise ValueError("empty training set")
    params = init_params(config, train_set[0].width)
    state = OptimizerState(learning_rate=config.learning_rate,
                           layout=tuple((k, v.size) for k, v in params.named.items()))
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 11)))

    loss_trace: list[float] = []
    val_trace: list[tuple[int, float]] = []
    best_auc = -1.0
    best_iteration = 0
    best = None

    # every loss, gradient and score is checked for finiteness, which turns
    # an overflow into NumericError: numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        for it in range(1, config.iterations + 1):
            sample = train_set[rng.integers(len(train_set))]
            loss, grads = loss_and_grads(sample, params)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at iteration {it}")
            loss_trace.append(loss)
            amsgrad_step(params.flat, grads, state)

            if it % VALIDATION_EVERY == 0 or it == config.iterations:
                auc = _validation_auc(val_set, params)
                if auc is not None:
                    val_trace.append((it, auc))
                    if auc > best_auc:
                        best_auc = auc
                        best_iteration = it
                        best = params.flat.copy()

    if best is not None:
        params.flat[...] = best
        return TrainResult(params, loss_trace, val_trace, best_iteration, best_auc, state)
    return TrainResult(params, loss_trace, val_trace, config.iterations, None, state)


def user_embeddings(samples: list[PreparedGraph], params: ModelParams) -> dict[str, np.ndarray]:
    """Mean of each user's node embeddings (last convolution output)
    across all given samples."""
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for sample in samples:
        _, _, emb = forward(sample, params)
        for author, row in zip(sample.authors, emb):
            sums[author] = sums[author] + row if author in sums else row
            counts[author] = counts.get(author, 0) + 1
    return {u: sums[u] / counts[u] for u in sums}


# -- checkpointing ----------------------------------------------------------

CHECKPOINT_FORMAT = "cascade-gnn-checkpoint-v1"


def save_checkpoint(path, params: ModelParams, seed: int | None = None,
                    meta: dict | None = None) -> None:
    """Write the parameters, ``seed`` and ``meta``; no optimizer state, as
    no command resumes training."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "seed": seed,
        "meta": meta or {},
        "params": {k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
                   for k, v in params.named.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class CheckpointError(ValueError):
    """A checkpoint file that is foreign or does not fit the run."""


def load_checkpoint(path, config: ModelConfig, scope: str | None = None
                    ) -> tuple[ModelParams, int | None]:
    """Read a checkpoint into parameters shaped by ``config`` for ``WIDTH``
    input features, and its seed.

    A given ``scope`` must match the one the checkpoint's ``meta`` records,
    if it records one, and ``config.active_groups`` must be the set of
    feature groups it records, if it records them.  Every parameter value
    must be a finite JSON number.  Any misfit raises ``CheckpointError``
    naming the file and the field.  An ``optimizer`` field, which older
    checkpoints carry, is ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise CheckpointError(f"not a recognized checkpoint: {path} ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else None
        raise CheckpointError(f"not a recognized checkpoint: {path} (field 'format' is "
                              f"{found!r}, expected {CHECKPOINT_FORMAT!r})")
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint {path}: field 'meta' is not a mapping")
    recorded = meta.get("scope")
    if scope is not None and recorded is not None and recorded != scope:
        raise CheckpointError(f"checkpoint {path}: meta field 'scope' is {recorded!r}, "
                              f"but this run uses {scope!r}")
    groups = meta.get("active_groups")
    if groups is not None and (not isinstance(groups, list)
                               or set(map(str, groups)) != set(config.active_groups)):
        raise CheckpointError(f"checkpoint {path}: meta field 'active_groups' is {groups!r}, "
                              f"but this run uses {list(config.active_groups)!r}")
    stored = doc.get("params")
    if not isinstance(stored, dict):
        raise CheckpointError(f"checkpoint {path}: field 'params' is missing or not a mapping")
    params = init_params(config, WIDTH)
    for k, view in params.named.items():
        entry = stored.get(k)
        if entry is None:
            raise CheckpointError(f"checkpoint {path}: parameter {k!r} is missing")
        try:
            shape = tuple(entry["shape"])
            values = _embedding(entry, "data")
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {path}: parameter {k!r} is malformed "
                                  f"({type(exc).__name__}: {exc})") from None
        if not np.isfinite(values).all():
            raise CheckpointError(f"checkpoint {path}: parameter {k!r} has a non-finite value")
        if shape != view.shape or values.size != view.size:
            raise CheckpointError(f"checkpoint {path}: parameter {k!r} has shape {shape} "
                                  f"and {values.size} values, expected {view.shape}")
        view[...] = values.reshape(view.shape)  # shape may hold 2.0 for 2
    return params, doc.get("seed")
