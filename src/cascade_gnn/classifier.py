"""The four-layer propagation classifier.

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
from .features import FEATURE_GROUPS, FeatureSchema
# roc_auc stays a module global: perfbench/traced.py times it through this module
from .metrics import auc_or_none, roc_auc  # noqa: F401
from .nn import EdgeArrays, GatParams, build_edge_arrays
from .optim import NumericError, OptimizerState, amsgrad_step
from .types import LABEL_FAKE, PropagationGraph

VALIDATION_EVERY = 500

DEFAULT_ITERATIONS = {"url_wise": 25_000, "cascade_wise": 50_000}


@dataclass(frozen=True)
class ModelConfig:
    schema: FeatureSchema
    hidden: int = 64
    fc1: int = 32
    out: int = 2
    learning_rate: float = 5e-4
    iterations: int = 25_000
    seed: int = 0
    active_groups: tuple[str, ...] = FEATURE_GROUPS

    def __post_init__(self):
        if not self.active_groups:
            raise ValueError("active_groups must be non-empty")
        unknown = set(self.active_groups) - set(FEATURE_GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.out != 2:
            raise ValueError("the classifier is binary; out must be 2")
        if self.hidden % 2 != 0:
            raise ValueError("hidden width must be even for channel-pair pooling")


@dataclass(eq=False)
class ModelParams:
    gc1: GatParams
    gc2: GatParams
    fc1_w: Tensor
    fc1_b: Tensor
    fc2_w: Tensor
    fc2_b: Tensor

    def named(self) -> dict[str, Tensor]:
        return {
            "gc1.weight": self.gc1.weight, "gc1.attn": self.gc1.attn, "gc1.bias": self.gc1.bias,
            "gc2.weight": self.gc2.weight, "gc2.attn": self.gc2.attn, "gc2.bias": self.gc2.bias,
            "fc1.weight": self.fc1_w, "fc1.bias": self.fc1_b,
            "fc2.weight": self.fc2_w, "fc2.bias": self.fc2_b,
        }

    def copy_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.named().items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for k, t in self.named().items():
            t.data[...] = arrays[k]

    def zero_grad(self) -> None:
        for t in self.named().values():
            t.zero_grad()


def init_params(config: ModelConfig) -> ModelParams:
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 71)))
    f_in = config.schema.width
    half = config.hidden // 2
    return ModelParams(
        gc1=nn.init_gat_params(rng, f_in, config.hidden),
        gc2=nn.init_gat_params(rng, half, config.hidden),
        fc1_w=Tensor(nn.glorot(rng, (config.hidden, config.fc1)), requires_grad=True),
        fc1_b=Tensor(np.zeros((1, config.fc1)), requires_grad=True),
        fc2_w=Tensor(nn.glorot(rng, (config.fc1, config.out)), requires_grad=True),
        fc2_b=Tensor(np.zeros((1, config.out)), requires_grad=True),
    )


@dataclass(frozen=True, eq=False)
class PreparedGraph:
    """One training/eval sample: masked features, directed edge arrays, node times and authors."""

    key: str
    url_id: str
    features: np.ndarray
    edges: EdgeArrays
    label: int  # 0 true, 1 fake
    times: tuple[float, ...] = ()
    authors: tuple[str, ...] = ()

    def prefix(self, hours: float) -> PreparedGraph:
        """The sample cut ``hours`` after ``times[0]``, the time ``truncate`` measures
        from: nodes are in time order, so the cut is a node prefix and equals
        a fresh build at ``hours``."""
        n = bisect.bisect_right(self.times, self.times[0] + hours * 3600.0)
        if n == len(self.times):
            return self
        e = self.edges
        keep = (e.src < n) & (e.dst < n)
        return replace(self, features=self.features[:n],
                       edges=EdgeArrays(e.src[keep], e.dst[keep], e.flags[keep], n),
                       times=self.times[:n], authors=self.authors[:n])


def mask_columns(features: np.ndarray, schema: FeatureSchema,
                 active_groups) -> np.ndarray:
    out = features.copy()
    for group in FEATURE_GROUPS:
        if group not in active_groups:
            out[:, schema.group_columns(group)] = 0.0
    return out


def prepare_graph(graph: PropagationGraph, schema: FeatureSchema,
                  active_groups=FEATURE_GROUPS, key: str | None = None,
                  url_id: str = "") -> PreparedGraph:
    return PreparedGraph(
        key=key if key is not None else (graph.nodes[0] if graph.nodes else ""),
        url_id=url_id,
        features=mask_columns(graph.node_features, schema, active_groups),
        edges=build_edge_arrays(graph.num_nodes, graph.edges),
        label=int(graph.label == LABEL_FAKE),
        times=graph.node_times,
        authors=graph.node_authors,
    )


def _forward_tensors(features: Tensor, edges: EdgeArrays,
                     params: ModelParams) -> tuple[Tensor, Tensor]:
    """The network on the autograd tape: the reference that ``loss_and_grads``
    reproduces bit for bit."""
    h1 = ag.selu(nn.gat_forward(features, edges, params.gc1))
    pooled = nn.mean_pool_channels(h1, 2)
    h2 = ag.selu(nn.gat_forward(pooled, edges, params.gc2))
    readout = nn.global_mean_pool(h2)
    fc1 = ag.selu(nn.fc_forward(readout, params.fc1_w, params.fc1_b))
    scores = nn.fc_forward(fc1, params.fc2_w, params.fc2_b)
    return scores, h2


def _network_forward(features: np.ndarray, edges: EdgeArrays, params: ModelParams):
    """The network on arrays; returns (scores (1, 2), node embeddings, cache)."""
    gc1, gc2 = params.gc1, params.gc2
    out1, gat1 = nn.gat_layer(features, edges, gc1.weight.data, gc1.attn.data, gc1.bias.data)
    h1, selu1 = nn.selu(out1)
    out2, gat2 = nn.gat_layer(nn.pair_pool(h1), edges, gc2.weight.data, gc2.attn.data,
                              gc2.bias.data)
    h2, selu2 = nn.selu(out2)
    readout = nn.mean_pool(h2)
    pre_fc1 = nn.fc(readout, params.fc1_w.data, params.fc1_b.data)
    fc1, selu3 = nn.selu(pre_fc1)
    scores = nn.fc(fc1, params.fc2_w.data, params.fc2_b.data)
    cache = (gat1, selu1, gat2, selu2, readout, pre_fc1, selu3, fc1)
    return scores, h2, cache


def loss_and_grads(sample: PreparedGraph, params: ModelParams
                   ) -> tuple[float, dict[str, np.ndarray] | None]:
    """Hinge loss of one sample and the gradient of every parameter, keyed
    as ``ModelParams.named()``.

    The gradient is None when the hinge is inactive: it is then exactly
    zero, so no backward pass runs.  A zero loss over a non-finite forward
    pass raises ``NumericError``, as the tape's NaN gradient would.
    """
    edges = sample.edges
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
    g_fc1, g_fc2_w, g_fc2_b = nn.fc_backward(g_scores, fc1, params.fc2_w.data)
    g_readout, g_fc1_w, g_fc1_b = nn.fc_backward(nn.selu_backward(g_fc1, selu3), readout,
                                                 params.fc1_w.data)
    g_out2 = nn.selu_backward(nn.mean_pool_backward(g_readout, h2.shape[0]), selu2)
    g_pooled, (g2_w, g2_a, g2_b) = nn.gat_layer_backward(g_out2, edges, gat2)
    g_out1 = nn.selu_backward(nn.pair_pool_backward(g_pooled), selu1)
    _, (g1_w, g1_a, g1_b) = nn.gat_layer_backward(g_out1, edges, gat1, input_grad=False)
    return loss, {
        "gc1.weight": g1_w, "gc1.attn": g1_a, "gc1.bias": g1_b,
        "gc2.weight": g2_w, "gc2.attn": g2_a, "gc2.bias": g2_b,
        "fc1.weight": g_fc1_w, "fc1.bias": g_fc1_b,
        "fc2.weight": g_fc2_w, "fc2.bias": g_fc2_b,
    }


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
          config: ModelConfig, params: ModelParams | None = None) -> TrainResult:
    """Single-graph AMSGrad steps with uniform sampling.

    Validation AUC is evaluated every 500 iterations (and at the end);
    the returned parameters are the snapshot with the best validation
    AUC.  When the validation set cannot score an AUC the final
    parameters are returned.
    """
    if not train_set:
        raise ValueError("empty training set")
    if params is None:
        params = init_params(config)
    arrays = {k: t.data for k, t in params.named().items()}
    zero_grads = {k: np.zeros_like(a) for k, a in arrays.items()}
    state = OptimizerState(learning_rate=config.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 11)))

    loss_trace: list[float] = []
    val_trace: list[tuple[int, float]] = []
    best_auc = -1.0
    best_iteration = 0
    best_arrays = None

    # every loss, gradient and score is checked for finiteness, which turns
    # an overflow into NumericError: numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        for it in range(1, config.iterations + 1):
            sample = train_set[rng.integers(len(train_set))]
            loss, grads = loss_and_grads(sample, params)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at iteration {it}")
            loss_trace.append(loss)
            amsgrad_step(arrays, zero_grads if grads is None else grads, state)

            if it % VALIDATION_EVERY == 0 or it == config.iterations:
                auc = _validation_auc(val_set, params)
                if auc is not None:
                    val_trace.append((it, auc))
                    if auc > best_auc:
                        best_auc = auc
                        best_iteration = it
                        best_arrays = params.copy_arrays()

    if best_arrays is not None:
        params.load_arrays(best_arrays)
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


def save_checkpoint(path, params: ModelParams, state: OptimizerState | None = None,
                    seed: int | None = None, meta: dict | None = None) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "seed": seed,
        "meta": meta or {},
        "params": {k: {"shape": list(t.data.shape), "data": t.data.reshape(-1).tolist()}
                   for k, t in params.named().items()},
        "optimizer": state.to_dict() if state is not None else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class CheckpointError(ValueError):
    """A checkpoint file that is foreign or does not fit the run."""


def load_checkpoint(path, config: ModelConfig, scope: str | None = None
                    ) -> tuple[ModelParams, OptimizerState | None, int | None]:
    """Read a checkpoint into parameters shaped by ``config``.

    A given ``scope`` must match the one the checkpoint's ``meta`` records,
    if it records one.  Any misfit raises ``CheckpointError`` naming the
    file and the field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
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
    stored = doc.get("params")
    if not isinstance(stored, dict):
        raise CheckpointError(f"checkpoint {path}: field 'params' is missing or not a mapping")
    params = init_params(config)
    for k, t in params.named().items():
        entry = stored.get(k)
        if entry is None:
            raise CheckpointError(f"checkpoint {path}: parameter {k!r} is missing")
        try:
            shape = tuple(entry["shape"])
            values = np.asarray(entry["data"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {path}: parameter {k!r} is malformed "
                                  f"({type(exc).__name__}: {exc})") from None
        if shape != t.data.shape or values.size != t.data.size:
            raise CheckpointError(f"checkpoint {path}: parameter {k!r} has shape {shape} "
                                  f"and {values.size} values, expected {t.data.shape}")
        t.data[...] = values.reshape(shape)
    state = None
    if doc.get("optimizer"):
        try:
            state = OptimizerState.from_dict(doc["optimizer"])
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {path}: field 'optimizer' is malformed "
                                  f"({type(exc).__name__}: {exc})") from None
    return params, state, doc.get("seed")
