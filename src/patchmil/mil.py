"""Context-aware multiple-instance learning head.

Instances (one embedding per tile, with integer grid coordinates) pass through
a multi-head self-attention block whose logits carry a learned 2-D
relative-position bias, then through an adaptive pooling step that softmaxes
across instances per output coordinate. A linear classifier on the pooled bag
vector is trained with cross-entropy. Max/mean/soft/gated-attention poolings
are kept as ablation baselines. The head takes batches of bags, (B, I, C)
instances; `classify_bag` and `attention_report` score one `Bag` as a batch
of one, and `attention_report` exports the map `msa_refine` made.
`train_epochs` is the one supervised epoch loop, for `train_mil` on frozen
bags and for `pipeline.finetune_mil` end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import (_layernorm, _linear, _linear_init, block_init, feed_forward,
                       multihead_attention)
from .errors import ConfigError, ContractViolation
from .tensor import Adam, Tensor

POOLING_KINDS = ("adaptive", "max", "mean", "soft", "gated_attention")


@dataclass
class Bag:
    """One tiled image: instance embeddings, grid positions, class label."""

    instances: np.ndarray  # (I, C)
    positions: np.ndarray  # (I, 2) int grid coordinates
    label: int

    def __post_init__(self):
        self.instances = np.asarray(self.instances)
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if self.instances.ndim != 2 or self.instances.shape[0] < 1:
            raise ContractViolation(f"bag needs (I>=1, C) instances, got {self.instances.shape}")
        if self.positions.shape != (self.instances.shape[0], 2):
            raise ContractViolation("positions must be (I, 2) grid coordinates")
        if len({tuple(p) for p in self.positions}) != len(self.positions):
            raise ContractViolation("bag positions must be unique")


@dataclass(frozen=True)
class MILConfig:
    feature_dim: int = 128
    n_classes: int = 7
    heads: int = 4
    depth: int = 1
    bias_radius: int = 7
    use_position_bias: bool = True
    pooling: str = "adaptive"
    normalize_bag: bool = False
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0

    def validate(self):
        if self.pooling not in POOLING_KINDS:
            raise ConfigError(
                f"unknown pooling kind {self.pooling!r}; valid kinds: {', '.join(POOLING_KINDS)}"
            )
        if self.feature_dim % self.heads != 0:
            raise ConfigError("feature_dim must be divisible by heads")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be at least 0, got {self.epochs}")


def init_mil(rng: np.random.Generator, cfg: MILConfig) -> dict:
    cfg.validate()
    c = cfg.feature_dim
    p: dict[str, Tensor] = {}
    span = 2 * cfg.bias_radius + 1
    for b in range(cfg.depth):
        block_init(rng, p, f"msa{b}", c)
        p[f"msa{b}_bias"] = T.parameter(np.zeros((cfg.heads, span * span)))
    _linear_init(rng, p, "hw1", c, c)
    _linear_init(rng, p, "hw2", c, c)
    _linear_init(rng, p, "gate_v", c, 64)
    _linear_init(rng, p, "gate_u", c, 64)
    _linear_init(rng, p, "gate_w", 64, 1)
    _linear_init(rng, p, "cls", c, cfg.n_classes)
    return p


def _bias_index(positions: np.ndarray, radius: int) -> np.ndarray:
    """(..., I, 2) grid coordinates -> (..., I, I) bias-table indices."""
    delta = positions[..., :, None, :] - positions[..., None, :, :]
    delta = np.clip(delta, -radius, radius) + radius
    span = 2 * radius + 1
    return delta[..., 0] * span + delta[..., 1]


def _position_bias(positions: np.ndarray, params: dict, blk: int, cfg: MILConfig):
    """(B, heads, I, I) logit bias of block `blk` for (B, I, 2) positions, or None."""
    if not cfg.use_position_bias:
        return None
    idx = _bias_index(positions, cfg.bias_radius)  # (B, I, I)
    table = params[f"msa{blk}_bias"]  # (heads, span^2)
    return T.transpose(table[:, idx], (1, 0, 2, 3))


def msa_refine(instances, positions: np.ndarray, params: dict, cfg: MILConfig) -> tuple:
    """Refine (B, I, C) instances at (B, I, 2) positions: (refined, each block's attention)."""
    x = T.as_tensor(instances)
    if x.ndim != 3:
        raise ContractViolation(f"MIL head needs (B, I, C) instances, got {x.shape}")
    maps = []
    for blk in range(cfg.depth):
        bias = _position_bias(positions, params, blk, cfg)
        h = _layernorm(x, params[f"msa{blk}_ln1_g"], params[f"msa{blk}_ln1_b"])
        h, attn = multihead_attention(h, params, f"msa{blk}", cfg.heads, bias)  # frees the norm
        maps.append(attn)
        x = feed_forward(x + h, params, f"msa{blk}")
    return x, maps


def adaptive_pool(refined, params: dict, cfg: MILConfig, return_weights: bool = False):
    """Instance-axis softmax gating: mean_i softmax_i(h1(z_i)) * h2(z_i) over (..., I, C)."""
    z = T.as_tensor(refined)
    weights = T.softmax(_linear(z, params, "hw1"), axis=-2)  # per coordinate, over I
    gated = weights * _linear(z, params, "hw2")
    bag = gated.sum(axis=-2) if cfg.normalize_bag else gated.mean(axis=-2)
    return (bag, weights) if return_weights else bag


def baseline_pool(refined, kind: str, params: dict, cfg: MILConfig) -> Tensor:
    """Ablation pooling of (..., I, C) instances over the instance axis."""
    z = T.as_tensor(refined)
    if kind == "max":
        return T.reduce_max(z, axis=-2)
    if kind == "mean":
        return z.mean(axis=-2)
    if kind == "soft":
        return (T.softmax(z, axis=-2) * z).sum(axis=-2)
    if kind == "gated_attention":
        gate = T.tanh(_linear(z, params, "gate_v")) * T.sigmoid(_linear(z, params, "gate_u"))
        logits = _linear(gate, params, "gate_w")  # (..., I, 1)
        return (T.softmax(logits, axis=-2) * z).sum(axis=-2)
    raise ConfigError(f"unknown pooling kind {kind!r}; valid kinds: {', '.join(POOLING_KINDS)}")


def pool(refined, params: dict, cfg: MILConfig) -> Tensor:
    if cfg.pooling == "adaptive":
        return adaptive_pool(refined, params, cfg)
    return baseline_pool(refined, cfg.pooling, params, cfg)


def bag_logits(instances, positions, params: dict, cfg: MILConfig) -> Tensor:
    """(B, K) class logits of (B, I, C) instances at (B, I, 2) grid positions."""
    refined = msa_refine(instances, positions, params, cfg)[0]
    return _linear(pool(refined, params, cfg), params, "cls")


def classify_bag(bag: Bag, params: dict, cfg: MILConfig) -> np.ndarray:
    """Class logits for one bag; argmax (lowest index on ties) is the prediction."""
    with T.no_grad():
        return bag_logits(bag.instances[None], bag.positions[None], params, cfg).numpy()[0]


def cross_entropy(logits, labels) -> Tensor:
    """Softmax cross-entropy of (B, K) logits against (B,) labels, averaged over the batch."""
    z = T.as_tensor(logits)
    if z.ndim != 2:
        raise ContractViolation(f"cross_entropy needs (B, K) logits, got {z.shape}")
    shifted = z - z.data.max(axis=-1, keepdims=True)  # a constant: no gradient through the max
    log_norm = T.log(T.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(z.shape[0]), np.asarray(labels, dtype=np.int64)]
    return (log_norm - picked).mean()


def _group_by_size(bags):
    groups: dict[int, list[int]] = {}
    for i, bag in enumerate(bags):
        groups.setdefault(bag.instances.shape[0], []).append(i)
    return groups


def _stacked_groups(bags) -> list:
    """(bag indices, stacked instances, stacked positions) per instance count."""
    return [
        (np.array(idx), np.stack([bags[i].instances for i in idx]),
         np.stack([bags[i].positions for i in idx]))
        for idx in _group_by_size(bags).values()
    ]


def _predict_groups(groups, n_bags: int, params: dict, cfg: MILConfig) -> np.ndarray:
    preds = np.zeros(n_bags, dtype=np.int64)
    with T.no_grad():
        for idx, inst, pos in groups:
            preds[idx] = np.argmax(bag_logits(inst, pos, params, cfg).numpy(), axis=1)
    return preds


def evaluate_bags(bags, params: dict, cfg: MILConfig):
    """Predicted class ids for a list of bags (batched by instance count)."""
    return _predict_groups(_stacked_groups(bags), len(bags), params, cfg)


def train_epochs(params: dict, lr: float, weight_decay: float, epochs: int, batches, scores,
                 progress=None) -> list:
    """Adam on cross-entropy, epoch by epoch; returns the history.

    `batches()` yields an epoch's (logits, labels), `scores()` its accuracies
    with "val_acc". Each epoch's record {"epoch", "loss", **scores()} goes to
    the history and to `progress`; the params end at the first best val_acc.
    """
    opt = Adam(params, weight_decay=weight_decay)
    history = []
    best = {k: p.data.copy() for k, p in params.items()}
    best_acc = -1.0
    for epoch in range(epochs):
        losses = []
        for logits, labels in batches():
            loss = cross_entropy(logits, labels)
            loss.backward()
            opt.step(lr)
            losses.append(loss.item())
        history.append({"epoch": epoch, "loss": float(np.mean(losses)), **scores()})
        if history[-1]["val_acc"] > best_acc:
            best_acc = history[-1]["val_acc"]
            best = {k: p.data.copy() for k, p in params.items()}
        if progress is not None:
            progress(history[-1])
    for k, p in params.items():
        p.data[...] = best[k]
    return history


def train_mil(train_bags, val_bags, cfg: MILConfig, progress=None):
    """Cross-entropy training on frozen bags; returns (best params, history).

    Batches hold bags of one size. Without val bags, train_acc is the val_acc.
    Each size group of the train and val bags is stacked once per call.
    """
    cfg.validate()
    if not train_bags:
        raise ContractViolation("train_mil needs at least one training bag")
    rng = np.random.default_rng(cfg.seed)
    params = init_mil(rng, cfg)
    labels = np.array([b.label for b in train_bags])
    val_labels = np.array([b.label for b in val_bags])
    groups = _stacked_groups(train_bags)
    val_groups = _stacked_groups(val_bags)

    def batches():
        for idx, inst, pos in groups:
            order = np.arange(len(idx))
            rng.shuffle(order)  # the draws and permutation of shuffling idx in place
            for s in range(0, len(order), cfg.batch_size):
                chunk = order[s : s + cfg.batch_size]
                yield bag_logits(inst[chunk], pos[chunk], params, cfg), labels[idx[chunk]]

    def scores():
        train_acc = float((_predict_groups(groups, len(train_bags), params, cfg) == labels).mean())
        if not val_bags:
            return {"train_acc": train_acc, "val_acc": train_acc}
        val_preds = _predict_groups(val_groups, len(val_bags), params, cfg)
        return {"train_acc": train_acc, "val_acc": float((val_preds == val_labels).mean())}

    history = train_epochs(params, cfg.lr, cfg.weight_decay, cfg.epochs, batches, scores, progress)
    return params, history


def attention_report(bag: Bag, params: dict, cfg: MILConfig):
    """Adaptive-pool weights (I, C) and block 0's MSA attention (heads, I, I) for export."""
    with T.no_grad():
        refined, maps = msa_refine(bag.instances[None], bag.positions[None], params, cfg)
        _, weights = adaptive_pool(refined, params, cfg, return_weights=True)
    return weights.numpy()[0], maps[0].numpy()[0]
