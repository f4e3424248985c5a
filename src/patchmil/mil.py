"""Context-aware multiple-instance learning head.

Instances (one embedding per tile, with integer grid coordinates) pass through
one multi-head self-attention block whose logits carry a learned 2-D
relative-position bias, then through an adaptive pooling step that softmaxes
across instances per output coordinate and averages over them. A linear
classifier on the pooled bag vector is trained with cross-entropy at `LR`.
Max/mean/soft/gated-attention poolings are kept as ablation baselines. The
head takes batches of bags, (B, I, C) instances, and stacks a list of bags of
one instance count once. A stack is scored off the tape `SCORE_CHUNK` bags per
forward, so a scoring pass holds one chunk's activations whatever the split's
size; `classify_bag` and `attention_report` score one `Bag` as a batch of one,
and `attention_report` exports the map `msa_refine` returns.
`train_epochs` is the one supervised epoch loop, for `train_mil` on frozen
bags and for `pipeline.finetune_mil` end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import (_layernorm, _linear, _linear_init, block_init, feed_forward,
                       multihead_attention)
from .data import CLASS_NAMES
from .errors import ConfigError, ContractViolation
from .tensor import Adam, Tensor

POOLING_KINDS = ("adaptive", "max", "mean", "soft", "gated_attention")
LR = 1e-3  # train_mil's Adam step size
BIAS_RADIUS = 7  # grid offsets beyond +-7 share the bias of +-7
# Bags per no-grad forward of a scoring pass. sgemm works in blocks of rows,
# so chunks of a multiple of its block (128 is) give every bag the logits of
# one whole-stack forward; 350-bag halves of a 700-bag split do not.
SCORE_CHUNK = 128


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
    n_classes: int = len(CLASS_NAMES)
    heads: int = 4
    use_position_bias: bool = True
    pooling: str = "adaptive"
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def validate(self):
        if self.pooling not in POOLING_KINDS:
            raise ConfigError(
                f"unknown pooling kind {self.pooling!r}; valid kinds: {', '.join(POOLING_KINDS)}"
            )
        for name in ("feature_dim", "n_classes", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.feature_dim % self.heads != 0:
            raise ConfigError("feature_dim must be divisible by heads")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be at least 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")


def init_mil(rng: np.random.Generator, cfg: MILConfig) -> dict:
    cfg.validate()
    c = cfg.feature_dim
    p: dict[str, Tensor] = {}
    block_init(rng, p, "msa0", c)
    p["msa0_bias"] = T.parameter(np.zeros((cfg.heads, (2 * BIAS_RADIUS + 1) ** 2)))
    _linear_init(rng, p, "hw1", c, c)
    _linear_init(rng, p, "hw2", c, c)
    _linear_init(rng, p, "gate_v", c, 64)
    _linear_init(rng, p, "gate_u", c, 64)
    _linear_init(rng, p, "gate_w", 64, 1)
    _linear_init(rng, p, "cls", c, cfg.n_classes)
    return p


def _bias_index(positions: np.ndarray) -> np.ndarray:
    """(..., I, 2) grid coordinates -> (..., I, I) bias-table indices."""
    delta = positions[..., :, None, :] - positions[..., None, :, :]
    delta = np.clip(delta, -BIAS_RADIUS, BIAS_RADIUS) + BIAS_RADIUS
    return delta[..., 0] * (2 * BIAS_RADIUS + 1) + delta[..., 1]


def msa_refine(instances, positions: np.ndarray, params: dict, cfg: MILConfig) -> tuple:
    """Refine (B, I, C) instances at (B, I, 2) positions: (refined, (B, heads, I, I) attention)."""
    x = T.as_tensor(instances)
    if x.ndim != 3:
        raise ContractViolation(f"MIL head needs (B, I, C) instances, got {x.shape}")
    bias = None
    if cfg.use_position_bias:  # (B, heads, I, I) from the (heads, span^2) table
        bias = T.transpose(params["msa0_bias"][:, _bias_index(positions)], (1, 0, 2, 3))
    h = _layernorm(x, params["msa0_ln1_g"], params["msa0_ln1_b"])
    h, attn = multihead_attention(h, params, "msa0", cfg.heads, bias)  # frees the norm
    return feed_forward(x + h, params, "msa0"), attn


def adaptive_pool(refined, params: dict, return_weights: bool = False):
    """Instance-axis softmax gating: mean_i softmax_i(h1(z_i)) * h2(z_i) over (..., I, C)."""
    z = T.as_tensor(refined)
    weights = T.softmax(_linear(z, params, "hw1"), axis=-2)  # per coordinate, over I
    bag = (weights * _linear(z, params, "hw2")).mean(axis=-2)
    return (bag, weights) if return_weights else bag


def baseline_pool(refined, kind: str, params: dict) -> Tensor:
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
        return adaptive_pool(refined, params)
    return baseline_pool(refined, cfg.pooling, params)


def bag_logits(instances, positions, params: dict, cfg: MILConfig) -> Tensor:
    """(B, K) class logits of (B, I, C) instances at (B, I, 2) grid positions."""
    refined = msa_refine(instances, positions, params, cfg)[0]
    return _linear(pool(refined, params, cfg), params, "cls")


def classify_bag(bag: Bag, params: dict, cfg: MILConfig) -> np.ndarray:
    """Class logits for one bag; argmax (lowest index on ties) is the prediction."""
    return _logits(bag.instances[None], bag.positions[None], params, cfg)[0]


def cross_entropy(logits, labels) -> Tensor:
    """Softmax cross-entropy of (B, K) logits against (B,) labels, averaged over the batch."""
    z = T.as_tensor(logits)
    if z.ndim != 2:
        raise ContractViolation(f"cross_entropy needs (B, K) logits, got {z.shape}")
    shifted = z - z.data.max(axis=-1, keepdims=True)  # a constant: no gradient through the max
    log_norm = T.log(T.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(z.shape[0]), np.asarray(labels, dtype=np.int64)]
    return (log_norm - picked).mean()


def _stack(bags) -> tuple:
    """(N, I, C) instances and (N, I, 2) positions of bags that share one instance count."""
    counts = sorted({b.instances.shape[0] for b in bags})
    if len(counts) > 1:
        raise ContractViolation(f"a bag list must hold one instance count, got counts {counts}")
    return np.stack([b.instances for b in bags]), np.stack([b.positions for b in bags])


def _logits(instances, positions, params: dict, cfg: MILConfig) -> np.ndarray:
    """(N, K) logits of (N, I, C) instances off the tape, `SCORE_CHUNK` bags per forward."""
    return T.no_grad_chunks(lambda x, pos: bag_logits(x, pos, params, cfg).numpy(),
                            SCORE_CHUNK, instances, positions)


def _predict(instances, positions, params: dict, cfg: MILConfig) -> np.ndarray:
    return np.argmax(_logits(instances, positions, params, cfg), axis=1)


def evaluate_bags(bags, params: dict, cfg: MILConfig):
    """Predicted class ids (int64) for a list of bags of one instance count.

    The list is stacked once and scored `SCORE_CHUNK` bags per forward.
    """
    if not bags:
        return np.zeros(0, dtype=np.int64)
    return _predict(*_stack(bags), params, cfg)


def train_epochs(params: dict, lr: float, epochs: int, batches, scores, progress=None) -> list:
    """Adam on cross-entropy, epoch by epoch; returns the history.

    `batches()` yields an epoch's (logits, labels), `scores()` its accuracies
    with "val_acc". Each epoch's record {"epoch", "loss", **scores()} goes to
    the history and to `progress`; the params end at the first best val_acc.
    """
    opt = Adam(params)
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

    The train and val bags are each stacked once per call, so each list holds
    one instance count. Each epoch scores both stacks `SCORE_CHUNK` bags per
    forward.
    """
    cfg.validate()
    if not train_bags or not val_bags:
        raise ContractViolation("train_mil needs at least one training bag and one val bag")
    rng = np.random.default_rng(cfg.seed)
    params = init_mil(rng, cfg)
    inst, pos = _stack(train_bags)
    labels = np.array([b.label for b in train_bags])
    val = _stack(val_bags)
    val_labels = np.array([b.label for b in val_bags])

    def batches():
        order = np.arange(len(labels))
        rng.shuffle(order)
        for s in range(0, len(order), cfg.batch_size):
            chunk = order[s : s + cfg.batch_size]
            yield bag_logits(inst[chunk], pos[chunk], params, cfg), labels[chunk]

    def scores():
        train_acc = float((_predict(inst, pos, params, cfg) == labels).mean())
        val_acc = float((_predict(*val, params, cfg) == val_labels).mean())
        return {"train_acc": train_acc, "val_acc": val_acc}

    history = train_epochs(params, LR, cfg.epochs, batches, scores, progress)
    return params, history


def attention_report(bag: Bag, params: dict, cfg: MILConfig):
    """Adaptive-pool weights (I, C) and the MSA attention (heads, I, I) for export."""
    with T.no_grad():
        refined, attn = msa_refine(bag.instances[None], bag.positions[None], params, cfg)
        _, weights = adaptive_pool(refined, params, return_weights=True)
    return weights.numpy()[0], attn.numpy()[0]
