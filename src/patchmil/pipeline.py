"""Glue between corpus, encoder, probes and the MIL head, and the ablation runner.

Whole images are tiled into encoder-sized patches; each patch embedding is the
GAP of its feature map. A whole-image embedding (for linear probing) is the
mean of its patch embeddings; a bag (for MIL) keeps the patch embeddings and
their grid positions. A corpus split is read, tiled and embedded one block of
images at a time, one process per available CPU (`parallel.fork_map`), so its
pixels are never all in memory at once and the embeddings are those of the
same blocks embedded one after another.
`finetune_mil` trains the encoder and a MIL head end to end with
`mil.train_epochs`, the loop that `mil.train_mil` uses on frozen bags.

`ablation` is the one copy of the paper's ablation protocol, run by both
`patchmil ablate` and the acceptance gate's desk experiment: linear probes of
a random-init encoder and of one pretrained encoder per loss subset in
`LOSS_ROWS`, an end-to-end fine-tune of the full-loss encoder, then one MIL
head per pooling kind on the fine-tuned encoder's frozen bag features.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import backbone as bb
from . import data as D
from . import metrics as MM
from . import mil as ML
from . import selfsup as S
from . import tensor as T
from .errors import ConfigError, ContractViolation, FormatError
from .parallel import fork_map

# pretraining loss subsets of the loss ablation; the last is the full loss
LOSS_ROWS = (
    ("global",),
    ("global", "parts"),
    ("global", "var", "cov"),
    ("global", "parts", "var", "cov"),
)
ABLATION_STAGES = ("probes", "ssl", "finetune", "bags", "mil")
FINETUNE_LR = 3e-3
# Patches per encoder batch of `embed_patches`, and per block of `_embed_split`.
# A 128-patch batch needs 14 MB at the desk arch; a split's blocks are embedded
# in forked children, so that memory is a child's, one block per child.
EMBED_CHUNK = 128


def embed_patches(patches: np.ndarray, params: dict, arch: bb.ArchConfig) -> np.ndarray:
    """GAP patch embeddings (P, C) of (P, side, side, 3) patches, `EMBED_CHUNK` at a time."""
    outs = []
    with T.no_grad():
        for start in range(0, patches.shape[0], EMBED_CHUNK):
            m = bb.embed_patch(patches[start : start + EMBED_CHUNK], params, arch)
            outs.append(bb.gap(m).numpy())
    return np.concatenate(outs, axis=0)


def image_patches(images: np.ndarray, patch_side: int):
    """Tile every image; returns (all_patches, patches_per_image, positions).

    The tiles and positions are `data.tile_image`'s, image after image, made
    with one reshape and one copy.
    """
    images = np.asarray(images)
    n, h, w = images.shape[:3]
    if patch_side > h or patch_side > w:
        raise ContractViolation(f"patch side {patch_side} exceeds image size {h}x{w}")
    rows, cols = h // patch_side, w // patch_side
    rest = images.shape[3:]
    grid = images[:, : rows * patch_side, : cols * patch_side].reshape(
        (n, rows, patch_side, cols, patch_side) + rest
    )
    tiles = grid.swapaxes(2, 3).reshape((n * rows * cols, patch_side, patch_side) + rest)
    positions = np.stack(np.divmod(np.arange(rows * cols, dtype=np.int64), cols), axis=1)
    return tiles, rows * cols, positions


def _embed_split(corpus_dir, split: str, params: dict, arch: bb.ArchConfig, limit=None):
    """Patch embeddings of a split, read, tiled and embedded one block at a time.

    A block is as many images as one `embed_patches` chunk holds. The blocks
    are mapped by `parallel.fork_map`, so each child holds only the pixels of
    the block it embeds. When the patches per image divide the chunk (4 or 16
    on 64-pixel images), the encoder gets the very batches of the whole
    split's patches. With a `limit`, only the blocks holding the first
    `limit` images are embedded, whole, so each embedding keeps its bits.
    Returns (embeddings (N, patches per image, C), positions, labels).
    """
    records = D.split_records(corpus_dir, split)
    shape = D.tensor_shape(Path(corpus_dir) / records[0].path)
    tiles = (shape[0] // arch.side) * (shape[1] // arch.side)  # 0 makes image_patches raise
    block = max(1, EMBED_CHUNK // max(tiles, 1))

    def embed_block(start: int):
        images = D.read_images(corpus_dir, records[start : start + block])
        if images.shape[1:] != shape:  # read_images checks within its block only
            raise FormatError(f"image {records[start].path} of {corpus_dir} has shape "
                              f"{images.shape[1:]}, not the {shape} of {records[0].path}")
        patches, per_image, positions = image_patches(images, arch.side)
        return embed_patches(patches, params, arch).reshape(len(images), per_image, -1), positions

    n = len(records[:limit])
    blocks = fork_map(embed_block, range(0, n, block))
    emb = np.concatenate([out for out, _ in blocks])[:n]
    return emb, blocks[-1][1], np.array([r.class_id for r in records[:n]])


def bags_from_corpus(corpus_dir, split: str, params: dict, arch: bb.ArchConfig, limit=None):
    """One Bag per corpus image of the split, or of its first `limit` images."""
    emb, positions, labels = _embed_split(corpus_dir, split, params, arch, limit)
    return [ML.Bag(emb[i], positions, int(labels[i])) for i in range(len(labels))]


def bag_normalization(train_bags):
    """Per-feature mean/std over all instances of the training bags."""
    stacked = np.concatenate([b.instances for b in train_bags], axis=0)
    return stacked.mean(axis=0), stacked.std(axis=0) + 1e-6


def standardize_bags(bags, norm):
    """New Bag list with instances z-scored by (mu, sd) training statistics."""
    mu, sd = norm
    return [ML.Bag((b.instances - mu) / sd, b.positions, b.label) for b in bags]


def frozen_bags(corpus_dir, params: dict, arch: bb.ArchConfig):
    """Bags of every split, z-scored with train statistics: ({split: bags}, norm)."""
    bags = {split: bags_from_corpus(corpus_dir, split, params, arch) for split in D.SPLITS}
    norm = bag_normalization(bags["train"])
    return {split: standardize_bags(b, norm) for split, b in bags.items()}, norm


def bag_metrics(bags, params: dict, cfg: ML.MILConfig) -> dict:
    """Metrics of a MIL head's predictions against the bags' labels."""
    preds = ML.evaluate_bags(bags, params, cfg)
    return MM.metrics_from_predictions(preds, np.array([b.label for b in bags]))


def finetune_mil(
    corpus_dir,
    init_params: dict,
    arch: bb.ArchConfig,
    cfg: ML.MILConfig,
    epochs: int = 20,
    batch_size: int = 8,
    lr: float = FINETUNE_LR,
    progress=None,
):
    """Train encoder and MIL head end to end with cross-entropy on bags.

    Starts from `init_params` (typically pretrained encoder weights) and runs
    `mil.train_epochs` on full batches of training images, one permutation
    per epoch. Keeps the parameters of the epoch with the best validation
    accuracy and returns (encoder params, MIL params, history); the history
    records, also passed to `progress(record)`, have no train_acc.
    """
    cfg.validate()
    if batch_size < 1:
        raise ConfigError(f"fine-tune batch size must be at least 1, got {batch_size}")
    images, labels, _ = D.load_split(corpus_dir, "train")
    if batch_size > len(images):  # no full batch: the fine-tune would take no step
        raise ConfigError(
            f"fine-tune batch size {batch_size} exceeds the {len(images)} training images"
        )
    val_images, val_labels, _ = D.load_split(corpus_dir, "val")
    _, per_image, positions = image_patches(images[:1], arch.side)
    encoder = {k: T.parameter(np.array(p.data, copy=True)) for k, p in init_params.items()}
    mil_params = ML.init_mil(np.random.default_rng(cfg.seed), cfg)
    trainable = {**encoder, **{f"mil:{k}": v for k, v in mil_params.items()}}
    rng = np.random.default_rng(cfg.seed)

    def forward(batch_images):
        tiles = image_patches(batch_images, arch.side)[0]
        feature_map = bb.embed_patch(tiles, encoder, arch)
        instances = bb.gap(feature_map).reshape(len(batch_images), per_image, arch.feature_dim)
        pos = np.stack([positions] * len(batch_images))
        return ML.bag_logits(instances, pos, mil_params, cfg)

    def batches():
        order = rng.permutation(len(images))
        for start in range(0, len(order) - batch_size + 1, batch_size):
            idx = order[start : start + batch_size]
            yield forward(images[idx]), labels[idx]

    def scores():
        preds = []
        with T.no_grad():
            for start in range(0, len(val_images), 32):
                preds.extend(np.argmax(forward(val_images[start : start + 32]).numpy(), axis=1))
        return {"val_acc": float((np.array(preds) == val_labels).mean())}

    history = ML.train_epochs(trainable, lr, cfg.weight_decay, epochs, batches, scores, progress)
    return encoder, mil_params, history


def train_linear_probe(features: np.ndarray, labels: np.ndarray):
    """Full-batch softmax regression; returns (weights, bias, normalization)."""
    n_classes, iters, lr, l2 = len(D.CLASS_NAMES), 300, 0.5, 1e-4
    present = set(labels.tolist())
    missing = set(range(n_classes)) - present
    if missing:
        raise ConfigError(f"classes absent from probe training set: {sorted(missing)}")
    mu = features.mean(axis=0)
    sd = features.std(axis=0) + 1e-8
    x = (features - mu) / sd
    n, d = x.shape
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[labels]
    for _ in range(iters):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        probs = e / e.sum(axis=1, keepdims=True)
        delta = (probs - onehot) / n
        w -= lr * (x.T @ delta + l2 * w)
        b -= lr * delta.sum(axis=0)
    return w, b, (mu, sd)


def probe_predict(features: np.ndarray, w, b, norm) -> np.ndarray:
    mu, sd = norm
    return np.argmax(((features - mu) / sd) @ w + b, axis=1)


def linear_probe_metrics(corpus_dir, params: dict, arch: bb.ArchConfig) -> dict:
    """Freeze the encoder, fit a linear classifier on train, score on test."""
    # a whole-image feature is the mean of the image's patch embeddings
    f_tr, _, train_y = _embed_split(corpus_dir, "train", params, arch)
    f_te, _, test_y = _embed_split(corpus_dir, "test", params, arch)
    w, b, norm = train_linear_probe(f_tr.mean(axis=1), train_y)
    preds = probe_predict(f_te.mean(axis=1), w, b, norm)
    return MM.metrics_from_predictions(preds, test_y)


@contextmanager
def _timed(seconds: dict, stage: str):
    start = time.perf_counter()
    yield
    seconds[stage] += time.perf_counter() - start


def ablation(corpus_dir, ssl_cfg: S.SSLConfig, mil_cfg: ML.MILConfig,
             finetune_epochs: int, finetune_lr: float):
    """Run the loss and pooling ablations; returns (report, stage_seconds).

    Each row sets the loss terms of `ssl_cfg` and the pooling and position
    bias of `mil_cfg`; the fine-tune uses adaptive pooling with the bias.
    `stage_seconds` maps each of `ABLATION_STAGES` to its wall seconds.
    """
    arch = ssl_cfg.arch
    seconds = dict.fromkeys(ABLATION_STAGES, 0.0)
    with _timed(seconds, "probes"):
        random_params = bb.init_backbone(np.random.default_rng(ssl_cfg.seed), arch)
        report = {"linear probe (random init)": linear_probe_metrics(corpus_dir, random_params, arch)}
    with _timed(seconds, "ssl"):
        # no name for the images: the patches are the one copy SSL needs
        patches, _, _ = image_patches(D.load_split(corpus_dir, "train")[0], arch.side)
    for terms in LOSS_ROWS:
        with _timed(seconds, "ssl"):
            state = S.pretrain(patches, dataclasses.replace(ssl_cfg, loss_terms=terms))
        with _timed(seconds, "probes"):
            report[f"pretraining loss [{'+'.join(terms)}]"] = linear_probe_metrics(
                corpus_dir, state.student, arch
            )
    with _timed(seconds, "finetune"):  # `state` is the last row's: the full loss
        ft_cfg = dataclasses.replace(mil_cfg, pooling="adaptive", use_position_bias=True)
        encoder, _, _ = finetune_mil(
            corpus_dir, state.student, arch, ft_cfg, epochs=finetune_epochs, lr=finetune_lr
        )
    with _timed(seconds, "bags"):
        bags, _ = frozen_bags(corpus_dir, encoder, arch)
    with _timed(seconds, "mil"):
        for kind, bias in [(kind, True) for kind in ML.POOLING_KINDS] + [("adaptive", False)]:
            cfg = dataclasses.replace(mil_cfg, pooling=kind, use_position_bias=bias)
            params, _ = ML.train_mil(bags["train"], bags["val"], cfg)
            label = f"ours + {kind} pool" if bias else f"ours + {kind} pool, no position bias"
            report[label] = bag_metrics(bags["test"], params, cfg)
    return report, seconds
