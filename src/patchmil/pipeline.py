"""Glue between corpus, encoder, probes and the MIL head, and the ablation runner.

Whole images are tiled into encoder-sized patches; each patch embedding is the
GAP of its feature map. A whole-image embedding (for linear probing) is the
mean of its patch embeddings; a bag (for MIL) keeps the patch embeddings and
their grid positions. A corpus split is read, tiled and embedded one block of
images at a time, one process per available CPU (`parallel.fork_map`), so its
pixels are never all in memory at once and the embeddings are those of the
same blocks embedded one after another. `split_patches` reads a split's
blocks into one array of patches, for SSL pretraining and the fine-tune.
`finetune_mil` trains the encoder and a MIL head end to end with
`mil.train_epochs`, the loop that `mil.train_mil` uses on frozen bags, for
the epochs and batch size of its `MILConfig`.

`ablation` is the one copy of the paper's ablation protocol, run by both
`patchmil ablate` and the acceptance gate's desk experiment: linear probes of
a random-init encoder and of one pretrained encoder per loss subset in
`LOSS_ROWS`, an end-to-end fine-tune of the full-loss encoder, then one MIL
head per `MIL_ROWS` entry on the fine-tuned encoder's frozen bag features.
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
# (pooling, position bias) of the MIL heads of the pooling ablation, in report order
MIL_ROWS = tuple((kind, True) for kind in ML.POOLING_KINDS) + (("adaptive", False),)
ABLATION_STAGES = ("probes", "ssl", "finetune", "bags", "mil")
FINETUNE_LR = 3e-3
FINETUNE_BATCH = 8  # images per fine-tune step of `ablation`
# Patches per encoder batch of `embed_patches`, and per block of `_embed_split`.
# A 128-patch batch needs 14 MB at the desk arch; a split's blocks are embedded
# in forked children, so that memory is a child's, one block per child.
EMBED_CHUNK = 128


def embed_patches(patches: np.ndarray, params: dict, arch: bb.ArchConfig) -> np.ndarray:
    """GAP patch embeddings (P, C) of (P, side, side, 3) patches, `EMBED_CHUNK` at a time."""
    return T.no_grad_chunks(lambda chunk: bb.gap(bb.embed_patch(chunk, params, arch)).numpy(),
                            EMBED_CHUNK, patches)


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


def _split_reader(corpus_dir, split: str, side: int):
    """(records, images per block, `read_block(start)`): a block holds `EMBED_CHUNK` patches,
    and `read_block` refuses images whose shape is not the split's first image's."""
    records = D.split_records(corpus_dir, split)
    shape = D.tensor_shape(Path(corpus_dir) / records[0].path)
    tiles = (shape[0] // side) * (shape[1] // side)  # 0 makes image_patches raise
    block = max(1, EMBED_CHUNK // max(tiles, 1))

    def read_block(start: int) -> np.ndarray:
        images = D.read_images(corpus_dir, records[start : start + block])
        if images.shape[1:] != shape:  # read_images checks within its block only
            raise FormatError(f"image {records[start].path} of {corpus_dir} has shape "
                              f"{images.shape[1:]}, not the {shape} of {records[0].path}")
        return images

    return records, block, read_block


def split_patches(corpus_dir, split: str, side: int):
    """(patches, labels, positions) of a split, the patches in `image_patches` order, read
    block by block into one preallocated array: no image array is held beside its tiles."""
    records, block, read_block = _split_reader(corpus_dir, split, side)
    for start in range(0, len(records), block):
        tiles, per_image, positions = image_patches(read_block(start), side)
        if start == 0:
            patches = np.empty((len(records) * per_image,) + tiles.shape[1:], tiles.dtype)
        patches[start * per_image : start * per_image + len(tiles)] = tiles
    return patches, np.array([r.class_id for r in records]), positions


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
    records, block, read_block = _split_reader(corpus_dir, split, arch.side)

    def embed_block(start: int):
        images = read_block(start)
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


def finetune_mil(train, val, init_params: dict, arch: bb.ArchConfig, cfg: ML.MILConfig,
                 lr: float = FINETUNE_LR, progress=None):
    """Train encoder and MIL head end to end with cross-entropy on bags.

    `train` and `val` are splits as `split_patches` returns them. Starts from
    `init_params` (typically pretrained encoder weights) and runs
    `mil.train_epochs` for `cfg.epochs` epochs on full batches of
    `cfg.batch_size` training images, one permutation per epoch, scoring val
    as frozen bags are: `embed_patches`, then `mil`'s chunked scoring. Keeps the
    parameters of the epoch with the best validation accuracy and returns
    (encoder params, MIL params, history); the history records, also passed
    to `progress(record)`, have no train_acc.
    """
    cfg.validate()
    (patches, labels, positions), (val_patches, val_labels, val_positions) = train, val
    if cfg.batch_size > len(labels):  # no full batch: the fine-tune would take no step
        raise ConfigError(f"fine-tune batch size {cfg.batch_size} exceeds the "
                          f"{len(labels)} training images")
    by_image = patches.reshape((len(labels), -1) + patches.shape[1:])  # a view
    pos = np.stack([positions] * cfg.batch_size)  # every batch is full
    encoder = {k: T.parameter(np.array(p.data, copy=True)) for k, p in init_params.items()}
    mil_params = ML.init_mil(np.random.default_rng(cfg.seed), cfg)
    trainable = {**encoder, **{f"mil:{k}": v for k, v in mil_params.items()}}
    rng = np.random.default_rng(cfg.seed)

    def batches():
        order = rng.permutation(len(labels))
        for start in range(0, len(order) - cfg.batch_size + 1, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            tiles = by_image[idx].reshape((-1,) + patches.shape[1:])
            instances = bb.gap(bb.embed_patch(tiles, encoder, arch)).reshape(pos.shape[:2] + (-1,))
            yield ML.bag_logits(instances, pos, mil_params, cfg), labels[idx]

    def scores():
        val_pos = np.broadcast_to(val_positions, (len(val_labels),) + val_positions.shape)
        emb = embed_patches(val_patches, encoder, arch).reshape(val_pos.shape[:2] + (-1,))
        return {"val_acc": float((ML._predict(emb, val_pos, mil_params, cfg) == val_labels).mean())}

    history = ML.train_epochs(trainable, lr, cfg.epochs, batches, scores, progress)
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


def ablation(corpus_dir, ssl_cfg: S.SSLConfig, mil_cfg: ML.MILConfig, finetune_epochs: int):
    """Run the loss and pooling ablations; returns (report, stage_seconds).

    Each row sets the loss terms of `ssl_cfg` and the pooling and position
    bias of `mil_cfg`; the fine-tune uses adaptive pooling with the bias,
    `finetune_epochs` epochs, lr `FINETUNE_LR` and `FINETUNE_BATCH` images a step.
    `stage_seconds` maps each of `ABLATION_STAGES` to its wall seconds.
    """
    arch = ssl_cfg.arch
    seconds = dict.fromkeys(ABLATION_STAGES, 0.0)
    with _timed(seconds, "probes"):
        random_params = bb.init_backbone(np.random.default_rng(ssl_cfg.seed), arch)
        report = {"linear probe (random init)": linear_probe_metrics(corpus_dir, random_params, arch)}
    with _timed(seconds, "ssl"):
        train = split_patches(corpus_dir, "train", arch.side)
    for terms in LOSS_ROWS:
        with _timed(seconds, "ssl"):
            state = S.pretrain(train[0], dataclasses.replace(ssl_cfg, loss_terms=terms))
        with _timed(seconds, "probes"):
            report[f"pretraining loss [{'+'.join(terms)}]"] = linear_probe_metrics(
                corpus_dir, state.student, arch
            )
    with _timed(seconds, "finetune"):  # `state` is the last row's: the full loss
        ft_cfg = dataclasses.replace(mil_cfg, pooling="adaptive", use_position_bias=True,
                                     epochs=finetune_epochs, batch_size=FINETUNE_BATCH)
        val = split_patches(corpus_dir, "val", arch.side)
        encoder, _, _ = finetune_mil(train, val, state.student, arch, ft_cfg)
    del train, val  # so the bag embedders fork from a parent that holds no pixels
    with _timed(seconds, "bags"):
        bags, _ = frozen_bags(corpus_dir, encoder, arch)
    with _timed(seconds, "mil"):
        for kind, bias in MIL_ROWS:
            cfg = dataclasses.replace(mil_cfg, pooling=kind, use_position_bias=bias)
            params, _ = ML.train_mil(bags["train"], bags["val"], cfg)
            label = f"ours + {kind} pool" if bias else f"ours + {kind} pool, no position bias"
            report[label] = bag_metrics(bags["test"], params, cfg)
    return report, seconds
