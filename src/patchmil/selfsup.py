"""Self-supervised training of the double-tier encoder.

A student branch (encoder + projection and prediction heads) is trained
against a momentum teacher on two augmented views of each patch. The teacher
is the student without its prediction heads `p_*`: the same encoder and
projection-head keys, updated as an exponential moving average of the
student. The objective combines a global and a per-part cosine loss (both
2 - 2 cos of matching rows, computed in one place) and variance/covariance
regularizers that keep the embedding batch from collapsing.

Augmentation is split in two: `draw_view` draws a view's parameters (no
draw depends on the pixels) and `apply_view` turns them into pixels. The
caller of `pretrain` draws every batch in order from one generator;
`parallel.fork_imap` applies them in forked children (so it needs the `fork`
start method), at most PREFETCH batches ahead of the training step, which
runs in the caller. The views equal those of `view_batches`, which runs the
same two steps in the caller. Every child is joined when `pretrain` returns
or raises. `pretrain` writes no files: it reports every step through
`progress(record)`, and the command line turns the records into a run's
`losses.csv`.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from . import backbone as bb
from . import tensor as T
from .errors import ConfigError, ContractViolation, NumericError
from .parallel import fork_imap
from .tensor import Adam, Tensor

LOSS_TERMS = ("global", "parts", "var", "cov")


@dataclass(frozen=True)
class LossWeights:
    gamma: float = 5.0
    lam: float = 0.005
    epsilon: float = 1e-4
    momentum: float = 0.99

    def validate(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ContractViolation(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epsilon <= 0:
            raise ContractViolation("epsilon must be positive")


@dataclass(frozen=True)
class SSLConfig:
    arch: bb.ArchConfig = field(default_factory=bb.ArchConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    loss_terms: tuple = LOSS_TERMS
    epochs: int = 30
    batch_size: int = 64
    lr: float = 3e-4
    weight_decay: float = 1e-4
    seed: int = 0

    def validate(self):
        self.arch.validate()
        self.weights.validate()
        unknown = set(self.loss_terms) - set(LOSS_TERMS)
        if unknown:
            raise ConfigError(f"unknown loss terms {sorted(unknown)}")
        if "global" not in self.loss_terms:
            raise ConfigError("the global cosine term cannot be toggled off")
        if self.batch_size < 2:  # pretrain_step needs 2 view pairs; batches of 1 take no step
            raise ConfigError(f"batch size must be at least 2, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be at least 0, got {self.epochs}")


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


VIEW_PARAMS = 15  # the floats of one view's parameters, as `draw_view` lays them out


def draw_view(rng: np.random.Generator, side: int) -> np.ndarray:
    """One view's augmentation parameters for a patch of `side` pixels.

    No draw depends on the pixels, so the parameters of every view can be
    drawn in order in one process and applied in another by `apply_view`.
    """
    params = np.empty(VIEW_PARAMS)
    params[0:3] = rng.uniform(0.75, 1.25, size=3)  # jitter: per-channel gain
    params[3:6] = rng.uniform(-0.1, 0.1, size=3)  # jitter: offset
    params[6] = np.exp(rng.normal(scale=0.3))  # jitter: gamma
    params[7] = rng.uniform(-10.0, 10.0)  # affine: angle in degrees
    params[8] = rng.uniform(0.9, 1.1)  # affine: scale
    params[9:11] = rng.uniform(-0.1, 0.1, size=2) * side  # affine: shift in pixels
    params[11] = rng.uniform(0.0, 1.5) if rng.uniform() < 0.5 else 0.0  # blur sigma, 0: none
    for _ in range(10):
        crop = int(round(rng.uniform(0.8, 1.0) * side))
        if crop >= 4:
            break
    params[12:15] = crop, rng.integers(0, side - crop + 1), rng.integers(0, side - crop + 1)
    return params


def _random_affine(img, angle: float, scale: float, shift):
    side = img.shape[0]
    center = (side - 1) / 2.0
    angle = math.radians(angle)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    # output -> input mapping (scipy applies matrix @ out + offset)
    matrix = np.array([[cos_a, -sin_a], [sin_a, cos_a]]) / scale
    offset = np.array([center, center]) - matrix @ np.array(
        [center + shift[0], center + shift[1]]
    )
    out = np.empty_like(img)
    for c in range(img.shape[2]):
        out[:, :, c] = ndimage.affine_transform(
            img[:, :, c], matrix, offset=offset, order=1, mode="reflect"
        )
    return out


def _resized_crop(img, crop: int, r: int, c: int):
    """The `crop`-pixel square at row r, column c, zoomed back to the image's side."""
    side = img.shape[0]
    patch = img[r : r + crop, c : c + crop]
    if crop == side:
        return patch
    zoom = side / crop
    # one 2-D zoom per channel: the same values as one (zoom, zoom, 1) zoom of
    # the (H, W, 3) crop, and faster
    out = np.stack([ndimage.zoom(patch[:, :, c], zoom, order=1) for c in range(patch.shape[2])],
                   axis=-1)
    return out[:side, :side]


def apply_view(patch: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The view of `patch` that `draw_view`'s parameters give: jitter, affine, blur, crop.

    Deliberately no flips or large rotations: texture orientation carries
    class identity, so the pipeline is restricted to staining-style
    photometric jitter and mild geometric perturbations.
    """
    img = np.clip(np.asarray(patch, dtype=np.float64), 0.0, 1.0) ** params[6]
    img = np.clip(img * params[0:3] + params[3:6], 0.0, 1.0)
    img = _random_affine(img, float(params[7]), float(params[8]), params[9:11])
    sigma = float(params[11])
    if sigma > 0:
        img = ndimage.gaussian_filter(img, sigma=(sigma, sigma, 0))
    img = _resized_crop(img, *(int(v) for v in params[12:15]))
    return np.ascontiguousarray(np.clip(img, 0.0, 1.0))


def augment(patch: np.ndarray, rng: np.random.Generator) -> tuple:
    """Two independent augmented views of one source patch: (view_s, view_t)."""
    side = patch.shape[0]
    return tuple(apply_view(patch, draw_view(rng, side)) for _ in range(2))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _cosine_distance(z_s: Tensor, z_t: Tensor) -> Tensor:
    """2 - 2 cos of matching rows of two same-shaped (..., D) embeddings."""
    if z_s.shape != z_t.shape:
        raise ContractViolation(f"embedding shapes differ: {z_s.shape} vs {z_t.shape}")
    return 2.0 - 2.0 * (T.l2_normalize(z_s, axis=-1) * T.l2_normalize(z_t, axis=-1)).sum(axis=-1)


def global_loss(z_s, z_t) -> Tensor:
    """Cosine distance 2 - 2 cos(z_s, z_t) of (N, D) rows, averaged over the batch."""
    return _cosine_distance(T.as_tensor(z_s), T.as_tensor(z_t)).mean()


def parts_loss(z_s, z_t) -> Tensor:
    """Sum over parts of the cosine distance between matching part rows."""
    z_s, z_t = T.as_tensor(z_s), T.as_tensor(z_t)
    for name, z in (("student", z_s), ("teacher", z_t)):
        norms = np.linalg.norm(z.data, axis=-1)
        if np.any(norms == 0):
            k = int(np.argwhere(norms == 0)[0][-1])
            raise NumericError(f"zero-norm {name} part row k={k}")
    return _cosine_distance(z_s, z_t).sum(axis=-1).mean()  # sum over parts, mean over the batch


def variance_loss(batch, epsilon: float = 1e-4) -> Tensor:
    """Hinge on the per-dimension std of a batch of embeddings (N, D)."""
    batch = T.as_tensor(batch)
    n = batch.shape[0]
    if batch.ndim != 2 or n < 2:
        raise ContractViolation(f"variance_loss needs an (N>=2, D) batch, got {batch.shape}")
    centered = batch - batch.mean(axis=0, keepdims=True)
    var = (centered * centered).sum(axis=0) * (1.0 / (n - 1))
    return T.relu(1.0 - T.sqrt(var + epsilon)).mean()


def covariance_loss(batch) -> Tensor:
    """Mean squared off-diagonal of the batch covariance matrix."""
    batch = T.as_tensor(batch)
    if batch.ndim != 2 or batch.shape[0] < 2:
        raise ContractViolation(f"covariance_loss needs an (N>=2, D) batch, got {batch.shape}")
    n, d = batch.shape
    if d < 2:
        raise ContractViolation("covariance_loss needs D >= 2 (no off-diagonal terms)")
    centered = batch - batch.mean(axis=0, keepdims=True)
    cov = T.swapaxes(centered, 0, 1) @ centered * (1.0 / (n - 1))
    diag = cov[np.arange(d), np.arange(d)]
    off_sq = (cov * cov).sum() - (diag * diag).sum()
    return off_sq * (1.0 / (d * d - d))


def total_loss(components: dict, weights: LossWeights) -> Tensor:
    """L_global + L_parts + gamma * L_var + lam * L_cov."""
    for name, value in components.items():
        v = value.item() if isinstance(value, Tensor) else float(value)
        if math.isnan(v):
            raise NumericError(f"loss component '{name}' is NaN")
    zero = T.Tensor(0.0)
    lg = components.get("global", zero)
    lp = components.get("parts", zero)
    lv = components.get("var", zero)
    lc = components.get("cov", zero)
    return (
        T.as_tensor(lg)
        + T.as_tensor(lp)
        + weights.gamma * T.as_tensor(lv)
        + weights.lam * T.as_tensor(lc)
    )


# ---------------------------------------------------------------------------
# momentum teacher
# ---------------------------------------------------------------------------


def momentum_update(student: dict, teacher: dict, m: float) -> None:
    """teacher <- m * teacher + (1 - m) * student, scalar-wise, in place.

    Every teacher key must name a student parameter of the same shape.
    """
    if not 0.0 <= m < 1.0:
        raise ContractViolation(f"momentum must be in [0, 1), got {m}")
    for key, eta in teacher.items():
        if key not in student:
            raise ContractViolation(f"no student twin for teacher parameter '{key}'")
        theta = student[key]
        if theta.shape != eta.shape:
            raise ContractViolation(
                f"shape mismatch for '{key}': student {theta.shape} vs teacher {eta.shape}"
            )
        eta.data[...] = m * eta.data + (1.0 - m) * theta.data


# ---------------------------------------------------------------------------
# schedule, training state and step
# ---------------------------------------------------------------------------


def cosine_lr(base: float, step: int, total_steps: int) -> float:
    if total_steps <= 0:
        return base
    t = min(step, total_steps) / total_steps
    return base * 0.5 * (1.0 + math.cos(math.pi * t))


class SSLState:
    """Student/teacher parameters plus the optimizer for the student side."""

    def __init__(self, cfg: SSLConfig):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.student = bb.init_backbone(rng, cfg.arch)
        self.student_heads = bb.init_heads(rng, cfg.arch)
        self.teacher = bb.clone_as_teacher(self.student)
        # the teacher has the student's projection heads, not its predictors
        self.teacher_heads = bb.clone_as_teacher(
            {k: v for k, v in self.student_heads.items() if not k.startswith("p_")}
        )
        trainable = {**self.student, **{f"head:{k}": v for k, v in self.student_heads.items()}}
        self.optimizer = Adam(trainable, weight_decay=cfg.weight_decay)
        self.step_count = 0


def _project(views: np.ndarray, encoder: dict, heads: dict, arch: bb.ArchConfig) -> tuple:
    """Encoder plus projection heads, student or teacher: (global, parts) embeddings."""
    m = bb.embed_patch(views, encoder, arch)
    return bb.global_embed(m, heads), bb.part_attention(m, heads, arch)[1]


def _pair_terms(state: SSLState, views_s, views_t):
    cfg, heads = state.cfg, state.student_heads
    z_g_s, z_o_s = _project(views_s, state.student, heads, cfg.arch)
    z_g_s, z_o_s = bb._mlp(z_g_s, heads, "p_sg"), bb._mlp(z_o_s, heads, "p_so")  # predictors
    z_g_t, z_o_t = _project(views_t, state.teacher, state.teacher_heads, cfg.arch)
    terms = {}
    if "global" in cfg.loss_terms:
        terms["global"] = global_loss(z_g_s, z_g_t)
    if "parts" in cfg.loss_terms:
        terms["parts"] = parts_loss(z_o_s, z_o_t)
    if "var" in cfg.loss_terms:
        terms["var"] = variance_loss(z_g_s, cfg.weights.epsilon)
    if "cov" in cfg.loss_terms:
        terms["cov"] = covariance_loss(z_g_s)
    return terms


def pretrain_step(views_s: np.ndarray, views_t: np.ndarray, state: SSLState, lr: float) -> dict:
    """One optimizer step on the student plus one momentum update of the teacher."""
    if views_s.shape[0] < 2:
        raise ContractViolation("pretrain_step needs a batch of at least 2 view pairs")
    terms = _pair_terms(state, views_s, views_t)
    loss = total_loss(terms, state.cfg.weights)
    loss.backward()
    grad_norm = state.optimizer.step(lr)
    momentum_update(state.student, state.teacher, state.cfg.weights.momentum)
    momentum_update(state.student_heads, state.teacher_heads, state.cfg.weights.momentum)
    state.step_count += 1
    report = {name: (terms[name].item() if name in terms else 0.0) for name in LOSS_TERMS}
    report["all"] = loss.item()
    report["lr"] = lr
    report["grad_norm"] = grad_norm
    return report


def _epoch_batches(n: int, batch_size: int) -> list:
    """Slices of one epoch's permutation that hold a batch of 2 or more patches."""
    steps = max(1, n // batch_size)
    ends = [min(n, (s + 1) * batch_size) for s in range(steps)]
    return [slice(s * batch_size, end) for s, end in enumerate(ends) if end - s * batch_size >= 2]


def _drawn_batches(n: int, side: int, cfg: SSLConfig):
    """Yield each batch of `pretrain` as (patch indices, view parameters (B, 2, VIEW_PARAMS)).

    The generator owns `default_rng(cfg.seed + 1)`: one permutation of the
    patches per epoch, then the view_s and view_t parameters of each patch,
    batch by batch.
    """
    rng = np.random.default_rng(cfg.seed + 1)
    batches = _epoch_batches(n, cfg.batch_size)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for batch in batches:
            idx = order[batch]
            yield idx, np.array([(draw_view(rng, side), draw_view(rng, side)) for _ in idx])


def _views(patches: np.ndarray, drawn) -> np.ndarray:
    """The views of one drawn batch, (2, B, side, side, 3): views_s, then views_t.

    They come in the default dtype, as the encoder reads them: in float32 that
    halves what a child sends back, and the encoder's input is the same.
    """
    idx, params = drawn
    views = np.empty((2, idx.size) + patches.shape[1:])
    for row, i in enumerate(idx):
        views[0, row] = apply_view(patches[i], params[row, 0])
        views[1, row] = apply_view(patches[i], params[row, 1])
    return T.Tensor(views).data


def view_batches(patches: np.ndarray, cfg: SSLConfig):
    """Yield the (views_s, views_t) batches of `pretrain`, in its order, made in the caller."""
    for drawn in _drawn_batches(patches.shape[0], patches.shape[1], cfg):
        yield tuple(_views(patches, drawn))


PREFETCH = 2  # batches the augmentation may run ahead of the training step


def pretrain(patches: np.ndarray, cfg: SSLConfig, progress=None) -> SSLState:
    """Full pretraining loop over an array of (P, side, side, 3) patches.

    The views are those of `view_batches`: the caller draws each batch's
    parameters, and `parallel.fork_imap` applies them in forked children at
    most PREFETCH batches ahead, so augmentation overlaps the training steps.
    After every step, `progress(record)` gets a new dict: the epoch, the step
    count so far and the step's `pretrain_step` report.
    """
    cfg.validate()
    state = SSLState(cfg)
    n = patches.shape[0]
    per_epoch = len(_epoch_batches(n, cfg.batch_size))
    total_steps = cfg.epochs * per_epoch
    drawn = _drawn_batches(n, patches.shape[1], cfg)
    with closing(fork_imap(lambda batch: _views(patches, batch), drawn, PREFETCH)) as batches:
        for k, (views_s, views_t) in enumerate(batches):
            lr = cosine_lr(cfg.lr, state.step_count, total_steps)
            report = pretrain_step(views_s, views_t, state, lr)
            if progress is not None:
                progress({"epoch": k // per_epoch, "step": state.step_count, **report})
    return state
