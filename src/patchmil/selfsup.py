"""Self-supervised training of the double-tier encoder.

A student branch (encoder + projection and prediction heads) is trained
against a momentum teacher on two augmented views of each patch. The teacher
is the student without its prediction heads `p_*`: the same encoder and
projection-head keys, updated as an exponential moving average of the
student. The objective combines a global cosine loss, a per-part cosine loss,
and variance/covariance regularizers that keep the embedding batch from
collapsing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from . import backbone as bb
from . import tensor as T
from .errors import ConfigError, ContractViolation, NumericError
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


@dataclass
class ViewPair:
    view_s: np.ndarray
    view_t: np.ndarray


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


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def _color_jitter(img, rng):
    """Staining-style jitter: gamma, per-channel gain, and offset."""
    mult = rng.uniform(0.75, 1.25, size=3)
    add = rng.uniform(-0.1, 0.1, size=3)
    gamma = np.exp(rng.normal(scale=0.3))
    return np.clip(np.clip(img, 0.0, 1.0) ** gamma * mult + add, 0.0, 1.0)


def _random_affine(img, rng):
    side = img.shape[0]
    angle = math.radians(rng.uniform(-10.0, 10.0))
    scale = rng.uniform(0.9, 1.1)
    shift = rng.uniform(-0.1, 0.1, size=2) * side
    center = (side - 1) / 2.0
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


def _gaussian_blur(img, rng):
    if rng.uniform() < 0.5:
        sigma = rng.uniform(0.0, 1.5)
        if sigma > 0:
            img = ndimage.gaussian_filter(img, sigma=(sigma, sigma, 0))
    return img


def _resized_crop(img, rng):
    side = img.shape[0]
    for _ in range(10):
        crop = int(round(rng.uniform(0.8, 1.0) * side))
        if crop >= 4:
            break
    r = rng.integers(0, side - crop + 1)
    c = rng.integers(0, side - crop + 1)
    patch = img[r : r + crop, c : c + crop]
    if crop == side:
        return patch
    zoom = side / crop
    out = ndimage.zoom(patch, (zoom, zoom, 1.0), order=1)
    return out[:side, :side]


def augment_view(patch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One stochastic draw of the jitter/affine/blur/crop pipeline.

    Deliberately no flips or large rotations: texture orientation carries
    class identity, so the pipeline is restricted to photometric jitter and
    mild geometric perturbations.
    """
    img = _color_jitter(np.asarray(patch, dtype=np.float64), rng)
    img = _random_affine(img, rng)
    img = _gaussian_blur(img, rng)
    img = _resized_crop(img, rng)
    return np.ascontiguousarray(np.clip(img, 0.0, 1.0))


def augment(patch: np.ndarray, rng: np.random.Generator) -> ViewPair:
    """Two independent augmented views of one source patch."""
    return ViewPair(augment_view(patch, rng), augment_view(patch, rng))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def global_loss(z_s, z_t) -> Tensor:
    """Cosine distance 2 - 2 cos(z_s, z_t); batched inputs are averaged."""
    z_s, z_t = T.as_tensor(z_s), T.as_tensor(z_t)
    cos = (T.l2_normalize(z_s, axis=-1) * T.l2_normalize(z_t, axis=-1)).sum(axis=-1)
    loss = 2.0 - 2.0 * cos
    return loss if loss.ndim == 0 else loss.mean()


def parts_loss(z_s, z_t) -> Tensor:
    """Sum over parts of the cosine distance between matching part rows."""
    z_s, z_t = T.as_tensor(z_s), T.as_tensor(z_t)
    if z_s.shape != z_t.shape:
        raise ContractViolation(f"part shapes differ: {z_s.shape} vs {z_t.shape}")
    for name, z in (("student", z_s), ("teacher", z_t)):
        norms = np.linalg.norm(z.data, axis=-1)
        if np.any(norms == 0):
            k = int(np.argwhere(norms == 0)[0][-1])
            raise NumericError(f"zero-norm {name} part row k={k}")
    cos = (T.l2_normalize(z_s, axis=-1) * T.l2_normalize(z_t, axis=-1)).sum(axis=-1)
    loss = (2.0 - 2.0 * cos).sum(axis=-1)  # over parts
    return loss if loss.ndim == 0 else loss.mean()


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

    def student_forward(self, views: np.ndarray):
        m = bb.embed_patch(views, self.student, self.cfg.arch)
        heads = self.student_heads
        z_g = bb.global_embed(m, heads)
        _, z_o = bb.part_attention(m, heads, self.cfg.arch)
        return bb._mlp(z_g, heads, "p_sg"), bb._mlp(z_o, heads, "p_so")

    def teacher_forward(self, views: np.ndarray):
        m = bb.embed_patch(views, self.teacher, self.cfg.arch)
        z_g = bb.global_embed(m, self.teacher_heads)
        _, z_o = bb.part_attention(m, self.teacher_heads, self.cfg.arch)
        return z_g, z_o


def _pair_terms(state: SSLState, views_s, views_t):
    z_g_s, z_o_s = state.student_forward(views_s)
    z_g_t, z_o_t = state.teacher_forward(views_t)
    terms = {}
    cfg = state.cfg
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


def pretrain(
    patches: np.ndarray,
    cfg: SSLConfig,
    log_path=None,
    progress=None,
) -> SSLState:
    """Full pretraining loop over an array of (P, side, side, 3) patches.

    Writes a per-step CSV loss log when `log_path` is given.
    """
    cfg.validate()
    state = SSLState(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    n = patches.shape[0]
    steps_per_epoch = max(1, n // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    writer = None
    log_file = None
    report: dict = {}  # stays empty when no batch holds 2 or more patches
    if log_path is not None:
        log_file = open(log_path, "w", newline="")
        writer = csv.writer(log_file)
        writer.writerow(["step", "L_global", "L_parts", "L_var", "L_cov", "L_all", "lr", "grad_norm"])
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for s in range(steps_per_epoch):
                idx = order[s * cfg.batch_size : (s + 1) * cfg.batch_size]
                if idx.size < 2:
                    continue
                views_s = np.empty((idx.size,) + patches.shape[1:])
                views_t = np.empty_like(views_s)
                for row, i in enumerate(idx):
                    pair = augment(patches[i], rng)
                    views_s[row] = pair.view_s
                    views_t[row] = pair.view_t
                lr = cosine_lr(cfg.lr, state.step_count, total_steps)
                report = pretrain_step(views_s, views_t, state, lr)
                if writer is not None:
                    writer.writerow(
                        [state.step_count]
                        + [f"{report[k]:.6f}" for k in ("global", "parts", "var", "cov", "all")]
                        + [f"{lr:.6f}", f"{report['grad_norm']:.6f}"]
                    )
            if progress is not None:
                progress(epoch, report)
    finally:
        if log_file is not None:
            log_file.close()
    return state
