"""Self-supervised training of the double-tier encoder.

A student branch (encoder + projection and prediction heads) is trained
against a momentum teacher on two augmented views of each patch. The teacher
is the student without its prediction heads `p_*`: the same encoder and
projection-head keys, updated as an exponential moving average of the
student. The objective combines a global cosine loss, a per-part cosine loss,
and variance/covariance regularizers that keep the embedding batch from
collapsing.

`pretrain` makes the augmented views of `view_batches` in one worker process,
forked from the caller (so it needs the `fork` start method) and at most
PREFETCH batches ahead of the training step, which runs in the caller. The
worker is killed and joined when `pretrain` returns or raises. `pretrain`
writes no files: it reports every step through `progress(record)`, and the
command line turns the records into a run's `losses.csv`.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing as mp
import pickle
import signal
import traceback
from contextlib import closing
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import numpy as np
from scipy import ndimage

from . import backbone as bb
from . import tensor as T
from .errors import ConfigError, ContractViolation, NumericError, WorkerError
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
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be at least 0, got {self.epochs}")


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
    # one 2-D zoom per channel: the same values as one (zoom, zoom, 1) zoom of
    # the (H, W, 3) crop, and faster
    out = np.stack([ndimage.zoom(patch[:, :, c], zoom, order=1) for c in range(patch.shape[2])],
                   axis=-1)
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


def augment(patch: np.ndarray, rng: np.random.Generator) -> tuple:
    """Two independent augmented views of one source patch: (view_s, view_t)."""
    return augment_view(patch, rng), augment_view(patch, rng)


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


def view_batches(patches: np.ndarray, cfg: SSLConfig):
    """Yield the (views_s, views_t) batches of `pretrain`, in its draw order.

    The generator owns `default_rng(cfg.seed + 1)`: one permutation of the
    patches per epoch, then two `augment` views per patch, batch by batch.
    """
    rng = np.random.default_rng(cfg.seed + 1)
    n = patches.shape[0]
    batches = _epoch_batches(n, cfg.batch_size)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for batch in batches:
            idx = order[batch]
            views_s = np.empty((idx.size,) + patches.shape[1:])
            views_t = np.empty_like(views_s)
            for row, i in enumerate(idx):
                views_s[row], views_t[row] = augment(patches[i], rng)
            yield views_s, views_t


# ---------------------------------------------------------------------------
# augmentation worker
# ---------------------------------------------------------------------------

PREFETCH = 2  # batches the augmentation worker may run ahead of the training step


class _RemoteTraceback(Exception):
    """The worker's formatted traceback, chained as the cause of its re-raised error."""

    def __str__(self):
        return self.args[0]


def _augment_worker(patches, cfg, slots, conn, parent_end) -> None:
    """Child process body: write the `view_batches` into the slots, one message each.

    Batch k goes to slot k % PREFETCH once the parent has sent back the slot
    of batch k - PREFETCH. An error is sent as (exception, traceback text).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the parent ends this process
    parent_end.close()  # so that the parent's death reads as EOF here
    try:
        for k, (views_s, views_t) in enumerate(view_batches(patches, cfg)):
            if k >= PREFETCH:
                conn.recv()
            size = views_s.shape[0]
            slots[k % PREFETCH, 0, :size] = views_s
            slots[k % PREFETCH, 1, :size] = views_t
            conn.send((size, None))
    except (EOFError, ConnectionResetError):
        pass  # the parent has gone
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        conn.send((0, (exc, traceback.format_exc())))


def _receive(conn, proc):
    """The worker's next message; raises WorkerError if it exited without one."""
    wait([conn, proc.sentinel])
    if conn.poll():
        try:
            return conn.recv()
        except (EOFError, ConnectionResetError):  # reset: the worker died with our tokens unread
            pass
    proc.join()
    raise WorkerError(f"the augmentation worker exited with code {proc.exitcode} without a batch")


def _forked_view_batches(patches: np.ndarray, cfg: SSLConfig, total: int):
    """Yield the `total` batches of `view_batches`, made in one forked child.

    The child inherits `patches` without pickling and writes each batch into
    one of PREFETCH shared-memory slots; the parent copies it out and sends
    the slot back. Closing the generator kills and joins the child.
    """
    ctx = mp.get_context("fork")
    shape = (PREFETCH, 2, min(patches.shape[0], cfg.batch_size)) + patches.shape[1:]
    slots = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)
    conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_augment_worker, args=(patches, cfg, slots, child_conn, conn), daemon=True
    )
    proc.start()
    child_conn.close()
    try:
        for k in range(total):
            size, error = _receive(conn, proc)
            if error is not None:
                exc, tb = error
                raise exc from _RemoteTraceback(tb)
            slot = slots[k % PREFETCH]
            views_s, views_t = slot[0, :size].copy(), slot[1, :size].copy()
            if k + PREFETCH < total:
                try:
                    conn.send(None)  # the slot is free for batch k + PREFETCH
                except OSError:
                    pass  # the worker has died; the next _receive says how
            yield views_s, views_t
    finally:
        proc.kill()
        proc.join()
        proc.close()
        conn.close()


def pretrain(patches: np.ndarray, cfg: SSLConfig, progress=None) -> SSLState:
    """Full pretraining loop over an array of (P, side, side, 3) patches.

    The augmented views come from `view_batches` run in one forked worker
    process, so augmentation overlaps the training steps. After every step,
    `progress(record)` gets a new dict: the epoch, the step count so far and
    the step's `pretrain_step` report.
    """
    cfg.validate()
    state = SSLState(cfg)
    n = patches.shape[0]
    total_steps = cfg.epochs * max(1, n // cfg.batch_size)
    per_epoch = len(_epoch_batches(n, cfg.batch_size))
    with closing(_forked_view_batches(patches, cfg, cfg.epochs * per_epoch)) as batches:
        for k, (views_s, views_t) in enumerate(batches):
            lr = cosine_lr(cfg.lr, state.step_count, total_steps)
            report = pretrain_step(views_s, views_t, state, lr)
            if progress is not None:
                progress({"epoch": k // per_epoch, "step": state.step_count, **report})
    return state
