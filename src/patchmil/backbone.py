"""Double-tier patch encoder: conv local branch + windowed-attention global branch.

Both branches downsample the input by x8 so their grids align; their outputs
are concatenated channel-wise into one feature map. Projection heads `g_*`
map pooled features into the embedding spaces used by the contrastive losses;
prediction heads `p_*` sit on top of them on the student side only. The
teacher is the student minus its prediction heads, under the same keys, and
its parameters never require gradients. `multihead_attention` returns its map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractViolation
from .tensor import Tensor


# Fixed global-branch geometry: its 4-pixel tokens, merged 2x2, land on the local x8 grid.
PATCHIFY, ATTN_BLOCKS, ATTN_HEADS, WINDOW = 4, 2, 4, 4


@dataclass(frozen=True)
class ArchConfig:
    side: int = 32
    local_channels: tuple = (16, 32, 64)
    global_dim: int = 64
    embed_dim: int = 64  # D
    parts: int = 4  # K

    @property
    def feature_dim(self) -> int:
        return self.local_channels[-1] + self.global_dim

    @property
    def grid(self) -> int:
        return self.side // 8

    def validate(self) -> None:
        for name in ("side", "global_dim", "embed_dim", "parts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.local_channels or min(self.local_channels) < 1:
            raise ConfigError(f"local_channels must be positive, got {self.local_channels}")
        if len(self.local_channels) != 3:  # three stride-2 convs: the x8 grid
            raise ConfigError(f"local_channels must hold 3 widths, got {self.local_channels}")
        if self.side % 8 != 0:
            raise ConfigError(f"input side {self.side} not divisible by 8")
        token_side = self.side // PATCHIFY
        if token_side % WINDOW != 0:
            raise ConfigError(f"window {WINDOW} does not divide token grid {token_side}")
        if self.global_dim % ATTN_HEADS != 0:
            raise ConfigError("global_dim must be divisible by heads")


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _linear_init(rng, params, name, d_in, d_out):
    params[f"{name}_w"] = T.parameter(_kaiming_uniform(rng, (d_in, d_out), d_in))
    params[f"{name}_b"] = T.parameter(np.zeros(d_out))


def _mlp_init(rng, params, name, d_in, d_hidden, d_out):
    _linear_init(rng, params, f"{name}_1", d_in, d_hidden)
    _linear_init(rng, params, f"{name}_2", d_hidden, d_out)


def block_init(rng: np.random.Generator, p: dict, prefix: str, d: int) -> None:
    """Add one pre-norm block of width d: ln1, qkv, proj, ln2, mlp1, mlp2, in this order.

    The global branch and the MIL head build their blocks with it; the order
    fixes the RNG draws.
    """
    p[f"{prefix}_ln1_g"] = T.parameter(np.ones(d))
    p[f"{prefix}_ln1_b"] = T.parameter(np.zeros(d))
    _linear_init(rng, p, f"{prefix}_qkv", d, 3 * d)
    _linear_init(rng, p, f"{prefix}_proj", d, d)
    p[f"{prefix}_ln2_g"] = T.parameter(np.ones(d))
    p[f"{prefix}_ln2_b"] = T.parameter(np.zeros(d))
    _linear_init(rng, p, f"{prefix}_mlp1", d, 2 * d)
    _linear_init(rng, p, f"{prefix}_mlp2", 2 * d, d)


def init_backbone(rng: np.random.Generator, cfg: ArchConfig) -> dict:
    """Fresh student backbone parameters; `clone_as_teacher` makes the teacher."""
    cfg.validate()
    p: dict[str, Tensor] = {}
    c_in = 3
    for i, c_out in enumerate(cfg.local_channels):
        p[f"lb{i}_w"] = T.parameter(_kaiming_uniform(rng, (3, 3, c_in, c_out), 3 * 3 * c_in))
        p[f"lb{i}_b"] = T.parameter(np.zeros(c_out))
        c_in = c_out
    fan = PATCHIFY * PATCHIFY * 3
    p["gb_patch_w"] = T.parameter(
        _kaiming_uniform(rng, (PATCHIFY, PATCHIFY, 3, cfg.global_dim), fan)
    )
    p["gb_patch_b"] = T.parameter(np.zeros(cfg.global_dim))
    for b in range(ATTN_BLOCKS):
        block_init(rng, p, f"gb{b}", cfg.global_dim)
    return p


def init_heads(rng: np.random.Generator, cfg: ArchConfig) -> dict:
    """Student heads: projections `g_sg`/`g_so`/`g_sp`, predictors `p_sg`/`p_so`."""
    cfg.validate()
    c, d, k = cfg.feature_dim, cfg.embed_dim, cfg.parts
    p: dict[str, Tensor] = {}
    _mlp_init(rng, p, "g_sg", c, d, d)
    _mlp_init(rng, p, "p_sg", d, d, d)
    _linear_init(rng, p, "g_so", c, k)
    _mlp_init(rng, p, "g_sp", c, d, d)
    _mlp_init(rng, p, "p_so", d, d, d)
    return p


def clone_as_teacher(params: dict) -> dict:
    """Exact non-gradient copy of a student parameter set."""
    return {k: T.parameter(v.data.copy(), requires_grad=False) for k, v in params.items()}


def _linear(x: Tensor, params: dict, name: str) -> Tensor:
    return x @ params[f"{name}_w"] + params[f"{name}_b"]


def _mlp(x: Tensor, params: dict, name: str) -> Tensor:
    return _linear(T.relu(_linear(x, params, f"{name}_1")), params, f"{name}_2")


def _layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * T.power(var + 1e-5, -0.5) * gain + bias


def feed_forward(x: Tensor, params: dict, prefix: str) -> Tensor:
    """The MLP half of a block: x + mlp2(gelu(mlp1(ln2(x))))."""
    normed = _layernorm(x, params[f"{prefix}_ln2_g"], params[f"{prefix}_ln2_b"])
    return x + _linear(T.gelu(_linear(normed, params, f"{prefix}_mlp1")), params, f"{prefix}_mlp2")


def multihead_attention(
    x: Tensor, params: dict, prefix: str, heads: int, bias: Tensor | None = None
) -> tuple:
    """MSA over (B, T, C) tokens, optional logit bias: (output, (B, heads, T, T) attention)."""
    b, t, c = x.shape
    qkv = _linear(x, params, f"{prefix}_qkv")  # (B, T, 3C)
    qkv = T.transpose(qkv.reshape(b, t, 3, heads, c // heads), (2, 0, 3, 1, 4))
    logits = (qkv[0] @ T.swapaxes(qkv[1], -1, -2)) * (1.0 / math.sqrt(c // heads))
    if bias is not None:
        logits = logits + bias
    attn = T.softmax(logits, axis=-1)
    mixed = attn @ qkv[2]  # (B, heads, T, dh)
    mixed = T.transpose(mixed, (0, 2, 1, 3)).reshape(b, t, c)
    return _linear(mixed, params, f"{prefix}_proj"), attn


def _window_partition(x: Tensor, win: int) -> Tensor:
    n, h, w, c = x.shape
    x = x.reshape(n, h // win, win, w // win, win, c)
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    return x.reshape(n * (h // win) * (w // win), win * win, c)


def _window_merge(x: Tensor, win: int, n: int, h: int, w: int) -> Tensor:
    c = x.shape[-1]
    x = x.reshape(n, h // win, w // win, win, win, c)
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    return x.reshape(n, h, w, c)


def _global_branch(x: Tensor, params: dict) -> Tensor:
    tokens = T.conv2d(x, params["gb_patch_w"], params["gb_patch_b"], stride=PATCHIFY)
    n, h, w, d = tokens.shape  # (N, side/4, side/4, global_dim)
    for blk in range(ATTN_BLOCKS):
        shifted = blk % 2 == 1
        t = tokens
        if shifted:
            t = T.roll(t, (-(WINDOW // 2), -(WINDOW // 2)), axis=(1, 2))
        normed = _layernorm(t, params[f"gb{blk}_ln1_g"], params[f"gb{blk}_ln1_b"])
        wins = _window_partition(normed, WINDOW)
        attended = multihead_attention(wins, params, f"gb{blk}", ATTN_HEADS)[0]  # map freed now
        attended = _window_merge(attended, WINDOW, n, h, w)
        t = feed_forward(t + attended, params, f"gb{blk}")
        if shifted:
            t = T.roll(t, (WINDOW // 2, WINDOW // 2), axis=(1, 2))
        tokens = t
    # 2x2 token merge so the global grid matches the local branch (x8 total)
    tokens = tokens.reshape(n, h // 2, 2, w // 2, 2, d)
    return tokens.mean(axis=(2, 4))


def _local_branch(x: Tensor, params: dict, cfg: ArchConfig) -> Tensor:
    out = x
    for i in range(len(cfg.local_channels)):
        out = T.relu(
            T.conv2d(out, params[f"lb{i}_w"], params[f"lb{i}_b"], stride=2, pad=1)
        )
    return out


def embed_patch(patch, params: dict, cfg: ArchConfig) -> Tensor:
    """Encode (N, side, side, 3) patches into (N, grid, grid, C) feature maps."""
    x = T.as_tensor(patch)
    if x.ndim != 4 or x.shape[1:] != (cfg.side, cfg.side, 3):
        raise ContractViolation(f"expected (N, {cfg.side}, {cfg.side}, 3) patches, got {x.shape}")
    return T.concat([_local_branch(x, params, cfg), _global_branch(x, params)], axis=3)


def gap(m: Tensor) -> Tensor:
    """Global average pooling of (..., h, w, C) over the spatial grid."""
    return m.mean(axis=(-3, -2))


def global_embed(m: Tensor, heads: dict) -> Tensor:
    """Pooled-embedding path: GAP, then the global projection `g_sg`."""
    return _mlp(gap(m), heads, "g_sg")


def part_attention(m: Tensor, heads: dict):
    """Spatial-part pooling: per-part softmax attention over grid locations.

    Returns (A, Z): A is (..., h*w, K) with each part's column summing to 1
    over locations (logits from `g_so`); Z is (..., K, D) part projections (`g_sp`).
    """
    lead = m.shape[:-3]
    h, w, c = m.shape[-3:]
    flat = m.reshape(lead + (h * w, c))
    attn = T.softmax(_linear(flat, heads, "g_so"), axis=-2)  # over locations, per part
    parts = T.swapaxes(attn, -1, -2) @ flat  # (..., K, C)
    return attn, _mlp(parts, heads, "g_sp")
