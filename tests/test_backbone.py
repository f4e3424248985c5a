"""Double-tier encoder: shape arithmetic, head oracles, gradient checks."""

import dataclasses

import numpy as np
import pytest

from patchmil import backbone as B
from patchmil import tensor as T
from patchmil.errors import ConfigError, ContractViolation


@pytest.fixture(autouse=True)
def float64_mode():
    with T.default_dtype(np.float64):
        yield


CFG = B.ArchConfig()
SMALL = B.ArchConfig(side=16, local_channels=(4, 4, 8), global_dim=8, embed_dim=8, parts=2)


def make(cfg=CFG, seed=0):
    rng = np.random.default_rng(seed)
    params = B.init_backbone(rng, cfg)
    student = B.init_heads(rng, cfg)
    teacher = B.clone_as_teacher({k: v for k, v in student.items() if not k.startswith("p_")})
    return params, student, teacher


def identity_heads(cfg):
    """Heads whose linear maps are (truncated) identities with zero bias."""
    rng = np.random.default_rng(0)
    heads = B.init_heads(rng, cfg)
    for name, p in heads.items():
        if name.endswith("_b"):
            p.data[...] = 0.0
        else:
            p.data[...] = 0.0
            d = min(p.shape)
            p.data[np.arange(d), np.arange(d)] = 1.0
    return heads


class TestEmbedPatch:
    def test_default_output_shape(self):
        params, _, _ = make()
        patch = np.random.default_rng(1).uniform(size=(32, 32, 3))
        m = B.embed_patch(patch[None], params, CFG)
        assert m.shape == (1, 4, 4, 128)

    def test_shape_is_function_of_config(self):
        for cfg in (CFG, SMALL, B.ArchConfig(side=64)):
            params = B.init_backbone(np.random.default_rng(0), cfg)
            n = 2
            x = np.random.default_rng(2).uniform(size=(n, cfg.side, cfg.side, 3))
            m = B.embed_patch(x, params, cfg)
            assert m.shape == (n, cfg.grid, cfg.grid, cfg.feature_dim)

    def test_zero_conv_gives_zero_local_branch(self):
        params, _, _ = make()
        for i in range(3):
            params[f"lb{i}_w"].data[...] = 0.0
            params[f"lb{i}_b"].data[...] = 0.0
        x = T.Tensor(np.random.default_rng(3).uniform(size=(1, 32, 32, 3)))
        out = B._local_branch(x, params, CFG)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_determinism(self):
        params, _, _ = make()
        patch = np.random.default_rng(4).uniform(size=(1, 32, 32, 3))
        a = B.embed_patch(patch, params, CFG).data
        b = B.embed_patch(patch.copy(), params, CFG).data
        assert a.tobytes() == b.tobytes()

    def test_wrong_spatial_size_raises(self):
        params, _, _ = make()
        with pytest.raises(ContractViolation):
            B.embed_patch(np.zeros((16, 16, 3)), params, CFG)

    def test_two_attention_blocks_in_key_order(self):
        params = B.init_backbone(np.random.default_rng(0), SMALL)
        block = ("ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b",
                 "ln2_g", "ln2_b", "mlp1_w", "mlp1_b", "mlp2_w", "mlp2_b")
        assert list(params) == (
            [f"lb{i}_{wb}" for i in range(3) for wb in "wb"] + ["gb_patch_w", "gb_patch_b"]
            + [f"gb{b}_{name}" for b in range(2) for name in block]
        )

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_attn_blocks_set_the_blocks_and_the_output_shape(self, blocks, monkeypatch):
        # ATTN_BLOCKS is the one source of the block count for init and forward alike.
        monkeypatch.setattr(B, "ATTN_BLOCKS", blocks)
        params = B.init_backbone(np.random.default_rng(0), SMALL)
        block = ("ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b",
                 "ln2_g", "ln2_b", "mlp1_w", "mlp1_b", "mlp2_w", "mlp2_b")
        assert list(params) == (
            [f"lb{i}_{wb}" for i in range(3) for wb in "wb"] + ["gb_patch_w", "gb_patch_b"]
            + [f"gb{b}_{name}" for b in range(blocks) for name in block]
        )
        x = np.random.default_rng(2).uniform(size=(2, SMALL.side, SMALL.side, 3))
        assert B.embed_patch(x, params, SMALL).shape == (2, SMALL.grid, SMALL.grid, SMALL.feature_dim)

    def test_every_side_that_validates_embeds(self):
        embedded = []
        for side in range(8, 129, 8):
            cfg = dataclasses.replace(SMALL, side=side)
            try:
                cfg.validate()
            except ConfigError:
                with pytest.raises(ConfigError):
                    B.init_backbone(np.random.default_rng(0), cfg)
                continue
            params = B.init_backbone(np.random.default_rng(0), cfg)
            x = np.random.default_rng(2).uniform(size=(1, side, side, 3))
            assert B.embed_patch(x, params, cfg).shape == (1, cfg.grid, cfg.grid, cfg.feature_dim)
            embedded.append(side)
        assert embedded == list(range(16, 129, 16))

    def test_window_config_validation(self):
        with pytest.raises(ConfigError, match="window 4 does not divide token grid 6"):
            B.ArchConfig(side=24).validate()
        with pytest.raises(ConfigError):
            B.ArchConfig(parts=0).validate()

    def test_local_branch_needs_three_convs(self):
        for channels in ((8, 16), (8, 16, 32, 64)):
            with pytest.raises(ConfigError, match="local_channels must hold 3 widths"):
                B.ArchConfig(local_channels=channels).validate()


class TestGlobalEmbed:
    def test_constant_map_equals_head_of_constant(self):
        _, student, _ = make()
        v = np.random.default_rng(5).uniform(size=(1, 128))
        m = T.Tensor(np.broadcast_to(v[:, None, None], (1, 4, 4, 128)).copy())
        out = B.global_embed(m, student)
        direct = B._mlp(T.Tensor(v), student, "g_sg")
        np.testing.assert_allclose(out.data, direct.data, atol=1e-12)

    def test_identity_heads_truncate_gap(self):
        heads = identity_heads(CFG)
        m = T.Tensor(np.abs(np.random.default_rng(6).normal(size=(1, 4, 4, 128))))
        out = B.global_embed(m, heads)
        np.testing.assert_allclose(out.data, B.gap(m).data[:, :64], atol=1e-12)

    def test_teacher_path_tracks_no_gradients(self):
        params, _, teacher = make()
        tp = B.clone_as_teacher(params)
        m = B.embed_patch(np.random.default_rng(7).uniform(size=(1, 32, 32, 3)), tp, CFG)
        z = B.global_embed(m, teacher)
        assert z._node is None and z._backward is None


class TestPartAttention:
    def test_uniform_logits_give_spatial_mean(self):
        _, student, _ = make()
        student["g_so_w"].data[...] = 0.0
        student["g_so_b"].data[...] = 0.0
        m = T.Tensor(np.random.default_rng(8).normal(size=(4, 4, 128)))
        attn, _ = B.part_attention(m, student)
        np.testing.assert_allclose(attn.data, np.full((16, 4), 1 / 16), atol=1e-12)

    def test_columns_sum_to_one(self):
        _, student, _ = make()
        m = T.Tensor(np.random.default_rng(9).normal(size=(4, 4, 128)))
        attn, _ = B.part_attention(m, student)
        np.testing.assert_allclose(attn.data.sum(axis=0), np.ones(4), atol=1e-6)

    def test_one_hot_attention_limit(self):
        heads = identity_heads(CFG)
        # channel 0 spikes at one location; 50-logit margin saturates softmax
        m = np.zeros((4, 4, 128))
        m[2, 3, :] = 1.0
        m[2, 3, 0] = 1.0
        heads["g_so_w"].data[...] = 0.0
        heads["g_so_w"].data[0, :] = 50.0
        attn, z = B.part_attention(T.Tensor(m), heads)
        flat = m.reshape(16, 128)
        j = 2 * 4 + 3
        np.testing.assert_allclose(attn.data[j], np.ones(4), atol=1e-9)
        np.testing.assert_allclose(z.data, np.tile(flat[j, :64], (4, 1)), atol=1e-9)

    def test_matches_dense_multiply_oracle(self):
        heads = identity_heads(CFG)
        m = np.abs(np.random.default_rng(10).normal(size=(4, 4, 128)))
        attn, z = B.part_attention(T.Tensor(m), heads)
        flat = m.reshape(16, 128)
        expected = np.einsum("jk,jc->kc", attn.data, flat)[:, :64]
        np.testing.assert_allclose(z.data, expected, atol=1e-9)


class TestGradients:
    @pytest.mark.parametrize("name", ["lb0_w", "gb_patch_w", "gb0_qkv_w", "gb1_mlp1_w"])
    def test_backbone_param_gradients(self, name):
        rng = np.random.default_rng(11)
        params = B.init_backbone(rng, SMALL)
        x = rng.uniform(size=(1, 16, 16, 3))

        def loss(t):
            trial = dict(params)
            trial[name] = t
            m = B.embed_patch(x, trial, SMALL)
            return (m * m).sum() * 0.01

        err = T.check_gradient(loss, params[name].data, step=1e-5)
        assert err < 1e-6, f"{name}: max relative error {err}"

    def test_head_gradients(self):
        rng = np.random.default_rng(12)
        heads = B.init_heads(rng, SMALL)
        m = T.Tensor(rng.normal(size=(2, 2, SMALL.feature_dim)))

        def loss(t):
            trial = dict(heads)
            trial["g_so_w"] = t
            _, z = B.part_attention(m, trial)
            return (z * z).sum()

        err = T.check_gradient(loss, heads["g_so_w"].data, step=1e-5)
        assert err < 1e-6
