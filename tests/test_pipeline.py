"""Image tiling/embedding glue and the linear probe."""

import numpy as np
import pytest

from patchmil import backbone as bb
from patchmil import data as D
from patchmil import pipeline as P
from patchmil.errors import ConfigError

ARCH = bb.ArchConfig(
    side=16, local_channels=(4, 4, 8), global_dim=8, heads=2, window=4, embed_dim=8, parts=2
)


@pytest.fixture(scope="module")
def params():
    return bb.init_backbone(np.random.default_rng(0), ARCH)


class TestEmbedding:
    def test_embed_patches_shape_and_chunk_equivalence(self, params):
        patches = np.random.default_rng(1).uniform(size=(5, 16, 16, 3))
        full = P.embed_patches(patches, params, ARCH, chunk=256)
        chunked = P.embed_patches(patches, params, ARCH, chunk=2)
        assert full.shape == (5, ARCH.feature_dim)
        np.testing.assert_allclose(full, chunked, rtol=0, atol=1e-6)

    def test_embed_patches_equals_taped_forward(self, params, monkeypatch):
        patches = np.random.default_rng(3).uniform(size=(5, 16, 16, 3)).astype(np.float32)
        taped = bb.gap(bb.embed_patch(patches, params, ARCH))
        assert taped._backward is not None  # the params require grad
        outputs = []
        embed_patch = bb.embed_patch

        def spy(*args):
            outputs.append(embed_patch(*args))
            return outputs[-1]

        monkeypatch.setattr(bb, "embed_patch", spy)
        emb = P.embed_patches(patches, params, ARCH)
        assert outputs and all(o._backward is None and o._parents == () for o in outputs)
        assert emb.tobytes() == taped.numpy().tobytes()

    def test_image_patches_counts(self):
        images = np.zeros((3, 32, 32, 3))
        patches, per_image, positions = P.image_patches(images, 16)
        assert patches.shape == (12, 16, 16, 3)
        assert per_image == 4
        assert positions.shape == (4, 2)

    def test_embed_images_is_mean_of_patch_embeddings(self, params):
        images = np.random.default_rng(2).uniform(size=(2, 32, 32, 3))
        img_emb = P.embed_images(images, params, ARCH)
        patches, per_image, _ = P.image_patches(images, 16)
        patch_emb = P.embed_patches(patches, params, ARCH)
        manual = patch_emb.reshape(2, per_image, -1).mean(axis=1)
        np.testing.assert_allclose(img_emb, manual, atol=1e-7)


class TestBags:
    def test_bags_from_corpus(self, tmp_path, params):
        cfg = D.CorpusConfig(counts=(1, 1, 1), magnifications=(10,), side=32, seed=0)
        D.generate_corpus(cfg, tmp_path / "c")
        bags = P.bags_from_corpus(tmp_path / "c", "train", params, ARCH)
        assert len(bags) == 7
        assert bags[0].instances.shape == (4, ARCH.feature_dim)
        assert sorted(b.label for b in bags) == list(range(7))

    def test_frozen_bags_equal_manual_normalization(self, tmp_path, params):
        cfg = D.CorpusConfig(counts=(1, 1, 1), magnifications=(10,), side=32, seed=0)
        D.generate_corpus(cfg, tmp_path / "c")
        bags, norm = P.frozen_bags(tmp_path / "c", params, ARCH)
        train = P.bags_from_corpus(tmp_path / "c", "train", params, ARCH)
        manual_norm = P.bag_normalization(train)
        np.testing.assert_array_equal(norm[0], manual_norm[0])
        np.testing.assert_array_equal(norm[1], manual_norm[1])
        assert list(bags) == list(D.SPLITS)
        for split in D.SPLITS:
            manual = P.standardize_bags(
                P.bags_from_corpus(tmp_path / "c", split, params, ARCH), manual_norm
            )
            assert len(bags[split]) == len(manual)
            for got, want in zip(bags[split], manual):
                np.testing.assert_array_equal(got.instances, want.instances)
                np.testing.assert_array_equal(got.positions, want.positions)
                assert got.label == want.label


class TestLinearProbe:
    def test_learns_separable_clusters(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(7, 12)) * 4
        labels = np.repeat(np.arange(7), 20)
        feats = centers[labels] + rng.normal(scale=0.1, size=(140, 12))
        w, b, norm = P.train_linear_probe(feats, labels)
        preds = P.probe_predict(feats, w, b, norm)
        assert (preds == labels).mean() > 0.99

    def test_missing_class_rejected(self):
        feats = np.zeros((10, 4))
        labels = np.zeros(10, dtype=int)
        with pytest.raises(ConfigError, match="absent"):
            P.train_linear_probe(feats, labels)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(70, 6))
        labels = np.tile(np.arange(7), 10)
        w1, b1, _ = P.train_linear_probe(feats, labels)
        w2, b2, _ = P.train_linear_probe(feats, labels)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)
