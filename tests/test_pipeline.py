"""Image tiling/embedding glue and the linear probe."""

import re
import shutil
import tracemalloc

import numpy as np
import pytest

from patchmil import backbone as bb
from patchmil import data as D
from patchmil import metrics as MM
from patchmil import mil as ML
from patchmil import pipeline as P
from patchmil import tensor as T
from patchmil.errors import ConfigError, ContractViolation, FormatError

ARCH = bb.ArchConfig(
    side=16, local_channels=(4, 4, 8), global_dim=8, heads=2, window=4, embed_dim=8, parts=2
)
# 64-pixel images hold 16 patches of ARCH.side, so a block is 8 images and
# the 2 x 7 x 2 = 28 train images of this corpus span four blocks
BLOCKS_CORPUS = D.CorpusConfig(counts=(2, 1, 1), magnifications=(10, 20), side=64, seed=3)


@pytest.fixture(scope="module")
def params():
    return bb.init_backbone(np.random.default_rng(0), ARCH)


@pytest.fixture(scope="module")
def blocks_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("blocks") / "c"
    D.generate_corpus(BLOCKS_CORPUS, root)
    return root


# -- the whole-split path, kept as the reference for the block-by-block one --


def reference_image_patches(images, patch_side):
    """One `tile_image` stack per image, then their concatenation."""
    tiles, positions = D.tile_image(images[0], patch_side)
    all_tiles = [tiles] + [D.tile_image(img, patch_side)[0] for img in images[1:]]
    return np.concatenate(all_tiles, axis=0), tiles.shape[0], positions


def reference_load_split(corpus_dir, split):
    records = [r for r in D.load_index(corpus_dir) if r.split == split]
    images = np.stack([D.read_tensor(corpus_dir / r.path)[0] for r in records])
    return images, np.array([r.class_id for r in records])


def reference_bags(corpus_dir, split, params, arch):
    images, labels = reference_load_split(corpus_dir, split)
    patches, per_image, positions = reference_image_patches(images, arch.side)
    emb = P.embed_patches(patches, params, arch).reshape(len(images), per_image, -1)
    return [ML.Bag(emb[i], positions, int(labels[i])) for i in range(len(images))]


def reference_embed_images(images, params, arch):
    patches, per_image, _ = reference_image_patches(images, arch.side)
    emb = P.embed_patches(patches, params, arch)
    return emb.reshape(images.shape[0], per_image, -1).mean(axis=1)


def reference_probe_metrics(corpus_dir, params, arch):
    train_x, train_y = reference_load_split(corpus_dir, "train")
    test_x, test_y = reference_load_split(corpus_dir, "test")
    w, b, norm = P.train_linear_probe(reference_embed_images(train_x, params, arch), train_y)
    preds = P.probe_predict(reference_embed_images(test_x, params, arch), w, b, norm)
    return MM.metrics_from_predictions(preds, test_y)


def reference_block_embed(corpus_dir, split, params, arch):
    """The blocks of `_embed_split` read, tiled and embedded one after another."""
    records = D.split_records(corpus_dir, split)
    shape = D.tensor_shape(corpus_dir / records[0].path)
    block = P.EMBED_CHUNK // ((shape[0] // arch.side) * (shape[1] // arch.side))
    emb = None
    for start in range(0, len(records), block):
        images = D.read_images(corpus_dir, records[start : start + block])
        patches, per_image, positions = P.image_patches(images, arch.side)
        out = P.embed_patches(patches, params, arch).reshape(len(images), per_image, -1)
        if emb is None:
            emb = np.empty((len(records),) + out.shape[1:], out.dtype)
        emb[start : start + len(images)] = out
    return emb, positions, np.array([r.class_id for r in records])


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEmbedding:
    def test_embed_patches_shape_and_chunk_equivalence(self, params, monkeypatch):
        patches = np.random.default_rng(1).uniform(size=(5, 16, 16, 3))
        monkeypatch.setattr(P, "EMBED_CHUNK", 256)
        full = P.embed_patches(patches, params, ARCH)
        monkeypatch.setattr(P, "EMBED_CHUNK", 2)
        chunked = P.embed_patches(patches, params, ARCH)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [32, 40])  # 40 is no multiple of the 16-pixel patch
    def test_image_patches_equals_tile_image_reference(self, dtype, side):
        images = np.random.default_rng(5).uniform(size=(3, side, side, 3)).astype(dtype)
        patches, per_image, positions = P.image_patches(images, 16)
        want, want_per_image, want_positions = reference_image_patches(images, 16)
        assert same_bytes(patches, want)
        assert per_image == want_per_image == 4
        assert same_bytes(positions, want_positions)

    def test_image_patches_rejects_patch_larger_than_image(self):
        with pytest.raises(ContractViolation):
            P.image_patches(np.zeros((2, 8, 8, 3)), 16)


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


class TestBlockByBlock:
    """Splits embedded block by block equal the whole-split path, in bounded memory."""

    def test_bags_equal_whole_split_reference(self, blocks_corpus, params):
        n_train = len(D.split_records(blocks_corpus, "train"))
        assert n_train > P.EMBED_CHUNK // (BLOCKS_CORPUS.side // ARCH.side) ** 2
        for split in D.SPLITS:
            bags = P.bags_from_corpus(blocks_corpus, split, params, ARCH)
            want = reference_bags(blocks_corpus, split, params, ARCH)
            assert len(bags) == len(want)
            for got, ref in zip(bags, want):
                assert same_bytes(got.instances, ref.instances)
                assert same_bytes(got.positions, ref.positions)
                assert got.label == ref.label

    def test_linear_probe_equals_whole_split_reference(self, blocks_corpus, params):
        got = P.linear_probe_metrics(blocks_corpus, params, ARCH)
        assert got == reference_probe_metrics(blocks_corpus, params, ARCH)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forked_blocks_equal_serial_blocks(self, blocks_corpus, dtype):
        block = P.EMBED_CHUNK // (BLOCKS_CORPUS.side // ARCH.side) ** 2
        assert len(D.split_records(blocks_corpus, "train")) % block > 0  # a partial last block
        with T.default_dtype(dtype):
            params = bb.init_backbone(np.random.default_rng(0), ARCH)
            for split in D.SPLITS:
                emb, positions, labels = reference_block_embed(blocks_corpus, split, params, ARCH)
                assert emb.dtype == dtype
                bags = P.bags_from_corpus(blocks_corpus, split, params, ARCH)
                assert len(bags) == len(emb)
                for i, bag in enumerate(bags):
                    assert same_bytes(bag.instances, emb[i])
                    assert same_bytes(bag.positions, positions)
                    assert bag.label == labels[i]
            got = P.linear_probe_metrics(blocks_corpus, params, ARCH)
            f_tr, _, y_tr = reference_block_embed(blocks_corpus, "train", params, ARCH)
            f_te, _, y_te = reference_block_embed(blocks_corpus, "test", params, ARCH)
        w, b, norm = P.train_linear_probe(f_tr.mean(axis=1), y_tr)
        want = MM.metrics_from_predictions(P.probe_predict(f_te.mean(axis=1), w, b, norm), y_te)
        assert got == want

    def test_image_shape_change_between_blocks_is_refused(self, blocks_corpus, params, tmp_path):
        root = tmp_path / "c"
        shutil.copytree(blocks_corpus, root)
        records = D.split_records(root, "train")
        block = P.EMBED_CHUNK // (BLOCKS_CORPUS.side // ARCH.side) ** 2
        for rec in records[block:]:  # every block after the first is uniform in itself
            D.write_tensor(root / rec.path, np.zeros((32, 32, 3), np.float32))
        with pytest.raises(FormatError, match=re.escape(records[block].path)):
            P.bags_from_corpus(root, "train", params, ARCH)

    def test_empty_split_is_refused(self, tmp_path, params):
        cfg = D.CorpusConfig(counts=(1, 0, 1), magnifications=(10,), side=32, seed=0)
        D.generate_corpus(cfg, tmp_path / "c")
        with pytest.raises(ContractViolation, match="no images"):
            P.bags_from_corpus(tmp_path / "c", "val", params, ARCH)

    def test_peak_memory_does_not_grow_with_split(self, tmp_path, params, monkeypatch):
        # blocks embedded in this process, where tracemalloc sees them
        monkeypatch.setattr(P, "fork_map", lambda fn, items: [fn(item) for item in items])

        def traced_peak(counts):
            cfg = D.CorpusConfig(counts=counts, magnifications=(10, 20), side=64, seed=3)
            D.generate_corpus(cfg, tmp_path / str(counts[0]))
            images, _, _ = D.load_split(tmp_path / str(counts[0]), "train")
            P.bags_from_corpus(tmp_path / str(counts[0]), "train", params, ARCH)  # warm-up
            tracemalloc.start()
            try:
                P.bags_from_corpus(tmp_path / str(counts[0]), "train", params, ARCH)
                return tracemalloc.get_traced_memory()[1], images.nbytes
            finally:
                tracemalloc.stop()

        small_peak, small_pixels = traced_peak((2, 1, 1))
        large_peak, large_pixels = traced_peak((8, 1, 1))
        assert large_pixels == 4 * small_pixels
        # the whole-split path holds the pixels about three times, so its
        # peak grows by about three times the extra pixels
        assert large_peak - small_peak < large_pixels - small_pixels


class TestFinetune:
    def test_progress_gets_each_history_record(self, tmp_path, params):
        cfg = D.CorpusConfig(counts=(2, 1, 1), magnifications=(10,), side=32, seed=0)
        D.generate_corpus(cfg, tmp_path / "c")
        mil_cfg = ML.MILConfig(feature_dim=ARCH.feature_dim, heads=2, seed=0)
        records = []
        _, _, history = P.finetune_mil(tmp_path / "c", params, ARCH, mil_cfg, epochs=3,
                                       batch_size=4, progress=records.append)
        assert [h["epoch"] for h in history] == [0, 1, 2]
        assert records == history
        assert all(set(r) == {"epoch", "loss", "val_acc"} for r in records)


    def test_batch_size_below_one_is_config_error(self, tmp_path, params):
        cfg = D.CorpusConfig(counts=(2, 1, 1), magnifications=(10,), side=32, seed=0)
        D.generate_corpus(cfg, tmp_path / "c")
        mil_cfg = ML.MILConfig(feature_dim=ARCH.feature_dim, heads=2, seed=0)
        with pytest.raises(ConfigError, match="at least 1, got 0"):
            P.finetune_mil(tmp_path / "c", params, ARCH, mil_cfg, epochs=1, batch_size=0)


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
