"""Container format, corpus generation, tiling."""

import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from patchmil import data as D
from patchmil import tensor as T
from patchmil.errors import ContractViolation, FormatError

SMALL = D.CorpusConfig(counts=(6, 1, 3), magnifications=(10, 20), side=32, seed=7)
RECORD = {"image_id": "brain_10x_0000", "class_id": 0, "magnification": 10, "split": "train",
          "path": "train/brain/10x/brain_10x_0000.ftc"}


def reference_generate_corpus(config, root):
    """The serial renderer: one image after another, each written as it is made.

    Returns (records, mean colors of the images read back, mean-color probe
    accuracy or None when there is no test split).
    """
    records = []
    for class_id, class_name in enumerate(D.CLASS_NAMES):
        for mag in config.magnifications:
            serial = 0
            for split, count in zip(D.SPLITS, config.counts):
                for _ in range(count):
                    image_id = f"{class_name}_{mag}x_{serial:04d}"
                    serial += 1
                    rng = D._image_rng(config.seed, image_id)
                    img = D.render_texture(class_id, mag, config.side, rng)
                    rel = Path(split) / class_name / f"{mag}x" / f"{image_id}.ftc"
                    (root / rel).parent.mkdir(parents=True, exist_ok=True)
                    meta = {"class": class_name, "magnification": mag, "seed": config.seed,
                            "id": image_id}
                    D.write_tensor(root / rel, img.astype(np.float32), meta=meta)
                    records.append(D.SampleRecord(image_id, class_id, mag, split, str(rel)))
    with open(root / "index.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(vars(rec), sort_keys=True) + "\n")
    means = [D.read_tensor(root / r.path)[0].mean(axis=(0, 1)) for r in records]
    acc = D._mean_color_linear_probe_accuracy(records, means) if config.counts[2] else None
    return records, np.array(means), acc


class TestTensorContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
        path = tmp_path / "t.ftc"
        D.write_tensor(path, arr, meta={"k": "v"})
        back, header = D.read_tensor(path)
        assert back.tobytes() == arr.tobytes()
        assert header["meta"] == {"k": "v"}

    def test_golden_bytes_two_element_vector(self, tmp_path):
        path = tmp_path / "g.ftc"
        D.write_tensor(path, np.array([1.5, -2.0], dtype=np.float32))
        hjson = json.dumps(
            {"version": 1, "dtype": "float32", "shape": [2]}, sort_keys=True
        ).encode()
        golden = (
            b"FPTC0001"
            + struct.pack("<I", len(hjson))
            + hjson
            + struct.pack("<2f", 1.5, -2.0)
        )
        assert path.read_bytes() == golden

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ftc"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            D.read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ftc"
        D.write_tensor(path, np.ones((4, 4), dtype=np.float64))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="payload"):
            D.read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "t.ftc"
        hjson = json.dumps({"version": 99, "dtype": "float32", "shape": [1]}).encode()
        path.write_bytes(b"FPTC0001" + struct.pack("<I", len(hjson)) + hjson + b"\x00" * 4)
        with pytest.raises(FormatError, match="version"):
            D.read_tensor(path)

    def test_tensor_shape_reads_the_header(self, tmp_path):
        path = tmp_path / "t.ftc"
        D.write_tensor(path, np.zeros((5, 3, 2), dtype=np.float32))
        assert D.tensor_shape(path) == (5, 3, 2)
        path.write_bytes(b"NOTMAGIC" + path.read_bytes()[8:])
        with pytest.raises(FormatError, match="magic"):
            D.tensor_shape(path)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        groups = {
            "student": {"w": T.parameter(rng.normal(size=(3, 3)))},
            "heads": {"g_sg_1_w": T.parameter(rng.normal(size=4))},
        }
        D.save_checkpoint(tmp_path / "ckpt", groups, meta={"step": 5})
        back, meta = D.load_checkpoint(tmp_path / "ckpt")
        assert meta == {"step": 5}
        np.testing.assert_array_equal(back["student"]["w"].data, groups["student"]["w"].data)
        assert not back["student"]["w"].requires_grad

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            D.load_checkpoint(tmp_path / "nope")

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_overwrite_cut_short_leaves_no_checkpoint(self, tmp_path, monkeypatch, k):
        ckpt = tmp_path / "ckpt"
        names = ("a", "b", "c")
        D.save_checkpoint(ckpt, {"student": {n: T.parameter(np.zeros(2)) for n in names}})
        write_tensor, written = D.write_tensor, []

        def fail_after_k(path, array):
            if len(written) == k:
                raise OSError("disk full")
            written.append(path)
            write_tensor(path, array)

        monkeypatch.setattr(D, "write_tensor", fail_after_k)
        with pytest.raises(OSError):
            D.save_checkpoint(ckpt, {"student": {n: T.parameter(np.ones(2)) for n in names}})
        with pytest.raises(FormatError):
            D.load_checkpoint(ckpt)
        monkeypatch.undo()
        D.save_checkpoint(ckpt, {"student": {n: T.parameter(np.ones(2)) for n in names}})
        back, _ = D.load_checkpoint(ckpt)
        assert all(back["student"][n].data.tolist() == [1.0, 1.0] for n in names)
        assert sorted(p.name for p in ckpt.iterdir()) == ["manifest.json"] + [
            f"student__{n}.ftc" for n in names
        ]

    def test_overwrite_with_fewer_tensors_removes_unlisted_files(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        D.save_checkpoint(ckpt, {"student": {n: T.parameter(np.zeros(2)) for n in "abc"},
                                 "teacher": {"a": T.parameter(np.zeros(2))}})
        (ckpt / "notes.txt").write_text("kept")
        D.save_checkpoint(ckpt, {"student": {"a": T.parameter(np.ones(2))}})
        assert sorted(p.name for p in ckpt.iterdir()) == [
            "manifest.json", "notes.txt", "student__a.ftc"
        ]
        back, _ = D.load_checkpoint(ckpt)
        assert back["student"]["a"].data.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize(
        "manifest",
        [
            "{not json",
            "[]",
            '{"meta": {}}',
            '{"groups": []}',
            '{"groups": {"student": "w"}}',
            '{"groups": {"/tmp/outside": ["w"]}}',
            '{"groups": {"..": ["w"]}}',
            '{"groups": {"student": ["../w"]}}',
            '{"groups": {"student": ["a\\\\b"]}}',
            '{"groups": {"student": [""]}}',
            '{"groups": {"student": [3]}}',
        ],
        ids=["not-json", "list", "no-groups", "groups-list", "names-string", "absolute-group",
             "dotdot-group", "dotdot-name", "backslash-name", "empty-name", "int-name"],
    )
    def test_malformed_or_hostile_manifest(self, tmp_path, manifest):
        ckpt = tmp_path / "ckpt"
        D.save_checkpoint(ckpt, {"student": {"w": T.parameter(np.ones(2))}})
        (ckpt / "manifest.json").write_text(manifest)
        with pytest.raises(FormatError):
            D.load_checkpoint(ckpt)


class TestCorpus:
    def test_deterministic_under_seed(self, tmp_path):
        D.generate_corpus(SMALL, tmp_path / "a")
        D.generate_corpus(SMALL, tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.ftc")):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        assert D.index_checksum(tmp_path / "a") == D.index_checksum(tmp_path / "b")

    def test_280_record_layout(self, tmp_path):
        cfg = D.CorpusConfig(counts=(6, 1, 3), magnifications=(5, 10, 20, 40), side=32, seed=3)
        records = D.generate_corpus(cfg, tmp_path / "c")
        assert len(records) == 280
        splits = {s: sum(r.split == s for r in records) for s in D.SPLITS}
        assert splits == {"train": 168, "val": 28, "test": 84}

    def test_split_partition_and_unique_ids(self, tmp_path):
        records = D.generate_corpus(SMALL, tmp_path / "c")
        ids = [r.image_id for r in records]
        assert len(ids) == len(set(ids))
        assert {r.split for r in records} == set(D.SPLITS)

    def test_index_round_trip(self, tmp_path):
        records = D.generate_corpus(SMALL, tmp_path / "c")
        loaded = D.load_index(tmp_path / "c")
        assert [vars(r) for r in loaded] == [vars(r) for r in records]

    @pytest.mark.parametrize(
        "line",
        [
            "{not json",
            "[]",
            json.dumps({k: v for k, v in RECORD.items() if k != "split"}),
            json.dumps({**RECORD, "size": 32}),
            json.dumps({**RECORD, "split": "holdout"}),
            json.dumps({**RECORD, "path": "/etc/hostname"}),
            json.dumps({**RECORD, "path": "../outside.ftc"}),
            json.dumps({**RECORD, "path": "train/../../outside.ftc"}),
            json.dumps({**RECORD, "path": 3}),
        ],
        ids=["not-json", "list", "missing-field", "unknown-field", "unknown-split",
             "absolute-path", "dotdot-path", "inner-dotdot-path", "int-path"],
    )
    def test_malformed_or_hostile_index_line(self, tmp_path, line):
        (tmp_path / "index.jsonl").write_text(json.dumps(RECORD) + "\n" + line + "\n")
        with pytest.raises(FormatError, match="line 2"):
            D.load_index(tmp_path)

    def test_image_of_another_shape_is_refused(self, tmp_path):
        D.generate_corpus(SMALL, tmp_path / "c")
        records = D.split_records(tmp_path / "c", "train")
        D.write_tensor(tmp_path / "c" / records[3].path, np.zeros((16, 32, 3), np.float32))
        with pytest.raises(FormatError, match=re.escape(records[3].path)):
            D.read_images(tmp_path / "c", records)

    def test_load_split_shapes(self, tmp_path):
        D.generate_corpus(SMALL, tmp_path / "c")
        images, labels, records = D.load_split(tmp_path / "c", "train")
        assert images.shape == (6 * 7 * 2, 32, 32, 3)
        assert set(labels) == set(range(7))
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_load_split_equals_stack_reference(self, tmp_path):
        D.generate_corpus(SMALL, tmp_path / "c")
        for split in D.SPLITS:
            images, labels, records = D.load_split(tmp_path / "c", split)
            want = np.stack([D.read_tensor(tmp_path / "c" / r.path)[0] for r in records])
            assert images.dtype == want.dtype and images.shape == want.shape
            assert images.tobytes() == want.tobytes()
            assert labels.tolist() == [r.class_id for r in records]
            assert [r.image_id for r in records] == [
                r.image_id for r in D.load_index(tmp_path / "c") if r.split == split
            ]

    def test_empty_split_is_refused(self, tmp_path):
        cfg = D.CorpusConfig(counts=(1, 0, 1), magnifications=(10,), side=32, seed=7)
        D.generate_corpus(cfg, tmp_path / "c")
        with pytest.raises(ContractViolation, match="'val'.*no images"):
            D.load_split(tmp_path / "c", "val")

    def test_class_mean_colors_separated(self, tmp_path):
        cfg = D.CorpusConfig(counts=(12, 0, 0), magnifications=(10,), side=32, seed=5)
        records = D.generate_corpus(cfg, tmp_path / "c")
        means = np.zeros((7, 3))
        for class_id in range(7):
            imgs = [
                D.read_tensor(tmp_path / "c" / r.path)[0]
                for r in records
                if r.class_id == class_id
            ]
            means[class_id] = np.stack(imgs).mean(axis=(0, 1, 2))
        for i in range(7):
            for j in range(i + 1, 7):
                assert np.abs(means[i] - means[j]).max() >= 0.05, (i, j)

    def test_mean_color_probe_is_capped(self, tmp_path):
        records = D.generate_corpus(SMALL, tmp_path / "c")
        means = [D.read_tensor(tmp_path / "c" / r.path)[0].mean(axis=(0, 1)) for r in records]
        acc = D._mean_color_linear_probe_accuracy(records, means)
        assert acc <= 0.95

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("mags", [(10,), (10, 20)])
    def test_forked_corpus_equals_serial_reference(self, tmp_path, monkeypatch, seed, mags):
        cfg = D.CorpusConfig(counts=(3, 1, 2), magnifications=mags, side=32, seed=seed)
        want_records, want_means, want_acc = reference_generate_corpus(cfg, tmp_path / "ref")
        probe, probed = D._mean_color_linear_probe_accuracy, []

        def spy(records, means):
            probed.append((np.array(means), probe(records, means)))
            return probed[-1][1]

        monkeypatch.setattr(D, "_mean_color_linear_probe_accuracy", spy)
        records = D.generate_corpus(cfg, tmp_path / "got")
        assert [vars(r) for r in records] == [vars(r) for r in want_records]
        got_files, want_files = (sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
                                 for root in (tmp_path / "got", tmp_path / "ref"))
        assert got_files == want_files and Path("index.jsonl") in got_files
        for rel in want_files:
            assert (tmp_path / "got" / rel).read_bytes() == (tmp_path / "ref" / rel).read_bytes()
        [(means, acc)] = probed
        assert means.dtype == want_means.dtype and means.tobytes() == want_means.tobytes()
        assert acc == want_acc

    @pytest.mark.parametrize("counts", [(2, 1), (2, 1, 1, 5)])
    def test_counts_other_than_three_rejected(self, tmp_path, counts):
        cfg = D.CorpusConfig(counts=counts, magnifications=(10,), side=32)
        with pytest.raises(ContractViolation, match="bad split counts"):
            D.generate_corpus(cfg, tmp_path / "c")
        assert not (tmp_path / "c").exists()

    def test_bad_magnification_rejected(self):
        with pytest.raises(ContractViolation):
            D.CorpusConfig(magnifications=(15,)).validate()


class TestTiling:
    def test_64_to_32_four_tiles(self):
        img = np.random.default_rng(0).uniform(size=(64, 64, 3))
        tiles, pos = D.tile_image(img, 32)
        assert tiles.shape == (4, 32, 32, 3)
        assert pos.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_70_to_32_drops_edges(self):
        img = np.zeros((70, 70, 3))
        tiles, pos = D.tile_image(img, 32)
        assert tiles.shape[0] == 4

    def test_patch_larger_than_image(self):
        with pytest.raises(ContractViolation):
            D.tile_image(np.zeros((16, 16, 3)), 32)

    def test_tiles_are_the_slices_of_the_covered_region(self):
        img = np.random.default_rng(1).uniform(size=(64, 64, 3)).astype(np.float32)
        tiles, pos = D.tile_image(img, 32)
        for tile, (r, c) in zip(tiles, pos):
            assert tile.tobytes() == img[32 * r : 32 * (r + 1), 32 * c : 32 * (c + 1)].tobytes()

    def test_positions_unique_raster_order(self):
        img = np.zeros((96, 64, 3))
        _, pos = D.tile_image(img, 32)
        expected = [(r, c) for r in range(3) for c in range(2)]
        assert [tuple(p) for p in pos] == expected
