"""Synthetic 7-class corpus, image tiling, and the on-disk tensor container.

The corpus stands in for multi-magnification stained-tissue photographs:
each class renders a distinct procedural texture family (band-limited noise
frequency, blob density, stripe anisotropy, a two-tone purple/pink palette),
and magnification is simulated by scaling the texture's base frequency.
The images are rendered and written in forked worker processes, one per
available CPU. Per-image generators are seeded from (corpus seed, image id),
so the bytes do not depend on which worker renders which image.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import tensor as T
from .errors import ContractViolation, FormatError
from .parallel import fork_map

MAGIC = b"FPTC0001"
FORMAT_VERSION = 1
# the dtype names `write_tensor` writes for bool, integer and float arrays
NUMERIC_DTYPES = tuple(sorted({np.dtype(c).name for c in "?efdg" + np.typecodes["AllInteger"]}))

CLASS_NAMES = ("brain", "heart", "kidney", "liver", "lung", "pancreas", "spleen")
SPLITS = ("train", "val", "test")

# -- tensor container -------------------------------------------------------


def write_tensor(path, array: np.ndarray, meta: dict | None = None) -> int:
    """Write one tensor: magic, LE header length, JSON header, LE payload.

    Returns the crc32 of the bytes written.
    """
    array = np.asarray(array)
    header = {
        "version": FORMAT_VERSION,
        "dtype": array.dtype.name,
        "shape": list(array.shape),
    }
    if meta:
        header["meta"] = meta
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = array.astype(array.dtype.newbyteorder("<"), copy=False).tobytes(order="C")
    head = MAGIC + struct.pack("<I", len(blob)) + blob
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)
    return zlib.crc32(payload, zlib.crc32(head))


def _read_header(fh, path) -> dict:
    """Check the magic and parse the JSON header; leaves `fh` at the payload."""
    magic = fh.read(8)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} in {path}")
    raw_len = fh.read(4)
    if len(raw_len) != 4:
        raise FormatError(f"truncated header length in {path}")
    (hlen,) = struct.unpack("<I", raw_len)
    blob = fh.read(hlen)
    if len(blob) != hlen:
        raise FormatError(f"truncated header in {path}")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"unparseable header in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"header in {path} is a JSON {type(header).__name__}, not an object")
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported version {header.get('version')} in {path}")
    if header.get("dtype") not in NUMERIC_DTYPES:  # a tuple: `in` hashes no JSON value
        raise FormatError(f"header in {path} has dtype {header.get('dtype')!r}, "
                          "not a bool, int or float type")
    shape = header.get("shape")  # type(n) is int: a JSON true or 2.0 is no dimension
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise FormatError(f"header in {path} has shape {shape!r}, not a list of non-negative ints")
    return header


def tensor_shape(path) -> tuple:
    """Shape of a container written by `write_tensor`, read from its header alone."""
    with open(path, "rb") as fh:
        return tuple(_read_header(fh, path)["shape"])


def read_tensor(path, crc32: int | None = None):
    """Read a container written by `write_tensor`; returns (array, header).

    With `crc32`, the file's bytes must have that checksum, or FormatError;
    the file is read once either way.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if crc32 is not None:  # parse the very bytes whose checksum was checked
            raw = fh.read()
            if zlib.crc32(raw) != crc32:
                raise FormatError(f"checksum mismatch in {path}: its bytes do not have "
                                  f"crc32 {crc32:08x}")
            fh, size = io.BytesIO(raw), len(raw)
        header = _read_header(fh, path)
        shape = tuple(header["shape"])
        dtype = np.dtype(header["dtype"]).newbyteorder("<")
        expected = math.prod(shape) * dtype.itemsize  # Python ints: no int64 wraparound
        left = size - fh.tell()
        if left != expected:  # checked before reading: a huge claimed shape allocates nothing
            raise FormatError(f"payload length mismatch in {path}: expected {expected}, got {left}")
        payload = fh.read(expected)
        try:
            array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        except ValueError as exc:  # a zero-size shape with a dimension numpy cannot hold
            raise FormatError(f"header in {path} has shape {list(shape)}: {exc}") from None
        return np.ascontiguousarray(array.astype(dtype.newbyteorder("="))), header


# -- checkpoints ------------------------------------------------------------


def save_checkpoint(path, groups: dict, meta: dict | None = None) -> None:
    """Serialize named parameter groups (dicts of Tensors) under a directory.

    The manifest is what makes a checkpoint loadable, so an old one is removed
    before any tensor file is rewritten and the new one is moved into place
    last: a save cut short leaves no checkpoint rather than a mixed one.
    Tensor files the new manifest does not list are removed after it. The
    manifest holds each tensor file's crc32 beside the groups and the meta.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "manifest.json").unlink(missing_ok=True)
    manifest = {"groups": {}, "crc32": {}, "meta": meta or {}}
    for group, params in groups.items():
        names = sorted(params)
        manifest["groups"][group] = names
        for name in names:
            value = params[name]
            array = value.data if isinstance(value, T.Tensor) else np.asarray(value)
            file = f"{group}__{name}.ftc"
            manifest["crc32"][file] = write_tensor(path / file, array)
    partial = path / "manifest.json.partial"
    partial.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(partial, path / "manifest.json")
    for stale in path.glob("*.ftc"):  # left by an earlier save with more tensors
        if stale.name not in manifest["crc32"]:
            stale.unlink()


def load_checkpoint(path):
    """Load parameter groups back as dicts of non-gradient Tensors + metadata.

    Each tensor file must have the crc32 that the manifest lists for it; a
    checkpoint saved before the manifest held checksums is refused.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unparseable checkpoint manifest {manifest_path}: {exc}") from exc
    listed = manifest.get("groups") if isinstance(manifest, dict) else None
    if not isinstance(listed, dict) or not all(isinstance(v, list) for v in listed.values()):
        raise FormatError(f"{manifest_path} is not an object with a 'groups' object of name lists")
    for group, names in listed.items():
        for part in (group, *names):
            # names become file names inside the checkpoint directory
            if not isinstance(part, str) or part in ("", ".", "..") or "/" in part or "\\" in part:
                raise FormatError(f"bad group or tensor name {part!r} in {manifest_path}")
    sums = manifest.get("crc32")
    sums = sums if isinstance(sums, dict) else {}
    groups = {}
    for group, names in listed.items():
        groups[group] = {}
        for name in names:
            file = f"{group}__{name}.ftc"
            if type(sums.get(file)) is not int:
                raise FormatError(f"{manifest_path} lists no crc32 for {file}")
            array, _ = read_tensor(path / file, crc32=sums[file])
            groups[group][name] = T.parameter(array, requires_grad=False)
    return groups, manifest.get("meta", {})


# -- corpus -----------------------------------------------------------------


@dataclass(frozen=True)
class CorpusConfig:
    counts: tuple = (50, 10, 15)  # train/val/test images per class per magnification
    magnifications: tuple = (10, 20)  # subset of {5, 10, 20, 40}
    side: int = 64
    seed: int = 0

    def validate(self):
        if len(self.counts) != len(SPLITS) or any(c < 0 for c in self.counts) \
                or self.counts[0] < 1:
            raise ContractViolation(f"bad split counts {self.counts}")
        bad = set(self.magnifications) - {5, 10, 20, 40}
        if bad:
            raise ContractViolation(f"unsupported magnifications {sorted(bad)}")
        repeated = sorted({m for m in self.magnifications if self.magnifications.count(m) > 1})
        if repeated:  # each image would be indexed, and read into its split, twice
            raise ContractViolation(f"repeated magnifications {repeated}")
        if self.side < 1:
            raise ContractViolation(f"image side must be at least 1, got {self.side}")
        if self.seed < 0:
            raise ContractViolation(f"seed must be at least 0, got {self.seed}")


@dataclass
class SampleRecord:
    image_id: str
    class_id: int
    magnification: int
    split: str
    path: str


# per-class texture family: (stripe orientation in degrees, stripe frequency,
# stripe amplitude, band-noise frequency, blob density threshold); classes are
# defined by attributes that survive photometric jitter, while lighting and
# staining vary freely within each class
_CLASS_RECIPES = (
    (0.0, 3.0, 0.45, 3.0, 0.52),
    (26.0, 5.0, 0.50, 4.5, 0.48),
    (51.0, 2.5, 0.40, 2.5, 0.40),
    (77.0, 4.0, 0.55, 6.0, 0.55),
    (103.0, 6.0, 0.45, 3.5, 0.35),
    (129.0, 3.5, 0.60, 5.0, 0.60),
    (154.0, 5.5, 0.50, 7.0, 0.45),
)

# per-class palette tints: every pair differs by >= 0.10 in some channel,
# giving the mean-color separability floor without making color sufficient
_CLASS_TINTS = np.array(
    [
        [0.00, 0.00, 0.10],
        [0.10, 0.00, 0.00],
        [0.00, 0.10, 0.00],
        [-0.10, 0.00, 0.00],
        [0.00, -0.10, 0.00],
        [0.00, 0.00, -0.10],
        [0.10, 0.10, 0.10],
    ]
)

_MAG_SCALE = {5: 1.0, 10: 2.0, 20: 4.0, 40: 8.0}

# hematoxylin-ish purple and eosin-ish pink anchors
_PALETTE_A = np.array([0.42, 0.28, 0.58])
_PALETTE_B = np.array([0.88, 0.58, 0.66])


def _image_rng(seed: int, image_id: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(image_id.encode("utf-8"))])


def render_texture(class_id: int, magnification: int, side: int, rng) -> np.ndarray:
    """One (side, side, 3) float image in [0, 1] from the class's texture family."""
    theta_deg, stripe_freq, stripe_amp, freq, density = _CLASS_RECIPES[class_id]
    scale = _MAG_SCALE[magnification]
    base_freq = freq * scale

    noise = rng.normal(size=(side, side))
    sigma = max(0.6, side / (2.0 * base_freq))
    band = ndimage.gaussian_filter(noise, sigma, mode="wrap")
    band = (band - band.mean()) / (band.std() + 1e-9)

    blob_field = ndimage.gaussian_filter(rng.normal(size=(side, side)), sigma * 1.7, mode="wrap")
    blob_field = (blob_field - blob_field.mean()) / (blob_field.std() + 1e-9)
    blobs = 1.0 / (1.0 + np.exp(-(blob_field - (density - 0.5)) * 6.0))

    theta = math.radians(theta_deg + rng.normal(scale=8.0))
    phase = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:side, 0:side]
    carrier = (xx * np.cos(theta) + yy * np.sin(theta)) / side
    stripes = np.sin(2 * np.pi * stripe_freq * scale * carrier + phase)

    t = 0.5 + 0.24 * band + 0.18 * (blobs - 0.5) * 2.0 + stripe_amp * 0.35 * stripes
    t = np.clip(t, 0.0, 1.0)

    img = t[..., None] * _PALETTE_B + (1.0 - t[..., None]) * _PALETTE_A
    img = img + _CLASS_TINTS[class_id]
    # heavy per-image photometric nuisances (gamma, uneven illumination,
    # exposure, stain shift) keep raw color statistics from solving the task
    gamma = float(np.exp(rng.normal(scale=0.35)))
    img = np.clip(img, 0.0, 1.0) ** gamma
    gy, gx = rng.normal(scale=0.35, size=2)
    ramp = (yy / side - 0.5) * gy + (xx / side - 0.5) * gx
    img = img * (1.0 + rng.normal(scale=0.18)) + rng.normal(scale=0.10, size=3)
    img = img + ramp[..., None]
    img += rng.normal(scale=0.015, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _mean_color_linear_probe_accuracy(records, means) -> float:
    """Ridge one-hot regression on per-image mean colors; test accuracy."""
    feats = {s: [] for s in SPLITS}
    labels = {s: [] for s in SPLITS}
    for rec, mean in zip(records, means):
        feats[rec.split].append(mean)
        labels[rec.split].append(rec.class_id)
    x_tr = np.array(feats["train"])
    y_tr = np.array(labels["train"])
    x_te = np.array(feats["test"])
    y_te = np.array(labels["test"])
    x_tr1 = np.hstack([x_tr, np.ones((len(x_tr), 1))])
    x_te1 = np.hstack([x_te, np.ones((len(x_te), 1))])
    onehot = np.eye(len(CLASS_NAMES))[y_tr]
    w = np.linalg.solve(x_tr1.T @ x_tr1 + 1e-3 * np.eye(4), x_tr1.T @ onehot)
    preds = np.argmax(x_te1 @ w, axis=1)
    return float((preds == y_te).mean())


def generate_corpus(config: CorpusConfig, out_dir) -> list:
    """Render the corpus under `out_dir`; returns the SampleRecord index.

    Writes corpus/{split}/{class}/{mag}x/{id}.ftc plus index.jsonl, and runs
    the mean-color calibration check (the task must not be solvable from raw
    pixel means alone). The images are rendered and written by
    `parallel.fork_map`, one process per available CPU; each returns the
    mean color of the float32 image it wrote, so the check reads no file back.
    """
    config.validate()
    root = Path(out_dir)
    records: list[SampleRecord] = []
    for class_id, class_name in enumerate(CLASS_NAMES):
        for mag in config.magnifications:
            serial = 0
            for split, count in zip(SPLITS, config.counts):
                for _ in range(count):
                    image_id = f"{class_name}_{mag}x_{serial:04d}"
                    serial += 1
                    rel = Path(split) / class_name / f"{mag}x" / f"{image_id}.ftc"
                    records.append(SampleRecord(image_id, class_id, mag, split, str(rel)))
    for folder in {Path(rec.path).parent for rec in records}:
        (root / folder).mkdir(parents=True, exist_ok=True)

    def render(rec: SampleRecord) -> np.ndarray:
        rng = _image_rng(config.seed, rec.image_id)
        img = render_texture(rec.class_id, rec.magnification, config.side, rng).astype(np.float32)
        meta = {"class": CLASS_NAMES[rec.class_id], "magnification": rec.magnification,
                "seed": config.seed, "id": rec.image_id}
        write_tensor(root / rec.path, img, meta=meta)
        return img.mean(axis=(0, 1))

    means = fork_map(render, records)
    with open(root / "index.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(vars(rec), sort_keys=True) + "\n")
    if config.counts[2] > 0:
        acc = _mean_color_linear_probe_accuracy(records, means)
        if acc > 0.95:
            raise ContractViolation(
                f"corpus too easy: mean-color probe reaches {acc:.3f} test accuracy"
            )
    return records


def load_index(corpus_dir) -> list:
    """The corpus's SampleRecords, in index order.

    Every line must be a JSON object with exactly SampleRecord's fields, an
    int class_id that indexes CLASS_NAMES, a split in SPLITS and a relative
    path without a `..` part, since the path is opened under `corpus_dir`,
    that no earlier line lists; any other line raises FormatError.
    """
    path = Path(corpus_dir) / "index.jsonl"
    if not path.exists():
        raise FormatError(f"no corpus index at {path}")
    names = {f.name for f in fields(SampleRecord)}
    records, lines_of = [], {}
    for n, line in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            entry = json.loads(line)
        except ValueError as exc:
            raise FormatError(f"{path} line {n} is not JSON: {exc}") from exc
        if not isinstance(entry, dict) or set(entry) != names:
            raise FormatError(f"{path} line {n} is not an object with the fields {sorted(names)}")
        class_id = entry["class_id"]  # type, not isinstance: a JSON true is no class id
        if type(class_id) is not int or not 0 <= class_id < len(CLASS_NAMES):
            raise FormatError(f"{path} line {n} has class_id {class_id!r}, not one of "
                              f"0..{len(CLASS_NAMES) - 1}")
        if entry["split"] not in SPLITS:
            raise FormatError(f"{path} line {n} has unknown split {entry['split']!r}")
        rel = entry["path"]
        if not isinstance(rel, str) or Path(rel).is_absolute() or ".." in Path(rel).parts:
            raise FormatError(f"{path} line {n} has path {rel!r}, not one inside the corpus")
        first = lines_of.setdefault(Path(rel), n)
        if first != n:
            raise FormatError(f"{path} line {n} has path {rel!r}, which line {first} already lists")
        records.append(SampleRecord(**entry))
    return records


def split_records(corpus_dir, split: str) -> list:
    """The index records of one split, in index order; an empty split is refused."""
    records = [r for r in load_index(corpus_dir) if r.split == split]
    if not records:
        raise ContractViolation(f"split {split!r} of corpus {corpus_dir} has no images")
    return records


def read_images(corpus_dir, records) -> np.ndarray:
    """The images of `records` as one (N, side, side, 3) array, filled in place."""
    first, _ = read_tensor(Path(corpus_dir) / records[0].path)
    images = np.empty((len(records),) + first.shape, first.dtype)
    images[0] = first
    for i, rec in enumerate(records[1:], start=1):
        image, _ = read_tensor(Path(corpus_dir) / rec.path)
        if image.shape != first.shape:
            raise FormatError(f"image {Path(corpus_dir) / rec.path} has shape {image.shape}, "
                              f"not the {first.shape} of {records[0].path}")
        images[i] = image
    return images


def load_split(corpus_dir, split: str):
    """All images of one split: (images (N, side, side, 3), labels, records)."""
    records = split_records(corpus_dir, split)
    labels = np.array([r.class_id for r in records])
    return read_images(corpus_dir, records), labels, records


def index_checksum(corpus_dir) -> str:
    data = (Path(corpus_dir) / "index.jsonl").read_bytes()
    return f"{zlib.crc32(data):08x}"


# -- tiling -----------------------------------------------------------------


def tile_image(image: np.ndarray, patch_side: int):
    """Raster-order tiles plus (row, col) grid positions; edge partials dropped."""
    image = np.asarray(image)
    h, w = image.shape[:2]
    if patch_side > h or patch_side > w:
        raise ContractViolation(
            f"patch side {patch_side} exceeds image size {h}x{w}"
        )
    tiles, positions = [], []
    for r, top in enumerate(range(0, h - patch_side + 1, patch_side)):
        for c, left in enumerate(range(0, w - patch_side + 1, patch_side)):
            tiles.append(image[top : top + patch_side, left : left + patch_side])
            positions.append((r, c))
    return np.stack(tiles), np.array(positions, dtype=np.int64)

