"""The benchmark's three closed-loop workloads over the public patchmil API.

Every workload has one client: the next step starts only when the last one
has finished. Set-up builds the inputs from the seed; the timed loop then runs
whole rounds of work (one `pretrain` call, one pass over the served images, or
one training run of every MIL head) and checks each output. Time spent
checking is taken out of the step times and of the loop's wall time.

An untraced run sets up three times and runs a third of its timed loop after
each set-up, so its samples spread over the whole process lifetime and the
host's speed drift averages out better. Each part measures until its share of
`seconds` has passed and its share of `min_steps` steps is timed; the first
part also completes one round. A traced run does one set-up and exactly one
round, so its counts repeat exactly at a fixed seed.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from patchmil import backbone as bb
from patchmil import data as D
from patchmil import mil as ML
from patchmil import pipeline as P
from patchmil import selfsup as S

import stats
import tracing

# desk settings of tests/test_acceptance.py
ARCH = bb.ArchConfig(local_channels=(8, 16, 32), global_dim=32, embed_dim=32)
SSL_BATCH = 32
SSL_LR = 3e-4
TEACHER_MOMENTUM = 0.9
HEADS = tuple((kind, True) for kind in ML.POOLING_KINDS) + (("adaptive", False),)
N_CLASSES = len(D.CLASS_NAMES)

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
# Deterministic at a fixed seed, so they catch arithmetic drift; they move
# with the seed, so they sit in the record rather than in the timed metrics.
QUALITY = (("loss_final", "loss"), ("test_acc", "fraction"))
SSL_EPOCHS = 1  # epochs of one pretrain call
REQUEST_IMAGES = 8


@dataclass(frozen=True)
class Sizes:
    corpus_counts: tuple = D.CorpusConfig().counts  # 700/140/210 images
    mil_epochs: int = 5  # epochs of one train_mil call
    min_steps: int = 100  # so that >= 10 step samples lie beyond p90
    setup_repeats: int = 3


DESK = Sizes()


class _Stop(Exception):
    """Ends a pretrain call from inside its step hook."""


class Loop:
    """Clock, step samples and output checks of one timed loop."""

    def __init__(self, tracer, seconds: float, min_steps: int, parts: int = 1):
        self.tracer = tracer
        self.seconds = seconds
        self.min_steps = min_steps
        self.parts = parts  # the loop runs in this many parts, one after each set-up
        self.durations: list[float] = []
        self.items = 0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}
        self.check_s = 0.0
        self.t0 = None
        self.wall = 0.0
        self.part_steps = 0  # steps timed before the current part began
        self.minflt = 0  # minor page faults in the timed parts, checks left out

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def begin(self) -> None:
        """Start timing the current part of the loop."""
        self.t0 = self.last = time.perf_counter()
        self.check_s = 0.0
        self.part_steps = len(self.durations)
        self.minflt -= _minflt()
        if self.tracer is not None:
            self.tracer.step_id = len(self.durations)

    def mark(self) -> None:
        """Start the next step interval now."""
        self.last = time.perf_counter()

    def step(self, items: int) -> None:
        now = time.perf_counter()
        self.durations.append(now - self.last)
        self.last = now
        self.items += items
        if self.tracer is not None:
            self.tracer.step_id = len(self.durations)

    def finish(self) -> None:
        """Stop timing the current part; `wall` sums the timed parts."""
        self.wall += time.perf_counter() - self.t0 - self.check_s
        self.minflt += _minflt()
        self.t0 = None

    def enough(self) -> bool:
        if self.traced:
            return self.rounds >= 1
        timed = time.perf_counter() - self.t0 - self.check_s
        return (
            self.rounds >= 1
            and len(self.durations) - self.part_steps >= math.ceil(self.min_steps / self.parts)
            and timed >= self.seconds / self.parts
        )

    @contextmanager
    def checking(self):
        """Untimed work: output checks and scoring.

        In a traced run the work inside is not traced; one `bench.check` span
        covers it, so it is not charged to the layer span it runs inside.
        """
        tracer = self.tracer
        span = None
        if tracer is not None and tracer.active:
            span = tracer.open(tracer.name_id("bench.check"))
            tracer.active = False
        start = time.perf_counter()
        faults = _minflt()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            if self.t0 is not None:
                self.check_s += took
                self.last += took
                self.minflt -= _minflt() - faults
            if span is not None:
                tracer.active = True
                tracer.close(span)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _corpus(seed: int, root: Path, sizes: Sizes) -> Path:
    corpus = root / "corpus"
    D.generate_corpus(D.CorpusConfig(counts=sizes.corpus_counts, seed=seed), corpus)
    return corpus


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class SSLPretrain:
    """`selfsup.pretrain` with the full loss; one step is one pretrain_step."""

    def setup(self, seed: int, root: Path, sizes: Sizes):
        corpus = _corpus(seed, root, sizes)
        images, _, _ = D.load_split(corpus, "train")
        patches, _, _ = P.image_patches(images, ARCH.side)
        cfg = S.SSLConfig(
            arch=ARCH,
            epochs=SSL_EPOCHS,
            batch_size=SSL_BATCH,
            lr=SSL_LR,
            seed=seed,
            weights=S.LossWeights(momentum=TEACHER_MOMENTUM),
        )
        return SimpleNamespace(corpus=corpus, patches=patches, cfg=cfg,
                               checkpoint=root / "checkpoint")

    def _first_reports(self, ctx, count: int) -> list:
        reports = []
        step_fn = S.pretrain_step

        def collect(*args):
            reports.append(step_fn(*args))
            if len(reports) == count:
                raise _Stop
            return reports[-1]

        patcher = tracing.Patcher()
        patcher.patch(S, "pretrain_step", collect)
        try:
            S.pretrain(ctx.patches, ctx.cfg)
        except _Stop:
            pass
        finally:
            patcher.restore()
        return reports

    def _round_trip(self, state, ctx, loop: Loop) -> None:
        groups = {
            "student": state.student,
            "student_heads": state.student_heads,
            "teacher": state.teacher,
            "teacher_heads": state.teacher_heads,
        }
        meta = {"step": state.step_count}
        D.save_checkpoint(ctx.checkpoint, groups, meta=meta)
        loaded, loaded_meta = D.load_checkpoint(ctx.checkpoint)
        with loop.checking():
            exact = loaded_meta == meta and loaded.keys() == groups.keys() and all(
                loaded[g].keys() == groups[g].keys()
                and all(_same_bits(loaded[g][k].data, groups[g][k].data) for k in groups[g])
                for g in groups
            )
            loop.check("ssl-pretrain: checkpoint round trip is bit-exact", exact)

    def run_loop(self, ctx, loop: Loop) -> None:
        reference = None
        if loop.traced:
            with loop.checking():
                reference = self._first_reports(ctx, 2)
        reports: list = []
        step_fn = S.pretrain_step

        def timed_step(views_s, views_t, state, lr):
            report = step_fn(views_s, views_t, state, lr)
            loop.step(views_s.shape[0])
            reports.append(report)
            with loop.checking():
                loop.check(
                    "ssl-pretrain: step losses are finite",
                    all(math.isfinite(report[k]) for k in (*S.LOSS_TERMS, "all", "grad_norm")),
                )
                if reference is not None and loop.rounds == 0 and len(reports) <= len(reference):
                    loop.check(
                        "trace: step report equals the untraced one",
                        report == reference[len(reports) - 1],
                    )
            if loop.enough():
                raise _Stop
            return report

        patcher = tracing.Patcher()
        patcher.patch(S, "pretrain_step", timed_step)
        try:
            loop.begin()
            while not loop.enough():
                reports.clear()
                loop.mark()
                try:
                    state = S.pretrain(ctx.patches, ctx.cfg)
                except _Stop:
                    break
                self._round_trip(state, ctx, loop)
                if loop.rounds == 0:
                    with loop.checking():
                        loop.quality["loss_final"] = reports[-1]["all"]
                        probe = P.linear_probe_metrics(ctx.corpus, state.student, ARCH)
                        loop.quality["test_acc"] = probe["acc"]
                loop.rounds += 1
        finally:
            patcher.restore()
        loop.finish()


class BagInfer:
    """Serving: requests of val/test images through a frozen encoder and a MIL head."""

    def setup(self, seed: int, root: Path, sizes: Sizes):
        corpus = _corpus(seed, root, sizes)
        encoder = bb.init_backbone(np.random.default_rng(seed), ARCH)
        train = P.bags_from_corpus(corpus, "train", encoder, ARCH)
        val = P.bags_from_corpus(corpus, "val", encoder, ARCH)
        norm = P.bag_normalization(train)
        cfg = ML.MILConfig(
            feature_dim=ARCH.feature_dim, pooling="adaptive", epochs=sizes.mil_epochs, seed=seed
        )
        head, _ = ML.train_mil(P.standardize_bags(train, norm), P.standardize_bags(val, norm), cfg)
        records = [r for r in D.load_index(corpus) if r.split in ("val", "test")]
        order = np.random.default_rng(seed).permutation(len(records))
        return SimpleNamespace(
            corpus=corpus, encoder=encoder, norm=norm, cfg=cfg, head=head,
            records=[records[i] for i in order], size=REQUEST_IMAGES,
        )

    def _serve(self, ctx, request: int):
        n = len(ctx.records)
        recs = [ctx.records[(request * ctx.size + j) % n] for j in range(ctx.size)]
        images = np.stack([D.read_tensor(ctx.corpus / r.path)[0] for r in recs])
        patches, per_image, positions = P.image_patches(images, ARCH.side)
        emb = P.embed_patches(patches, ctx.encoder, ARCH).reshape(len(recs), per_image, -1)
        bags = P.standardize_bags(
            [ML.Bag(emb[i], positions, r.class_id) for i, r in enumerate(recs)], ctx.norm
        )
        preds = ML.evaluate_bags(bags, ctx.head, ctx.cfg)
        return recs, bags, emb, preds

    def run_loop(self, ctx, loop: Loop) -> None:
        per_round = math.ceil(len(ctx.records) / ctx.size)
        n_test = sum(r.split == "test" for r in ctx.records)
        reference = None
        if loop.traced:
            with loop.checking():
                reference = self._serve(ctx, 0)
        served: dict[str, tuple] = {}  # test image id -> (label, prediction, loss)
        loop.begin()
        request = 0
        while not loop.enough():
            loop.mark()
            recs, bags, emb, preds = self._serve(ctx, request)
            loop.step(len(recs))
            with loop.checking():
                logits = [ML.classify_bag(b, ctx.head, ctx.cfg) for b in bags]
                single = [int(np.argmax(z)) for z in logits]  # what mil.predict returns
                loop.check("bag-infer: batched predictions equal one-bag mil.predict",
                           [int(p) for p in preds] == single)
                if reference is not None and request == 0:
                    loop.check("trace: embeddings and predictions equal the untraced ones",
                               _same_bits(emb, reference[2]) and _same_bits(preds, reference[3]))
                for rec, pred, z in zip(recs, single, logits):
                    if rec.split != "test":
                        continue
                    z = z.astype(np.float64)
                    loss = float(np.logaddexp.reduce(z) - z[rec.class_id])  # cross-entropy
                    if rec.image_id in served:
                        loop.check("bag-infer: a repeated image gets the same prediction",
                                   served[rec.image_id][1] == pred)
                    else:
                        served[rec.image_id] = (rec.class_id, pred, loss)
            request += 1
            loop.rounds = max(loop.rounds, request // per_round)
        loop.finish()
        if loop.quality:  # scored on the first part of the loop
            return
        with loop.checking():
            loop.check("bag-infer: every test image was served", len(served) == n_test)
            labels = np.array([v[0] for v in served.values()])
            preds = np.array([v[1] for v in served.values()])
            loop.quality["test_acc"] = float((labels == preds).mean())
            loop.quality["loss_final"] = float(np.mean([v[2] for v in served.values()]))


class MilTrain:
    """`mil.train_mil` for the six desk heads on frozen, z-scored bag features."""

    def setup(self, seed: int, root: Path, sizes: Sizes):
        corpus = _corpus(seed, root, sizes)
        encoder = bb.init_backbone(np.random.default_rng(seed), ARCH)
        bags = {split: P.bags_from_corpus(corpus, split, encoder, ARCH) for split in D.SPLITS}
        norm = P.bag_normalization(bags["train"])
        bags = {split: P.standardize_bags(b, norm) for split, b in bags.items()}
        return SimpleNamespace(bags=bags, seed=seed, epochs=sizes.mil_epochs)

    def _cfg(self, ctx, kind: str, bias: bool, epochs: int) -> ML.MILConfig:
        return ML.MILConfig(
            feature_dim=ARCH.feature_dim, pooling=kind, use_position_bias=bias,
            epochs=epochs, seed=ctx.seed,
        )

    def run_loop(self, ctx, loop: Loop) -> None:
        train, val, test = (ctx.bags[split] for split in D.SPLITS)
        test_labels = np.array([b.label for b in test])
        reference = None
        if loop.traced:
            with loop.checking():
                _, reference = ML.train_mil(train, val, self._cfg(ctx, *HEADS[0], epochs=1))
        loop.begin()
        while not loop.enough():
            for head in HEADS:
                cfg = self._cfg(ctx, *head, epochs=ctx.epochs)

                def on_epoch(record):
                    loop.step(len(train))
                    with loop.checking():
                        loop.check(
                            "mil-train: epoch loss finite, accuracies in [0, 1]",
                            math.isfinite(record["loss"])
                            and all(0.0 <= record[k] <= 1.0 for k in ("train_acc", "val_acc")),
                        )
                        first = loop.rounds == 0 and head == HEADS[0] and record["epoch"] == 0
                        if reference is not None and first:
                            loop.check("trace: first epoch equals the untraced one",
                                       record == reference[0])

                loop.mark()
                params, history = ML.train_mil(train, val, cfg, progress=on_epoch)
                with loop.checking():
                    loop.check("mil-train: history has one entry per epoch",
                               [h["epoch"] for h in history] == list(range(cfg.epochs)))
                    preds = ML.evaluate_bags(test, params, cfg)
                    in_range = (preds >= 0) & (preds < N_CLASSES)
                    loop.check("mil-train: every prediction lies in [0, 7)",
                               len(preds) == len(test) and bool(in_range.all()))
                    if loop.rounds == 0 and head == HEADS[0]:
                        loop.quality["loss_final"] = history[-1]["loss"]
                        loop.quality["test_acc"] = float((preds == test_labels).mean())
            loop.rounds += 1
        loop.finish()


WORKLOADS = {"ssl-pretrain": SSLPretrain(), "bag-infer": BagInfer(), "mil-train": MilTrain()}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: Sizes = DESK, trace_path: Path | None = None) -> dict:
    """Set up and run one workload; returns the full result record."""
    spec = WORKLOADS[workload]
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.active = True
    parts = 1 if trace else sizes.setup_repeats
    loop = Loop(tracer, seconds, sizes.min_steps, parts)
    setup_runs: list[float] = []
    try:
        checksum = None
        for k in range(parts):
            root = Path(workdir) / f"setup{k}"
            start = time.perf_counter()
            ctx = spec.setup(seed, root, sizes)
            setup_runs.append(time.perf_counter() - start)
            new_checksum = D.index_checksum(root / "corpus")
            if checksum is not None:
                loop.check("setup: corpus is the same on every set-up", new_checksum == checksum)
                shutil.rmtree(Path(workdir) / f"setup{k - 1}")
            checksum = new_checksum
            spec.run_loop(ctx, loop)
            ctx = None  # free this set-up's inputs before the next one builds its own
    finally:
        if tracer is not None:
            tracer.uninstall()
    for key, _ in QUALITY:
        if not math.isfinite(loop.quality.get(key, math.nan)):
            loop.check(f"{workload}: {key} is a finite number", False)
            loop.quality[key] = math.nan
    n = len(loop.durations)
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, n, loop.items, setup_runs[0], loop.wall)
        units = dict(tracing.per_layer_spec())
        if trace_path is not None:
            tracer.write(trace_path)
    else:
        metrics = {
            "setup_s": statistics.median(setup_runs),
            "items_per_s": loop.items / loop.wall,
            "step_ms_p50": statistics.median(loop.durations) * 1e3,
            "step_ms_p90": stats.percentile(loop.durations, 0.9) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "samples": {"steps": n, "beyond_p90": stats.beyond(n, 0.9) if n else 0,
                    "setups": len(setup_runs), "rounds": loop.rounds, "items": loop.items},
        "minor_faults": {"loop": loop.minflt, "per_step": loop.minflt / n if n else 0.0},
        "setup_runs_s": setup_runs,
        "quality": {name: {"value": loop.quality[name], "unit": unit} for name, unit in QUALITY},
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
