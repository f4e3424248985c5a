"""Bit-identity fingerprint of patchmil's outputs: one sha256 per artifact.

Runs fixed-seed work in float32 and in float64 on corpora it generates in a
temporary directory, and prints one JSON object {artifact: sha256}. The SSL
and MIL configs are the desk's, `desk_configs(0)` of `tests/test_acceptance.py`
read through `tools/desk.py`, with fewer epochs.

- `<dtype>/pretrain/...`: a one-epoch `selfsup.pretrain` run on the first
  train patches, its progress records and its four parameter groups;
- `<dtype>/mil/<head>/...`: the six heads of `pipeline.MIL_ROWS` trained for 3
  epochs on the `pipeline.frozen_bags` of a random-init encoder: the history, the params,
  `evaluate_bags` on the test bags and `attention_report` of 5 test bags;
- `<dtype>/classify_bag`: `classify_bag` of 8 test bags under random heads;
- `<dtype>/cli/...`: every file and the stdout of a small command-line run
  (`generate-data`, `pretrain`, `linear-probe`, `train-mil` frozen and
  `--finetune`, `evaluate`, `export-attention`),
  with the run's temporary paths replaced by a placeholder.

patchmil is imported from PYTHONPATH, so one copy of this file fingerprints
any tree. Compare two trees on one host (sgemm bits depend on the CPU's
kernels, so hashes from different hosts may differ):

    PYTHONPATH=<parent>/src python3 tools/fingerprint.py > parent.json
    PYTHONPATH=src python3 tools/fingerprint.py --arrays arrays > change.json
    python3 tools/fingerprint.py --compare parent.json change.json

`--compare` names each artifact that differs and exits 1 if any does.
`--arrays DIR` also saves each artifact's arrays to DIR/<artifact>.npz, so
that two trees' drift can be measured artifact by artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import desk  # tools/desk.py, beside this file: the gate file's desk configs

PLACEHOLDER = "<RUN>"
SEED = 0


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=lambda o: o.item())


class Fingerprint:
    """Artifact hashes, and each artifact's arrays when they are to be saved."""

    def __init__(self, arrays_dir=None):
        self.hashes: dict[str, str] = {}
        self.arrays_dir = Path(arrays_dir) if arrays_dir else None

    def _save(self, name: str, arrays: dict) -> None:
        if self.arrays_dir is not None and arrays:
            self.arrays_dir.mkdir(parents=True, exist_ok=True)
            np.savez(self.arrays_dir / f"{name.replace('/', '__')}.npz", **arrays)

    def arrays(self, name: str, arrays: dict) -> None:
        """Hash named arrays by dtype, shape and bytes, in key order."""
        digest = hashlib.sha256()
        for key in sorted(arrays):
            a = np.ascontiguousarray(arrays[key])
            digest.update(f"{key}|{a.dtype.str}|{a.shape}|".encode())
            digest.update(a.tobytes())
        self.hashes[name] = digest.hexdigest()
        self._save(name, arrays)

    def records(self, name: str, records: list) -> None:
        """Hash a list of flat dicts by their JSON; numeric columns are its arrays."""
        self.hashes[name] = hashlib.sha256(_json(records).encode()).hexdigest()
        columns = {k: np.array([r[k] for r in records]) for k in (records[0] if records else {})}
        self._save(name, {k: v for k, v in columns.items() if v.dtype.kind in "biuf"})

    def blob(self, name: str, data: bytes, arrays=None) -> None:
        self.hashes[name] = hashlib.sha256(data).hexdigest()
        self._save(name, arrays or {})


def _params(group: dict) -> dict:
    return {k: p.data for k, p in group.items()}


def fingerprint_pretrain(fp, prefix, corpus, patch_count=1024):
    from patchmil import pipeline as P
    from patchmil import selfsup as S

    cfg = dataclasses.replace(desk.gate_file().desk_configs(SEED)[1], epochs=1)
    patches = P.split_patches(corpus, "train", cfg.arch.side)[0]
    records = []
    state = S.pretrain(patches[:patch_count], cfg, progress=records.append)
    fp.records(f"{prefix}/pretrain/progress", records)
    for group in ("student", "student_heads", "teacher", "teacher_heads"):
        fp.arrays(f"{prefix}/pretrain/{group}", _params(getattr(state, group)))


def fingerprint_heads(fp, prefix, corpus, epochs=3, n_reports=5, n_classified=8):
    from patchmil import backbone as bb
    from patchmil import mil as ML
    from patchmil import pipeline as P

    _, ssl_cfg, mil_cfg = desk.gate_file().desk_configs(SEED)
    encoder = bb.init_backbone(np.random.default_rng(SEED), ssl_cfg.arch)
    bags, _ = P.frozen_bags(corpus, encoder, ssl_cfg.arch)
    test = bags["test"]
    for kind, bias in P.MIL_ROWS:
        name = f"{prefix}/mil/{kind}{'' if bias else '-no-bias'}"
        cfg = dataclasses.replace(mil_cfg, pooling=kind, use_position_bias=bias, epochs=epochs)
        params, history = ML.train_mil(bags["train"], bags["val"], cfg)
        fp.records(f"{name}/history", history)
        fp.arrays(f"{name}/params", _params(params))
        fp.arrays(f"{name}/test_preds", {"preds": ML.evaluate_bags(test, params, cfg)})
        reports = [ML.attention_report(b, params, cfg) for b in test[:n_reports]]
        fp.arrays(f"{name}/attention_report",
                  {"weights": np.stack([w for w, _ in reports]),
                   "attention": np.stack([a for _, a in reports])})
    # random heads: every pooling kind, with a random position-bias table
    logits = {}
    for k, (kind, bias) in enumerate(P.MIL_ROWS):
        cfg = dataclasses.replace(mil_cfg, pooling=kind, use_position_bias=bias, seed=100 + k)
        rng = np.random.default_rng(cfg.seed)
        params = ML.init_mil(rng, cfg)
        params["msa0_bias"].data[...] = rng.normal(size=params["msa0_bias"].shape)
        logits[f"{k}-{kind}"] = np.stack([ML.classify_bag(b, params, cfg)
                                          for b in test[:n_classified]])
    fp.arrays(f"{prefix}/classify_bag", logits)


def fingerprint_cli(fp, prefix, root: Path):
    from patchmil import data as D
    from patchmil.cli import main

    corpus, ssl, mil = root / "corpus", root / "ssl", root / "mil"
    runs = [
        ["generate-data", "--out", corpus, "--counts", "2,1,1", "--magnifications", "10",
         "--side", "32", "--seed", "11"],
        ["pretrain", "--corpus", corpus, "--out", ssl, "--epochs", "1", "--batch-size", "8"],
        ["linear-probe", "--corpus", corpus, "--checkpoint", ssl / "checkpoint",
         "--json", root / "probe.json"],
        ["train-mil", "--corpus", corpus, "--checkpoint", ssl / "checkpoint", "--out", mil,
         "--epochs", "2"],
        ["train-mil", "--corpus", corpus, "--checkpoint", ssl / "checkpoint", "--out",
         root / "finetune", "--epochs", "2", "--batch-size", "4", "--finetune"],
        ["evaluate", "--corpus", corpus, "--mil-run", mil, "--json", root / "evaluate.json"],
        ["export-attention", "--corpus", corpus, "--mil-run", mil, "--out", root / "attention",
         "--limit", "3"],
    ]
    stdout = io.StringIO()
    for argv in runs:
        with contextlib.redirect_stdout(stdout):
            code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"fingerprint: {argv[0]} exited {code}")
    fp.blob(f"{prefix}/cli/stdout", stdout.getvalue().replace(str(root), PLACEHOLDER).encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data, arrays = path.read_bytes(), {}
        if path.name == "checkpoint":  # one file; a MIL run's meta names its encoder's path
            groups, _ = D.load_checkpoint(path)
            arrays = {f"{g}__{k}": t.data for g, ts in groups.items() for k, t in ts.items()}
        elif path.suffix == ".ftc":  # an image, or a tensor file of a checkpoint directory
            arrays = {"array": D.read_tensor(path)[0]}
        if path.suffix != ".ftc":
            data = data.replace(str(root).encode(), PLACEHOLDER.encode())
        fp.blob(f"{prefix}/cli/{rel}", data, arrays)


def run(arrays_dir=None) -> dict:
    import patchmil
    from patchmil import data as D
    from patchmil import tensor as T

    print(f"fingerprint: patchmil from {Path(patchmil.__file__).parent}", file=sys.stderr)
    fp = Fingerprint(arrays_dir)
    with tempfile.TemporaryDirectory(prefix="patchmil-fingerprint-") as tmp:
        tmp = Path(tmp)
        corpus = tmp / "corpus"
        D.generate_corpus(D.CorpusConfig(seed=SEED), corpus)
        for dtype in (np.float32, np.float64):
            prefix = np.dtype(dtype).name
            with T.default_dtype(dtype):
                for stage, fn in (("pretrain", lambda: fingerprint_pretrain(fp, prefix, corpus)),
                                  ("heads", lambda: fingerprint_heads(fp, prefix, corpus)),
                                  ("cli", lambda: fingerprint_cli(fp, prefix, tmp / prefix))):
                    start = time.perf_counter()
                    fn()
                    print(f"fingerprint: {prefix} {stage} {time.perf_counter() - start:.1f} s",
                          file=sys.stderr)
    return dict(sorted(fp.hashes.items()))


def compare(a_path, b_path) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    differ = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    for name in differ:
        where = "only in " + (a_path if name in a else b_path) if (name in a) != (name in b) else "differs"
        print(f"{name}: {where}")
    print(f"{len(differ)} of {len(set(a) | set(b))} artifacts differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--arrays", metavar="DIR", help="also save each artifact's arrays here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="name the artifacts whose hashes differ between two JSON outputs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    print(json.dumps(run(args.arrays), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
