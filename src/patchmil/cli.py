"""Command-line surface: corpus generation, pretraining, probing, MIL, ablations.

Exit codes: 0 success, 2 usage error, 1 runtime failure. Every training
command writes its fully resolved configuration into the run directory, and
a run directory is never overwritten once it holds a config.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import backbone as bb
from . import data as D
from . import metrics as MM
from . import mil as ML
from . import pipeline as P
from . import selfsup as S
from .errors import ConfigError, ContractViolation, FormatError, NumericError, WorkerError

TABLE2_LOSS_ROWS = (
    ("global",),
    ("global", "parts"),
    ("global", "var", "cov"),
    ("global", "parts", "var", "cov"),
)


def _parse_ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _arch_to_meta(arch: bb.ArchConfig) -> dict:
    return dataclasses.asdict(arch)


def _arch_from_meta(meta: dict) -> bb.ArchConfig:
    fields = dict(meta)
    fields["local_channels"] = tuple(fields["local_channels"])
    return bb.ArchConfig(**fields)


def _fresh_run_dir(path: str) -> Path:
    run = Path(path)
    if (run / "config.json").exists():
        raise ContractViolation(f"run directory {run} already holds a run; refusing to overwrite")
    run.mkdir(parents=True, exist_ok=True)
    return run


def _write_config(run: Path, args: argparse.Namespace, command: str) -> None:
    resolved = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    resolved["command"] = command
    (run / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True, default=str))


def _corpus_dir(args) -> str:
    corpus = args.corpus or os.environ.get("PATCHMIL_CORPUS")
    if not corpus:
        raise ConfigError("no corpus directory: pass --corpus or set PATCHMIL_CORPUS")
    return corpus


# -- commands ---------------------------------------------------------------


def cmd_generate_data(args) -> int:
    cfg = D.CorpusConfig(
        counts=_parse_ints(args.counts),
        magnifications=_parse_ints(args.magnifications),
        side=args.side,
        seed=args.seed,
    )
    records = D.generate_corpus(cfg, args.out)
    print(f"wrote {len(records)} records to {args.out} (index checksum {D.index_checksum(args.out)})")
    return 0


def _ssl_config_from_args(args, loss_terms=None) -> S.SSLConfig:
    return S.SSLConfig(
        arch=bb.ArchConfig(parts=args.parts),
        weights=S.LossWeights(
            gamma=args.gamma, lam=args.lam, epsilon=args.epsilon, momentum=args.momentum
        ),
        loss_terms=tuple(loss_terms if loss_terms is not None else args.loss.split(",")),
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
    )


def _load_train_patches(corpus: str, side: int) -> np.ndarray:
    images, _, _ = D.load_split(corpus, "train")
    patches, _, _ = P.image_patches(images, side)
    return patches


def _save_ssl_checkpoint(path, state: S.SSLState) -> None:
    D.save_checkpoint(
        path,
        {
            "student": state.student,
            "teacher": state.teacher,
            "student_heads": state.student_heads,
            "teacher_heads": state.teacher_heads,
        },
        meta={
            "arch": _arch_to_meta(state.cfg.arch),
            "steps": state.step_count,
            "loss_terms": list(state.cfg.loss_terms),
            "seed": state.cfg.seed,
        },
    )


def cmd_pretrain(args) -> int:
    corpus = _corpus_dir(args)
    cfg = _ssl_config_from_args(args)
    cfg.validate()
    run = _fresh_run_dir(args.out)
    _write_config(run, args, "pretrain")
    patches = _load_train_patches(corpus, cfg.arch.side)
    state = S.pretrain(patches, cfg, log_path=run / "losses.csv")
    _save_ssl_checkpoint(run / "checkpoint", state)
    print(f"pretrained {state.step_count} steps; checkpoint at {run / 'checkpoint'}")
    return 0


def _load_backbone(checkpoint: str):
    groups, meta = D.load_checkpoint(checkpoint)
    return groups["student"], _arch_from_meta(meta["arch"])


def cmd_linear_probe(args) -> int:
    corpus = _corpus_dir(args)
    if args.random_init:
        arch = bb.ArchConfig(parts=args.parts)
        params = bb.init_backbone(np.random.default_rng(args.seed), arch)
    elif args.checkpoint:
        params, arch = _load_backbone(args.checkpoint)
    else:
        raise ConfigError("linear-probe needs --checkpoint or --random-init")
    report = P.linear_probe_metrics(corpus, params, arch)
    print(MM.report_json({"linear_probe": report}))
    if args.json:
        Path(args.json).write_text(MM.report_json({"linear_probe": report}))
    return 0


def _mil_config_from_args(args, arch: bb.ArchConfig, pooling=None, bias=None) -> ML.MILConfig:
    return ML.MILConfig(
        feature_dim=arch.feature_dim,
        pooling=pooling if pooling is not None else args.pooling,
        use_position_bias=bias if bias is not None else not args.no_position_bias,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )


def _train_mil_once(corpus, backbone_params, arch, mil_cfg):
    train_bags = P.bags_from_corpus(corpus, "train", backbone_params, arch)
    val_bags = P.bags_from_corpus(corpus, "val", backbone_params, arch)
    test_bags = P.bags_from_corpus(corpus, "test", backbone_params, arch)
    norm = P.bag_normalization(train_bags)
    train_bags = P.standardize_bags(train_bags, norm)
    val_bags = P.standardize_bags(val_bags, norm)
    test_bags = P.standardize_bags(test_bags, norm)
    params, history = ML.train_mil(train_bags, val_bags, mil_cfg)
    preds = ML.evaluate_bags(test_bags, params, mil_cfg)
    labels = np.array([b.label for b in test_bags])
    report = MM.metrics_from_predictions(preds, labels)
    return params, history, report, norm


def cmd_train_mil(args) -> int:
    corpus = _corpus_dir(args)
    backbone_params, arch = _load_backbone(args.checkpoint)
    mil_cfg = _mil_config_from_args(args, arch)
    mil_cfg.validate()
    run = _fresh_run_dir(args.out)
    _write_config(run, args, "train-mil")
    groups = {}
    if args.finetune:
        encoder, params, ft_history = P.finetune_mil(
            corpus, backbone_params, arch, mil_cfg, epochs=mil_cfg.epochs, lr=args.finetune_lr
        )
        history = [dict(h, train_acc="") for h in ft_history]
        test_bags = P.bags_from_corpus(corpus, "test", encoder, arch)
        preds = ML.evaluate_bags(test_bags, params, mil_cfg)
        labels = np.array([b.label for b in test_bags])
        report = MM.metrics_from_predictions(preds, labels)
        groups["student"] = encoder
        norm = None
    else:
        params, history, report, norm = _train_mil_once(corpus, backbone_params, arch, mil_cfg)
        groups["norm"] = {"mu": norm[0], "sd": norm[1]}
    groups["mil"] = params
    D.save_checkpoint(
        run / "checkpoint",
        groups,
        meta={
            "arch": _arch_to_meta(arch),
            "mil": dataclasses.asdict(mil_cfg),
            "backbone_checkpoint": str(args.checkpoint),
            "finetuned": bool(args.finetune),
        },
    )
    with open(run / "history.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "loss", "train_acc", "val_acc"])
        writer.writeheader()
        writer.writerows(history)
    (run / "report.json").write_text(MM.report_json({"mil": report}))
    (run / "report.txt").write_text(MM.report_table({"mil": report}))
    print(MM.report_table({"mil": report}))
    return 0


def _load_mil_run(run_dir: str):
    groups, meta = D.load_checkpoint(Path(run_dir) / "checkpoint")
    arch = _arch_from_meta(meta["arch"])
    mil_meta = dict(meta["mil"])
    mil_cfg = ML.MILConfig(**mil_meta)
    if "student" in groups:  # fine-tuned runs carry their own encoder
        backbone_params = groups["student"]
    else:
        backbone_params, _ = _load_backbone(meta["backbone_checkpoint"])
    norm = None
    if "norm" in groups:
        norm = (groups["norm"]["mu"].data, groups["norm"]["sd"].data)
    return groups["mil"], mil_cfg, backbone_params, arch, norm


def _split_bags(corpus, split, backbone_params, arch, norm):
    bags = P.bags_from_corpus(corpus, split, backbone_params, arch)
    return P.standardize_bags(bags, norm) if norm is not None else bags


def cmd_evaluate(args) -> int:
    corpus = _corpus_dir(args)
    mil_params, mil_cfg, backbone_params, arch, norm = _load_mil_run(args.mil_run)
    bags = _split_bags(corpus, args.split, backbone_params, arch, norm)
    preds = ML.evaluate_bags(bags, mil_params, mil_cfg)
    labels = np.array([b.label for b in bags])
    report = MM.metrics_from_predictions(preds, labels)
    print(MM.report_table({f"mil[{args.split}]": report}))
    if args.json:
        Path(args.json).write_text(MM.report_json({f"mil[{args.split}]": report}))
    return 0


def cmd_ablate(args) -> int:
    corpus = _corpus_dir(args)
    run = _fresh_run_dir(args.out)
    _write_config(run, args, "ablate")
    rows: dict[str, dict] = {}
    if args.axis in ("loss", "all"):
        patches = None
        for terms in TABLE2_LOSS_ROWS:
            cfg = _ssl_config_from_args(args, loss_terms=terms)
            if patches is None:
                patches = _load_train_patches(corpus, cfg.arch.side)
            state = S.pretrain(patches, cfg)
            report = P.linear_probe_metrics(corpus, state.student, cfg.arch)
            rows[f"loss[{'+'.join(terms)}]"] = report
    if args.axis in ("pooling", "bias", "all"):
        if not args.checkpoint:
            raise ConfigError("the pooling/bias axes need --checkpoint")
        backbone_params, arch = _load_backbone(args.checkpoint)
        if args.axis in ("pooling", "all"):
            for kind in ML.POOLING_KINDS:
                mil_cfg = _mil_config_from_args(args, arch, pooling=kind)
                _, _, report, _ = _train_mil_once(corpus, backbone_params, arch, mil_cfg)
                rows[f"ours + {kind} pool"] = report
        if args.axis in ("bias", "all"):
            for bias in (True, False):
                mil_cfg = _mil_config_from_args(args, arch, pooling="adaptive", bias=bias)
                _, _, report, _ = _train_mil_once(corpus, backbone_params, arch, mil_cfg)
                rows[f"adaptive pool, position bias {'on' if bias else 'off'}"] = report
    (run / "report.json").write_text(MM.report_json(rows))
    (run / "report.txt").write_text(MM.report_table(rows))
    print(MM.report_table(rows))
    return 0


def _write_pgm(path, grid: np.ndarray) -> None:
    lo, hi = float(grid.min()), float(grid.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((grid - lo) * scale).astype(int)
    lines = [f"P2", f"{grid.shape[1]} {grid.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_export_attention(args) -> int:
    corpus = _corpus_dir(args)
    mil_params, mil_cfg, backbone_params, arch, norm = _load_mil_run(args.mil_run)
    bags = _split_bags(corpus, args.split, backbone_params, arch, norm)[: args.limit]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, bag in enumerate(bags):
        weights, attn = ML.attention_report(bag, mil_params, mil_cfg)
        # rows = output coordinates, columns = instances; each row sums to 1
        with open(out / f"bag{i:04d}_pool_weights.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"instance_{j}" for j in range(weights.shape[0])])
            writer.writerows(weights.T.tolist())
        with open(out / f"bag{i:04d}_msa_attention.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["head", "query", "key", "weight"])
            for h in range(attn.shape[0]):
                for qi in range(attn.shape[1]):
                    for ki in range(attn.shape[2]):
                        writer.writerow([h, qi, ki, f"{attn[h, qi, ki]:.8f}"])
        rows = bag.positions[:, 0].max() + 1
        cols = bag.positions[:, 1].max() + 1
        grid = np.zeros((rows, cols))
        mean_w = weights.mean(axis=1)
        for w, (r, c) in zip(mean_w, bag.positions):
            grid[r, c] = w
        _write_pgm(out / f"bag{i:04d}_attention.pgm", grid)
    print(f"exported attention for {len(bags)} bags to {out}")
    return 0


# -- parser -----------------------------------------------------------------


class _CommandParser(argparse.ArgumentParser):
    """A subcommand parser that records the dest of every flag it defines."""

    def __init__(self, *args, **kwargs):
        self.dests: set[str] = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.dests.add(action.dest)
        return action


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its {command: subcommand parser} map."""
    parser = argparse.ArgumentParser(prog="patchmil")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def common(p, corpus=True):
        p.add_argument("--seed", type=int, default=0)
        if corpus:
            p.add_argument("--corpus", default=None, help="corpus dir (or $PATCHMIL_CORPUS)")
        p.add_argument("--config", default=None, help="JSON config file with flag defaults")

    p = sub.add_parser("generate-data", help="render the synthetic corpus")
    common(p, corpus=False)
    p.add_argument("--out", required=True)
    p.add_argument("--counts", default="50,10,15", help="train,val,test images per class per magnification")
    p.add_argument("--magnifications", default="10,20")
    p.add_argument("--side", type=int, default=64)
    p.set_defaults(func=cmd_generate_data)

    def ssl_flags(p, budget=True):
        if budget:
            p.add_argument("--epochs", type=int, default=30)
            p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--lr", type=float, default=3e-4)
        p.add_argument("--loss", default="global,parts,var,cov")
        p.add_argument("--gamma", type=float, default=5.0)
        p.add_argument("--lam", type=float, default=0.005)
        p.add_argument("--epsilon", type=float, default=1e-4)
        p.add_argument("--momentum", type=float, default=0.99)
        p.add_argument("--parts", type=int, default=4)

    p = sub.add_parser("pretrain", help="self-supervised encoder training")
    common(p)
    p.add_argument("--out", required=True)
    ssl_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("linear-probe", help="frozen-encoder linear classification")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--random-init", action="store_true")
    p.add_argument("--parts", type=int, default=4)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_linear_probe)

    def mil_flags(p, budget=True):
        p.add_argument("--pooling", default="adaptive", choices=ML.POOLING_KINDS)
        if budget:
            p.add_argument("--epochs", type=int, default=20)
            p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--no-position-bias", action="store_true")

    p = sub.add_parser("train-mil", help="train the MIL head on a frozen encoder")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--finetune", action="store_true",
                   help="also train the encoder end to end instead of freezing it")
    p.add_argument("--finetune-lr", type=float, default=3e-3)
    mil_flags(p)
    p.set_defaults(func=cmd_train_mil)

    p = sub.add_parser("evaluate", help="score a trained MIL run on a split")
    common(p)
    p.add_argument("--mil-run", required=True)
    p.add_argument("--split", default="test", choices=D.SPLITS)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="loss/pooling/bias ablation sweeps")
    common(p)
    p.add_argument("--axis", default="all", choices=("loss", "pooling", "bias", "all"))
    p.add_argument("--checkpoint", default=None, help="needed for pooling/bias axes")
    p.add_argument("--out", required=True)
    ssl_flags(p)  # --epochs/--batch-size budget both the SSL and MIL sweeps
    mil_flags(p, budget=False)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export-attention", help="per-bag attention weights + graymaps")
    common(p)
    p.add_argument("--mil-run", required=True)
    p.add_argument("--split", default="test", choices=D.SPLITS)
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int, default=16)
    p.set_defaults(func=cmd_export_attention)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    # first pass only to find --config; its values become flag defaults
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    command = next((a for a in argv if a in commands), None)
    if known.config and command:
        try:
            overrides = json.loads(Path(known.config).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            print(f"usage error: cannot read --config {known.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(overrides, dict):
            print(f"usage error: {known.config} holds a JSON {type(overrides).__name__}, "
                  "not an object of flag values", file=sys.stderr)
            return 2
        overrides.pop("command", None)
        unknown = sorted(set(overrides) - commands[command].dests)
        if unknown:
            print(f"usage error: {known.config} sets {', '.join(unknown)}, "
                  f"which '{command}' has no flag for", file=sys.stderr)
            return 2
        commands[command].set_defaults(**overrides)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, NumericError, FormatError, OSError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
