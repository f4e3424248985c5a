"""Command-line surface: corpus generation, pretraining, probing, MIL, ablations.

Exit codes: 0 success, 2 usage error, 1 runtime failure. This is the one
module that writes run-directory files: the per-step `losses.csv` of
`pretrain` and the per-epoch `history.csv` of `train-mil` come from the
training loops' `progress(record)` callbacks. Every training
command writes its fully resolved configuration into the run directory, and
a run directory is never overwritten once it holds a config. The config is
written last, after every other output of the run, so a run that crashed
leaves a directory that the same command may run into again.
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


def _parse_ints(flag: str, text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _fresh_run_dir(path: str) -> Path:
    run = Path(path)
    if (run / "config.json").exists():
        raise ContractViolation(f"run directory {run} already holds a run; refusing to overwrite")
    run.mkdir(parents=True, exist_ok=True)
    return run


def _write_config(run: Path, args: argparse.Namespace) -> None:
    """Mark the run complete: call it after every other output is in place."""
    resolved = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    partial = run / "config.json.partial"
    partial.write_text(json.dumps(resolved, indent=2, sort_keys=True, default=str))
    os.replace(partial, run / "config.json")


def _corpus_dir(args) -> str:
    corpus = args.corpus or os.environ.get("PATCHMIL_CORPUS")
    if not corpus:
        raise ConfigError("no corpus directory: pass --corpus or set PATCHMIL_CORPUS")
    return corpus


# -- commands ---------------------------------------------------------------


def cmd_generate_data(args) -> int:
    cfg = D.CorpusConfig(
        counts=_parse_ints("--counts", args.counts),
        magnifications=_parse_ints("--magnifications", args.magnifications),
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
            "arch": dataclasses.asdict(state.cfg.arch),
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
    patches = _load_train_patches(corpus, cfg.arch.side)
    with open(run / "losses.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "L_global", "L_parts", "L_var", "L_cov", "L_all", "lr", "grad_norm"])

        def log(record):  # flushed per row, so a killed run keeps its log to its last step
            columns = ("global", "parts", "var", "cov", "all", "lr", "grad_norm")
            writer.writerow([record["step"]] + [f"{record[k]:.6f}" for k in columns])
            fh.flush()

        state = S.pretrain(patches, cfg, progress=log)
    _save_ssl_checkpoint(run / "checkpoint", state)
    _write_config(run, args)
    print(f"pretrained {state.step_count} steps; checkpoint at {run / 'checkpoint'}")
    return 0


def _checkpoint_item(items: dict, key: str, kind: str, checkpoint):
    """items[key], or a FormatError naming the missing group or meta key."""
    if key not in items:
        raise FormatError(f"checkpoint {checkpoint} has no {kind} {key!r}")
    return items[key]


def _meta_fields(cls, meta: dict, key: str, checkpoint) -> dict:
    """meta[key], checked to set every field of dataclass `cls` and no other key.

    Raises FormatError naming the checkpoint and the bad key.
    """
    fields = _checkpoint_item(meta, key, "meta key", checkpoint)
    if not isinstance(fields, dict):
        raise FormatError(f"checkpoint {checkpoint} meta key {key!r} is not an object")
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(fields) - set(names))
    if unknown:
        raise FormatError(f"checkpoint {checkpoint} meta key {key!r} has unknown key {unknown[0]!r}")
    missing = [name for name in names if name not in fields]
    if missing:
        raise FormatError(f"checkpoint {checkpoint} meta key {key!r} has no key {missing[0]!r}")
    return fields


def _arch_from_meta(meta: dict, checkpoint) -> bb.ArchConfig:
    fields = _meta_fields(bb.ArchConfig, meta, "arch", checkpoint)
    if not isinstance(fields["local_channels"], list):
        raise FormatError(f"checkpoint {checkpoint} meta key 'arch' has a non-list 'local_channels'")
    return bb.ArchConfig(**dict(fields, local_channels=tuple(fields["local_channels"])))


def _load_backbone(checkpoint: str):
    groups, meta = D.load_checkpoint(checkpoint)
    return (_checkpoint_item(groups, "student", "group", checkpoint),
            _arch_from_meta(meta, checkpoint))


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


def cmd_train_mil(args) -> int:
    corpus = _corpus_dir(args)
    backbone_params, arch = _load_backbone(args.checkpoint)
    mil_cfg = ML.MILConfig(
        feature_dim=arch.feature_dim,
        pooling=args.pooling,
        use_position_bias=not args.no_position_bias,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    mil_cfg.validate()
    run = _fresh_run_dir(args.out)
    groups = {}
    with open(run / "history.csv", "w", newline="") as fh:
        # fine-tune records have no train_acc: restval leaves it blank
        writer = csv.DictWriter(fh, ["epoch", "loss", "train_acc", "val_acc"], restval="")
        writer.writeheader()

        def log(record):  # flushed per epoch, so a killed run keeps its history to its last epoch
            writer.writerow(record)
            fh.flush()

        if args.finetune:
            encoder, params, _ = P.finetune_mil(
                corpus, backbone_params, arch, mil_cfg, epochs=mil_cfg.epochs,
                batch_size=mil_cfg.batch_size, lr=args.finetune_lr, progress=log,
            )
            test_bags = P.bags_from_corpus(corpus, "test", encoder, arch)
            groups["student"] = encoder
        else:
            bags, norm = P.frozen_bags(corpus, backbone_params, arch)
            params, _ = ML.train_mil(bags["train"], bags["val"], mil_cfg, progress=log)
            test_bags = bags["test"]
            groups["norm"] = {"mu": norm[0], "sd": norm[1]}
    report = P.bag_metrics(test_bags, params, mil_cfg)
    groups["mil"] = params
    D.save_checkpoint(
        run / "checkpoint",
        groups,
        meta={
            "arch": dataclasses.asdict(arch),
            "mil": dataclasses.asdict(mil_cfg),
            "backbone_checkpoint": str(args.checkpoint),
            "finetuned": bool(args.finetune),
        },
    )
    (run / "report.json").write_text(MM.report_json({"mil": report}))
    (run / "report.txt").write_text(MM.report_table({"mil": report}))
    _write_config(run, args)
    print(MM.report_table({"mil": report}))
    return 0


def _load_mil_run(run_dir: str):
    checkpoint = Path(run_dir) / "checkpoint"
    groups, meta = D.load_checkpoint(checkpoint)
    arch = _arch_from_meta(meta, checkpoint)
    mil_cfg = ML.MILConfig(**_meta_fields(ML.MILConfig, meta, "mil", checkpoint))
    mil_params = _checkpoint_item(groups, "mil", "group", checkpoint)
    if "student" in groups:  # fine-tuned runs carry their own encoder
        backbone_params = groups["student"]
    else:
        source = _checkpoint_item(meta, "backbone_checkpoint", "meta key", checkpoint)
        backbone_params, _ = _load_backbone(source)
    norm = None
    if "norm" in groups:
        norm = (groups["norm"]["mu"].data, groups["norm"]["sd"].data)
    return mil_params, mil_cfg, backbone_params, arch, norm


def _split_bags(corpus, split, backbone_params, arch, norm, limit=None):
    bags = P.bags_from_corpus(corpus, split, backbone_params, arch, limit)
    return P.standardize_bags(bags, norm) if norm is not None else bags


def cmd_evaluate(args) -> int:
    corpus = _corpus_dir(args)
    mil_params, mil_cfg, backbone_params, arch, norm = _load_mil_run(args.mil_run)
    bags = _split_bags(corpus, args.split, backbone_params, arch, norm)
    report = P.bag_metrics(bags, mil_params, mil_cfg)
    print(MM.report_table({f"mil[{args.split}]": report}))
    if args.json:
        Path(args.json).write_text(MM.report_json({f"mil[{args.split}]": report}))
    return 0


def cmd_ablate(args) -> int:
    corpus = _corpus_dir(args)
    ssl_cfg = _ssl_config_from_args(args, loss_terms=P.LOSS_ROWS[-1])
    mil_cfg = ML.MILConfig(
        feature_dim=ssl_cfg.arch.feature_dim,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    ssl_cfg.validate()
    mil_cfg.validate()
    run = _fresh_run_dir(args.out)
    rows, stage_seconds = P.ablation(corpus, ssl_cfg, mil_cfg, args.epochs, P.FINETUNE_LR)
    (run / "report.json").write_text(MM.report_json(rows))
    (run / "report.txt").write_text(MM.report_table(rows))
    (run / "stages.json").write_text(json.dumps(stage_seconds, indent=2))
    _write_config(run, args)
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
    if args.limit < 1:
        raise ConfigError(f"--limit must be at least 1, got {args.limit}")
    corpus = _corpus_dir(args)
    mil_params, mil_cfg, backbone_params, arch, norm = _load_mil_run(args.mil_run)
    if mil_cfg.pooling != "adaptive":  # the pool weights it writes are the adaptive pool's
        raise ConfigError(f"export-attention needs an adaptive-pool run; {args.mil_run} "
                          f"was trained with {mil_cfg.pooling!r} pooling")
    bags = _split_bags(corpus, args.split, backbone_params, arch, norm, args.limit)
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
    """A subcommand parser that records the action of every flag it defines."""

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


# JSON types a --config value may have, by the type of its flag
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 None: ((str,), "a string")}


def _flag_default(key: str, value, action: argparse.Action):
    """A --config value as its flag's default; ConfigError if its JSON type does not fit."""
    if action.nargs == 0:  # store_true
        types, kind = (bool,), "true or false"
    else:
        types, kind = _CONFIG_TYPES[action.type]
    fits = isinstance(value, types) and (bool in types or not isinstance(value, bool))
    if not (fits or (value is None and action.default is None)):
        raise ConfigError(f"{key} must be {kind}, not {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"{key} must be one of {', '.join(action.choices)}, not {value!r}")
    return float(value) if action.type is float else value


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

    def ssl_flags(p):
        p.add_argument("--epochs", type=int, default=30)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--lr", type=float, default=3e-4)
        p.add_argument("--gamma", type=float, default=5.0)
        p.add_argument("--lam", type=float, default=0.005)
        p.add_argument("--epsilon", type=float, default=1e-4)
        p.add_argument("--momentum", type=float, default=0.99)
        p.add_argument("--parts", type=int, default=4)

    p = sub.add_parser("pretrain", help="self-supervised encoder training")
    common(p)
    p.add_argument("--out", required=True)
    ssl_flags(p)
    p.add_argument("--loss", default="global,parts,var,cov")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("linear-probe", help="frozen-encoder linear classification")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--random-init", action="store_true")
    p.add_argument("--parts", type=int, default=4)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_linear_probe)

    p = sub.add_parser("train-mil", help="train the MIL head on a frozen encoder")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--finetune", action="store_true",
                   help="also train the encoder end to end instead of freezing it")
    p.add_argument("--finetune-lr", type=float, default=P.FINETUNE_LR)
    p.add_argument("--pooling", default="adaptive", choices=ML.POOLING_KINDS)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--no-position-bias", action="store_true")
    p.set_defaults(func=cmd_train_mil)

    p = sub.add_parser("evaluate", help="score a trained MIL run on a split")
    common(p)
    p.add_argument("--mil-run", required=True)
    p.add_argument("--split", default="test", choices=D.SPLITS)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="loss and pooling ablations from scratch")
    common(p)
    p.add_argument("--out", required=True)
    ssl_flags(p)  # --epochs budgets SSL, fine-tune and MIL; --batch-size SSL and MIL
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
        flags = commands[command].flags
        unknown = sorted(set(overrides) - set(flags))
        if unknown:
            print(f"usage error: {known.config} sets {', '.join(unknown)}, "
                  f"which '{command}' has no flag for", file=sys.stderr)
            return 2
        try:
            defaults = {k: _flag_default(k, v, flags[k]) for k, v in overrides.items()}
        except ConfigError as exc:
            print(f"usage error: {known.config}: {exc}", file=sys.stderr)
            return 2
        commands[command].set_defaults(**defaults)
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
