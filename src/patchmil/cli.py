"""Command-line surface: corpus generation, pretraining, probing, MIL, ablations.

Exit codes: 0 success, 2 usage error, 1 runtime failure. A flag that fills a
config field takes its default from that field. This is the one module that
writes run-directory files. `pretrain` and `train-mil` write each record
that their training loop passes to `progress(record)` as one line of
`events.jsonl`, per step and per epoch. Every training command writes its
fully resolved configuration into the run directory, and a run directory is
never overwritten once it holds a config. The config is written last, after
every other output of the run, so a run that crashed leaves a directory that
the same command may run into again.
"""

from __future__ import annotations

import argparse
import contextlib
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


@contextlib.contextmanager
def _event_log(run: Path):
    """A progress callback that writes each record to run/events.jsonl as one flushed JSON line."""
    with open(run / "events.jsonl", "w") as fh:  # a killed run keeps its log to its last record
        yield lambda record: print(json.dumps(record), file=fh, flush=True)


def _corpus_dir(args) -> str:
    corpus = args.corpus or os.environ.get("PATCHMIL_CORPUS")
    if not corpus:
        raise ConfigError("no corpus directory: pass --corpus or set PATCHMIL_CORPUS")
    return corpus


# -- commands ---------------------------------------------------------------


def cmd_generate_data(args) -> int:
    patch_side = bb.ArchConfig().side  # every later command cuts patches of this side
    if args.side < patch_side:
        raise ConfigError(f"--side must be at least {patch_side}, the encoder's patch side, "
                          f"got {args.side}")
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
    patches, _, _ = P.split_patches(corpus, "train", cfg.arch.side)
    with _event_log(run) as progress:
        state = S.pretrain(patches, cfg, progress=progress)
    _save_ssl_checkpoint(run / "checkpoint", state)
    _write_config(run, args)
    print(f"pretrained {state.step_count} steps; checkpoint at {run / 'checkpoint'}")
    return 0


def _checkpoint_item(items: dict, key: str, kind: str, checkpoint):
    """items[key], or a FormatError naming the missing group or meta key."""
    if key not in items:
        raise FormatError(f"checkpoint {checkpoint} has no {kind} {key!r}")
    return items[key]


def _config_from_meta(cls, meta: dict, key: str, checkpoint):
    """Config `cls` from meta[key], validated, or a FormatError naming the checkpoint and key.

    meta[key] must set every field and no other key, each with its default's
    JSON type (a tuple field is a list of ints); the error names the field.
    """
    fields = _checkpoint_item(meta, key, "meta key", checkpoint)
    where = f"checkpoint {checkpoint} meta key {key!r}"
    if not isinstance(fields, dict):
        raise FormatError(f"{where} is not an object")
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(fields) - set(names))
    if unknown:
        raise FormatError(f"{where} has unknown key {unknown[0]!r}")
    missing = [name for name in names if name not in fields]
    if missing:
        raise FormatError(f"{where} has no key {missing[0]!r}")
    for f in dataclasses.fields(cls):  # type(v) is int: a JSON true or 2.0 is no int
        value = fields[f.name]
        if isinstance(f.default, tuple):
            kind, ok = "list", isinstance(value, list) and all(type(v) is int for v in value)
        else:
            kind, ok = type(f.default).__name__, type(value) is type(f.default)
        if not ok:
            raise FormatError(f"{where} has a non-{kind} {f.name!r}")
    cfg = cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
    try:
        cfg.validate()
    except ConfigError as exc:
        raise FormatError(f"{where} is invalid: {exc}") from None
    return cfg


def _checked_group(groups: dict, name: str, reference: dict, checkpoint) -> dict:
    """groups[name], or a FormatError if its tensor names and shapes differ from `reference`'s."""
    group = _checkpoint_item(groups, name, "group", checkpoint)
    for key in sorted(set(group) | set(reference)):
        have = f"shape {group[key].shape}" if key in group else "no tensor"
        want = f"shape {reference[key].shape}" if key in reference else "no tensor"
        if have != want:
            raise FormatError(f"checkpoint {checkpoint} group {name!r} has {have} for {key!r}; "
                              f"its config gives {want}")
    return group


def _load_backbone(checkpoint: str):
    groups, meta = D.load_checkpoint(checkpoint)
    arch = _config_from_meta(bb.ArchConfig, meta, "arch", checkpoint)
    reference = bb.init_backbone(np.random.default_rng(0), arch)
    return _checked_group(groups, "student", reference, checkpoint), arch


def cmd_linear_probe(args) -> int:
    corpus = _corpus_dir(args)
    if args.random_init is not None and args.checkpoint:
        raise ConfigError("linear-probe takes --checkpoint or --random-init, not both")
    if args.random_init is not None:
        if args.random_init < 0:
            raise ConfigError(f"--random-init takes a seed of at least 0, got {args.random_init}")
        arch = bb.ArchConfig()
        params = bb.init_backbone(np.random.default_rng(args.random_init), arch)
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
    if args.finetune is not None and not 0.0 <= args.finetune < np.inf:  # a nan fails both
        raise ConfigError(f"--finetune takes a finite lr of at least 0, got {args.finetune}")
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
    with _event_log(run) as progress:
        if args.finetune is not None:
            encoder, params, _ = P.finetune_mil(  # the splits are freed before the test bags
                *(P.split_patches(corpus, split, arch.side) for split in ("train", "val")),
                backbone_params, arch, mil_cfg, lr=args.finetune, progress=progress)
            test_bags = P.bags_from_corpus(corpus, "test", encoder, arch)
            groups["student"] = encoder
        else:
            bags, norm = P.frozen_bags(corpus, backbone_params, arch)
            params, _ = ML.train_mil(bags["train"], bags["val"], mil_cfg, progress=progress)
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
            "finetuned": args.finetune is not None,
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
    arch = _config_from_meta(bb.ArchConfig, meta, "arch", checkpoint)
    mil_cfg = _config_from_meta(ML.MILConfig, meta, "mil", checkpoint)
    rng = np.random.default_rng(0)  # the references' shapes do not depend on its draws
    mil_params = _checked_group(groups, "mil", ML.init_mil(rng, mil_cfg), checkpoint)
    if "student" in groups:  # fine-tuned runs carry their own encoder
        backbone_params = _checked_group(groups, "student", bb.init_backbone(rng, arch), checkpoint)
    else:
        source = _checkpoint_item(meta, "backbone_checkpoint", "meta key", checkpoint)
        backbone_params, _ = _load_backbone(source)
    norm = None
    if "norm" in groups:
        zeros = np.zeros(arch.feature_dim)
        stats = _checked_group(groups, "norm", {"mu": zeros, "sd": zeros}, checkpoint)
        norm = (stats["mu"].data, stats["sd"].data)
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
    rows, stage_seconds = P.ablation(corpus, ssl_cfg, mil_cfg, args.epochs)
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
            writer.writerows([*hqk, f"{attn[hqk]:.8f}"] for hqk in np.ndindex(attn.shape))
        grid = np.zeros(bag.positions.max(axis=0) + 1)
        grid[bag.positions[:, 0], bag.positions[:, 1]] = weights.mean(axis=1)
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
    return float(value) if action.type is float and value is not None else value


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its {command: subcommand parser} map."""
    corpus_cfg, ssl_cfg, mil_cfg = D.CorpusConfig(), S.SSLConfig(), ML.MILConfig()
    parser = argparse.ArgumentParser(prog="patchmil")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def common(p, corpus=True, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if corpus:
            p.add_argument("--corpus", default=None, help="corpus dir (or $PATCHMIL_CORPUS)")
        p.add_argument("--config", default=None, help="JSON config file with flag defaults")

    p = sub.add_parser("generate-data", help="render the synthetic corpus")
    common(p, corpus=False)
    p.add_argument("--out", required=True)
    p.add_argument("--counts", default=",".join(map(str, corpus_cfg.counts)),
                   help="train,val,test images per class per magnification")
    p.add_argument("--magnifications", default=",".join(map(str, corpus_cfg.magnifications)))
    p.add_argument("--side", type=int, default=corpus_cfg.side)
    p.set_defaults(func=cmd_generate_data)

    def ssl_flags(p):
        p.add_argument("--epochs", type=int, default=ssl_cfg.epochs)
        p.add_argument("--batch-size", type=int, default=ssl_cfg.batch_size)
        p.add_argument("--lr", type=float, default=ssl_cfg.lr)
        for name in ("gamma", "lam", "epsilon", "momentum"):
            p.add_argument(f"--{name}", type=float, default=getattr(ssl_cfg.weights, name))
        p.add_argument("--parts", type=int, default=ssl_cfg.arch.parts)

    p = sub.add_parser("pretrain", help="self-supervised encoder training")
    common(p)
    p.add_argument("--out", required=True)
    ssl_flags(p)
    p.add_argument("--loss", default=",".join(S.LOSS_TERMS))
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("linear-probe", help="frozen-encoder linear classification")
    common(p, seed=False)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--random-init", type=int, nargs="?", const=0, default=None, metavar="SEED",
                   help="probe the default encoder initialised at seed SEED (%(const)s)")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_linear_probe)

    p = sub.add_parser("train-mil", help="train the MIL head on a frozen encoder")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--finetune", type=float, nargs="?", const=P.FINETUNE_LR, default=None,
                   metavar="LR", help="also train the encoder end to end, at lr LR (%(const)s)")
    p.add_argument("--pooling", default=mil_cfg.pooling, choices=ML.POOLING_KINDS)
    p.add_argument("--epochs", type=int, default=mil_cfg.epochs)
    p.add_argument("--batch-size", type=int, default=mil_cfg.batch_size)
    p.add_argument("--no-position-bias", action="store_true")
    p.set_defaults(func=cmd_train_mil)

    p = sub.add_parser("evaluate", help="score a trained MIL run on a split")
    common(p, seed=False)
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
    common(p, seed=False)
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
