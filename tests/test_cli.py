"""End-to-end command-line behavior on a miniature corpus."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from patchmil import backbone as bb
from patchmil import data as D
from patchmil import metrics as MM
from patchmil import mil as ML
from patchmil import pipeline as P
from patchmil import selfsup as S
from patchmil.cli import main
from patchmil.errors import NumericError


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    code = main(
        [
            "generate-data",
            "--out",
            str(root / "c"),
            "--counts",
            "2,1,1",
            "--magnifications",
            "10",
            "--side",
            "32",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    return root / "c"


@pytest.fixture(scope="module")
def pretrain_run(tmp_path_factory, corpus):
    run = tmp_path_factory.mktemp("runs") / "ssl"
    code = main(
        [
            "pretrain",
            "--corpus",
            str(corpus),
            "--out",
            str(run),
            "--epochs",
            "1",
            "--batch-size",
            "8",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    return run


@pytest.fixture(scope="module")
def mil_run(tmp_path_factory, corpus, pretrain_run):
    run = tmp_path_factory.mktemp("runs") / "mil"
    code = main(
        [
            "train-mil",
            "--corpus",
            str(corpus),
            "--checkpoint",
            str(pretrain_run / "checkpoint"),
            "--out",
            str(run),
            "--epochs",
            "2",
            "--seed",
            "0",
        ]
    )
    assert code == 0
    return run


class TestUsageErrors:
    def test_missing_corpus_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PATCHMIL_CORPUS", raising=False)
        assert main(["pretrain", "--out", str(tmp_path / "r")]) == 2

    def test_global_loss_cannot_be_dropped(self, corpus, tmp_path):
        code = main(
            [
                "pretrain",
                "--corpus",
                str(corpus),
                "--out",
                str(tmp_path / "r"),
                "--loss",
                "parts,var",
            ]
        )
        assert code == 2

    def test_unknown_pooling_rejected_by_parser(self, corpus, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "train-mil",
                    "--corpus",
                    str(corpus),
                    "--checkpoint",
                    "x",
                    "--out",
                    str(tmp_path / "r"),
                    "--pooling",
                    "median",
                ]
            )
        assert exc.value.code == 2

    def test_probe_needs_weights_source(self, corpus):
        assert main(["linear-probe", "--corpus", str(corpus)]) == 2


    @pytest.mark.parametrize("command", ["pretrain", "train-mil", "ablate"])
    @pytest.mark.parametrize(
        "flag, value, says",
        [("--batch-size", "0", "batch size must be at least {min_batch}"),
         ("--epochs", "-1", "epochs must be at least 0")],
        ids=["batch-size-0", "epochs-negative"],
    )
    def test_batch_size_and_epochs_out_of_range(
        self, corpus, pretrain_run, tmp_path, capsys, command, flag, value, says
    ):
        run = tmp_path / "r"
        argv = [command, "--corpus", str(corpus), "--out", str(run), flag, value]
        if command == "train-mil":
            argv += ["--checkpoint", str(pretrain_run / "checkpoint")]
        assert main(argv) == 2
        says = says.format(min_batch=1 if command == "train-mil" else 2)  # SSL needs pairs
        assert capsys.readouterr().err.startswith(f"usage error: {says}")
        assert not run.exists()

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    def test_ssl_batch_of_one_is_usage_error(self, corpus, tmp_path, capsys, command):
        run = tmp_path / "r"
        assert main([command, "--corpus", str(corpus), "--out", str(run), "--batch-size", "1"]) == 2
        assert capsys.readouterr().err.startswith("usage error: batch size must be at least 2")
        assert not run.exists()  # no config.json marks a finished run

    @pytest.mark.parametrize(
        "command, key, value, says",
        [
            ("pretrain", "epochs", 1.5, "epochs must be an integer, not 1.5"),
            ("pretrain", "loss", ["global", "parts"], 'loss must be a string, not ["global", "parts"]'),
            ("train-mil", "finetune", "yes", 'finetune must be true or false, not "yes"'),
            ("evaluate", "split", "all", "split must be one of train, val, test, not 'all'"),
        ],
        ids=["float-for-int", "list", "string-for-store-true", "not-a-choice"],
    )
    def test_config_value_of_wrong_type_is_usage_error(
        self, corpus, pretrain_run, tmp_path, capsys, command, key, value, says
    ):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        run = tmp_path / "r"
        argv = [command, "--config", str(path), "--corpus", str(corpus)]
        argv += {
            "pretrain": ["--out", str(run)],
            "train-mil": ["--out", str(run), "--checkpoint", str(pretrain_run / "checkpoint")],
            "evaluate": ["--mil-run", str(run)],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"usage error: {path}: {says}\n"
        assert not run.exists()


class TestGenerateData:
    def test_same_seed_same_checksum(self, tmp_path):
        args = ["generate-data", "--counts", "1,1,1", "--magnifications", "10", "--side", "32"]
        assert main(args + ["--out", str(tmp_path / "a"), "--seed", "3"]) == 0
        assert main(args + ["--out", str(tmp_path / "b"), "--seed", "3"]) == 0
        assert D.index_checksum(tmp_path / "a") == D.index_checksum(tmp_path / "b")

    @pytest.mark.parametrize("counts", ["2,1", "2,1,1,5"])
    def test_counts_other_than_three_refused_before_any_file(self, tmp_path, capsys, counts):
        out = tmp_path / "c"
        argv = ["generate-data", "--counts", counts, "--magnifications", "10", "--side", "32",
                "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad split counts") and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("flag, value", [("--counts", "2,x,1"), ("--counts", "2,,1"),
                                             ("--magnifications", "10,y")])
    def test_non_integer_in_a_list_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "c"
        argv = ["generate-data", "--counts", "1,1,1", "--magnifications", "10", "--side", "32",
                "--out", str(out), flag, value]  # the last value of a flag wins
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: {flag} takes comma-separated integers, got {value!r}\n"
        )
        assert not out.exists()

    def test_env_var_supplies_corpus(self, corpus, monkeypatch, tmp_path):
        monkeypatch.setenv("PATCHMIL_CORPUS", str(corpus))
        assert main(["linear-probe", "--random-init", "--json", str(tmp_path / "p.json")]) == 0
        report = json.loads((tmp_path / "p.json").read_text())
        assert set(report["linear_probe"]) == {"acc", "f1", "mcc", "precision"}


class TestCorpusIndex:
    @pytest.mark.parametrize("edit, says", [
        # an absolute path to a real image of the corpus: readable, but not the index's to name
        (lambda rec, root: json.dumps(dict(rec, path=str(root / rec["path"]))), "has path"),
        (lambda rec, root: json.dumps(dict(rec, path="../" + rec["path"])), "has path"),
        (lambda rec, root: json.dumps(dict(rec, split="holdout")), "unknown split 'holdout'"),
        (lambda rec, root: json.dumps(rec)[:-1], "is not JSON"),
    ], ids=["absolute-path", "dotdot-path", "unknown-split", "not-json"])
    def test_probe_refuses_a_bad_index_line(self, corpus, tmp_path, capsys, edit, says):
        root = tmp_path / "c"
        shutil.copytree(corpus, root)
        lines = (root / "index.jsonl").read_text().splitlines()
        lines[0] = edit(json.loads(lines[0]), root)
        (root / "index.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["linear-probe", "--corpus", str(root), "--random-init"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {root / 'index.jsonl'} line 1 ") and says in err


class TestPretrain:
    def test_run_dir_has_config_log_checkpoint(self, pretrain_run):
        assert (pretrain_run / "config.json").exists()
        assert (pretrain_run / "losses.csv").exists()
        groups, meta = D.load_checkpoint(pretrain_run / "checkpoint")
        assert set(groups) == {"student", "teacher", "student_heads", "teacher_heads"}
        assert meta["arch"]["side"] == 32

    def test_completed_run_dir_not_overwritten(self, corpus, pretrain_run):
        code = main(
            ["pretrain", "--corpus", str(corpus), "--out", str(pretrain_run), "--epochs", "1"]
        )
        assert code == 1

    def test_crashed_run_dir_can_be_rerun(self, corpus, tmp_path, monkeypatch):
        def crash(*args, **kwargs):
            raise NumericError("NaN gradient")

        argv = ["pretrain", "--corpus", str(corpus), "--out", str(tmp_path / "r"), "--epochs", "1"]
        monkeypatch.setattr(S, "pretrain", crash)
        assert main(argv) == 1
        assert not (tmp_path / "r" / "config.json").exists()
        monkeypatch.undo()
        assert main(argv) == 0
        assert (tmp_path / "r" / "config.json").exists()

    def test_global_only_zeroes_other_columns(self, corpus, tmp_path):
        run = tmp_path / "g"
        code = main(
            [
                "pretrain",
                "--corpus",
                str(corpus),
                "--out",
                str(run),
                "--epochs",
                "1",
                "--batch-size",
                "8",
                "--loss",
                "global",
            ]
        )
        assert code == 0
        with open(run / "losses.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["L_parts"]) == 0.0
            assert float(row["L_var"]) == 0.0
            assert float(row["L_cov"]) == 0.0

    def test_losses_csv_row_on_disk_before_next_step(self, corpus, tmp_path, monkeypatch):
        run = tmp_path / "r"
        rows_on_disk = []
        step = S.pretrain_step

        def spy(*args):
            with open(run / "losses.csv") as fh:
                rows_on_disk.append(len(fh.read().splitlines()[1:]))  # rows after the header
            return step(*args)

        monkeypatch.setattr(S, "pretrain_step", spy)
        argv = ["pretrain", "--corpus", str(corpus), "--out", str(run), "--epochs", "2",
                "--batch-size", "4"]
        assert main(argv) == 0
        # 14 patches in batches of 4: 3 steps an epoch; row k is written before step k + 1
        assert rows_on_disk == list(range(6))

    def test_zero_epochs_checkpoint_equals_init(self, corpus, tmp_path):
        run = tmp_path / "z"
        code = main(
            ["pretrain", "--corpus", str(corpus), "--out", str(run), "--epochs", "0", "--seed", "5"]
        )
        assert code == 0
        groups, _ = D.load_checkpoint(run / "checkpoint")
        reference = S.SSLState(S.SSLConfig(epochs=0, seed=5))
        for key, p in reference.student.items():
            np.testing.assert_array_equal(groups["student"][key].data, p.data)

    def test_config_file_round_trip(self, corpus, pretrain_run, tmp_path):
        run = tmp_path / "r"
        code = main(
            [
                "pretrain",
                "--config",
                str(pretrain_run / "config.json"),
                "--corpus",
                str(corpus),
                "--out",
                str(run),
            ]
        )
        assert code == 0
        a = json.loads((run / "config.json").read_text())
        b = json.loads((pretrain_run / "config.json").read_text())
        assert {k: v for k, v in a.items() if k != "out"} == {
            k: v for k, v in b.items() if k != "out"
        }

    def test_config_key_without_flag_rejected(self, corpus, pretrain_run, tmp_path, capsys):
        config = json.loads((pretrain_run / "config.json").read_text())
        config.update(optimizer="sgd", symmetrize=True)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(config))
        run = tmp_path / "r"
        code = main(["pretrain", "--config", str(path), "--corpus", str(corpus), "--out", str(run)])
        assert code == 2
        assert "optimizer, symmetrize" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize(
        "name, text, says",
        [
            ("missing.json", None, "cannot read --config"),
            ("broken.json", '{"epochs": 1,', "cannot read --config"),
            ("list.json", "[1, 2]", "holds a JSON list"),
        ],
        ids=["missing", "broken", "list"],
    )
    def test_unusable_config_file_is_usage_error(self, corpus, tmp_path, capsys, name, text, says):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        run = tmp_path / "r"
        code = main(["pretrain", "--config", str(path), "--corpus", str(corpus), "--out", str(run)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and says in err and str(path) in err
        assert not run.exists()


class TestMIL:
    def test_run_artifacts(self, mil_run):
        report = json.loads((mil_run / "report.json").read_text())
        assert 0.0 <= report["mil"]["acc"] <= 1.0
        with open(mil_run / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        table = (mil_run / "report.txt").read_text()
        assert "ACC" in table and "MCC" in table

    def test_evaluate_matches_saved_report(self, corpus, mil_run, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus",
                str(corpus),
                "--mil-run",
                str(mil_run),
                "--split",
                "test",
                "--json",
                str(tmp_path / "e.json"),
            ]
        )
        assert code == 0
        saved = json.loads((mil_run / "report.json").read_text())["mil"]
        evaluated = json.loads((tmp_path / "e.json").read_text())["mil[test]"]
        assert evaluated == saved

    def test_config_file_round_trip(self, corpus, pretrain_run, mil_run, tmp_path):
        run = tmp_path / "r"
        argv = ["train-mil", "--config", str(mil_run / "config.json"), "--corpus", str(corpus),
                "--checkpoint", str(pretrain_run / "checkpoint"), "--out", str(run)]
        assert main(argv) == 0
        a = json.loads((run / "config.json").read_text())
        b = json.loads((mil_run / "config.json").read_text())
        assert {k: v for k, v in a.items() if k != "out"} == {
            k: v for k, v in b.items() if k != "out"
        }
        assert (run / "history.csv").read_text() == (mil_run / "history.csv").read_text()

    def test_checkpoint_without_student_group(self, corpus, pretrain_run, tmp_path, capsys):
        groups, meta = D.load_checkpoint(pretrain_run / "checkpoint")
        D.save_checkpoint(tmp_path / "ck", {"teacher": groups["teacher"]}, meta=meta)
        argv = ["train-mil", "--corpus", str(corpus), "--checkpoint", str(tmp_path / "ck"),
                "--out", str(tmp_path / "r")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {tmp_path / 'ck'} has no group 'student'\n"

    @pytest.mark.parametrize("command", ["evaluate", "export-attention"])
    def test_mil_run_without_mil_meta(self, corpus, pretrain_run, tmp_path, capsys, command):
        argv = [command, "--corpus", str(corpus), "--mil-run", str(pretrain_run)]
        if command == "export-attention":
            argv += ["--out", str(tmp_path / "attn")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {pretrain_run / 'checkpoint'} has no meta key 'mil'\n"

    @pytest.mark.parametrize("key,edit,message", [
        ("mil", lambda c: dict(c, optimizer="sgd"), "meta key 'mil' has unknown key 'optimizer'"),
        ("mil", lambda c: {k: v for k, v in c.items() if k != "heads"},
         "meta key 'mil' has no key 'heads'"),
        ("mil", lambda c: list(c), "meta key 'mil' is not an object"),
        ("arch", lambda c: dict(c, local_channels=8), "meta key 'arch' has a non-list 'local_channels'"),
    ])
    def test_malformed_config_meta(self, corpus, mil_run, tmp_path, capsys, key, edit, message):
        groups, meta = D.load_checkpoint(mil_run / "checkpoint")
        meta[key] = edit(meta[key])
        D.save_checkpoint(tmp_path / "run" / "checkpoint", groups, meta=meta)
        argv = ["evaluate", "--corpus", str(corpus), "--mil-run", str(tmp_path / "run")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: checkpoint {tmp_path / 'run' / 'checkpoint'} {message}\n"

    def test_export_attention(self, corpus, mil_run, tmp_path):
        out = tmp_path / "attn"
        code = main(
            [
                "export-attention",
                "--corpus",
                str(corpus),
                "--mil-run",
                str(mil_run),
                "--out",
                str(out),
                "--split",
                "test",
                "--limit",
                "2",
            ]
        )
        assert code == 0
        with open(out / "bag0000_pool_weights.csv") as fh:
            rows = list(csv.reader(fh))
        # every row after the header is a softmax over instances
        for row in rows[1:]:
            assert abs(sum(float(v) for v in row) - 1.0) < 1e-5
        pgm = (out / "bag0000_attention.pgm").read_text().splitlines()
        assert pgm[0] == "P2" and pgm[2] == "255"

    def test_export_attention_limit_embeds_only_the_blocks_it_exports(
        self, corpus, mil_run, tmp_path, monkeypatch
    ):
        read = []
        read_images = D.read_images

        def counting(corpus_dir, records):
            read.append(len(records))
            return read_images(corpus_dir, records)

        monkeypatch.setattr(D, "read_images", counting)
        monkeypatch.setattr(P, "fork_map", lambda fn, items: [fn(item) for item in items])
        monkeypatch.setattr(P, "EMBED_CHUNK", 2)  # one patch per 32-pixel image: 2-image blocks
        images_read = {}
        for limit in ("2", "3", "16"):
            read.clear()
            argv = ["export-attention", "--corpus", str(corpus), "--mil-run", str(mil_run),
                    "--out", str(tmp_path / limit), "--split", "test", "--limit", limit]
            assert main(argv) == 0
            images_read[limit] = sum(read)
        # whole blocks of the 7 test images: 3 exported images need 2 blocks
        assert images_read == {"2": 2, "3": 4, "16": 7}
        names = sorted(p.name for p in (tmp_path / "2").iterdir())
        assert len(names) == 6 and len(list((tmp_path / "16").iterdir())) == 21
        for name in names:
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "16" / name).read_bytes()

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_export_attention_limit_below_one_is_usage_error(
        self, corpus, mil_run, tmp_path, capsys, monkeypatch, limit
    ):
        def embed(*args):
            raise AssertionError("a bag was embedded")

        monkeypatch.setattr(P, "bags_from_corpus", embed)
        out = tmp_path / "attn"
        argv = ["export-attention", "--corpus", str(corpus), "--mil-run", str(mil_run),
                "--out", str(out), "--limit", limit]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"usage error: --limit must be at least 1, got {limit}\n"
        assert not out.exists()

    def test_export_attention_refuses_a_run_without_adaptive_pool(
        self, corpus, pretrain_run, tmp_path, capsys
    ):
        run = tmp_path / "max"
        argv = ["train-mil", "--corpus", str(corpus), "--checkpoint", str(pretrain_run / "checkpoint"),
                "--out", str(run), "--epochs", "1", "--pooling", "max"]
        assert main(argv) == 0
        capsys.readouterr()
        out = tmp_path / "attn"
        argv = ["export-attention", "--corpus", str(corpus), "--mil-run", str(run), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: export-attention needs an adaptive-pool run; {run} "
            "was trained with 'max' pooling\n"
        )
        assert not out.exists()

    def test_finetune_checkpoint_carries_encoder(self, corpus, pretrain_run, tmp_path):
        run = tmp_path / "ft"
        code = main(
            [
                "train-mil",
                "--corpus",
                str(corpus),
                "--checkpoint",
                str(pretrain_run / "checkpoint"),
                "--out",
                str(run),
                "--finetune",
                "--batch-size",
                "8",
                "--epochs",
                "2",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        groups, meta = D.load_checkpoint(run / "checkpoint")
        assert meta["finetuned"] is True
        assert "student" in groups and "norm" not in groups
        # evaluate must reproduce the saved report from the stored encoder
        code = main(
            [
                "evaluate",
                "--corpus",
                str(corpus),
                "--mil-run",
                str(run),
                "--split",
                "test",
                "--json",
                str(tmp_path / "ft.json"),
            ]
        )
        assert code == 0
        saved = json.loads((run / "report.json").read_text())["mil"]
        evaluated = json.loads((tmp_path / "ft.json").read_text())["mil[test]"]
        assert evaluated == saved

    def _finetune(self, corpus, pretrain_run, out, batch_size):
        return main(
            [
                "train-mil", "--corpus", str(corpus), "--checkpoint",
                str(pretrain_run / "checkpoint"), "--out", str(out), "--finetune",
                "--epochs", "1", "--batch-size", str(batch_size), "--seed", "0",
            ]
        )

    def test_finetune_uses_batch_size(self, corpus, pretrain_run, tmp_path, monkeypatch):
        sizes = []
        cross_entropy = ML.cross_entropy

        def spy(logits, labels):
            sizes.append(len(labels))
            return cross_entropy(logits, labels)

        monkeypatch.setattr(ML, "cross_entropy", spy)
        assert self._finetune(corpus, pretrain_run, tmp_path / "ft", 4) == 0
        # 14 training images: three full batches of 4, the last 2 images left out
        assert sizes == [4, 4, 4]

    def test_finetune_batch_larger_than_train_split(self, corpus, pretrain_run, tmp_path, capsys):
        assert self._finetune(corpus, pretrain_run, tmp_path / "ft", 32) == 2
        assert "exceeds the 14 training images" in capsys.readouterr().err


# Runs the CLI with the epoch loop ending the process after its second epoch's record.
DIES_AFTER_TWO_EPOCHS = """
import os, sys
from patchmil import mil
from patchmil.cli import main

def dying(progress):
    def log(record):
        progress(record)
        if record["epoch"] == 1:
            os._exit(3)
    return log

train_epochs = mil.train_epochs
mil.train_epochs = lambda *args: train_epochs(*args[:-1], dying(args[-1]))
sys.exit(main(sys.argv[1:]))
"""


class TestKilledRun:
    @pytest.mark.parametrize("flags", [[], ["--finetune", "--batch-size", "8"]])
    def test_history_parses_to_the_last_epoch(self, corpus, pretrain_run, tmp_path, flags):
        run = tmp_path / "run"
        argv = ["train-mil", "--corpus", str(corpus), "--checkpoint",
                str(pretrain_run / "checkpoint"), "--out", str(run), "--epochs", "4", *flags]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen([sys.executable, "-c", DIES_AFTER_TWO_EPOCHS, *argv], env=env,
                                start_new_session=True, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=300)
        finally:
            proc.kill()
        assert proc.returncode == 3, err
        assert not (run / "config.json").exists()
        with open(run / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["epoch"] for row in rows] == ["0", "1"]
        assert all(row["loss"] and row["val_acc"] for row in rows)


@pytest.fixture(scope="module")
def ablate_run(tmp_path_factory, corpus):
    run = tmp_path_factory.mktemp("runs") / "ablate"
    argv = ["ablate", "--corpus", str(corpus), "--out", str(run), "--epochs", "1"]
    argv += ["--batch-size", "8", "--momentum", "0.9", "--seed", "2"]
    assert main(argv) == 0
    return run


class TestAblate:
    def test_ablate_rows(self, ablate_run):
        report = json.loads((ablate_run / "report.json").read_text())
        assert len(report) == 11
        assert set(report) == {
            "linear probe (random init)",
            "pretraining loss [global]",
            "pretraining loss [global+parts]",
            "pretraining loss [global+var+cov]",
            "pretraining loss [global+parts+var+cov]",
            "ours + adaptive pool",
            "ours + max pool",
            "ours + mean pool",
            "ours + soft pool",
            "ours + gated_attention pool",
            "ours + adaptive pool, no position bias",
        }
        stages = json.loads((ablate_run / "stages.json").read_text())
        assert list(stages) == list(P.ABLATION_STAGES)
        assert all(sec >= 0 for sec in stages.values())
        assert json.loads((ablate_run / "config.json").read_text())["command"] == "ablate"

    def test_ablate_equals_runner(self, corpus, ablate_run):
        arch = bb.ArchConfig()
        ssl_cfg = S.SSLConfig(
            arch=arch,
            weights=S.LossWeights(momentum=0.9),
            epochs=1,
            batch_size=8,
            seed=2,
        )
        mil_cfg = ML.MILConfig(feature_dim=arch.feature_dim, epochs=1, batch_size=8, seed=2)
        report, _ = P.ablation(corpus, ssl_cfg, mil_cfg, finetune_epochs=1, finetune_lr=3e-3)
        saved = json.loads((ablate_run / "report.json").read_text())
        assert saved == json.loads(MM.report_json(report))

    def test_removed_flags_rejected(self, corpus, tmp_path):
        for flag in (["--axis", "all"], ["--checkpoint", "x"], ["--loss", "global"],
                     ["--pooling", "mean"], ["--no-position-bias"]):
            with pytest.raises(SystemExit) as exc:
                main(["ablate", "--corpus", str(corpus), "--out", str(tmp_path / "r"), *flag])
            assert exc.value.code == 2
