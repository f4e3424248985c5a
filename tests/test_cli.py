"""End-to-end command-line behavior on a miniature corpus."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from patchmil import backbone as bb
from patchmil import data as D
from patchmil import selfsup as S
from patchmil.cli import main


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

    def test_ablate_pooling_needs_checkpoint(self, corpus, tmp_path):
        code = main(
            [
                "ablate",
                "--corpus",
                str(corpus),
                "--axis",
                "pooling",
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 2


class TestGenerateData:
    def test_same_seed_same_checksum(self, tmp_path):
        args = ["generate-data", "--counts", "1,1,1", "--magnifications", "10", "--side", "32"]
        assert main(args + ["--out", str(tmp_path / "a"), "--seed", "3"]) == 0
        assert main(args + ["--out", str(tmp_path / "b"), "--seed", "3"]) == 0
        assert D.index_checksum(tmp_path / "a") == D.index_checksum(tmp_path / "b")

    def test_env_var_supplies_corpus(self, corpus, monkeypatch, tmp_path):
        monkeypatch.setenv("PATCHMIL_CORPUS", str(corpus))
        assert main(["linear-probe", "--random-init", "--json", str(tmp_path / "p.json")]) == 0
        report = json.loads((tmp_path / "p.json").read_text())
        assert set(report["linear_probe"]) == {"acc", "f1", "mcc", "precision"}


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

    def test_ablate_pooling_rows(self, corpus, pretrain_run, tmp_path):
        run = tmp_path / "ab"
        code = main(
            [
                "ablate",
                "--corpus",
                str(corpus),
                "--axis",
                "pooling",
                "--checkpoint",
                str(pretrain_run / "checkpoint"),
                "--out",
                str(run),
                "--epochs",
                "1",
            ]
        )
        assert code == 0
        report = json.loads((run / "report.json").read_text())
        assert set(report) == {
            "ours + adaptive pool",
            "ours + max pool",
            "ours + mean pool",
            "ours + soft pool",
            "ours + gated_attention pool",
        }
