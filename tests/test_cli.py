import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pageorder
from pageorder.cli import main
from pageorder.models import Arch
from pageorder.training import read_training_log


def run_cli(*argv) -> int:
    return main(list(argv))


TINY_CONFIG = {
    "corpus": {"n_docs": 100, "dim": 16, "chrono_dim": 4, "seed": 5},
    "train": {"epochs": 2, "batch_size": 8},
}


def weight_factor_config(tmp_path, value) -> str:
    """``TINY_CONFIG`` with ``train.weight_factor`` set to ``value``."""
    cfg = tmp_path / "weighted.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "weight_factor": value}}))
    return str(cfg)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    assert run_cli("gen", "--config", str(cfg), "--out", str(root / "gen")) == 0
    return root


@pytest.fixture(scope="module")
def corpus_path(workdir):
    return workdir / "gen" / "corpus.jsonl"


@pytest.fixture(scope="module")
def no_long_corpus(tmp_path_factory):
    """60 documents without a 21-25 page one; its ``cfg.json`` trains 4 epochs, enough for a curriculum."""
    root = tmp_path_factory.mktemp("no_long")
    cfg = root / "cfg.json"
    corpus = {"n_docs": 60, "dim": 16, "chrono_dim": 4, "seed": 5, "length_weights": [1, 1, 1, 1, 0]}
    cfg.write_text(json.dumps({"corpus": corpus, "train": {"epochs": 4, "batch_size": 8}}))
    assert run_cli("gen", "--config", str(cfg), "--out", str(root / "gen")) == 0
    return root / "gen" / "corpus.jsonl"


class TestGen:
    def test_writes_corpus_and_config_echo(self, workdir):
        assert (workdir / "gen" / "corpus.jsonl").exists()
        echoed = json.loads((workdir / "gen" / "effective_config.json").read_text())
        assert echoed["corpus"]["n_docs"] == 100
        assert echoed["run"]["command"] == "gen"

    def test_same_seed_same_digest(self, workdir, tmp_path):
        cfg = workdir / "cfg.json"
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "again")) == 0
        d1 = hashlib.sha256((workdir / "gen" / "corpus.jsonl").read_bytes()).hexdigest()
        d2 = hashlib.sha256((tmp_path / "again" / "corpus.jsonl").read_bytes()).hexdigest()
        assert d1 == d2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"corpus": {"n_docs": 10, "bogus_knob": 3}}))
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"train": 5},
            {"corpus": {"n_docs": "90"}},
            {"train": {"epochs": 2.0}},
            {"train": {"lr": True}},
            {"corpus": {"length_weights": 1.0}},
            {"corpus": {"length_weights": ["a", 1, 1, 1, 1]}},
            {"train": {"lr": None}},
        ],
        ids=[
            "section_not_object",
            "int_as_string",
            "float_for_int",
            "bool_for_float",
            "number_for_array",
            "string_in_number_array",
            "null_for_number",
        ],
    )
    def test_wrong_json_type_is_usage_error(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        section, value = next(iter(bad.items()))
        key = section if not isinstance(value, dict) else f"{section}.{next(iter(value))}"
        assert f"config key {key} " in capsys.readouterr().err

    def test_int_where_float_is_accepted(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "train": {"lr": 1}}))
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize(
        "text",
        [
            b"\xff\xfe{}",
            b'{"corpus": {"length_weights": [Infinity, 1, 1, 1, 1]}}',
            b'{"train": {"lr": Infinity}}',
            b'{"train": {"clip_norm": -Infinity}}',
            b'{"train": {"lr": NaN}}',
        ],
        ids=["not_utf8", "infinity_weight", "infinity_lr", "minus_infinity", "nan"],
    )
    def test_non_json_config_file_is_usage_error(self, corpus_path, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text)
        out = tmp_path / "o"
        assert run_cli("gen", "--config", str(cfg), "--out", str(out)) == 2
        assert run_cli("train", "--config", str(cfg), "--corpus", str(corpus_path), "--arch", "pairwise",
                       "--out", str(out)) == 2
        assert "config file " in capsys.readouterr().err
        assert not out.exists()

    def test_effective_config_feeds_back_byte_identical(self, workdir, tmp_path):
        echoed = json.loads((workdir / "gen" / "effective_config.json").read_text())
        del echoed["run"]
        cfg = tmp_path / "echoed.json"
        cfg.write_text(json.dumps(echoed))
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "again")) == 0
        again = (tmp_path / "again" / "effective_config.json").read_bytes()
        assert again == (workdir / "gen" / "effective_config.json").read_bytes()

    def test_seed_flag_is_echoed_and_reproduces_the_corpus(self, workdir, tmp_path):
        assert run_cli("gen", "--config", str(workdir / "cfg.json"), "--seed", "3", "--out", str(tmp_path / "s3")) == 0
        echoed = json.loads((tmp_path / "s3" / "effective_config.json").read_text())
        del echoed["run"]
        cfg = tmp_path / "echoed.json"
        cfg.write_text(json.dumps(echoed))
        assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "again")) == 0
        assert (tmp_path / "again" / "corpus.jsonl").read_bytes() == (tmp_path / "s3" / "corpus.jsonl").read_bytes()

    def test_gen_and_bench_without_config_print_one_digest(self, workdir, tmp_path, capsys):
        assert run_cli("gen", "--config", str(workdir / "cfg.json"), "--out", str(tmp_path / "g")) == 0
        digest = json.loads((tmp_path / "g" / "effective_config.json").read_text())["run"]["corpus_digest"]
        assert f"(digest {digest})" in capsys.readouterr().out
        corpus = str(tmp_path / "g" / "corpus.jsonl")
        assert run_cli("bench", "--corpus", corpus, "--models", "random", "--out", str(tmp_path / "b")) == 0
        assert f"corpus digest: {digest}" in capsys.readouterr().out
        assert (tmp_path / "b" / "report.csv").read_text().splitlines()[0] == f"# corpus_digest,{digest}"

    def test_missing_out_flag_exits_2(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--config", str(workdir / "cfg.json"))
        assert exc.value.code == 2


class TestNegativeSeeds:
    COMMANDS = ["gen", "train", "bench", "transfer"]

    @staticmethod
    def argv(command, corpus_path, out) -> list[str]:
        inputs = [] if command == "gen" else ["--corpus", str(corpus_path)]
        arch = ["--arch", "pointer_mlp"] if command == "train" else []
        return [command, *inputs, *arch, "--out", str(out)]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_seed_flag_is_usage_error(self, corpus_path, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run_cli(*self.argv(command, corpus_path, out), "--seed", "-1") == 2
        section = "corpus" if command == "gen" else "train"
        assert f"config key {section}.seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "corpus.seed", "model.seed", "train.seed", "bench.eval_seed"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_seed_is_usage_error(self, corpus_path, tmp_path, capsys, command, key):
        section, _, name = key.rpartition(".")
        cfg = tmp_path / "negative.json"
        cfg.write_text(json.dumps({section: {name: -3}} if section else {name: -3}))
        out = tmp_path / "out"
        assert run_cli(*self.argv(command, corpus_path, out), "--config", str(cfg)) == 2
        assert f"config key {key} must be a non-negative integer, got -3" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_log(self, workdir, corpus_path, tmp_path):
        out = tmp_path / "train"
        code = run_cli(
            "train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
            "--arch", "pairwise", "--out", str(out),
        )
        assert code == 0
        assert (out / "model.ckpt").exists()
        rows = read_training_log(out / "log.csv")
        assert [r["epoch"] for r in rows] == [0, 1]

    def test_seed_flag_is_echoed(self, workdir, corpus_path, tmp_path):
        out = tmp_path / "train"
        code = run_cli(
            "train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
            "--arch", "pointer_mlp", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "effective_config.json").read_text())["train"]["seed"] == 5

    def test_curriculum_without_target_bucket_is_config_error(self, workdir, corpus_path, tmp_path):
        code = run_cli(
            "train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
            "--arch", "pairwise", "--strategy", "specialized_curriculum", "--out", str(tmp_path / "t"),
        )
        assert code == 2

    def test_curriculum_too_short_for_its_epochs_creates_no_out(self, workdir, corpus_path, tmp_path, capsys):
        out = tmp_path / "t"
        code = run_cli(
            "train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path), "--arch", "pairwise",
            "--strategy", "specialized_curriculum", "--target-bucket", "6-10", "--out", str(out),
        )
        assert code == 2
        assert "curriculum needs at least 4 epochs, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_curriculum_stage_without_documents_fails_before_training(self, no_long_corpus, tmp_path, capsys):
        out = tmp_path / "t"
        code = run_cli(
            "train", "--config", str(no_long_corpus.parent.parent / "cfg.json"), "--corpus", str(no_long_corpus),
            "--arch", "pairwise", "--strategy", "specialized_curriculum", "--target-bucket", "21-25", "--out", str(out),
        )
        assert code == 2
        assert "no training documents with 21-25 pages" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_continues_tau_series(self, workdir, corpus_path, tmp_path):
        cfg = workdir / "cfg.json"
        first = tmp_path / "first"
        assert run_cli("train", "--config", str(cfg), "--corpus", str(corpus_path), "--arch", "bilstm_pos", "--out", str(first)) == 0
        resumed = tmp_path / "resumed"
        code = run_cli(
            "train", "--config", str(cfg), "--corpus", str(corpus_path), "--arch", "bilstm_pos",
            "--resume", str(first / "model.ckpt"), "--out", str(resumed),
        )
        assert code == 0
        original = read_training_log(first / "log.csv")
        merged = read_training_log(resumed / "log.csv")
        assert [r["epoch"] for r in merged] == [0, 1, 2, 3]
        assert merged[:2] == original

    def test_resume_rejects_other_positional_encoding(self, workdir, corpus_path, tmp_path, capsys):
        cfg = workdir / "cfg.json"
        args = ("train", "--config", str(cfg), "--corpus", str(corpus_path))
        # (row trained, row requested on resume, what the error must name)
        cases = [
            ("seq2seq_learned", "seq2seq_none", ("learned", "seq2seq_none")),
            ("pairwise", "pointer_mlp", ("pairwise_rank", "pointer_mlp")),
        ]
        for trained, requested, named in cases:
            first = tmp_path / trained
            assert run_cli(*args, "--arch", trained, "--out", str(first)) == 0
            capsys.readouterr()
            resumed = tmp_path / f"{trained}-as-{requested}"
            code = run_cli(*args, "--arch", requested, "--resume", str(first / "model.ckpt"), "--out", str(resumed))
            assert code == 2
            err = capsys.readouterr().err
            assert all(name in err for name in named), err
            assert not (resumed / "effective_config.json").exists()

    def test_resume_on_a_corpus_of_another_width_is_config_error(self, workdir, corpus_path, tmp_path, capsys):
        first = tmp_path / "first"
        args = ("train", "--config", str(workdir / "cfg.json"), "--arch", "pointer_mlp")
        assert run_cli(*args, "--corpus", str(corpus_path), "--out", str(first)) == 0
        wide_cfg = tmp_path / "wide.json"
        wide_cfg.write_text(json.dumps({**TINY_CONFIG, "corpus": {**TINY_CONFIG["corpus"], "dim": 24}}))
        assert run_cli("gen", "--config", str(wide_cfg), "--out", str(tmp_path / "wide")) == 0
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        wide_corpus = str(tmp_path / "wide" / "corpus.jsonl")
        code = run_cli(*args, "--corpus", wide_corpus, "--resume", str(first / "model.ckpt"), "--out", str(resumed))
        assert code == 2
        assert "embedding dim 24 != model input_dim 16" in capsys.readouterr().err
        assert not resumed.exists()

    def test_target_bucket_label_and_enum_name_train_alike(self, workdir, corpus_path, tmp_path):
        args = ("train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path), "--arch", "pointer_mlp")
        for label in ("6-10", "B6_10"):
            code = run_cli(
                *args, "--strategy", "specialized_direct", "--target-bucket", label, "--out", str(tmp_path / label)
            )
            assert code == 0
        assert (tmp_path / "6-10" / "log.csv").read_bytes() == (tmp_path / "B6_10" / "log.csv").read_bytes()

    def test_unknown_target_bucket_is_usage_error(self, workdir, corpus_path, tmp_path, capsys):
        code = run_cli(
            "train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path), "--arch", "pointer_mlp",
            "--strategy", "specialized_direct", "--target-bucket", "7-9", "--out", str(tmp_path / "t"),
        )
        assert code == 2
        assert "'7-9'" in capsys.readouterr().err

    def test_target_bucket_under_universal_is_usage_error(self, workdir, corpus_path, tmp_path, capsys):
        out = tmp_path / "t"
        code = run_cli(
            "train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path), "--arch", "pointer_mlp",
            "--target-bucket", "21-25", "--out", str(out),
        )
        assert code == 2
        assert "--target-bucket" in capsys.readouterr().err
        assert not out.exists()

    def test_specialist_run_echoes_its_target_bucket(self, workdir, corpus_path, tmp_path):
        out = tmp_path / "t"
        code = run_cli(
            "train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path), "--arch", "pointer_mlp",
            "--strategy", "specialized_direct", "--target-bucket", "B6_10", "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "effective_config.json").read_text())["run"] == {
            "command": "train", "arch": "pointer_mlp", "strategy": "specialized_direct", "target_bucket": "6-10",
        }

    @pytest.mark.parametrize(
        "strategy_flags",
        [(), ("--strategy", "specialized_curriculum", "--target-bucket", "6-10")],
        ids=["universal", "specialized_curriculum"],
    )
    def test_weight_factor_outside_specialized_direct_is_usage_error(
        self, corpus_path, tmp_path, capsys, strategy_flags
    ):
        out = tmp_path / "t"
        code = run_cli(
            "train", "--config", weight_factor_config(tmp_path, 3.0), "--corpus", str(corpus_path),
            "--arch", "pointer_mlp", *strategy_flags, "--out", str(out),
        )
        assert code == 2
        assert "train.weight_factor" in capsys.readouterr().err
        assert not out.exists()

    def test_weight_factor_is_accepted_where_it_applies(self, corpus_path, tmp_path):
        direct = tmp_path / "direct"
        code = run_cli(
            "train", "--config", weight_factor_config(tmp_path, 3.0), "--corpus", str(corpus_path),
            "--arch", "pointer_mlp", "--strategy", "specialized_direct", "--target-bucket", "6-10",
            "--out", str(direct),
        )
        assert code == 0
        assert json.loads((direct / "effective_config.json").read_text())["train"]["weight_factor"] == 3.0
        # the default value, written out, changes nothing, so a universal run accepts it
        code = run_cli(
            "train", "--config", weight_factor_config(tmp_path, 5.0), "--corpus", str(corpus_path),
            "--arch", "pointer_mlp", "--out", str(tmp_path / "universal"),
        )
        assert code == 0

    def test_wrong_arch_flag_exits_2(self, workdir, corpus_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
                    "--arch", "not_a_model", "--out", str(tmp_path / "x"))
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def bench_out(workdir, corpus_path):
    out = workdir / "bench"
    code = run_cli(
        "bench", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
        "--models", "random,tsp_nn,pairwise", "--out", str(out),
    )
    assert code == 0
    return out


class TestBench:
    def test_outputs_exist(self, bench_out):
        assert (bench_out / "report.csv").exists()
        assert (bench_out / "report.txt").exists()
        assert sorted(p.name for p in (bench_out / "figures").iterdir()) == [
            "figure1_tau_by_method_and_length.csv",
            "figure2_short_vs_long.csv",
            "figure3_pe_ablation.csv",
            "figure4_training_stability.csv",
        ]

    def test_rerun_byte_identical(self, workdir, corpus_path, bench_out, tmp_path):
        again = tmp_path / "bench2"
        code = run_cli(
            "bench", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
            "--models", "random,tsp_nn,pairwise", "--out", str(again),
        )
        assert code == 0
        for rel in ["report.csv", "report.txt"] + [f"figures/{p.name}" for p in (bench_out / "figures").iterdir()]:
            assert (bench_out / rel).read_bytes() == (again / rel).read_bytes(), rel

    def test_figures_command_round_trips(self, bench_out, tmp_path):
        out = tmp_path / "figs"
        assert run_cli("figures", "--report", str(bench_out), "--out", str(out)) == 0
        for p in out.iterdir():
            assert (bench_out / "figures" / p.name).read_bytes() == p.read_bytes()

    def test_models_flag_is_echoed_and_reproduces_the_report(self, bench_out, corpus_path, tmp_path):
        echoed = json.loads((bench_out / "effective_config.json").read_text())
        assert echoed["bench"]["models"] == ["random", "tsp_nn", "pairwise"]
        del echoed["run"]
        cfg = tmp_path / "echoed.json"
        cfg.write_text(json.dumps(echoed))
        assert run_cli("bench", "--config", str(cfg), "--corpus", str(corpus_path), "--out", str(tmp_path / "again")) == 0
        assert (tmp_path / "again" / "report.csv").read_bytes() == (bench_out / "report.csv").read_bytes()

    def test_jobs_flag_does_not_change_outputs(self, workdir, corpus_path, tmp_path):
        outs = []
        for jobs in ("2", "1"):
            out = tmp_path / f"jobs{jobs}"
            code = run_cli(
                "bench", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
                "--models", "pointer_mlp,pairwise", "--jobs", jobs, "--out", str(out),
            )
            assert code == 0
            outs.append(out)
        logs = sorted(p.name for p in (outs[0] / "logs").iterdir())
        assert logs == ["pairwise.csv", "pointer_mlp.csv"]
        for rel in ["report.csv"] + [f"logs/{name}" for name in logs]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_weight_factor_without_specialized_direct_is_usage_error(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "b"
        code = run_cli(
            "bench", "--config", weight_factor_config(tmp_path, 3.0), "--corpus", str(corpus_path),
            "--models", "pairwise", "--out", str(out),
        )
        assert code == 2
        assert "train.weight_factor" in capsys.readouterr().err
        assert not out.exists()

    def test_weight_factor_reaches_a_menu_with_specialized_direct(self, corpus_path, tmp_path, monkeypatch, capsys):
        # the value must pass the check and reach the benchmark; running it would train five specialists
        seen = {}

        def stop_at_benchmark(splits, menu, train_cfg, **kwargs):
            seen.update(menu=menu, weight_factor=train_cfg.weight_factor)
            raise RuntimeError("benchmark reached")

        monkeypatch.setattr("pageorder.cli.run_benchmark", stop_at_benchmark)
        code = run_cli(
            "bench", "--config", weight_factor_config(tmp_path, 3.0), "--corpus", str(corpus_path),
            "--models", "random,specialized_direct", "--out", str(tmp_path / "b"),
        )
        assert code == 1 and "benchmark reached" in capsys.readouterr().err
        assert seen == {"menu": ("random", "specialized_direct"), "weight_factor": 3.0}

    def test_weight_factor_reaches_the_all_menu(self, corpus_path, tmp_path, monkeypatch, capsys):
        # "all" holds specialized_direct, so the factor applies
        def stop_at_benchmark(splits, menu, train_cfg, **kwargs):
            raise RuntimeError(f"benchmark reached with weight_factor {train_cfg.weight_factor}")

        monkeypatch.setattr("pageorder.cli.run_benchmark", stop_at_benchmark)
        code = run_cli(
            "bench", "--config", weight_factor_config(tmp_path, 3.0), "--corpus", str(corpus_path),
            "--models", "all", "--out", str(tmp_path / "b"),
        )
        assert code == 1 and "benchmark reached with weight_factor 3.0" in capsys.readouterr().err

    def test_report_digest_ignores_the_config_corpus_section(self, corpus_path, tmp_path):
        reports = []
        for seed in (5, 6):
            cfg = tmp_path / f"cfg{seed}.json"
            cfg.write_text(json.dumps({**TINY_CONFIG, "corpus": {**TINY_CONFIG["corpus"], "seed": seed, "dim": 32}}))
            out = tmp_path / f"b{seed}"
            assert run_cli("bench", "--config", str(cfg), "--corpus", str(corpus_path), "--models", "random,tsp_nn",
                           "--out", str(out)) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "models, corpus, error",
        [
            ("random,pairwise,specialized_curriculum", "corpus_path", "curriculum needs at least 4 epochs, got 2"),
            ("random,specialized_direct", "no_long_corpus", "need test documents in both the 2-5 and 21-25 buckets"),
            ("random,pointer_mlp,specialized_curriculum", "no_long_corpus", "no training documents with 21-25 pages"),
        ],
        ids=["curriculum_too_short", "no_locality_test_documents", "curriculum_stage_without_documents"],
    )
    def test_plan_the_data_cannot_serve_fails_before_any_row(self, request, tmp_path, capsys, models, corpus, error):
        corpus = request.getfixturevalue(corpus)
        cfg = corpus.parent.parent / "cfg.json"  # written beside the gen output directory
        out = tmp_path / "b"
        code = run_cli("bench", "--config", str(cfg), "--corpus", str(corpus), "--models", models, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert error in err and "configuration" not in err
        assert not out.exists()

    def test_empty_menu_exits_2(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "empty_menu.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "bench": {"models": []}}))
        out = tmp_path / "b"
        assert run_cli("bench", "--config", str(cfg), "--corpus", str(corpus_path), "--out", str(out)) == 2
        assert "the benchmark menu names no configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_model_name_exits_2(self, workdir, corpus_path, tmp_path):
        code = run_cli(
            "bench", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
            "--models", "warp_drive", "--out", str(tmp_path / "b"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "models, repeated", [("random,random", "random"), ("pointer_mlp,tsp_nn,pointer_mlp", "pointer_mlp")]
    )
    def test_repeated_model_name_exits_2(self, workdir, corpus_path, tmp_path, capsys, models, repeated):
        out = tmp_path / "b"
        code = run_cli(
            "bench", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
            "--models", models, "--out", str(out),
        )
        assert code == 2
        # the one stderr line is the error: no row started
        expected = f"config error: benchmark configurations named more than once: ['{repeated}']\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()


@pytest.mark.parametrize(
    "command, n_docs",
    [
        (["bench"], 2),
        (["train", "--arch", "pointer_mlp"], 2),
        (["transfer"], 2),
        (["bench", "--models", "random,tsp_nn"], 6),
    ],
    ids=["bench", "train", "transfer", "bench-6"],
)
def test_corpus_too_small_to_split_exits_2(workdir, corpus_path, tmp_path, capsys, command, n_docs):
    # 6 documents leave the validation and test splits empty, 2 cannot even be split
    small = tmp_path / "small.jsonl"
    small.write_text("".join(corpus_path.read_text().splitlines(keepends=True)[:n_docs]))
    out = tmp_path / "out"
    code = run_cli(*command, "--config", str(workdir / "cfg.json"), "--corpus", str(small), "--out", str(out))
    assert code == 2
    assert f"config error: cannot split {n_docs} documents three ways" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--config", "{tmp}/nope.json"],
        ["bench", "--corpus", "{tmp}/nope.jsonl"],
        ["train", "--corpus", "{corpus}", "--arch", "pointer_mlp", "--resume", "{tmp}/nope.ckpt"],
        ["figures", "--report", "{tmp}/nowhere"],
    ],
    ids=["gen-config", "bench-corpus", "train-resume", "figures-report"],
)
def test_missing_input_file_exits_2(corpus_path, tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = run_cli(*[a.format(tmp=tmp_path, corpus=corpus_path) for a in argv], "--out", str(out))
    assert code == 2
    assert "config error: [Errno 2] No such file or directory" in capsys.readouterr().err
    assert not out.exists()


class TestGradcheckCommand:
    def test_gate_passes(self, capsys):
        assert run_cli("gradcheck") == 0
        out = capsys.readouterr().out
        assert "gradient gate passed" in out
        checked = [line.split()[0] for line in out.splitlines()[:-1]]
        assert {"attention", "attention_masked", "layer_norm"} <= set(checked), checked
        assert [name for name in checked if name.startswith("loss_")] == [f"loss_{arch.value}" for arch in Arch]

    def test_impossible_tolerance_fails(self, capsys):
        assert run_cli("gradcheck", "--tolerance", "0") == 1

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_no_error_can_exceed_is_usage_error(self, capsys, tolerance):
        # rel > nan and rel > inf are never true, and rel > -1 always is
        assert run_cli("gradcheck", "--tolerance", tolerance) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be a finite non-negative number" in captured.err


class TestTransferCommand:
    def test_writes_transfer_csv(self, workdir, corpus_path, tmp_path):
        out = tmp_path / "transfer"
        code = run_cli(
            "transfer", "--config", str(workdir / "cfg.json"), "--corpus", str(corpus_path),
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "transfer.csv").read_text().splitlines()
        assert lines[0] == "tau_in_domain,tau_transfer,n_train_docs,reference_in_domain,reference_transfer"
        cells = lines[1].split(",")
        assert cells[3] == "0.8817" and cells[4] == "0.1618"

    def test_weight_factor_is_usage_error(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "transfer"
        code = run_cli(
            "transfer", "--config", weight_factor_config(tmp_path, 3.0), "--corpus", str(corpus_path),
            "--out", str(out),
        )
        assert code == 2
        assert "train.weight_factor" in capsys.readouterr().err
        assert not out.exists()


def test_import_loads_no_network_stack():
    """The lab makes no network calls, so importing the CLI must not load an HTTP, TLS, socket or e-mail module."""
    src = Path(pageorder.__file__).parents[1]
    probe = "import sys, pageorder.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout.split()
    network = ("http", "ssl", "socket", "email", "urllib.request")
    assert [m for m in loaded if m in network or m.startswith(tuple(f"{n}." for n in network))] == []
