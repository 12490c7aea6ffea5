"""Command-line surface: gen, train, bench, figures, gradcheck, transfer.

Every command is driven by a JSON config file (unknown keys are errors)
plus a few overriding flags, and echoes its effective configuration into
the output directory so a run can be reproduced from its artifacts.
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .bench import (
    emit_figures,
    locality_experiment,
    read_report_csv,
    render_report_text,
    run_benchmark,
    transfer_experiment,
    write_report_csv,
)
from .bench.run import (
    ARCH_ROWS,
    REFERENCE_LOCAL_LONG,
    REFERENCE_LOCAL_SHORT,
    REFERENCE_LOCALITY_RATIO,
    REFERENCE_TRANSFER,
    REFERENCE_TRANSFER_IN_DOMAIN,
    locality_test_docs,
    menu_rows,
)
from .corpus import (
    CorpusConfig,
    LengthBucket,
    bucket_of,
    corpus_digest,
    generate_corpus,
    load_corpus,
    save_corpus,
    split_corpus,
)
from .errors import ConfigError, DomainError
from .fileio import atomic_write
from .gradgate import run_gradient_gate
from .models import ArchMismatchError, build_model, desk_config, load_checkpoint, save_checkpoint
from .training import (
    Strategy,
    TrainConfig,
    fit,
    read_training_log,
    write_training_log,
)

# Config keys and defaults are the dataclass fields; strategy and target
# bucket come from flags. The CLI trains from seed 7, not TrainConfig's 0.
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "corpus": asdict(CorpusConfig()),
    "model": {"seed": 1},
    "train": {
        **{f.name: f.default for f in fields(TrainConfig) if f.name not in ("strategy", "target_bucket")},
        "seed": 7,
    },
    "bench": {"models": ["all"], "eval_seed": 99},
}

_JSON_TYPES = {
    bool: "boolean", int: "integer", float: "number", str: "string", list: "array", dict: "object", type(None): "null"
}


def _check_json_type(default, value, name: str) -> None:
    """``value`` must have ``default``'s JSON type, and each array item the type of the default's items.

    An integer fits where the default is a number.
    """
    expected = _JSON_TYPES[type(default)]
    got = _JSON_TYPES[type(value)]
    if got != expected and (expected, got) != ("number", "integer"):
        raise ConfigError(f"config key {name} must be a JSON {expected}, got {got}")
    if isinstance(default, list) and default:
        for i, item in enumerate(value):
            _check_json_type(default[0], item, f"{name} item {i}")


def _merge_section(defaults: dict, overrides: dict, path: str) -> dict:
    """Override ``defaults`` key by key; each value keeps its default's JSON type."""
    merged = dict(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key}")
        default = defaults[key]
        _check_json_type(default, value, f"{path}{key}")
        merged[key] = _merge_section(default, value, f"{path}{key}.") if isinstance(default, dict) else value
    return merged


def _reject_constant(name: str):
    raise ConfigError(f"config file holds {name}, which is not JSON")


def load_config(path: str | None) -> dict:
    # the JSON form: asdict leaves length_weights a tuple, which JSON reads back as an array
    defaults = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is None:
        return defaults
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return _merge_section(defaults, raw, "")


def _reject_negative_seeds(config: dict, path: str = "") -> None:
    """Every ``seed`` or ``*_seed`` key must hold a non-negative integer, as the random streams require."""
    for key, value in config.items():
        if isinstance(value, dict):
            _reject_negative_seeds(value, f"{path}{key}.")
        elif (key == "seed" or key.endswith("_seed")) and value < 0:
            raise ConfigError(f"config key {path}{key} must be a non-negative integer, got {value}")


def _config_with_seed(args: argparse.Namespace, section: str) -> dict:
    """The command's config, with ``--seed`` (when given) written into ``{section}.seed``, so the echo records it."""
    config = load_config(args.config)
    if args.seed is not None:
        config[section]["seed"] = args.seed
    _reject_negative_seeds(config)
    return config


def _echo_config(config: dict, out_dir: Path, run: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write(out_dir / "effective_config.json", json.dumps({**config, "run": run}, indent=2, sort_keys=True) + "\n")


def _reject_ignored_weight_factor(config: dict, run: str) -> None:
    """``train.weight_factor`` weights only ``specialized_direct`` training, so ``run`` would ignore a non-default value."""
    value = config["train"]["weight_factor"]
    if value != DEFAULT_CONFIG["train"]["weight_factor"]:
        raise ConfigError(f"train.weight_factor {value} applies only to the specialized_direct strategy, not {run}")


def _bucket_from_label(label: str) -> LengthBucket:
    for bucket in LengthBucket:
        if bucket.label == label or bucket.name == label:
            return bucket
    raise ConfigError(f"unknown length bucket {label!r} (use e.g. 6-10)")


def _print_histogram(docs) -> None:
    counts = {b: 0 for b in LengthBucket}
    for d in docs:
        counts[bucket_of(d.n_pages)] += 1
    total = max(1, len(docs))
    print("bucket  docs  share")
    for b in LengthBucket:
        print(f"{b.label:>6}  {counts[b]:>4}  {counts[b] / total:6.1%}")


def cmd_gen(args: argparse.Namespace) -> int:
    config = _config_with_seed(args, "corpus")
    out = Path(args.out)
    section = config["corpus"]
    docs = generate_corpus(CorpusConfig(**{**section, "length_weights": tuple(section["length_weights"])}))
    digest = corpus_digest(docs)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(docs, out / "corpus.jsonl")
    _echo_config(config, out, {"command": "gen", "corpus_digest": digest})
    print(f"wrote {len(docs)} documents to {out / 'corpus.jsonl'} (digest {digest})")
    _print_histogram(docs)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_with_seed(args, "train")
    docs = load_corpus(args.corpus)
    splits = split_corpus(docs, seed=config["seed"])
    strategy = Strategy(args.strategy)
    if args.target_bucket and strategy is Strategy.UNIVERSAL:
        raise ConfigError("--target-bucket applies only to the specialized strategies, not universal")
    if strategy is not Strategy.SPECIALIZED_DIRECT:
        _reject_ignored_weight_factor(config, strategy.value)
    target = _bucket_from_label(args.target_bucket) if args.target_bucket else None
    train_cfg = TrainConfig(strategy=strategy, target_bucket=target, **config["train"])
    arch, pe = ARCH_ROWS[args.arch]

    prior_history: list[dict] = []
    if args.resume:
        model = load_checkpoint(args.resume)
        held = (model.config.arch, model.config.pe_variant)
        if held != (arch, pe):
            raise ArchMismatchError(
                f"checkpoint holds {held[0].value}/{held[1].value}, requested {args.arch} ({arch.value}/{pe.value})"
            )
        log_path = Path(args.resume).with_name("log.csv")
        if log_path.exists():
            prior_history = read_training_log(log_path)
    else:
        model_cfg = desk_config(arch, input_dim=docs[0].dim, seed=config["model"]["seed"], pe_variant=pe)
        model = build_model(model_cfg)

    result = fit(model, splits[0], splits[1], train_cfg)
    for row in result.history:
        row["epoch"] += len(prior_history)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "model.ckpt")
    write_training_log(prior_history + result.history, out / "log.csv")
    run = {"command": "train", "arch": args.arch, "strategy": strategy.value}
    if target is not None:
        run["target_bucket"] = target.label
    _echo_config(config, out, run)
    best = max(r["val_tau_overall"] for r in result.history)
    print(f"trained {args.arch} ({strategy.value}); best validation tau {best:.4f}")
    print(f"checkpoint: {out / 'model.ckpt'}; log: {out / 'log.csv'}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = _config_with_seed(args, "train")
    docs = load_corpus(args.corpus)
    splits = split_corpus(docs, seed=config["seed"])
    train_cfg = TrainConfig(**config["train"])
    if args.models:
        config["bench"]["models"] = args.models.split(",")
    menu = tuple(config["bench"]["models"])
    if "specialized_direct" in menu_rows(menu):
        locality_test_docs(splits[2])  # the locality comparison below must be able to run
    else:
        _reject_ignored_weight_factor(config, "a bench menu without it")

    result = run_benchmark(
        splits,
        menu,
        train_cfg,
        eval_seed=config["bench"]["eval_seed"],
        model_seed=config["model"]["seed"],
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_csv(result.report, out / "report.csv")
    atomic_write(out / "report.txt", render_report_text(result.report))
    logs_dir = out / "logs"
    logs_dir.mkdir(exist_ok=True)
    for name, history in result.logs.items():
        write_training_log(history, logs_dir / f"{name}.csv")
    emit_figures(result.report, result.logs, out / "figures")

    ensemble = result.models.get("specialized_direct")
    if ensemble is not None:
        comparison = locality_experiment(
            ensemble.models[LengthBucket.B2_5],
            ensemble.models[LengthBucket.B21_25],
            splits[2],
            eval_seed=config["bench"]["eval_seed"],
        )
        lines = [
            "metric,short,long,ratio,reference_short,reference_long,reference_ratio",
            f"local_fraction,{comparison.short.local_fraction!r},{comparison.long.local_fraction!r},"
            f",{REFERENCE_LOCAL_SHORT.local_fraction!r},{REFERENCE_LOCAL_LONG.local_fraction!r},",
            f"avg_distance,{comparison.short.avg_distance!r},{comparison.long.avg_distance!r},"
            f"{comparison.ratio!r},{REFERENCE_LOCAL_SHORT.avg_distance!r},{REFERENCE_LOCAL_LONG.avg_distance!r},"
            f"{REFERENCE_LOCALITY_RATIO!r}",
        ]
        atomic_write(out / "locality.csv", "\n".join(lines) + "\n")
    _echo_config(config, out, {"command": "bench", "models": list(menu)})
    print(render_report_text(result.report))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    bench_dir = Path(args.report)
    report_path = bench_dir / "report.csv" if bench_dir.is_dir() else bench_dir
    report = read_report_csv(report_path)
    logs: dict = {}
    logs_dir = report_path.parent / "logs"
    if logs_dir.is_dir():
        for log_file in sorted(logs_dir.glob("*.csv")):
            logs[log_file.stem] = read_training_log(log_file)
    out = Path(args.out)
    paths = emit_figures(report, logs, out)
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    gate = run_gradient_gate(tolerance=args.tolerance)
    print(gate.summary())
    if not gate.passed:
        print("gradient gate FAILED", file=sys.stderr)
        return 1
    print("gradient gate passed")
    return 0


def cmd_transfer(args: argparse.Namespace) -> int:
    config = _config_with_seed(args, "train")
    _reject_ignored_weight_factor(config, "transfer")
    docs = load_corpus(args.corpus)
    splits = split_corpus(docs, seed=config["seed"])
    result = transfer_experiment(
        splits,
        TrainConfig(**config["train"]),
        eval_seed=config["bench"]["eval_seed"],
        model_seed=config["model"]["seed"],
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "tau_in_domain,tau_transfer,n_train_docs,reference_in_domain,reference_transfer",
        f"{result.tau_in_domain!r},{result.tau_transfer!r},{result.n_train_docs},"
        f"{REFERENCE_TRANSFER_IN_DOMAIN!r},{REFERENCE_TRANSFER!r}",
    ]
    atomic_write(out / "transfer.csv", "\n".join(lines) + "\n")
    _echo_config(config, out, {"command": "transfer"})
    print(
        f"in-domain tau {result.tau_in_domain:.4f}, transfer tau {result.tau_transfer:.4f} "
        f"(reference: {REFERENCE_TRANSFER_IN_DOMAIN} -> {REFERENCE_TRANSFER})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pageorder", description="Page-order recovery laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the command's seed")

    p_gen = sub.add_parser("gen", help="generate and save a synthetic corpus")
    common(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=cmd_gen)

    p_train = sub.add_parser("train", help="train one configuration")
    common(p_train)
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--arch", required=True, choices=sorted(ARCH_ROWS))
    p_train.add_argument("--strategy", default="universal", choices=[s.value for s in Strategy])
    p_train.add_argument("--target-bucket", default=None, help="bucket label, e.g. 6-10; specialized strategies only")
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(fn=cmd_train)

    p_bench = sub.add_parser("bench", help="train and evaluate the configured menu")
    common(p_bench)
    p_bench.add_argument("--corpus", required=True)
    p_bench.add_argument("--models", default=None, help="comma-separated row names or 'all'")
    p_bench.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; ignored")
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(fn=cmd_bench)

    p_fig = sub.add_parser("figures", help="emit figure data from a bench output directory")
    p_fig.add_argument("--report", required=True, help="bench output dir or report.csv path")
    p_fig.add_argument("--out", required=True)
    p_fig.set_defaults(fn=cmd_figures)

    p_grad = sub.add_parser("gradcheck", help="verify every layer and loss against finite differences")
    p_grad.add_argument("--tolerance", type=float, default=1e-3)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_transfer = sub.add_parser("transfer", help="short-to-long transfer experiment")
    common(p_transfer)
    p_transfer.add_argument("--corpus", required=True)
    p_transfer.add_argument("--out", required=True)
    p_transfer.set_defaults(fn=cmd_transfer)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
