"""Command-line entry point.

Subcommands mirror the experiment lifecycle: `partition` inspects the client
split, `run` executes a mode end to end, `gradcheck` verifies the
meta-gradient against finite differences, `report` re-renders charts from a
saved history, and `synth` writes the deterministic stand-in dataset.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 I/O error
or a client worker that died.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, report, synth
from .config import DATA_PATH_KEYS, ConfigError, ExperimentConfig, parse_config
from .data import IdxFormatError
from .experiment import final_test_accuracy, prepare_problem, run_experiment
from .federation import fedavg_weights
from .verify import run_gradcheck

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _load_config(args) -> ExperimentConfig:
    """The config file with the command-line overrides, checked as one."""
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.out:
        overrides["out_dir"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.seed is not None:
        overrides["seeds"] = {"model": args.seed, "data": args.seed + 1,
                              "rounds": args.seed + 2}
    return parse_config(args.config, overrides)


def _write_manifest(cfg: ExperimentConfig, out_dir: str) -> None:
    manifest = {
        "version": f"unfoldfed-{__version__}",
        "config": cfg.echo(),
        "seeds": cfg.seeds,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_run(args) -> int:
    cfg = _load_config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    history, logits, theta_matrix = run_experiment(cfg)
    report.emit_csv(history, os.path.join(cfg.out_dir, "history.csv"))
    if logits is not None:
        import hashlib

        # Hash only fields that influence results: dataset paths, out_dir
        # and threads must not change artifact bytes.
        ignored = (*DATA_PATH_KEYS, "out_dir", "threads")
        echo = {k: v for k, v in cfg.echo().items() if k not in ignored}
        digest = hashlib.sha256(
            json.dumps(echo, sort_keys=True).encode()
        ).hexdigest()[:16]
        report.emit_weights_json(
            logits, theta_matrix, os.path.join(cfg.out_dir, "weights.json"),
            config_hash=digest,
        )
    for kind in ("accuracy", "loss", "weights"):
        report.render_svg(history, kind, os.path.join(cfg.out_dir, f"{kind}.svg"))
    _write_manifest(cfg, cfg.out_dir)
    elapsed = time.perf_counter() - t0
    print(f"mode={cfg.mode} final_test_accuracy={final_test_accuracy(history):.4f} "
          f"wall_clock={elapsed:.1f}s")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not (1e-6 <= args.eps <= 1e-2):
        raise ConfigError(f"eps {args.eps} outside [1e-6, 1e-2]")
    if args.instances < 1:
        raise ConfigError(f"instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    max_err, redrawn = run_gradcheck(n_instances=args.instances, eps=args.eps,
                                     seed=args.seed)
    ok = max_err < 1e-4
    print(f"gradcheck: max relative error {max_err:.3e} over {args.instances} "
          f"instances, {redrawn} redrawn at a kink -> {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_partition(args) -> int:
    cfg = _load_config(args)
    problem = prepare_problem(cfg)
    theta = fedavg_weights(problem.shards)
    summary = {
        "setting": cfg.setting,
        "K": cfg.K,
        "shards": [
            {
                "client": s.owner,
                "size": s.size,
                "label_histogram": np.bincount(
                    problem.train.labels[s.indices], minlength=10
                ).tolist(),
            }
            for s in problem.shards
        ],
        "fedavg_weights": [float(t) for t in theta],
    }
    text = json.dumps(summary, indent=2)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "partition.json"), "w", newline="") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_report(args) -> int:
    history = report.read_csv(args.history)
    os.makedirs(args.out, exist_ok=True)
    for kind in ("accuracy", "loss", "weights"):
        report.render_svg(history, kind, os.path.join(args.out, f"{kind}.svg"))
    print(f"rendered 3 charts to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    for flag, count in (("--train-per-class", args.train_per_class),
                        ("--test-per-class", args.test_per_class)):
        if count < 1:
            raise ConfigError(f"{flag} must be at least 1, got {count}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    paths = synth.write_dataset(
        args.out, args.train_per_class, args.test_per_class, args.seed
    )
    print(json.dumps(paths, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unfoldfed",
        description="Federated aggregation with learned per-round weights",
    )
    parser.add_argument("--version", action="version",
                        version=f"unfoldfed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--mode", choices=("fedavg", "fixed-uniform", "unfolded"))
        p.add_argument("--out", help="output directory override")
        p.add_argument("--threads", type=int,
                       help="train clients in min(N, K, usable cores) "
                            "processes, this one among them; results are "
                            "the same at any N")
        p.add_argument("--seed", type=int, help="override all config seeds")

    p_run = sub.add_parser("run", help="execute the configured experiment")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_part = sub.add_parser("partition", help="build and summarize client shards")
    add_common(p_part)
    p_part.set_defaults(func=cmd_partition)

    p_grad = sub.add_parser("gradcheck", help="verify meta-gradient vs FD oracle")
    p_grad.add_argument("--eps", type=float, default=1e-3)
    p_grad.add_argument("--instances", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_rep = sub.add_parser("report", help="re-render charts from a history CSV")
    p_rep.add_argument("--history", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    p_syn = sub.add_parser("synth", help="write the synthetic stand-in dataset")
    p_syn.add_argument("--out", required=True)
    p_syn.add_argument("--train-per-class", type=int, default=2200)
    p_syn.add_argument("--test-per-class", type=int, default=200)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (IdxFormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
