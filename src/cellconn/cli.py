"""Command-line front end: generate deployments, train, evaluate, serve.

The experiment config is one JSON document; every run is fully determined
by it (plus an optional --seed override), so repeated invocations write
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import statistics
import sys
from dataclasses import dataclass, field

from cellconn.dqn import TrainConfig, deployment_state, greedy_rollout, train
from cellconn.gnn import load_model, save_model
from cellconn.metrics import coverage, jain_index, sum_throughput
from cellconn.netmodel import (Deployment, RadioConfig, build, generate_deployment,
                               read_json_object, save_deployment)
from cellconn.xapp import max_rsrp_graph, parse_endpoint, serve

# Eval deployments sit far from the training seed range so sweeps never
# evaluate on a deployment that was trained on.
EVAL_SEED_OFFSET = 1_000_000
EVAL_POINT_STRIDE = 10_000


class UsageError(ValueError):
    """Bad flags or config; maps to exit code 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run needs, serializable as one JSON object.
    Values are checked on construction; a bad one raises ``UsageError``."""

    n_cells_list: tuple[int, ...] = (6,)
    n_ues_list: tuple[int, ...] = (50,)
    density_list: tuple[float, ...] = ()   # cells per km^2; optional extra sweep
    n_train_deployments: int = 1000
    n_eval_deployments: int = 50
    hex_diameter_m: float = 500.0
    min_cell_sep_m: float = 50.0
    seed: int = 0
    radio: RadioConfig = field(default_factory=RadioConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        for name in ("n_cells_list", "n_ues_list", "density_list"):
            values = getattr(self, name)
            if not all(0 < v < math.inf for v in values):
                raise UsageError(f"{name} entries must be positive and finite, got {list(values)}")
        if not self.n_cells_list or not self.n_ues_list:
            raise UsageError("n_cells_list and n_ues_list must be non-empty")
        if self.n_train_deployments < 1 or self.n_eval_deployments < 1:
            raise UsageError(f"deployment counts must be >= 1, got "
                             f"train={self.n_train_deployments} eval={self.n_eval_deployments}")
        if not (0 < self.hex_diameter_m < math.inf and 0 <= self.min_cell_sep_m < math.inf
                and self.seed >= 0):  # numpy takes only non-negative seeds
            raise UsageError(f"need finite hex_diameter_m > 0 and min_cell_sep_m >= 0, seed >= 0; "
                             f"got {self.hex_diameter_m}/{self.min_cell_sep_m}/{self.seed}")

    def base_point(self) -> tuple[int, int]:
        """Training happens at the first size of the sweep."""
        return self.n_cells_list[0], self.n_ues_list[0]

    def train_config(self) -> TrainConfig:
        return dataclasses.replace(self.train, seed=self.seed)

    def hex_area_km2(self) -> float:
        r = self.hex_diameter_m / 2.0
        return 1.5 * math.sqrt(3.0) * r * r / 1e6


def config_from_dict(doc: dict, path: str = "<config>") -> ExperimentConfig:
    if isinstance(doc, dict) and isinstance(doc.get("train"), dict) and "seed" in doc["train"]:
        raise UsageError(f"{path}: train.seed is not read; set the top-level \"seed\"")
    sections = {"radio": RadioConfig, "train": TrainConfig}
    try:
        if isinstance(doc, dict):  # build refuses anything else
            doc = {k: build(sections[k], v, path) if k in sections else v for k, v in doc.items()}
        return build(ExperimentConfig, doc, path)
    except ValueError as exc:  # every message starts with the path
        raise UsageError(str(exc)) from None


def load_config(path: str | None, seed: int | None) -> ExperimentConfig:
    try:
        cfg = (ExperimentConfig() if path is None
               else config_from_dict(read_json_object(path, ()), path))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 JSON or not an object; the message names the file
        raise UsageError(str(exc)) from None
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


@dataclass(frozen=True)
class SweepPoint:
    n_cells: int
    n_ues: int
    density_cells_km2: float | None = None


def sweep_points(cfg: ExperimentConfig) -> list[SweepPoint]:
    """Size grid (cells x UEs), plus optional density points at fixed UE/cell."""
    points = [SweepPoint(c, u) for c in cfg.n_cells_list for u in cfg.n_ues_list]
    if cfg.density_list:
        base_c, base_u = cfg.base_point()
        per_cell = base_u / base_c
        for rho in cfg.density_list:
            n_cells = max(1, round(rho * cfg.hex_area_km2()))
            n_ues = max(1, round(n_cells * per_cell))
            points.append(SweepPoint(n_cells, n_ues, rho))
    return points


def train_deployment(cfg: ExperimentConfig, i: int) -> Deployment:
    c, u = cfg.base_point()
    return generate_deployment(cfg.seed + i, c, u, cfg.hex_diameter_m,
                               cfg.radio, cfg.min_cell_sep_m)


def eval_deployment(cfg: ExperimentConfig, point_idx: int, point: SweepPoint,
                    i: int) -> Deployment:
    seed = cfg.seed + EVAL_SEED_OFFSET + point_idx * EVAL_POINT_STRIDE + i
    return generate_deployment(seed, point.n_cells, point.n_ues,
                               cfg.hex_diameter_m, cfg.radio, cfg.min_cell_sep_m)


def cmd_generate(cfg: ExperimentConfig, out_dir: str) -> str:
    """Write every training deployment as ``deployments/train/dep_<seed>.json``,
    the files ``serve --deployment`` reads; returns that directory.  Eval
    deployments are not written: ``eval`` regenerates each one from its seed."""
    train_dir = os.path.join(out_dir, "deployments", "train")
    os.makedirs(train_dir, exist_ok=True)
    for i in range(cfg.n_train_deployments):
        dep = train_deployment(cfg, i)
        save_deployment(dep, os.path.join(train_dir, f"dep_{dep.seed}.json"))
    return train_dir


def cmd_train(cfg: ExperimentConfig, out_dir: str) -> tuple[str, str]:
    """Train at the base sweep point; writes model.json and trainlog.csv."""
    os.makedirs(out_dir, exist_ok=True)
    params, log = train(cfg.train_config(),
                        (train_deployment(cfg, i) for i in range(cfg.n_train_deployments)))
    model_path = os.path.join(out_dir, "model.json")
    log_path = os.path.join(out_dir, "trainlog.csv")
    save_model(params, model_path)
    log.to_csv(log_path)
    return model_path, log_path


GAIN_COLUMNS = (
    "row_type", "n_cells", "n_ues", "density_cells_km2", "deployment_seed", "stat",
    "policy_throughput", "policy_coverage", "policy_jain",
    "baseline_throughput", "baseline_coverage", "baseline_jain",
    "gain_throughput_pct", "gain_coverage_pct", "gain_jain_pct",
    "excluded_throughput", "excluded_coverage", "excluded_jain",
)

_METRICS = ("throughput", "coverage", "jain")


def _gain_pct(policy: float, baseline: float) -> float | None:
    """Relative gain in percent; None marks a zero baseline (excluded rows)."""
    if baseline == 0.0:
        return None
    return 100.0 * (policy - baseline) / baseline


def evaluate_point(params, cfg: ExperimentConfig, point_idx: int,
                   point: SweepPoint) -> list[dict]:
    """Per-deployment policy/baseline metrics and gains for one sweep point,
    followed by the point's median and mean aggregate rows.  The cell-edge
    UEs are those of the model's own threshold, as in ``serve``."""
    cols = {"n_cells": point.n_cells, "n_ues": point.n_ues,
            "density_cells_km2": point.density_cells_km2}
    rows: list[dict] = []
    for i in range(cfg.n_eval_deployments):
        dep = eval_deployment(cfg, point_idx, point, i)
        cap = dep.cap
        row = {"row_type": "deployment", **cols, "deployment_seed": dep.seed, "stat": ""}
        for who, g in (("policy", greedy_rollout(params, deployment_state(dep, params))),
                       ("baseline", max_rsrp_graph(dep))):
            row[f"{who}_throughput"] = sum_throughput(g, cap)
            row[f"{who}_coverage"] = coverage(g, cap)
            row[f"{who}_jain"] = jain_index(g)
        for m in _METRICS:
            row[f"gain_{m}_pct"] = _gain_pct(row[f"policy_{m}"], row[f"baseline_{m}"])
        rows.append(row)
    n = len(rows)  # the deployment rows, counted before the aggregates join them
    for stat, fn in (("median", statistics.median), ("mean", statistics.fmean)):
        agg = {"row_type": "aggregate", **cols, "stat": stat}
        for m in _METRICS:
            gains = [r[f"gain_{m}_pct"] for r in rows[:n] if r[f"gain_{m}_pct"] is not None]
            agg[f"gain_{m}_pct"] = fn(gains) if gains else None
            agg[f"excluded_{m}"] = n - len(gains)
        rows.append(agg)
    return rows


def cmd_eval(cfg: ExperimentConfig, model_path: str, out_dir: str) -> str:
    """Sweep the eval grid against the max-RSRP baseline; writes gainreport.csv."""
    params = load_model(model_path)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for pi, point in enumerate(sweep_points(cfg)):
        rows.extend(evaluate_point(params, cfg, pi, point))
    path = os.path.join(out_dir, "gainreport.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=GAIN_COLUMNS, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="cellconn",
                     description="Connection management: simulate, learn, serve.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="experiment config JSON")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out", default=".", help="output directory")

    common(sub.add_parser("generate", help="write training deployment files"))
    common(sub.add_parser("train", help="train a model, write model.json + trainlog.csv"))
    p_eval = sub.add_parser("eval", help="compare model vs max-RSRP, write gainreport.csv")
    common(p_eval)
    p_eval.add_argument("--model", required=True, help="model JSON from train")
    p_serve = sub.add_parser("serve", help="answer handover requests over NDJSON")
    p_serve.add_argument("--model", required=True)
    p_serve.add_argument("--deployment", required=True, help="deployment JSON")
    p_serve.add_argument("--endpoint", default="-",
                         help="'-' for stdin/stdout or host:port")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "serve":
            try:  # before either file is read
                parse_endpoint(args.endpoint)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            serve(args.model, args.deployment, args.endpoint)
            return 0
        cfg = load_config(args.config, args.seed)
        if args.command == "generate":
            path = cmd_generate(cfg, args.out)
            print(f"wrote {path}")
        elif args.command == "train":
            model_path, log_path = cmd_train(cfg, args.out)
            print(f"wrote {model_path} and {log_path}")
        elif args.command == "eval":
            path = cmd_eval(cfg, args.model, args.out)
            print(f"wrote {path}")
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # runtime failure -> exit 2, with the cause
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
