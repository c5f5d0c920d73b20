"""cellconn benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--desk-rate LINES_PER_S]

Run it from the repository root; it imports the program from ``src/``.
Every input is generated from ``--seed``.  Each workload runs in a fresh
worker process with BLAS/OpenMP threads pinned to one.  ``--trace 0`` prints
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a run with spans recorded around the calls into every module.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL = os.path.join(HERE, "model.json")
MODEL_SHA256 = os.path.join(HERE, "model.json.sha256")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4        # extra set-up-only processes; set-up is their median with the main run
DEADLINE_S = 170.0      # whole run, build included
TAIL_BEYOND = 10        # samples a tail percentile must leave above it
TAIL_MAX_PCT = 90       # higher ones moved 44% between runs on a shared host
WORKLOADS = {
    "offline-desk": "The researcher's documented loop, `cellconn train` then "
                    "`cellconn eval` on the README config: the only workload "
                    "that runs the learning layers, and it runs no service code.",
    "serve-dense": "ROADMAP's large size, 20 cells x 200 UEs at steady state, "
                   "closed loop with one caller: the subgraph is the whole "
                   "network, so Q-network scoring does nearly all the work.",
    "serve-desk-mixed": "Desk size, 16 deployments of 6 cells x 30 UEs, open loop "
                        "at a fixed rate with ~45% malformed lines: parsing, error "
                        "replies, per-call overhead and queueing carry a visible share.",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def percentile(xs: list[float], q: float) -> float:
    """Linear-interpolation percentile of sorted values."""
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples above it): the highest whole percentile
    from the median to TAIL_MAX_PCT that leaves at least TAIL_BEYOND
    samples above it."""
    xs = sorted(values)
    for q in range(TAIL_MAX_PCT, 49, -1):
        v = percentile(xs, q)
        beyond = sum(1 for x in xs if x > v)
        if beyond >= TAIL_BEYOND:
            return q, v, beyond
    v = percentile(xs, 50)
    return 50, v, sum(1 for x in xs if x > v)


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def load_benchmark(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def check_checkout(root: str) -> None:
    """The program's sources and the pinned model must be here, unchanged."""
    if not os.path.isfile(os.path.join(root, "src", "cellconn", "__init__.py")):
        raise BenchError(f"no src/cellconn under {root}: run from the repository root")
    try:
        with open(MODEL, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(MODEL_SHA256, encoding="utf-8") as fh:
            pinned = fh.read().split()[0]
    except (OSError, IndexError) as exc:
        raise BenchError(f"pinned model missing: {exc}") from exc
    if digest != pinned:
        raise BenchError(f"pinned model digest {digest} != {pinned}")


def worker(spec_path: str, result_path: str, env: dict, deadline: float,
           setup_only: bool = False) -> tuple[float, dict]:
    """Run one worker process to completion; returns (start time, its result)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path]
    if setup_only:
        argv.append("--setup-only")
    if os.path.exists(result_path):
        os.remove(result_path)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return spawned, json.load(fh)


# ---------------------------------------------------------------- serve

def prepare_serve(args, out: str) -> tuple[dict, list, None]:
    import inputs

    sessions = inputs.serve_sessions(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.desk_rate, out)
    closed = args.workload == "serve-dense"     # one waiting caller; else open loop
    spec = {"kind": "serve", "trace": bool(args.trace), "model": MODEL,
            "kernel": "dense" if closed else "desk",
            "rate": None if closed else args.desk_rate, "seconds": args.seconds,
            "fixed": bool(args.trace) or not closed, "hostile": not closed,
            "spans": os.path.join(out, "spans.tsv.gz"),
            "sessions": [{"deployment": s.path, "warm": [l.text for l in s.warm],
                          "timed": [l.text for l in s.timed],
                          "trace_from": len(s.warm) + len(s.timed) // 2 if args.trace
                          else None} for s in sessions]}
    return spec, sessions, None


def serve_results(spec, sessions, _, res) -> dict:
    """Checks and metrics of a serve run, pooled over its sessions."""
    import calib
    import checks
    from cellconn.graph import ConnectionGraph, build_cell_graph, capacity_matrix
    from cellconn.metrics import sum_throughput
    from cellconn.xapp import max_rsrp_graph

    speed = calib.Speed(res["calibrations"], calib.KERNELS[spec["kernel"]][3])
    attempted = failed = 0
    kinds: dict[str, int] = {}
    lat, lat_raw, waits, late = [], [], [], []
    busy = {False: 0.0, True: 0.0}      # traced? -> scaled service s on valid lines
    n_valid = {False: 0, True: 0}
    busy_plain = busy_plain_raw = 0.0   # service s on every untraced timed line
    tput = tput_base = 0.0
    errors = []
    for sess, s_spec, got in zip(sessions, spec["sessions"], res["sessions"]):
        lines = sess.warm + sess.timed
        n_warm, n_sent = len(sess.warm), got["n_released"]
        scored = lines if spec["fixed"] else lines[:n_sent]
        ok, k = checks.check_serve(scored, got["replies"], sess.truth)
        attempted += len(scored)
        failed += ok.count(False)
        for kind, n in k.items():
            kinds[kind] = kinds.get(kind, 0) + n
        if got["stream_error"]:
            errors.append(got["stream_error"])
        trace_from = s_spec["trace_from"] if s_spec["trace_from"] is not None else len(lines)
        at, rel, due, asked = got["reply_at"], got["released"], got["due"], got["asked"]
        for i in range(n_warm, n_sent):
            traced = i >= trace_from
            if at[i] is not None and not traced:
                busy_plain += speed.scale(rel[i], at[i])
                busy_plain_raw += at[i] - rel[i]
                late.append((rel[i] - max(due[i], asked[i])) * 1e3)
            if lines[i].kind != "valid" or not ok[i]:
                continue
            busy[traced] += speed.scale(rel[i], at[i])
            n_valid[traced] += 1
            if not traced:
                lat.append(speed.scale(due[i], at[i]) * 1e3)
                lat_raw.append((at[i] - due[i]) * 1e3)
                waits.append(max(0.0, asked[i] - due[i]) * 1e3)
        cap = capacity_matrix(sess.dep)
        assign = checks.apply_replies(sess.truth.initial_assign, got["replies"][:n_warm])
        g = ConnectionGraph(cell_adj=build_cell_graph(sess.dep), assign=assign)
        tput += sum_throughput(g, cap)
        tput_base += sum_throughput(max_rsrp_graph(sess.dep), cap)

    first = res["sessions"][0]
    warm = [(first["released"][i], first["reply_at"][i])
            for i in range(len(sessions[0].warm)) if first["reply_at"][i] is not None]
    layers = {f"xapp.errors.{kind}": kinds.get(kind, 0)
              for kind in [k for k, _ in checks.ERROR_KINDS] + ["other"]}
    hostile = res.get("hostile", [])
    layers["xapp.hostile_unanswered"] = sum(1 for h in hostile if h["replies"] != 1)
    open_loop = spec["rate"] is not None
    layers["xapp.queue_wait_ms"] = statistics.median(waits) if open_loop and waits else 0.0
    layers["bench.gen_late_ms"] = statistics.median(late) if open_loop and late else 0.0
    if n_valid[True] and n_valid[False]:
        layers["bench.trace_overhead_pct"] = 100.0 * (
            (busy[True] / n_valid[True]) / (busy[False] / n_valid[False]) - 1.0)
    return _summary(
        attempted, failed, "; ".join(errors) or None, lat, lat_raw,
        rate=(n_valid[False], busy_plain, busy_plain_raw),
        warm=(sum(speed.scale(t0, t1) for t0, t1 in warm), sum(t1 - t0 for t0, t1 in warm)),
        tput_rel_pct=100.0 * tput / tput_base, res=res, speed=speed, layers=layers,
        hostile=hostile)


def _summary(attempted, failed, error, lat, lat_raw, rate, warm, tput_rel_pct, res,
             speed, layers, hostile=None) -> dict:
    """End-to-end metrics, scaled to the reference speed, with the raw ones."""
    def stats(samples):
        if not samples:
            return float("nan"), (50, float("nan"), 0)
        return statistics.median(samples), tail(samples)

    p50, (q, tail_v, beyond) = stats(lat)
    p50_raw, (_, tail_raw, _) = stats(lat_raw)
    n, busy, busy_raw = rate
    return {"attempted": attempted, "failed": failed, "stream_error": error,
            "n_latency": len(lat), "tail": (q, beyond), "hostile": hostile,
            "warm_s": warm[0], "layers": layers,
            "e2e": {"p50_ms": p50, "tail_ms": tail_v,
                    "ops_per_s": n / busy if busy else float("nan"),
                    "tput_rel_pct": tput_rel_pct, "peak_rss_mb": res["rss_mb"]},
            "raw": {"p50_ms": p50_raw, "tail_ms": tail_raw,
                    "ops_per_s": n / busy_raw if busy_raw else float("nan"),
                    "warm_s": warm[1], "kernel_ms_median": speed.median_kernel_ms()}}


# -------------------------------------------------------------- offline

def prepare_offline(args, out: str) -> tuple[dict, None, list]:
    import inputs

    calls = inputs.offline_calls(args.seed, args.seconds, bool(args.trace), MODEL, out)
    spec = {"kind": "offline", "trace": bool(args.trace), "calls": calls, "kernel": "desk",
            "spans": os.path.join(out, "spans.tsv.gz")}
    return spec, None, calls


def offline_results(spec, _, calls, res) -> dict:
    import calib
    import checks
    import inputs

    speed = calib.Speed(res["calibrations"], calib.KERNELS[spec["kernel"]][3])
    points = [(c, u) for c in inputs.QUICK_START["n_cells_list"]
              for u in inputs.QUICK_START["n_ues_list"]]
    failed = n_train = 0
    train_s = train_raw = 0.0
    eval_ms, eval_raw = [], []
    pol = base = 0.0
    phase_s = {False: 0.0, True: 0.0}
    for call, got in zip(calls, res["calls"]):
        scaled = speed.scale(got["t0"], got["t1"])
        phase_s[call["traced"]] += scaled
        if call["cmd"] == "train":
            good = got["rc"] == 0 and checks.trainlog_ok(got["artifact"], inputs.TRAIN_CHUNK)
            if good and not call["traced"]:
                n_train += inputs.TRAIN_CHUNK
                train_s += scaled
                train_raw += got["t1"] - got["t0"]
        else:
            sums = checks.gainreport_sums(got["artifact"], points) if got["rc"] == 0 else None
            good = sums is not None
            if good and not call["traced"]:
                eval_ms.append(scaled * 1e3 / len(points))
                eval_raw.append((got["t1"] - got["t0"]) * 1e3 / len(points))
                pol += sums[0]
                base += sums[1]
        failed += not good
    layers = {f"xapp.errors.{k}": 0 for k, _ in checks.ERROR_KINDS + (("other", ""),)}
    layers.update({"xapp.hostile_unanswered": 0, "xapp.queue_wait_ms": 0.0,
                   "bench.gen_late_ms": 0.0})
    if phase_s[True] and phase_s[False]:
        layers["bench.trace_overhead_pct"] = 100.0 * (phase_s[True] / phase_s[False] - 1.0)
    return _summary(len(calls), failed, None, eval_ms, eval_raw,
                    rate=(n_train, train_s, train_raw), warm=(0.0, 0.0),
                    tput_rel_pct=100.0 * pol / base if base else float("nan"),
                    res=res, speed=speed, layers=layers)


# ----------------------------------------------------------------- main

def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--desk-rate", type=float, default=15.0,
                   help="serve-desk-mixed arrival rate, lines per second")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.desk_rate <= 0:
        p.error("need --seed >= 0, --seconds >= 1 and --desk-rate > 0")
    return args


def run(args: argparse.Namespace, root: str) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    bench = load_benchmark(root)
    check_checkout(root)
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if src not in sys.path:
        sys.path.insert(0, src)

    out = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    offline = args.workload == "offline-desk"
    prepare, results = ((prepare_offline, offline_results) if offline
                        else (prepare_serve, serve_results))
    spec, sessions, calls = prepare(args, out)
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    result_path = os.path.join(out, "result.json")

    import calib

    setups, setups_raw = [], []       # process start to first line / CLI call

    def setup_of(spawned: float, got: dict) -> None:
        setups_raw.append(got["ready"] - spawned)
        speed = calib.Speed(got["calibrations"], calib.KERNELS[spec["kernel"]][3])
        setups.append(speed.scale(spawned, got["ready"]))

    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup_of(*worker(spec_path, result_path, env, deadline, setup_only=True))
    spawned, res = worker(spec_path, result_path, env, deadline)
    setup_of(spawned, res)
    got = results(spec, sessions, calls, res)

    if args.trace:
        layers = dict(res["layers"])
        layers.update(got["layers"])
        layers.setdefault("bench.trace_overhead_pct", float("nan"))
        wanted, produced = bench["per_layer"], layers
    else:
        produced = dict(got["e2e"], setup_s=statistics.median(setups) + got["warm_s"])
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted}
    finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                 for v in metrics.values())
    record = {"workload": args.workload, "why": WORKLOADS[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "desk_rate_lines_per_s": args.desk_rate, "machine": machine_facts(),
              "setup_runs_s": setups, "latency_samples": got["n_latency"],
              "raw": dict(got["raw"], setup_runs_s=setups_raw),
              "tail_percentile": got["tail"][0], "tail_samples_beyond": got["tail"][1],
              "attempted": got["attempted"], "failed": got["failed"],
              "fail_frac": got["failed"] / got["attempted"] if got["attempted"] else 1.0,
              "stream_error": got["stream_error"], "hostile_probe": got.get("hostile"),
              "absent_functions": res.get("absent", []),
              "wall_s": time.monotonic() - started}
    with open(os.path.join(out, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    return {"record": record,
            "result": {"correct": got["failed"] == 0 and not got["stream_error"] and finite,
                       "attempted": got["attempted"], "failed": got["failed"],
                       "metrics": metrics}}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for k in THREAD_ENV:        # before numpy is imported, here and in workers
        os.environ[k] = "1"
    try:
        out = run(args, os.getcwd())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    rec = out["record"]
    print(f"record {json.dumps(rec)}")
    for name, m in out["result"]["metrics"].items():
        print(f"{name:<40} {m['value']!r:>24} {m['unit']}")
    if not args.trace:
        print(f"tail_ms is p{rec['tail_percentile']} of {rec['latency_samples']} samples "
              f"({rec['tail_samples_beyond']} above it); fail_frac {rec['fail_frac']!r}")
    if rec["hostile_probe"]:
        bad = [h["line"] for h in rec["hostile_probe"] if h["replies"] != 1]
        print(f"hostile probe: {len(bad)} of {len(rec['hostile_probe'])} lines "
              f"not answered exactly once {bad}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
