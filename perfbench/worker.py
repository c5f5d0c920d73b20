"""Run one benchmark workload in a fresh process.

    python3 perfbench/worker.py SPEC.json RESULT.json [--setup-only]

``run.py`` writes the spec (inputs and phases), starts this process with
BLAS/OpenMP threads pinned to one, and turns the raw observations written to
RESULT.json (timestamps, replies, exit codes, artifacts) into checks and
metrics.  Timestamps are ``time.monotonic()``, which is system-wide, so
``run.py`` measures set-up from the moment it started this process.

``--setup-only`` stops at the first timed op: imports, model and deployment
load, and the service's pre-loop set-up, but no warm-up stream.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time

import calib

OP_STRIDE = 1_000_000   # span op ids: session * OP_STRIDE + line index
CALIBRATE_IF_IDLE_S = 0.020  # open loop: calibrate only in a gap this long
# Lines that kill the stream at the commit that defined the benchmark:
# unbounded nesting raises RecursionError, invalid UTF-8 UnicodeDecodeError.
HOSTILE = (("deep_nesting", b"[" * 100_000 + b"\n"),
           ("invalid_utf8", b'{"type": "handover", "ue": 0, "rsrp_dbm": {"0": \xff}}\n'))


class Feeder:
    """Line source for ``serve_stream`` that records when each line was asked
    for, released and due, calibrates machine speed between lines, and
    switches tracing at phase boundaries.

    Warm-up lines go out closed-loop.  Timed lines go out closed-loop
    (``rate`` None), stopping after ``seconds`` unless ``fixed`` is set, or
    open-loop at ``rate`` lines/s from the moment the first one is asked for.
    A closed loop calibrates before every line; an open loop only when the
    next line is due far enough ahead.  Tracing is on for the service
    set-up, off for the warm-up and for timed lines before ``trace_from``,
    and on from there.
    """

    def __init__(self, warm, timed, rate=None, seconds=None, fixed=True,
                 trace_from=None, tracer=None, setup_only=False, op_base=0,
                 kernel=None):
        self.lines = list(warm) + list(timed)
        self.n_warm = len(warm)
        self.rate, self.seconds, self.fixed = rate, seconds, fixed
        self.trace_from = trace_from
        self.tracer = tracer
        self.setup_only = setup_only
        self.op_base = op_base
        self.kernel = kernel
        self.asked: list[float] = []
        self.released: list[float] = []
        self.due: list[float] = []
        self.calibrations: list[tuple[float, float]] = []
        self.ready = None          # first line asked for: service set up
        self.warm_end = None       # first timed line asked for
        self._t_open = None

    def __iter__(self):
        return self

    def __next__(self) -> str:
        now = time.monotonic()
        i = len(self.released)
        if i == 0:
            self.ready = now
            if self.tracer is not None:
                self.tracer.uninstall()
        if i == self.n_warm:
            self.warm_end = now
            self._t_open = now
        open_loop = i >= self.n_warm and self.rate
        if not open_loop or i >= len(self.lines):
            self.calibrations.append(self.kernel.calibrate())
        if (self.setup_only or i >= len(self.lines) or
                (i > self.n_warm and not self.fixed and now - self._t_open >= self.seconds)):
            raise StopIteration
        self.asked.append(now)
        if open_loop:
            due = self._t_open + (i - self.n_warm) / self.rate
            if due - now > CALIBRATE_IF_IDLE_S:
                self.calibrations.append(self.kernel.calibrate())
            now = time.monotonic()
            if due > now:
                time.sleep(due - now)
        else:
            due = time.monotonic()
        self.due.append(due)
        if self.tracer is not None:
            if i == self.trace_from:
                self.tracer.install()
            self.tracer.op = self.op_base + i
        self.released.append(time.monotonic())
        return self.lines[i] + "\n"


class Replies:
    """Reply sink: groups what the service writes by the line being served."""

    def __init__(self, feeder: Feeder):
        self.feeder = feeder
        self.by_line: list[list[str]] = [[] for _ in feeder.lines]
        self.at: list[float | None] = [None] * len(feeder.lines)

    def write(self, text: str) -> int:
        i = len(self.feeder.released) - 1
        for part in text.splitlines():
            self.by_line[i].append(part)
        if self.at[i] is None:
            self.at[i] = time.monotonic()
        return len(text)

    def flush(self) -> None:
        pass


def _stream_error(run) -> str | None:
    try:
        run()
    except Exception as exc:  # the service died: record why, score the lines
        return f"{type(exc).__name__}: {str(exc)[:200]}"
    return None


def run_serve(spec: dict, tracer, setup_only: bool) -> dict:
    """Serve each session's deployment with a fresh ``serve_stream``, one
    after another; the hostile probe then runs on the last deployment."""
    import cellconn.gnn as gnn
    import cellconn.netmodel as netmodel
    import cellconn.xapp as xapp

    if tracer is not None:
        tracer.install()
    params = gnn.load_model(spec["model"])
    kernel = calib.Kernel(spec["kernel"])
    sessions, calibrations = [], []
    for k, sess in enumerate(spec["sessions"]):
        if tracer is not None:
            tracer.install()
        dep = netmodel.load_deployment(sess["deployment"])
        feeder = Feeder(sess["warm"], sess["timed"], rate=spec["rate"],
                        seconds=spec["seconds"], fixed=spec["fixed"],
                        trace_from=sess["trace_from"], tracer=tracer,
                        setup_only=setup_only, op_base=k * OP_STRIDE,
                        kernel=kernel)
        replies = Replies(feeder)
        error = _stream_error(lambda: xapp.serve_stream(params, dep, feeder, replies))
        if tracer is not None:
            tracer.uninstall()
        sessions.append({"ready": feeder.ready, "warm_end": feeder.warm_end,
                         "stream_error": error, "n_released": len(feeder.released),
                         "asked": feeder.asked, "released": feeder.released,
                         "due": feeder.due, "reply_at": replies.at,
                         "replies": replies.by_line})
        calibrations += feeder.calibrations
        if setup_only:
            break
    out = {"ready": sessions[0]["ready"], "sessions": sessions,
           "calibrations": calibrations}
    if spec["hostile"] and not setup_only:
        out["hostile"] = []
        for name, raw in HOSTILE:
            sink = io.StringIO()
            rfile = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
            err = _stream_error(lambda: xapp.serve_stream(params, dep, rfile, sink))
            out["hostile"].append({"line": name, "replies": len(sink.getvalue().splitlines()),
                                   "error": err})
    return out


def run_offline(spec: dict, tracer, setup_only: bool) -> dict:
    """Call ``cellconn.cli.main`` once per spec call, calibrating machine
    speed before each call and after the last."""
    import cellconn.cli as cli

    ready = time.monotonic()
    kernel = calib.Kernel(spec["kernel"])
    calibrations = [kernel.calibrate()]
    if setup_only:
        return {"ready": ready, "calibrations": calibrations}
    calls = []
    for i, call in enumerate(spec["calls"]):
        if tracer is not None:
            tracer.op = i
            (tracer.install if call["traced"] else tracer.uninstall)()
        t0 = time.monotonic()
        try:
            rc = cli.main(call["argv"])
        except SystemExit as exc:
            rc = exc.code
        t1 = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
        calibrations.append(kernel.calibrate())
        out_dir = call["argv"][call["argv"].index("--out") + 1]
        name = "trainlog.csv" if call["cmd"] == "train" else "gainreport.csv"
        try:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                artifact = fh.read()
            os.remove(os.path.join(out_dir, name))
        except OSError:
            artifact = ""
        calls.append({"rc": rc, "t0": t0, "t1": t1, "artifact": artifact})
    return {"ready": ready, "calls": calls, "calibrations": calibrations}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv[2:]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"] and not setup_only:
        from tracer import Tracer
        tracer = Tracer()
    runner = run_offline if spec["kind"] == "offline" else run_serve
    result = runner(spec, tracer, setup_only)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        if spec["kind"] == "offline":
            units = tracer.count("netmodel.generate_deployment")
        else:
            units = tracer.count("xapp.handle_event")
        result["layers"] = tracer.metrics(units)
        result["absent"] = tracer.absent
        tracer.write(spec["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
