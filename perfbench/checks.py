"""Output checks.  Each op that fails a check counts as failed.

Serve: every line gets exactly one reply; an error reply comes back exactly
for the malformed lines; every assignment names an in-range UE and cell; the
event UE lands on a cell of its report, and every other re-decided UE on a
reported cell inside the event's subgraph, or on the strongest kept cell when
none of its reported cells is kept.

Offline: exit code 0; ``trainlog.csv`` has one row per training deployment
with finite return and utility columns; ``gainreport.csv`` has median and
mean rows for every eval point.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

# Error replies by kind, recognised from the start of the message.
ERROR_KINDS = (("bad_json", "bad JSON"), ("unknown_ue", "ue must be"),
               ("wrong_type", "unsupported request type"), ("blank", "empty request line"))
TRAINLOG_FINITE = ("ep_return", "u_throughput", "u_coverage", "u_jain")


def error_kind(message: str) -> str:
    for kind, prefix in ERROR_KINDS:
        if message.startswith(prefix):
            return kind
    return "other"


def _assignments(doc) -> list[tuple[int, int]] | None:
    pairs = doc.get("assignments")
    if not isinstance(pairs, list):
        return None
    out = []
    for a in pairs:
        if not isinstance(a, dict):
            return None
        ue, cell = a.get("ue"), a.get("cell")
        if type(ue) is not int or type(cell) is not int:
            return None
        out.append((ue, cell))
    return out


def decision_ok(doc, event_ue: int, truth) -> bool:
    """A valid line's reply: the event UE and every re-decided UE on allowed cells."""
    if "error" in doc or doc.get("ue") != event_ue:
        return False
    pairs = _assignments(doc)
    if not pairs or [u for u, _ in pairs].count(event_ue) != 1:
        return False
    kept = truth.kept[event_ue]
    for ue, cell in pairs:
        if not (0 <= ue < truth.n_ues and 0 <= cell < truth.n_cells):
            return False
        if ue == event_ue:
            allowed = truth.reports[ue]
        else:
            allowed = [c for c in truth.reports[ue] if c in kept]
            if not allowed:
                allowed = [max(kept, key=lambda c: (truth.rsrp[c, ue], -c))]
        if cell not in allowed:
            return False
    return True


def check_serve(lines, replies: list[list[str]], truth) -> tuple[list[bool], Counter]:
    """Per-line verdicts and the error replies counted by kind.

    ``replies[i]`` holds every reply written while line i was being served.
    """
    ok: list[bool] = []
    kinds: Counter = Counter()
    for line, got in zip(lines, replies):
        if len(got) != 1:
            ok.append(False)
            continue
        try:
            doc = json.loads(got[0])
        except ValueError:
            ok.append(False)
            continue
        if not isinstance(doc, dict):
            ok.append(False)
        elif line.kind == "valid":
            ok.append(decision_ok(doc, line.ue, truth))
        else:
            message = doc.get("error")
            good = isinstance(message, str) and "assignments" not in doc
            if good:
                kinds[error_kind(message)] += 1
            ok.append(good)
    ok.extend([False] * (len(lines) - len(ok)))
    return ok, kinds


def apply_replies(assign, replies: list[list[str]]):
    """Commit the assignments of every decision reply to a copy of ``assign``."""
    assign = assign.copy()
    for got in replies:
        for text in got:
            try:
                doc = json.loads(text)
            except ValueError:
                continue
            if not isinstance(doc, dict):
                continue
            for ue, cell in _assignments(doc) or []:
                if 0 <= ue < len(assign):
                    assign[ue] = cell
    return assign


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def trainlog_ok(text: str, n_train: int) -> bool:
    rows = list(csv.DictReader(io.StringIO(text)))
    return len(rows) == n_train and all(
        _finite(r.get(col) or "") for r in rows for col in TRAINLOG_FINITE)


def gainreport_sums(text: str, points) -> tuple[float, float] | None:
    """(policy, baseline) sum throughput over the deployment rows, or None
    when a point lacks its median or mean row or a throughput is not finite."""
    rows = list(csv.DictReader(io.StringIO(text)))
    stats = {(r.get("n_cells"), r.get("n_ues"), r.get("stat"))
             for r in rows if r.get("row_type") == "aggregate"}
    for c, u in points:
        if not {(str(c), str(u), "median"), (str(c), str(u), "mean")} <= stats:
            return None
    deps = [r for r in rows if r.get("row_type") == "deployment"]
    values = [(r.get("policy_throughput") or "", r.get("baseline_throughput") or "")
              for r in deps]
    if not deps or not all(_finite(p) and _finite(b) for p, b in values):
        return None
    return sum(float(p) for p, _ in values), sum(float(b) for _, b in values)
