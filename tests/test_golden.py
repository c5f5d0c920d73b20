"""Golden digests: SHA-256 of outputs that must not move under a refactor.

Four fixtures are pinned:
- the artifacts of acceptance criterion 7's micro config (``model.json``,
  ``trainlog.csv``, ``gainreport.csv``);
- the same artifacts of a 3-round, width-4 run on 4 x 12 deployments in
  which gradient clipping fires on 65 of 99 updates (it never fires in the
  criterion-7 config), so the clip factor and a depth other than 2 are
  pinned too;
- the reply lines of a fixed ``serve_stream`` session (true measurement
  reports plus malformed lines), with the wall-clock ``latency_us`` dropped;
- the reply lines of a 10 x 60 session on a 1.5 km hexagon, served by the
  benchmark's pinned model; half of its reports are client-chosen, and most
  events' subgraphs are a strict part of the network.

A change that keeps behaviour leaves every digest as it is.  A change that
knowingly alters the numbers (say, by reordering float sums) re-pins them
once and says why.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from cellconn.cli import cmd_eval, cmd_train, config_from_dict
from cellconn.gnn import init_params, load_model
from cellconn.netmodel import generate_deployment, measurement_report
from cellconn.xapp import serve_stream

CRITERION_7_DIGESTS = {
    "model.json": "e903ecf6329ee119331a49ae738e94269487c7aa891582403d1e7aa12221026b",
    "trainlog.csv": "def4f1ef77bf0db415f39c1205d82b5302027db60aaeeb407f9cec75afc46dd5",
    "gainreport.csv": "1b1d468e0fc45c7f3b0a2b0bbb9a1aea998b74272140d66c9332407f22b5f250",
}
CLIPPED_DIGESTS = {
    "model.json": "f3fe032f1ead03461c6af58867b912cc62fe1498205009fa7e6bde68f4ce4b62",
    "trainlog.csv": "4e7551c062ce2953336d4e023ca33b469b801306e6772df92ea0d5d20e2df15a",
    "gainreport.csv": "9b40a606a28dcbf1a9698aa3fe39eaaa1eacfdbcc7bf4bf0d1d1134010f0beaa",
}
SERVE_DIGEST = "c174092bb96f27dca63085b3a580cc0f800dc338d92c08746a5df8bd4af4b29e"
SERVE_10X60_DIGEST = "30f69b71f1808ab6c41da5ca562a950dde6b72897d31220b4c47c995014bd230"
PINNED_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "model.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(cfg, out: str) -> dict[str, str]:
    """Digests of the ``train`` then ``eval`` artifacts of a config."""
    model_path, log_path = cmd_train(cfg, out)
    report_path = cmd_eval(cfg, model_path, out)
    return {name: sha256(open(path, "rb").read())
            for name, path in (("model.json", model_path), ("trainlog.csv", log_path),
                               ("gainreport.csv", report_path))}


def test_criterion_7_artifacts_match_golden_digests(tmp_path):
    cfg = config_from_dict({
        "n_cells_list": [2], "n_ues_list": [4],
        "n_train_deployments": 30, "n_eval_deployments": 6, "seed": 11,
        "train": {"reward_kind": "fair", "alpha": 0.001, "epsilon": 0.5,
                  "init_std": 0.3}})
    assert artifact_digests(cfg, str(tmp_path)) == CRITERION_7_DIGESTS


def test_clipped_three_round_artifacts_match_golden_digests(tmp_path):
    cfg = config_from_dict({
        "n_cells_list": [4], "n_ues_list": [12],
        "n_train_deployments": 25, "n_eval_deployments": 3, "seed": 3,
        "train": {"reward_kind": "fair", "alpha": 0.001, "epsilon": 1.0,
                  "init_std": 0.3, "gnn_layers": 3, "gnn_width": 4}})
    assert artifact_digests(cfg, str(tmp_path)) == CLIPPED_DIGESTS


def serve_session_lines() -> list[str]:
    """24 true reports of a 6 x 30 deployment with 6 malformed lines mixed in."""
    dep = generate_deployment(5, 6, 30)
    lines = []
    for i in range(24):
        r = measurement_report(dep, (7 * i) % dep.n_ues)
        lines.append(json.dumps({"type": "handover", "ue": r.ue,
                                 "rsrp_dbm": {str(c): v for c, v in
                                              zip(r.cells, r.rsrp_dbm)}}))
    malformed = ["{broken json", "", json.dumps({"type": "noise", "ue": 1}),
                 json.dumps({"type": "handover", "ue": 99, "rsrp_dbm": {"0": -60.0}}),
                 json.dumps({"type": "handover", "ue": 3, "rsrp_dbm": {"9": -60.0}}),
                 json.dumps([1, 2, 3])]
    for k, bad in enumerate(malformed):
        lines.insert(5 * k + 2, bad)
    return lines


def replies_digest(params, dep, lines: list[str]) -> str:
    """Digest of a session's replies, one per line, without ``latency_us``."""
    out = io.StringIO()
    handled = serve_stream(params, dep, io.StringIO("".join(l + "\n" for l in lines)), out)
    replies = [json.loads(l) for l in out.getvalue().splitlines()]
    assert handled == len(replies) == len(lines)
    for r in replies:
        r.pop("latency_us", None)
    body = "\n".join(json.dumps(r, sort_keys=True) for r in replies)
    return sha256(body.encode())


def test_serve_stream_replies_match_golden_digest():
    lines = serve_session_lines()
    assert len(lines) == 30
    assert replies_digest(init_params(2, 2, 8, 0.3), generate_deployment(5, 6, 30),
                          lines) == SERVE_DIGEST


def client_chosen_session_lines(dep) -> list[str]:
    """30 requests: even ones carry the UE's true report, odd ones one to
    three cells picked by the client with made-up RSRP values."""
    rng = np.random.default_rng(60)
    lines = []
    for i in range(30):
        ue = int(rng.integers(dep.n_ues))
        if i % 2 == 0:
            r = measurement_report(dep, ue)
            cells, vals = r.cells, r.rsrp_dbm
        else:
            k = int(rng.integers(1, 4))
            cells = rng.choice(dep.n_cells, size=k, replace=False).tolist()
            vals = (-60.0 - 30.0 * rng.random(k)).round(1).tolist()
        lines.append(json.dumps({"type": "handover", "ue": ue,
                                 "rsrp_dbm": {str(c): v for c, v in zip(cells, vals)}}))
    return lines


def test_serve_stream_client_chosen_reports_match_golden_digest():
    dep = generate_deployment(300, 10, 60, 1500.0)
    assert replies_digest(load_model(str(PINNED_MODEL)), dep,
                          client_chosen_session_lines(dep)) == SERVE_10X60_DIGEST
