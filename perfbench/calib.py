"""Machine-speed reference for a noisy host.

On a shared host the same work can take twice as long from one minute to
the next, and how much longer depends on the kind of work.  Workers
therefore run a fixed reference kernel between ops and record how long it
took.  The kernel is a frozen copy of the program's hot path as it was when
the benchmark was defined (attach one UE, assemble the node features, run
the two-round Q-network forward pass), on a fixed graph of the workload's
size, so it slows down the way the program does, while changes to the
program leave it alone.  The benchmark reports each time measured near a
calibration scaled to a reference speed: ``raw * ref_s / kernel_time``,
i.e. the time the op would take when one kernel run takes ``ref_s``.  Raw
times stay in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

REPEATS = 7             # kernel runs per calibration; their median is kept
WINDOW_S = 2.0          # calibrations this close to an interval set its speed
WIDTH = 8
# Graph size (cells, UEs), candidates scored per kernel run, and the run
# time scaled values refer to: about the median on the machine that defined
# the benchmark, so scaled times read like raw ones at its usual speed.
KERNELS = {"desk": (6, 30, 10, 1.0e-3), "dense": (20, 200, 8, 1.0e-3)}


@dataclass(frozen=True)
class _Graph:
    adj: np.ndarray
    assign: np.ndarray


def _relu(x):
    return np.maximum(x, 0.0)


class Kernel:
    """Scores fixed candidate attachments on a fixed graph."""

    def __init__(self, size: str):
        n_cells, n_ues, self.candidates, self.ref_s = KERNELS[size]
        rng = np.random.default_rng(20240817)
        pos = rng.uniform(-250.0, 250.0, size=(n_cells, 2))
        d = np.hypot(*(pos[:, None, :] - pos[None, :, :]).transpose(2, 0, 1))
        adj = (d < 250.0).astype(float)
        np.fill_diagonal(adj, 0.0)
        self.cap = rng.uniform(0.5, 12.0, size=(n_cells, n_ues))
        assign = rng.integers(0, n_cells, size=n_ues)
        assign[: self.candidates] = -1
        self.graph = _Graph(adj=adj, assign=assign)
        self.w = [[rng.normal(0.0, 0.3, size=(2 if layer == 0 else WIDTH, WIDTH))
                   for layer in range(2)] for _ in range(3)]
        self.w4 = rng.normal(0.0, 0.3, size=(WIDTH, WIDTH))
        self.w5 = rng.normal(0.0, 0.3, size=WIDTH)

    def _score(self, cell: int, ue: int) -> float:
        g = self.graph
        assign = g.assign.copy()
        assign[ue] = cell
        g = replace(g, assign=assign)
        cap, n_cells = self.cap, g.adj.shape[0]
        served = np.nonzero(g.assign != -1)[0]
        cells = g.assign[served]
        loads = np.bincount(cells, minlength=n_cells)
        rates = np.zeros(g.assign.shape[0])
        rates[served] = cap[cells, served] / loads[cells]
        per_cell = np.bincount(cells, weights=rates[served], minlength=n_cells)
        scale = cap.mean() + 1e-9
        x1 = np.stack([g.adj @ per_cell, per_cell], axis=1) / scale
        x2 = np.stack([per_cell, cap.sum(axis=1)], axis=1) / scale
        xu = np.stack([cap.sum(axis=0), rates], axis=1) / scale
        a_ue = np.zeros(cap.shape)
        a_ue[cells, served] = 1.0
        w1, w2, w3 = self.w
        for layer in range(2):
            h_cl = _relu(x1 @ w1[layer]) + _relu(x2 @ w2[layer])
            h_ue = _relu(xu @ w3[layer])
            if layer == 0:
                x1, xu, x2 = g.adj @ h_cl, a_ue.T @ h_cl, a_ue @ h_ue
        return float(_relu(h_cl.sum(axis=0) @ self.w4) @ self.w5)

    def run(self) -> float:
        n_cells = self.graph.adj.shape[0]
        return max(self._score(ue % n_cells, ue) for ue in range(self.candidates))

    def calibrate(self) -> tuple[float, float]:
        """(time, seconds): when the calibration ran and its median kernel time."""
        runs = []
        for _ in range(REPEATS):
            t0 = time.monotonic()
            self.run()
            runs.append(time.monotonic() - t0)
        return time.monotonic(), statistics.median(runs)


class Speed:
    """Scales intervals by the calibrations recorded around them."""

    def __init__(self, calibrations: list[tuple[float, float]], ref_s: float):
        if not calibrations:
            raise ValueError("no calibration recorded")
        pairs = sorted(calibrations)
        self.at = [t for t, _ in pairs]
        self.kernel = [k for _, k in pairs]
        self.ref_s = ref_s

    def factor(self, t0: float, t1: float) -> float:
        """ref_s over the median kernel time within WINDOW_S of [t0, t1], or
        of the nearest calibration when none is that close."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.kernel[lo:hi]
        if not near:
            i = bisect.bisect_left(self.at, t0)
            cands = [j for j in (i - 1, i) if 0 <= j < len(self.at)]
            j = min(cands, key=lambda j: min(abs(self.at[j] - t0), abs(self.at[j] - t1)))
            near = [self.kernel[j]]
        return self.ref_s / statistics.median(near)

    def scale(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the reference speed."""
        return (t1 - t0) * self.factor(t0, t1)

    def median_kernel_ms(self) -> float:
        return statistics.median(self.kernel) * 1e3
