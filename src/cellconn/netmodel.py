"""Radio network model: hexagonal deployments, path loss, RSRP and link capacity.

Positions are 2-D coordinates in meters inside a regular hexagon centered at
the origin.  Antenna heights enter only through the 3-D propagation distance:
cells radiate at 10 m, user terminals sit at 1.5 m.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, asdict, astuple

import numpy as np

CELL_HEIGHT_M = 10.0
UE_HEIGHT_M = 1.5

# Rejection sampling gives up after this many candidate draws so an
# infeasible separation constraint fails loudly instead of spinning.
MAX_PLACEMENT_ATTEMPTS = 100_000


class PlacementError(RuntimeError):
    """Raised when positions cannot be sampled under the active constraints."""


def is_number(x) -> bool:
    """True for a float, or an int that is not a bool (JSON's ``true`` loads as
    one) and that ``float`` converts without overflow."""
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool)
                                    and abs(x) <= sys.float_info.max)


def read_json_object(path: str, keys: tuple[str, ...]) -> dict:
    """The JSON object in ``path``; ValueError naming the file unless it is UTF-8
    JSON whose top level is an object that holds every one of ``keys``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level must be a JSON object, got {type(doc).__name__}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{path}: missing key {missing[0]!r}")
    return doc


def number_array(x, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array; ValueError naming ``what`` if any
    entry is a bool, a string or anything else that ``float`` would coerce."""
    a = np.asarray(x, dtype=object)
    if not all(map(is_number, a.flat)):
        raise ValueError(f"{what} must hold only numbers, got {x!r:.80}")
    return a.astype(float)


@dataclass(frozen=True)
class RadioConfig:
    """Radio parameters shared by every cell in a deployment."""

    tx_power_dbm: float = 33.0        # cell transmit power
    carrier_ghz: float = 30.0         # carrier frequency, GHz
    bandwidth_mhz: float = 100.0      # channel bandwidth, MHz
    noise_figure_db: float = 7.0      # receiver noise figure
    shadow_sigma_db: float = 4.0      # lognormal shadowing std dev
    report_set_size: int = 4          # cells per measurement report

    def __post_init__(self) -> None:
        k = self.report_set_size  # a slice bound; an empty report leaves a UE no legal action
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"report_set_size must be an integer >= 1, got {k!r}")
        if not (all(is_number(v) and math.isfinite(v) for v in astuple(self))
                and self.carrier_ghz > 0 and self.bandwidth_mhz > 0 and self.shadow_sigma_db >= 0):
            raise ValueError(f"radio values must be finite numbers, with carrier_ghz > 0, "
                             f"bandwidth_mhz > 0 and shadow_sigma_db >= 0, got {self}")

    def noise_dbm(self) -> float:
        """Thermal noise power over the full band: -174 dBm/Hz + 10log10(B) + NF."""
        return -174.0 + 10.0 * math.log10(self.bandwidth_mhz * 1e6) + self.noise_figure_db


@dataclass(frozen=True)
class Deployment:
    """Immutable snapshot of one network drop.

    Attributes:
        seed: RNG seed the drop was generated from.
        hex_diameter_m: corner-to-corner diameter of the service hexagon.
        radio: radio parameters.
        cells: (n_cells, 2) float array of cell positions, meters.
        ues: (n_ues, 2) float array of user positions, meters.
        shadow_db: (n_cells, n_ues) frozen shadowing realization, dB.
        rsrp_dbm: (n_cells, n_ues) RSRP map, dBm: TX power - path loss -
            shadowing.  Derived on construction, read-only.
        cap: (n_cells, n_ues) Shannon spectral efficiency log2(1 + SNR) of
            every cell-UE link, bit/s/Hz.  Derived on construction, read-only.
        report_cells: (n_ues, k) cells of each UE's measurement report,
            k = min(report_set_size, n_cells), by falling RSRP with exact
            ties to the lower cell index.  Derived on construction, read-only.
    Construction raises ValueError unless ``rsrp_dbm`` and ``cap`` are finite.
    """

    seed: int
    hex_diameter_m: float
    radio: RadioConfig
    cells: np.ndarray
    ues: np.ndarray
    shadow_db: np.ndarray
    rsrp_dbm: np.ndarray = field(init=False, repr=False, compare=False)
    cap: np.ndarray = field(init=False, repr=False, compare=False)
    report_cells: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        with np.errstate(over="ignore"):  # an overflow is reported by the finite check below
            pl = pathloss_db(distance_3d_m(self), self.radio.carrier_ghz)
            rsrp = self.radio.tx_power_dbm - pl - self.shadow_db
            cap = np.log2(1.0 + snr_linear(rsrp, self.radio))
        k = min(self.radio.report_set_size, self.n_cells)
        if not (np.isfinite(rsrp).all() and np.isfinite(cap).all()):
            raise ValueError(f"deployment {self.seed}: RSRP and capacity must be finite")
        report = np.argsort(-rsrp, axis=0, kind="stable")[:k].T
        for name, arr in (("rsrp_dbm", rsrp), ("cap", cap), ("report_cells", report)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_ues(self) -> int:
        return self.ues.shape[0]


def in_hexagon(points: np.ndarray, diameter_m: float) -> np.ndarray:
    """Membership test for the regular hexagon with vertices on the x axis.

    Args:
        points: (..., 2) coordinates in meters.
        diameter_m: corner-to-corner diameter.

    Returns:
        Boolean array over the leading dimensions (boundary counts as inside).
    """
    radius = diameter_m / 2.0
    x = np.abs(np.asarray(points)[..., 0])
    y = np.abs(np.asarray(points)[..., 1])
    half_height = radius * math.sqrt(3.0) / 2.0
    return (y <= half_height) & (math.sqrt(3.0) * x + y <= math.sqrt(3.0) * radius)


def _sample_in_hexagon(rng: np.random.Generator, diameter_m: float,
                       keep_min_dist_from: np.ndarray | None = None,
                       min_dist_m: float = 0.0,
                       attempts_used: int = 0) -> tuple[np.ndarray, int]:
    """Rejection-sample one point, optionally min_dist_m away from given points."""
    radius = diameter_m / 2.0
    half_height = radius * math.sqrt(3.0) / 2.0
    attempts = attempts_used
    while attempts < MAX_PLACEMENT_ATTEMPTS:
        attempts += 1
        p = rng.uniform([-radius, -half_height], [radius, half_height])
        if not in_hexagon(p, diameter_m):
            continue
        if keep_min_dist_from is not None and len(keep_min_dist_from) > 0:
            d = np.hypot(*(keep_min_dist_from - p).T)
            if d.min() < min_dist_m:
                continue
        return p, attempts
    raise PlacementError(
        f"could not place a point after {MAX_PLACEMENT_ATTEMPTS} attempts; "
        f"minimum separation of {min_dist_m} m inside a {diameter_m} m hexagon "
        "appears infeasible"
    )


def generate_deployment(seed: int, n_cells: int, n_ues: int,
                        hex_diameter_m: float = 500.0,
                        radio: RadioConfig | None = None,
                        min_cell_sep_m: float = 50.0) -> Deployment:
    """Draw a deployment: cell sites, user positions and a frozen shadowing map.

    Cells are placed first (uniform in the hexagon, pairwise separation at
    least ``min_cell_sep_m``), then users, then the (n_cells, n_ues) shadowing
    matrix.  The draw order is fixed so identical arguments reproduce the
    deployment bit for bit.

    Raises:
        ValueError: non-positive counts, a diameter not positive and finite, or
            a radio that makes RSRP or capacity not finite.
        PlacementError: separation constraint infeasible.
    """
    if n_cells < 1 or n_ues < 1:
        raise ValueError(f"need at least one cell and one UE, got {n_cells}/{n_ues}")
    if not 0 < hex_diameter_m < math.inf:
        raise ValueError(f"hex_diameter_m must be positive and finite, got {hex_diameter_m}")
    radio = radio or RadioConfig()
    rng = np.random.default_rng(seed)

    cells = np.empty((0, 2))
    attempts = 0
    for _ in range(n_cells):
        p, attempts = _sample_in_hexagon(rng, hex_diameter_m, cells,
                                         min_cell_sep_m, attempts)
        cells = np.vstack([cells, p])

    ues = np.empty((n_ues, 2))
    for j in range(n_ues):
        ues[j], _ = _sample_in_hexagon(rng, hex_diameter_m)

    shadow_db = rng.normal(0.0, radio.shadow_sigma_db, size=(n_cells, n_ues))
    return Deployment(seed=seed, hex_diameter_m=hex_diameter_m, radio=radio,
                      cells=cells, ues=ues, shadow_db=shadow_db)


def pathloss_db(distance_3d_m, carrier_ghz: float):
    """Urban line-of-sight path loss: 32.4 + 21 log10(d_m) + 20 log10(f_GHz).

    Distance is floored at 1 m.  Works elementwise on arrays.
    """
    d = np.maximum(distance_3d_m, 1.0)
    return 32.4 + 21.0 * np.log10(d) + 20.0 * np.log10(carrier_ghz)


def distance_3d_m(dep: Deployment) -> np.ndarray:
    """(n_cells, n_ues) 3-D distances including the antenna height offset."""
    dxy = dep.cells[:, None, :] - dep.ues[None, :, :]
    dz = CELL_HEIGHT_M - UE_HEIGHT_M
    return np.sqrt(np.sum(dxy * dxy, axis=2) + dz * dz)


def rsrp_dbm(dep: Deployment, cell: int, ue: int) -> float:
    """Received power from one cell at one UE: TX power - path loss - shadowing."""
    return float(dep.rsrp_dbm[cell, ue])


def rsrp_matrix_dbm(dep: Deployment) -> np.ndarray:
    """(n_cells, n_ues) RSRP map in dBm (the deployment's read-only array)."""
    return dep.rsrp_dbm


def snr_linear(rsrp: np.ndarray | float, radio: RadioConfig):
    return np.power(10.0, (np.asarray(rsrp) - radio.noise_dbm()) / 10.0)


@dataclass(frozen=True)
class MeasurementReport:
    """Strongest cells seen by one UE, sorted by falling RSRP."""

    ue: int
    cells: tuple[int, ...]
    rsrp_dbm: tuple[float, ...]


def measurement_report(dep: Deployment, ue: int) -> MeasurementReport:
    """Report of the ``report_set_size`` strongest cells for a UE.

    Ordering is by descending RSRP; exact ties resolve to the lower cell
    index.  Networks smaller than the report size report every cell.
    """
    if not 0 <= ue < dep.n_ues:
        raise ValueError(f"UE index {ue} out of range [0, {dep.n_ues})")
    top = dep.report_cells[ue].tolist()
    return MeasurementReport(ue=ue, cells=tuple(top),
                             rsrp_dbm=tuple(dep.rsrp_dbm[top, ue].tolist()))


def save_deployment(dep: Deployment, path: str) -> None:
    """Write the deployment as JSON; doubles round-trip losslessly."""
    doc = {
        "seed": dep.seed,
        "hex_diameter_m": dep.hex_diameter_m,
        "radio": asdict(dep.radio),
        "cells": dep.cells.tolist(),
        "ues": dep.ues.tolist(),
        "shadow_db": dep.shadow_db.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_deployment(path: str) -> Deployment:
    """Read a file written by ``save_deployment``; raises ValueError unless it holds an object
    with every key that ``save_deployment`` writes, ``seed`` is an integer, ``hex_diameter_m``
    a finite number > 0, ``radio`` an object that ``RadioConfig`` takes, and cells, ues,
    shadow_db finite (n, 2), (m, 2), (n, m) arrays of numbers, and the ``Deployment`` they
    make has a finite RSRP map and capacity matrix.  Every message starts with ``path``."""
    doc = read_json_object(path, ("seed", "hex_diameter_m", "radio", "cells", "ues", "shadow_db"))
    seed, diameter, radio = doc["seed"], doc["hex_diameter_m"], doc["radio"]
    if type(seed) is not int:
        raise ValueError(f"{path}: seed must be an integer, got {seed!r}")
    if not (is_number(diameter) and 0 < diameter < math.inf):
        raise ValueError(f"{path}: hex_diameter_m must be a finite number > 0, got {diameter!r}")
    keys = {f.name for f in fields(RadioConfig)}
    if not (isinstance(radio, dict) and radio.keys() <= keys):
        raise ValueError(f"{path}: radio must be an object with keys among {sorted(keys)}, "
                         f"got {radio!r}")
    cells, ues, shadow = (number_array(doc[k], f"{path}: {k}") for k in ("cells", "ues", "shadow_db"))
    if (cells.shape[1:] != (2,) or ues.shape[1:] != (2,)
            or shadow.shape != (len(cells), len(ues))
            or not all(np.isfinite(a).all() for a in (cells, ues, shadow))):
        raise ValueError(f"{path}: cells, ues and shadow_db must be finite (n, 2), (m, 2) "
                         f"and (n, m) arrays, got {cells.shape}, {ues.shape}, {shadow.shape}")
    try:  # the checks of RadioConfig and Deployment themselves
        return Deployment(seed=seed, hex_diameter_m=float(diameter), radio=RadioConfig(**radio),
                          cells=cells, ues=ues, shadow_db=shadow)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
