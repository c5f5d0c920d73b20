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


# JSON values accepted for the scalar field annotations of a dataclass (and for
# the entries of its tuple fields, which JSON spells as lists).  A float field
# takes an integer too, if ``float`` converts it; no field takes a bool; a field
# of any other annotation takes its value as it is.
_JSON_TYPES = {"int": lambda v: type(v) is int, "float": is_number,
               "str": lambda v: isinstance(v, str), "None": lambda v: v is None}


def build(cls, doc, path: str):
    """``cls`` built from the JSON object ``doc`` read from ``path``; ValueError starting
    with ``path`` unless ``doc`` is an object whose keys are among ``cls``'s init fields,
    each value has its field's JSON type, and ``cls`` itself accepts the values."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {cls.__name__} must be a JSON object, got {doc!r}")
    hints = {f.name: f.type for f in fields(cls) if f.init}
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValueError(f"{path}: unknown {cls.__name__} keys {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        hint = hints[key]
        item = hint.removeprefix("tuple[").removesuffix(", ...]")
        items, want = ([value], hint) if item == hint else (value, f"a list of {item}")
        kinds = [_JSON_TYPES.get(t) for t in item.split(" | ")]
        if not isinstance(items, list) or None not in kinds and not all(
                any(ok(v) for ok in kinds) for v in items):
            raise ValueError(f"{path}: {key} must be {want}, got {value!r}")
        kwargs[key] = value if item == hint else tuple(value)
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a value the class itself refuses
        raise ValueError(f"{path}: {exc}") from None


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
        rsrp_gap_db: (n_ues,) gap between each UE's two strongest RSRP
            values, dB; +inf with a single cell.  Derived on construction,
            read-only.
    Construction raises ValueError unless ``hex_diameter_m`` is finite and > 0,
    cells, ues and shadow_db are finite (n, 2), (m, 2), (n, m) arrays with
    n, m >= 1, and ``rsrp_dbm`` and ``cap`` are finite.
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
    rsrp_gap_db: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells, ues, shadow = arrays = (self.cells, self.ues, self.shadow_db)
        if not (0 < self.hex_diameter_m < math.inf and cells.shape[1:] == ues.shape[1:] == (2,)
                and shadow.shape == (len(cells), len(ues)) and shadow.size  # len(): both 2-D
                and all(np.isfinite(a).all() for a in arrays)):
            raise ValueError(f"deployment {self.seed}: need a finite hex_diameter_m > 0 and finite "
                             f"(n, 2), (m, 2), (n, m) cells, ues, shadow_db with n, m >= 1, got "
                             f"{self.hex_diameter_m!r}, {', '.join(str(a.shape) for a in arrays)}")
        with np.errstate(over="ignore"):  # an overflow is reported by the finite check below
            pl = pathloss_db(distance_3d_m(self), self.radio.carrier_ghz)
            rsrp = self.radio.tx_power_dbm - pl - self.shadow_db
            cap = np.log2(1.0 + snr_linear(rsrp, self.radio))
        k = min(self.radio.report_set_size, self.n_cells)
        if not (np.isfinite(rsrp).all() and np.isfinite(cap).all()):
            raise ValueError(f"deployment {self.seed}: RSRP and capacity must be finite")
        order = np.argsort(-rsrp, axis=0, kind="stable")
        top2 = np.take_along_axis(rsrp, order[:2], axis=0)
        gap = top2[0] - (top2[1] if len(top2) > 1 else -np.inf)
        for name, arr in (("rsrp_dbm", rsrp), ("cap", cap), ("report_cells", order[:k].T),
                          ("rsrp_gap_db", gap)):
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
    if not 0 < hex_diameter_m < math.inf:  # the sampler's bounds, before the first draw
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
    with every key that ``save_deployment`` writes and no other, cells, ues and shadow_db
    are arrays of numbers, and ``build`` makes a ``RadioConfig`` of ``radio`` and a
    ``Deployment`` of the whole.  Every message starts with ``path``."""
    doc = read_json_object(path, ("seed", "hex_diameter_m", "radio", "cells", "ues", "shadow_db"))
    doc |= {k: number_array(doc[k], f"{path}: {k}") for k in ("cells", "ues", "shadow_db")}
    return build(Deployment, dict(doc, radio=build(RadioConfig, doc["radio"], path)), path)
