"""Radio model: sampling, link budget, reports, serialization."""

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import cellconn.netmodel as netmodel
from cellconn.netmodel import (CELL_HEIGHT_M, UE_HEIGHT_M, Deployment,
                               MeasurementReport, PlacementError, RadioConfig,
                               distance_3d_m, generate_deployment,
                               in_hexagon, load_deployment,
                               measurement_report, pathloss_db, rsrp_dbm,
                               rsrp_matrix_dbm, save_deployment, snr_linear)

from conftest import deployment_with_rsrp, make_deployment, mutated, saved_doc

# Frozen by straight-line evaluation of the link-budget formulas:
#   32.4 + 21*log10(8.5) + 20*log10(30)  and  -174 + 10*log10(1e8) + 7
PL_AT_85M_30GHZ = 81.4602225343934
NOISE_100MHZ_NF7 = -87.0


def test_pathloss_zero_planar_offset():
    # cell over UE: only the 8.5 m height offset remains
    assert pathloss_db(8.5, 30.0) == pytest.approx(PL_AT_85M_30GHZ, rel=1e-12)
    dep = make_deployment([(0.0, 0.0)], [(0.0, 0.0)])
    assert distance_3d_m(dep)[0, 0] == pytest.approx(CELL_HEIGHT_M - UE_HEIGHT_M)
    assert rsrp_dbm(dep, 0, 0) == pytest.approx(33.0 - PL_AT_85M_30GHZ, rel=1e-12)


def test_pathloss_distance_floor_at_one_meter():
    assert pathloss_db(0.01, 30.0) == pathloss_db(1.0, 30.0)


def test_pathloss_doubling_distance_slope():
    # slope of the law: 21*log10(2) ≈ 6.32 dB per doubling
    drop = pathloss_db(200.0, 30.0) - pathloss_db(100.0, 30.0)
    assert drop == pytest.approx(6.321629908943605, rel=1e-12)


def test_link_budget_additive_identity():
    # PL + shadow = 100 dB at tx 33 dBm → RSRP −67 dBm
    dep = make_deployment([(0.0, 0.0)], [(0.0, 0.0)])
    pl = pathloss_db(distance_3d_m(dep), 30.0)[0, 0]
    dep100 = make_deployment([(0.0, 0.0)], [(0.0, 0.0)], shadow_db=[[100.0 - pl]])
    assert rsrp_dbm(dep100, 0, 0) == pytest.approx(-67.0, rel=1e-12)


def test_noise_power():
    assert RadioConfig().noise_dbm() == pytest.approx(NOISE_100MHZ_NF7, abs=1e-12)


def test_capacity_known_snrs():
    radio = RadioConfig()
    # construct RSRPs that land on exact linear SNRs 1, 3, 0⁻
    for snr, expected in [(1.0, 1.0), (3.0, 2.0)]:
        rsrp = radio.noise_dbm() + 10.0 * math.log10(snr)
        dep = deployment_with_rsrp([[rsrp]])
        assert dep.cap[0, 0] == pytest.approx(expected, rel=1e-12)
    assert float(np.log2(1.0 + 0.0)) == 0.0  # SNR→0 limit of the formula


def test_capacity_monotone_in_rsrp(rng):
    radio = RadioConfig()
    rsrps = np.sort(rng.uniform(-120, -30, size=40))
    caps = [deployment_with_rsrp([[r]]).cap[0, 0] for r in rsrps]
    assert all(b >= a for a, b in zip(caps, caps[1:]))


def test_generate_deployment_deterministic():
    a = generate_deployment(7, 6, 50)
    b = generate_deployment(7, 6, 50)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.ues, b.ues)
    assert np.array_equal(a.shadow_db, b.shadow_db)
    c = generate_deployment(8, 6, 50)
    assert not np.array_equal(a.cells, c.cells)


def test_generate_deployment_shapes_and_membership():
    dep = generate_deployment(7, 6, 50, hex_diameter_m=500.0)
    assert dep.n_cells == 6 and dep.n_ues == 50
    assert dep.shadow_db.shape == (6, 50)
    # independent point-in-convex-polygon oracle over the hexagon's vertices
    angles = np.arange(6) * (math.pi / 3.0)
    verts = 250.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)  # circumradius 250 m
    for p in np.vstack([dep.cells, dep.ues]):
        for k in range(6):
            a, b = verts[k], verts[(k + 1) % 6]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            assert cross >= -1e-9  # CCW polygon: inside means left of every edge
        assert in_hexagon(p, 500.0)


def test_in_hexagon_boundary_points():
    assert in_hexagon(np.array([250.0, 0.0]), 500.0)
    assert not in_hexagon(np.array([250.1, 0.0]), 500.0)
    assert not in_hexagon(np.array([0.0, 250.0]), 500.0)  # flat side: height < R


def test_cell_separation_enforced():
    dep = generate_deployment(3, 6, 5, min_cell_sep_m=50.0)
    d = dep.cells[:, None, :] - dep.cells[None, :, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= 50.0


def test_separation_infeasible_raises():
    with pytest.raises(PlacementError, match="separation"):
        generate_deployment(0, 5, 1, hex_diameter_m=20.0, min_cell_sep_m=50.0)


def one_at_a_time(seed, n_cells, n_ues, hex_diameter_m=500.0, min_cell_sep_m=50.0):
    """Cells, UEs and shadowing of a deployment as drawn one UE at a time: up to
    ``netmodel.MAX_PLACEMENT_ATTEMPTS`` uniform draws in the hexagon's bounding box per UE."""
    rng = np.random.default_rng(seed)
    cells, attempts = np.empty((0, 2)), 0
    for _ in range(n_cells):  # the cell sampler, not under test here
        p, attempts = netmodel._sample_in_hexagon(rng, hex_diameter_m, cells, min_cell_sep_m,
                                                  attempts)
        cells = np.vstack([cells, p])
    radius = hex_diameter_m / 2.0
    half_height = radius * math.sqrt(3.0) / 2.0
    ues = []
    for _ in range(n_ues):
        for _ in range(netmodel.MAX_PLACEMENT_ATTEMPTS):
            p = rng.uniform([-radius, -half_height], [radius, half_height])
            if in_hexagon(p, hex_diameter_m):
                ues.append(p)
                break
        else:
            raise PlacementError("out of attempts")
    shadow_db = rng.normal(0.0, RadioConfig().shadow_sigma_db, size=(n_cells, n_ues))
    return cells, np.reshape(ues, (n_ues, 2)), shadow_db


@pytest.mark.parametrize("n_cells, n_ues", [(1, 1), (2, 4), (6, 30), (20, 200)])
def test_ues_drawn_in_batches_are_the_one_at_a_time_draws(n_cells, n_ues):
    for seed in range(200):
        dep = generate_deployment(seed, n_cells, n_ues)
        for got, want in zip((dep.cells, dep.ues, dep.shadow_db),
                             one_at_a_time(seed, n_cells, n_ues)):
            assert got.tobytes() == want.tobytes(), seed


def test_a_ue_out_of_attempts_raises_as_one_at_a_time(monkeypatch):
    # with two draws per UE, about one UE in 16 runs out (a draw misses the hexagon
    # a quarter of the time); both samplers must fail on the same seeds, at any UE
    monkeypatch.setattr(netmodel, "MAX_PLACEMENT_ATTEMPTS", 2)
    outcomes = set()
    for seed in range(60):
        try:
            want = one_at_a_time(seed, 1, 30)
        except PlacementError:
            with pytest.raises(PlacementError, match="could not place"):
                generate_deployment(seed, 1, 30)
            outcomes.add("raised")
            continue
        dep = generate_deployment(seed, 1, 30)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip((dep.cells, dep.ues, dep.shadow_db), want))
        outcomes.add("drawn")
    assert outcomes == {"raised", "drawn"}


def test_bad_counts_rejected():
    with pytest.raises(ValueError):
        generate_deployment(0, 0, 5)
    with pytest.raises(ValueError):
        generate_deployment(0, 3, 0)
    with pytest.raises(ValueError):
        generate_deployment(0, 3, 5, hex_diameter_m=-1.0)
    for diameter in (float("nan"), float("inf")):  # numpy's uniform would overflow
        with pytest.raises(ValueError, match="hex_diameter_m"):
            generate_deployment(1, 3, 4, hex_diameter_m=diameter)


def test_minimal_instance():
    dep = generate_deployment(123, 1, 1)
    assert dep.shadow_db.shape == (1, 1)
    assert dep.n_cells == dep.n_ues == 1


def test_report_is_sorted_top_k():
    dep = generate_deployment(11, 6, 10)
    rsrp = rsrp_matrix_dbm(dep)
    for ue in range(10):
        rep = measurement_report(dep, ue)
        assert len(rep.cells) == 4
        assert len(set(rep.cells)) == 4
        assert all(a >= b for a, b in zip(rep.rsrp_dbm, rep.rsrp_dbm[1:]))
        # top-4 by RSRP, independently via argsort
        expected = set(np.argsort(-rsrp[:, ue], kind="stable")[:4].tolist())
        assert set(rep.cells) == expected


def test_report_small_network_sizes():
    assert len(measurement_report(generate_deployment(2, 1, 3), 0).cells) == 1
    assert len(measurement_report(generate_deployment(2, 3, 3), 0).cells) == 3


def test_report_tie_breaks_to_lower_cell():
    dep = deployment_with_rsrp([[-60.0], [-60.0], [-80.0]])
    rep = measurement_report(dep, 0)
    assert rep.cells[:2] == (0, 1)


def test_report_matches_sorted_reference_with_ties():
    # whole-dB RSRP maps tie often; every report size from 1 to one past
    # the cell count is checked against a plain sort of each UE's column
    rng = np.random.default_rng(29)
    ties = 0
    for _ in range(30):
        n_cells, n_ues = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        target = rng.normal(-75.0, 3.0, size=(n_cells, n_ues)).round()
        for k in range(1, n_cells + 2):
            dep = deployment_with_rsrp(target, radio=RadioConfig(report_set_size=k))
            for ue in range(n_ues):
                rsrp = dep.rsrp_dbm[:, ue]
                want = sorted(range(n_cells), key=lambda c: (-rsrp[c], c))[:k]
                rep = measurement_report(dep, ue)
                assert rep.cells == tuple(want)
                assert rep.rsrp_dbm == tuple(float(rsrp[c]) for c in want)
                ties += len(set(rsrp.tolist())) < n_cells
    assert ties > 50


def test_report_rejects_bad_ue():
    dep = generate_deployment(5, 2, 2)
    with pytest.raises(ValueError, match="out of range"):
        measurement_report(dep, 2)


def test_deployment_roundtrip(tmp_path):
    dep = generate_deployment(42, 4, 9)
    path = tmp_path / "dep.json"
    save_deployment(dep, str(path))
    back = load_deployment(str(path))
    assert back.seed == dep.seed
    assert back.hex_diameter_m == dep.hex_diameter_m
    assert back.radio == dep.radio
    assert np.array_equal(back.cells, dep.cells)
    assert np.array_equal(back.ues, dep.ues)
    assert np.array_equal(back.shadow_db, dep.shadow_db)
    assert np.array_equal(back.rsrp_dbm, dep.rsrp_dbm)
    assert np.array_equal(back.cap, dep.cap)
    # the derived radio arrays are not part of the file format
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc) == ["seed", "hex_diameter_m", "radio", "cells", "ues", "shadow_db"]


def test_load_deployment_rejects_bad_shapes_and_non_finite_values(tmp_path):
    path = tmp_path / "dep.json"
    save_deployment(generate_deployment(42, 3, 4), str(path))
    good = json.loads(path.read_text(encoding="utf-8"))
    nan_shadow = [row[:] for row in good["shadow_db"]]
    nan_shadow[1][2] = float("nan")
    for key, bad in [("cells", np.reshape(good["cells"], (2, 3)).tolist()),  # 3 cells as 2 x 3
                     ("ues", np.ravel(good["ues"]).tolist()),
                     ("shadow_db", good["shadow_db"][:2]),
                     ("shadow_db", nan_shadow),
                     ("ues", [[math.inf, 0.0]] + good["ues"][1:])]:
        path.write_text(json.dumps(dict(good, **{key: bad})), encoding="utf-8")
        with pytest.raises(ValueError, match="finite"):
            load_deployment(str(path))


def test_a_hand_built_deployment_gets_the_checks_of_a_loaded_one():
    good = generate_deployment(42, 3, 4)
    nan_cells = good.cells.copy()
    nan_cells[1, 0] = math.nan
    for bad in (dict(cells=good.cells[:, 0]), dict(cells=np.array(5.0)),  # not 2-D
                dict(ues=good.ues[..., None]), dict(shadow_db=good.shadow_db.ravel()),
                dict(cells=np.empty((0, 2)), shadow_db=np.empty((0, 4))),  # no cell
                dict(ues=np.empty((0, 2)), shadow_db=np.empty((3, 0))),  # no UE
                dict(shadow_db=good.shadow_db.T), dict(cells=nan_cells),
                dict(hex_diameter_m=0.0), dict(hex_diameter_m=math.inf),
                dict(hex_diameter_m=math.nan)):
        with pytest.raises(ValueError, match="^deployment 42: need a finite hex_diameter_m"):
            dataclasses.replace(good, **bad)


def test_load_deployment_rejects_a_non_finite_rsrp_map_or_capacity(tmp_path):
    path = tmp_path / "dep.json"
    save_deployment(generate_deployment(42, 6, 30), str(path))
    good = json.loads(path.read_text(encoding="utf-8"))
    far = [[1e200, good["cells"][0][1]]] + good["cells"][1:]  # a squared distance overflows
    for bad in (dict(good, radio=dict(good["radio"], tx_power_dbm=1e308)),  # SNR overflows
                dict(good, cells=far)):  # infinite path loss: RSRP -inf
        path.write_text(json.dumps(bad), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning is not the report
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*must be finite"):
                load_deployment(str(path))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated(saved_doc(save_deployment, generate_deployment(42, 3, 4))))
def test_load_deployment_survives_any_one_mutation(tmp_path, case):
    # one hostile value, deleted key or added key: a finite deployment, or a
    # ValueError that names the file, and never a numpy warning; a file cut
    # short or not UTF-8: that ValueError
    data, is_json = case
    path = tmp_path / "dep.json"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dep = load_deployment(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return
    assert is_json, "a corrupt file loaded"
    for a in (dep.cells, dep.ues, dep.shadow_db, dep.rsrp_dbm, dep.cap):
        assert a.dtype == float and np.isfinite(a).all()


def test_report_set_size_below_one_rejected(tmp_path):
    for k in (0, -1):
        with pytest.raises(ValueError, match="report_set_size"):
            RadioConfig(report_set_size=k)
    path = tmp_path / "dep.json"
    save_deployment(generate_deployment(42, 3, 4), str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["radio"]["report_set_size"] = 0
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="report_set_size"):
        load_deployment(str(path))


def test_radio_values_the_model_cannot_use_rejected(tmp_path):
    for key, bad in [("bandwidth_mhz", -1), ("carrier_ghz", 0), ("shadow_sigma_db", -0.5),
                     ("tx_power_dbm", math.nan), ("noise_figure_db", math.inf)]:
        with pytest.raises(ValueError, match=f"{key}={bad}"):
            RadioConfig(**{key: bad})
    for bad in (2.0, True, "4"):  # a report holds a whole number of cells
        with pytest.raises(ValueError, match="report_set_size"):
            RadioConfig(report_set_size=bad)
    for bad in (True, "33"):  # a bool or a string is not a power, even where float() takes it
        with pytest.raises(ValueError, match=f"tx_power_dbm={bad!r}"):
            RadioConfig(tx_power_dbm=bad)
    RadioConfig(shadow_sigma_db=0.0)  # no shadowing is fine
    path = tmp_path / "dep.json"
    save_deployment(generate_deployment(42, 3, 4), str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key, bad, match in [("bandwidth_mhz", -1, "bandwidth_mhz=-1"),  # log10 in noise_dbm
                            ("report_set_size", 2.0, "report_set_size"),  # a slice bound
                            ("report_set_size", True, "report_set_size"),
                            ("tx_power_dbm", True, "tx_power_dbm must be float, got True"),
                            ("tx_power_dbm", "33", "tx_power_dbm must be float, got '33'"),
                            ("tx_power_dbm", 10 ** 400,
                             f"tx_power_dbm must be float, got {10 ** 400}"),
                            ("power_dbm", 33.0, r"unknown RadioConfig keys \['power_dbm'\]")]:
        path.write_text(json.dumps(dict(doc, radio=dict(doc["radio"], **{key: bad}))),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_deployment(str(path))


def test_load_deployment_names_the_file_that_is_not_json(tmp_path):
    path = tmp_path / "dep.json"
    for data in (b'{"seed": 1,', b'\xff{}'):  # cut short; not UTF-8
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_deployment(str(path))


def test_deployment_file_values_are_not_coerced(tmp_path):
    path = tmp_path / "dep.json"
    save_deployment(generate_deployment(42, 3, 4), str(path))
    good = json.loads(path.read_text(encoding="utf-8"))

    def with_entry(key, value):  # the file with one entry of an array replaced
        rows = [row[:] for row in good[key]]
        rows[0][1] = value
        return rows

    cases = [("seed", True, "seed"), ("seed", 2.7, "seed"), ("seed", "42", "seed"),
             ("hex_diameter_m", True, "hex_diameter_m"), ("hex_diameter_m", math.nan, "hex_diameter_m"),
             ("hex_diameter_m", -5, "hex_diameter_m"), ("hex_diameter_m", "500", "hex_diameter_m"),
             ("hex_diameter_m", 10 ** 400, "hex_diameter_m"),  # beyond the float range
             ("radio", [], r"RadioConfig must be a JSON object, got \[\]")]
    cases += [(key, with_entry(key, bad), "numbers")
              for key in ("cells", "ues", "shadow_db") for bad in (True, "1.5", 10 ** 400)]
    docs = [(dict(good, **{key: bad}), match) for key, bad, match in cases]
    docs += [([], "JSON object"),  # the top level must be an object, with every key
             ({k: v for k, v in good.items() if k != "seed"}, "missing key 'seed'"),
             # and no other: a derived array is not an input
             (dict(good, rsrp_dbm=good["shadow_db"]), r"unknown Deployment keys \['rsrp_dbm'\]")]
    for doc, match in docs:
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_deployment(str(path))


def test_stored_radio_arrays_match_closed_form_and_are_read_only():
    dep = generate_deployment(6, 5, 11)
    pl = pathloss_db(distance_3d_m(dep), dep.radio.carrier_ghz)
    rsrp = dep.radio.tx_power_dbm - pl - dep.shadow_db
    assert np.array_equal(dep.rsrp_dbm, rsrp)
    assert np.array_equal(dep.cap, np.log2(1.0 + snr_linear(rsrp, dep.radio)))
    assert rsrp_matrix_dbm(dep) is dep.rsrp_dbm
    top2 = np.sort(rsrp, axis=0)[::-1][:2]
    assert np.array_equal(dep.rsrp_gap_db, top2[0] - top2[1])
    assert (generate_deployment(6, 1, 11).rsrp_gap_db == np.inf).all()  # no second cell
    for arr in (dep.rsrp_dbm, dep.cap, dep.report_cells, dep.rsrp_gap_db):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


def test_replace_recomputes_stored_radio_arrays():
    dep = generate_deployment(6, 3, 4)
    moved = dataclasses.replace(dep, shadow_db=dep.shadow_db + 10.0)
    assert np.allclose(moved.rsrp_dbm, dep.rsrp_dbm - 10.0, rtol=0, atol=1e-12)
    assert np.all(moved.cap < dep.cap)


def test_rsrp_scalar_matches_matrix():
    dep = generate_deployment(5, 4, 7)
    mat = rsrp_matrix_dbm(dep)
    assert rsrp_dbm(dep, 2, 3) == mat[2, 3]
    assert rsrp_dbm(dep, 0, 0) == mat[0, 0]


def test_snr_positive_finite():
    dep = generate_deployment(5, 4, 7)
    snr = snr_linear(rsrp_matrix_dbm(dep), dep.radio)
    assert np.all(snr > 0) and np.all(np.isfinite(snr))
