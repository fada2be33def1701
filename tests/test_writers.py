"""Every artifact writer against the per-row writer it replaced, byte for byte."""

import dataclasses

import numpy as np
import pytest

from pfclab.analysis import BodeCurve, McReport, robustness_mc
from pfclab.designs import PAIR_B
from pfclab.sim import CSV_BLOCK, TimeSeries, write_csv
from pfclab.synth import GaConfig, ObjectiveConfig, ga_search
from pfclab.tf import RationalTF

from helpers import (
    reference_bode_csv,
    reference_cloud_csv,
    reference_history_csv,
    reference_mc_json,
    reference_savetxt,
)

SIZES = [0, 1, CSV_BLOCK, CSV_BLOCK + 1]
SPECIAL = [-0.0, 0.0, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 1e16, 0.1, -1 / 3]


def values(n: int, seed: int) -> np.ndarray:
    """n floats over many decades, with every special value among the first ones."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    k = min(n, len(SPECIAL))
    x[:k] = SPECIAL[:k]
    return x


def same_bytes(tmp_path, write, reference) -> bool:
    got, want = tmp_path / "got", tmp_path / "want"
    write(got)
    reference(want)
    return got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n", SIZES)
def test_write_csv_is_savetxt(tmp_path, n):
    table = np.column_stack([values(n, 1), values(n, 2)[::-1], values(n, 3)])
    fmt = "%.17g,%.17g,%.17g"
    assert same_bytes(
        tmp_path,
        lambda p: write_csv(p, "a,b,c", fmt, table),
        lambda p: reference_savetxt(p, "a,b,c", table),
    )


@pytest.mark.parametrize("n", SIZES)
def test_time_series_csv(tmp_path, n):
    ts = TimeSeries(t=np.arange(n) * 1e-3 - 1.0, y=values(n, 4))
    assert same_bytes(
        tmp_path, ts.to_csv, lambda p: reference_savetxt(p, "t,y", np.column_stack([ts.t, ts.y]))
    )


@pytest.mark.parametrize("n", SIZES)
def test_bode_csv(tmp_path, n):
    curve = BodeCurve(omega=tuple(np.logspace(-2, 2, n)), mag_db=tuple(values(n, 5)))
    assert same_bytes(tmp_path, curve.to_csv, lambda p: reference_bode_csv(curve, p))


@pytest.mark.parametrize("n", SIZES)
def test_bode_csv_of_arrays_is_that_of_tuples(tmp_path, n):
    omega, mag_db = np.logspace(-2, 2, n), values(n, 5)
    curve = BodeCurve(omega=omega, mag_db=mag_db)
    of_tuples = BodeCurve(omega=tuple(omega), mag_db=tuple(mag_db))
    assert same_bytes(tmp_path, curve.to_csv, lambda p: reference_bode_csv(of_tuples, p))


SEARCH = ga_search(
    ObjectiveConfig(plant=RationalTF((1.0,), (1.0, -1.0))),
    GaConfig(population=10, generations=2, seed=0),
    n=1,
)


@pytest.mark.parametrize("n", SIZES)
def test_history_csv(tmp_path, n):
    res = dataclasses.replace(SEARCH, history=tuple(values(n, 6)))
    assert same_bytes(tmp_path, res.history_to_csv, lambda p: reference_history_csv(res, p))


def report(cloud) -> McReport:
    return McReport(trials=10**6, unstable_count=3, pole_cloud=tuple(cloud), seed=9, sigma=0.02)


def special_cloud(n: int):
    re, im = values(n, 7), values(n, 8)[::-1]
    return [(t, complex(a, b)) for t, (a, b) in enumerate(zip(re, im))]


CLOUDS = {
    "empty": [],
    "one": [(0, complex(-1.0, 0.5))],
    "negative zero": [(0, complex(-0.0, -0.0)), (3, complex(-0.0, 1.0))],
    "non-finite": [
        (0, complex(np.nan, 1.0)),
        (1, complex(np.inf, -np.inf)),
        (2, complex(-np.inf, np.nan)),
        (999_999, complex(5e-324, 1e308)),
    ],
    "block": special_cloud(CSV_BLOCK),
    "past a block": special_cloud(CSV_BLOCK + 1),
}


@pytest.mark.parametrize("name", CLOUDS)
def test_pole_cloud_json(name):
    rep = report(CLOUDS[name])
    assert rep.to_json() == reference_mc_json(rep)


@pytest.mark.parametrize("name", CLOUDS)
def test_pole_cloud_csv(tmp_path, name):
    rep = report(CLOUDS[name])
    assert same_bytes(tmp_path, rep.cloud_to_csv, lambda p: reference_cloud_csv(rep, p))


def test_monte_carlo_report():
    rep = robustness_mc(PAIR_B.C, PAIR_B.P, trials=50, seed=3)
    assert rep.to_json() == reference_mc_json(rep)
