"""Checks of the benchmark's checks: each workload's checker passes a result
equal to its reference, and fails one moved by a unit in the 40th printed
digit or replaced by a PrecisionError or DomainError.

    python3 -m pytest -q perfbench/test_checks.py
"""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from mpmath import mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing
import workloads as W
from isingrect import OracleResult, thermo
from isingrect.lattice import CouplingGrid, LatticeSpec
from isingrect.numerics import DomainError, PrecisionError

ERRORS = [PrecisionError("precision lost"), DomainError("outside the domain")]


def bump(x):
    """x moved by one unit in its 40th significant digit."""
    with mp.workdps(60):
        return x + W.unit40(x)


@pytest.fixture(scope="module")
def sweep():
    sw = W.SpectralSweep(1)
    sw.rows = [W.Row(6, 4, "0.3"), W.Row(4, 6, "0.3")]
    row = sw.rows[0]
    rep, pieces = W.sweep_row(row)
    rep = replace(rep, casimir_strip=sw.casimir_ref(row))
    pieces = replace(pieces, f_b=sw.f_b_ref(row.K))
    return sw, rep, pieces


def test_spectral_check_passes_reference(sweep):
    sw, rep, pieces = sweep
    assert sw.check(0, [(rep, pieces), (rep, None)])


@pytest.mark.parametrize("field", ["logZ", "casimir_strip"])
def test_spectral_check_fails_report_off_by_one_unit(sweep, field):
    sw, rep, pieces = sweep
    moved = replace(rep, **{field: bump(getattr(rep, field))})
    assert not sw.check(0, [(moved, pieces), (rep, None)])


def test_spectral_check_fails_f_b_off_by_one_unit(sweep):
    sw, rep, pieces = sweep
    assert not sw.check(0, [(rep, replace(pieces, f_b=bump(pieces.f_b))), (rep, None)])


def test_spectral_blank_products_only_at_critical(sweep):
    sw, rep, pieces = sweep
    assert not sw.check(0, [(rep, None), (rep, None)])
    assert W.near_critical(W.KC) and not W.near_critical("0.44")


@pytest.mark.parametrize("err", ERRORS, ids=type)
def test_spectral_check_fails_on_error(sweep, err):
    sw, rep, pieces = sweep
    assert not sw.check(0, [err, (rep, None)])
    assert not sw.check(0, [(rep, pieces), err])


@pytest.fixture(scope="module")
def grid_routes():
    gr = W.GridRoutes(1)
    gr.refs = [1, 0, (6, 4, "0.2")]
    return gr, gr.spectral_ref((6, 4, "0.2"))


def test_grid_check_pair_and_cylinder(grid_routes):
    gr, ref = grid_routes
    with mp.workdps(60):
        x = ref + 1
    assert gr.check(0, [x, x, ref])
    assert gr.check(2, [x, x, ref])
    with mp.workdps(60):
        assert gr.check(0, [x + W.unit40(x) / 10, x, ref])
    assert not gr.check(0, [bump(x), x, ref])
    assert not gr.check(2, [x, x, bump(ref)])


@pytest.mark.parametrize("err", ERRORS, ids=type)
def test_grid_check_fails_on_error(grid_routes, err):
    gr, ref = grid_routes
    assert not gr.check(0, [err, ref, ref])
    assert not gr.check(0, [ref, err, ref])
    assert not gr.check(2, [ref, ref, err])


@pytest.fixture(scope="module")
def oracle():
    oe = W.OracleEnum(1)
    oe.grids = [W.random_grid(random.Random(0), 3, 3, "open"),
                CouplingGrid.from_scalars(LatticeSpec(1, 6), "0", "0.4", W.DIGITS)]
    oe.chains = {1: (6, "0.4")}
    oe._pfaffian = {}
    return oe, [OracleResult(logZ=oe.reference(i), nconfig=0, digits=W.DIGITS)
                for i in range(2)]


def test_oracle_check_passes_reference(oracle):
    oe, results = oracle
    assert oe.check(0, results) and oe.check(1, results)
    assert W.agrees(results[1].logZ, W.chain_logZ(6, "0.4"))


@pytest.mark.parametrize("i", [0, 1])
def test_oracle_check_fails_off_by_one_unit(oracle, i):
    oe, results = oracle
    moved = list(results)
    moved[i] = replace(results[i], logZ=bump(results[i].logZ))
    assert not oe.check(i, moved)


@pytest.mark.parametrize("err", ERRORS, ids=type)
def test_oracle_check_fails_on_error(oracle, err):
    oe, results = oracle
    assert not oe.check(0, [err, results[1]])


def test_tracer_spans_and_restores():
    tr = tracing.Tracer()
    original = thermo.find_modes
    tr.install()
    try:
        with tr.span("root"):
            thermo.report(4, 4, "0.3", "0.3", W.DIGITS)
    finally:
        tr.uninstall()
    assert thermo.find_modes is original
    names = [s["name"] for s in tr.records()]
    assert names[:3] == ["root", "thermo.report", "spectral.find_modes"]
    assert tr.records()[2]["parent"] == 1
    assert tr.counts["spectral.char_poly"] > 0
    self_s = tr.self_times()
    total = tr.spans[0][2] - tr.spans[0][1]
    assert abs(sum(self_s.values()) - total) < 1e-9
