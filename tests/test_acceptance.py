"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL line of
every criterion.  Criteria 1 to 6 run the matching group of the validation
battery (`isingrect.validate.CHECK_GROUPS`), so each check is written once:
every row of the group must pass, and the verdict names the row nearest its
tolerance.  Criterion 5 part (iv) is marked xfail: the corner free energy at
K = 2 is exactly -1.3425e-3, above the stated 1e-4 bound; the decay-to-zero
trend itself is covered by a genuine assertion at larger K.
"""

import sys

import mpmath
import pytest
from mpmath import mpf

from isingrect import free_energy_pieces
from isingrect.cli import main as cli_main
from isingrect.numerics import working_dps
from isingrect.validate import CHECK_GROUPS

DIGITS = 40


def verdict(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def group_verdict(name, group):
    """Run one group of the battery; every row must pass."""
    check, _ = CHECK_GROUPS[group]
    rows = check(DIGITS)
    worst = max(rows, key=lambda r: r.defect / r.tolerance)
    verdict(name, all(r.passed for r in rows),
            f"({len(rows)} checks; worst {worst.name}: {mpmath.nstr(worst.defect, 3)} "
            f"<= {mpmath.nstr(worst.tolerance, 3)})")


def test_criterion_1_four_path_agreement():
    group_verdict("1 four-path agreement", "fourpath")


def test_criterion_2_spectral_identities():
    group_verdict("2 spectral identities", "spectral-identities")


def test_criterion_3_residual_equivalences():
    group_verdict("3 residual equivalences", "residual")


def test_criterion_4_casimir_consistency():
    group_verdict("4 casimir consistency", "casimir")


def test_criterion_5_appendix_products_i_to_iii():
    group_verdict("5(i-iii) appendix products", "qseries")


@pytest.mark.xfail(
    strict=True,
    reason="|f_c(K=2)| = 1.3425e-3 with the erratum applied; the stated 1e-4 "
    "bound cannot be met at K=2 (it is met from roughly K = 2.65 on; see the "
    "decay assertion in the companion test)",
)
def test_criterion_5_iv_corner_trend_at_K2_as_stated():
    with working_dps(DIGITS):
        fc = free_energy_pieces(mpf(2)).f_c
    verdict("5(iv) |f_c(K=2)| < 1e-4 as stated", abs(fc) < mpf(10) ** -4,
            f"(measured |f_c| = {mpmath.nstr(abs(fc), 6)})")


def test_criterion_5_iv_corner_trend_decay():
    # the substantive claim: f_c -> 0 for T -> 0 (monotone decay in K)
    with working_dps(DIGITS):
        vals = [abs(free_energy_pieces(mpf(K)).f_c)
                for K in ("1.0", "1.5", "2.0", "2.5", "3.0")]
        ok = all(a > b for a, b in zip(vals, vals[1:])) and vals[-1] < mpf(10) ** -4
    verdict("5(iv) corner term decays to zero", ok,
            f"(|f_c| at K=2: {mpmath.nstr(vals[2], 4)}, at K=3: {mpmath.nstr(vals[-1], 4)})")


def test_criterion_6_bulk_surface_limits():
    group_verdict("6 bulk/surface limits", "bulk-surface")


def test_criterion_7_determinism_and_robustness():
    code_ok = cli_main(["validate", "--digits", "40"])
    code_low = cli_main(["validate", "--digits", "15",
                         "--only", "charpoly-residual-M32"])
    ok = code_ok == 0 and code_low == 3
    verdict("7 determinism & robustness", ok,
            f"(40-digit exit {code_ok}, 15-digit exit {code_low})")
