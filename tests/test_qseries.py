import mpmath
import pytest
from mpmath import mpf

from isingrect.cli import main
from isingrect.numerics import DomainError, PrecisionError, working_dps
from isingrect.qseries import (
    BULK_ABOVE,
    BULK_BELOW,
    CORNER_ABOVE,
    CORNER_BELOW,
    COUPLING_VARIABLE,
    SURFACE_BELOW_HALFQ,
    SURFACE_BELOW_MAIN,
    PeriodicCoeffMatrix,
    free_energy_pieces,
    pi_product,
    q_of_t,
    t_of_q,
)
from isingrect.validate import (
    BULK_ABOVE_P4,
    CORNER_ABOVE_QSQ,
    QSERIES_TABLES,
    pi_product_per_factor,
)


def test_exponent_spot_checks():
    # frozen exponents c_k of the transcribed tables
    assert [int(COUPLING_VARIABLE.exponent(k)) for k in range(1, 9)] == [1, 0, -1, 0, -1, 0, 1, 0]
    assert [int(BULK_BELOW.exponent(k)) for k in range(1, 9)] == [-1, -1, 3, 2, -5, -1, 7, 0]
    assert [int(BULK_ABOVE.exponent(k)) for k in range(1, 9)] == [1, -4, 5, 0, -3, -4, 9, 0]
    assert [int(CORNER_BELOW.exponent(k)) for k in range(1, 9)] == [-4, 4, 4, -1, -12, 0, 12, 0]
    assert [float(SURFACE_BELOW_MAIN.exponent(k)) for k in range(1, 5)] == [1.0, -1.0, 0.0, 2.0]
    assert [float(CORNER_ABOVE.exponent(k)) for k in range(1, 9)] == [
        0.0, -1.0, 0.0, -3.0, 0.0, 3.0, 0.0, 0.0]


def test_pi_product_trivial():
    with working_dps(40):
        lg, k = pi_product(COUPLING_VARIABLE, 0)
        assert lg == 0 and k == 0
        zero = PeriodicCoeffMatrix(((0, 0, 0, 0),))
        lg, _ = pi_product(zero, mpf("0.5"))
        assert lg == 0
    with pytest.raises(DomainError):
        pi_product(COUPLING_VARIABLE, mpf(1))


def test_pi_product_euler_oracle():
    # constant exponents c_k = 1 give the Euler function; compare against
    # direct multiplication to convergence
    with working_dps(40):
        ones = PeriodicCoeffMatrix(((1,),))
        q = mpf("0.1")
        lg, kmax = pi_product(ones, q)
        direct = mpf(1)
        k = 0
        while True:
            k += 1
            f = 1 - q ** k
            direct *= f
            if q ** k < mpf("1e-47"):
                break
        assert abs(mpmath.exp(lg) - direct) < mpf("1e-40")
        assert kmax >= 40


@pytest.mark.parametrize("qs", ["1e-30", "1e-5", "0.01", "0.1", "0.36", "0.6", "0.85", "0.9"])
def test_lambert_matches_per_factor_product(qs):
    tables = QSERIES_TABLES + (BULK_ABOVE_P4, CORNER_ABOVE_QSQ,
                               PeriodicCoeffMatrix(((1,),)),
                               PeriodicCoeffMatrix(((-1, 0), (1, 0))))
    for C in tables:
        with working_dps(40):
            q = mpf(qs)
            lg, _ = pi_product(C, q)
        ref, _ = pi_product_per_factor(C, q, 100)
        with working_dps(100):
            assert abs(lg - ref) <= mpf("1e-40") * abs(ref), C


def test_lambert_series_starts_at_first_nonzero_coefficient():
    # c_k = k - 1 vanishes at k = 1, so a_1 = 0 and the series, with its
    # factored power of q, starts at a_2 = (1 c_1 + 2 c_2) / 2 = 1
    C = PeriodicCoeffMatrix(((-1,), (1,)))
    with working_dps(40):
        q = mpf("1e-200")
        lg, _ = pi_product(C, q)
        assert abs(lg / -q ** 2 - 1) < mpf("1e-45")


def test_cancelling_series_raises():
    # sum_k (k - 3) log(1 - q^k) changes sign at q = 0.7102828827...; there
    # the terms cancel past the guard digits, which the certificate sees
    C = PeriodicCoeffMatrix(((-3,), (1,)))
    with mpmath.mp.workdps(80):
        root = mpmath.findroot(lambda q: pi_product_per_factor(C, q, 70)[0], mpf("0.71"))
    with working_dps(40):
        for off in ("0", "1e-30", "1e-12"):
            with pytest.raises(PrecisionError, match="cancels"):
                pi_product(C, root * (1 + mpf(off)))
        lg, _ = pi_product(C, root * (1 + mpf("1e-8")))
        ref, _ = pi_product_per_factor(C, root * (1 + mpf("1e-8")), 100)
        assert abs(lg - ref) < mpf("1e-38") * abs(ref)


def test_t_of_q_leading_order():
    with working_dps(40):
        q = mpf("1e-20")
        assert abs(t_of_q(q) / mpmath.sqrt(q) - 1) < mpf("1e-19")
        assert t_of_q(0) == 0


def test_roundtrip_and_monotone():
    with working_dps(40):
        prev = mpf(0)
        for qs in ("0.01", "0.05", "0.2", "0.35", "0.5", "0.7"):
            q = mpf(qs)
            v = t_of_q(q)
            assert v > prev                      # monotone on the working range
            prev = v
            assert abs(q_of_t(v) - q) < mpf("1e-36")


@pytest.mark.parametrize("digits", [40, 80])
def test_q_of_t_matches_high_precision_inversion(digits):
    for qs in ("1e-30", "1e-8", "0.01", "0.25", "0.5", "0.85"):
        with working_dps(digits):
            t = t_of_q(mpf(qs), digits)
            q = q_of_t(t, digits)
        with working_dps(100):
            ref = q_of_t(t, 100)
            assert abs(q - ref) <= mpf(10) ** (2 - digits) * ref


def test_q_of_t_out_of_range():
    with working_dps(40):
        for t in (mpmath.sqrt(2) - 1, mpf("0.5"), mpf("0.99"), mpf(3)):
            with pytest.raises(DomainError):
                q_of_t(t)


@pytest.mark.parametrize("digits", [15, 40, 80])
def test_q_of_t_out_of_range_message(digits):
    with working_dps(digits):
        with pytest.raises(DomainError) as err:
            q_of_t(mpf("0.5"), digits)
    assert str(err.value) == ("t = 0.5 is outside the invertible range (needs "
                              "t < 0.41421356, i.e. a coupling away from critical)")


def test_q_of_t_certificate(monkeypatch):
    # one AGM result off by one part in 1e30 must not pass as a nome
    agm = mpmath.agm
    calls = []

    def off_agm(a, b):
        calls.append(b)
        r = agm(a, b)
        return r * (1 + mpf("1e-30")) if len(calls) == 1 else r

    monkeypatch.setattr(mpmath, "agm", off_agm)
    with working_dps(40):
        with pytest.raises(PrecisionError):
            q_of_t(t_of_q(mpf("0.25")))


def test_equivalent_product_forms():
    with working_dps(40):
        for qs in ("0.05", "0.3", "0.5"):
            q = mpf(qs)
            a, _ = pi_product(BULK_ABOVE, q)
            b, _ = pi_product(BULK_ABOVE_P4, q)
            assert abs(a - b) < mpf("1e-40")
            a, _ = pi_product(CORNER_ABOVE, q)
            b, _ = pi_product(CORNER_ABOVE_QSQ, q * q)
            assert abs(a - b) < mpf("1e-40")


def test_corner_above_explicit_k_product():
    # e^(-f_c) = prod_k (1-q^(2(4k+2)))^(-3) (1-q^(2(4k+3)))^(4k+3) / (1-q^(2(4k+1)))^(4k+1)
    with working_dps(40):
        q = mpf("0.4")
        direct = mpf(0)
        k = 0
        while True:
            e1 = 2 * (4 * k + 1)
            e2 = 2 * (4 * k + 2)
            e3 = 2 * (4 * k + 3)
            direct += (-3) * mpmath.log(1 - q ** e2)
            direct += (4 * k + 3) * mpmath.log(1 - q ** e3)
            direct -= (4 * k + 1) * mpmath.log(1 - q ** e1)
            if q ** e1 * (4 * k + 3) < mpf("1e-46"):
                break
            k += 1
        lg, _ = pi_product(CORNER_ABOVE, q)
        assert abs(lg - direct) < mpf("1e-40")


def test_surface_below_uses_half_argument():
    # the second ordered-phase surface product runs in sqrt(q)
    with working_dps(40):
        pieces = free_energy_pieces(mpf("0.8"))
        q = pieces.q
        lgA, _ = pi_product(SURFACE_BELOW_MAIN, q)
        lgB, _ = pi_product(SURFACE_BELOW_HALFQ, mpmath.sqrt(q))
        z = mpmath.tanh(mpf("0.8"))
        expect = -mpmath.log(1 - z ** 2) / 2 + mpmath.log(2) - lgA - lgB
        assert abs(pieces.f_s - expect) < mpf("1e-40")


def test_sides_and_duality_variable():
    with working_dps(40):
        below = free_energy_pieces(mpf("0.7"))
        assert below.side == "below"
        # below the transition the variable solves t = e^(-2K)
        assert abs(t_of_q(below.q) - mpmath.exp(-mpf("1.4"))) < mpf("1e-36")
        above = free_energy_pieces(mpf("0.25"))
        assert above.side == "above"
        assert abs(t_of_q(above.q) - mpmath.tanh(mpf("0.25"))) < mpf("1e-36")


def test_erratum_flag():
    with working_dps(40):
        on = free_energy_pieces(mpf("0.7"), apply_errata=True)
        off = free_energy_pieces(mpf("0.7"), apply_errata=False)
        assert abs(off.f_c - (on.f_c - mpmath.log(2))) < mpf("1e-40")
        # above the transition the flag changes nothing
        a = free_energy_pieces(mpf("0.25"), apply_errata=True)
        b = free_energy_pieces(mpf("0.25"), apply_errata=False)
        assert a.f_c == b.f_c


def test_low_temperature_corner_trend():
    with working_dps(40):
        vals = [abs(free_energy_pieces(mpf(K)).f_c) for K in ("1.0", "1.5", "2.0", "3.0")]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < mpf("1e-4")


def test_critical_point_refused(Kc):
    # the q window closes only in a ~1e-20 neighbourhood of the critical
    # coupling; the self-dual point itself is always out of range
    with working_dps(40):
        with pytest.raises(DomainError):
            free_energy_pieces(Kc)
        with pytest.raises(DomainError):
            free_energy_pieces(Kc + mpf("1e-24"))


def _near_critical(Kc, offset):
    with mpmath.mp.workdps(90):
        return Kc + mpf(offset)


@pytest.mark.parametrize("offset", ["2e-15", "-2e-15"])
def test_near_critical_q_is_refused(Kc, offset):
    # d log q / d log t is about 1e12 there, more than the guard digits hold;
    # returned unchecked, f_c was off by a relative 2.8e-39 at Kc + 2e-15
    with pytest.raises(PrecisionError, match="guard digits"):
        free_energy_pieces(_near_critical(Kc, offset))


@pytest.mark.parametrize("offset", ["1e-6", "-1e-6"])
def test_near_critical_pieces_match_80_digits(Kc, offset):
    K = _near_critical(Kc, offset)
    got, ref = free_energy_pieces(K), free_energy_pieces(K, digits=80)
    with working_dps(80):
        for name in ("q", "f_b", "f_s", "f_c"):
            a, b = getattr(got, name), getattr(ref, name)
            assert abs(a - b) < mpf("1e-39") * abs(b), name


def _onsager_f_b(K):
    """The lattice double integral of log[cosh^2(2K) - sinh(2K)(cos a + cos b)],
    with the inner angle integrated in closed form, at the current precision."""
    c2, s2 = mpmath.cosh(2 * K), mpmath.sinh(2 * K)

    def integrand(a):
        A = c2 ** 2 - s2 * mpmath.cos(a)
        return mpmath.log((A + mpmath.sqrt(A * A - s2 * s2)) / 2)

    quad = mpmath.quad(integrand, [0, mpmath.pi]) / mpmath.pi
    return -mpmath.log(2) - quad / 2


@pytest.mark.parametrize("K", [mpf("0.7"), mpf("0.25")])
def test_bulk_matches_quadrature(K):
    # independent check of the assembled bulk value
    with working_dps(30):
        pieces = free_energy_pieces(K, digits=30)
        assert abs(pieces.f_b - _onsager_f_b(K)) < mpf("1e-25")


@pytest.mark.parametrize("K", [15, 20])
def test_bulk_at_large_coupling(K):
    # q is then below 1e-25, where an absolute bracket on q loses digits
    with working_dps(60):
        ref = _onsager_f_b(mpf(K))
    with working_dps(40):
        f_b = free_energy_pieces(mpf(K)).f_b
    with working_dps(60):
        half_unit = mpf(10) ** (mpmath.floor(mpmath.log10(abs(ref))) - 39) / 2
        assert abs(f_b - ref) <= half_unit


@pytest.mark.parametrize("K", [5, 8, 10, 12, 15, 20])
def test_pieces_at_large_coupling_to_every_digit(K):
    # q^k rounds away in 1 - q^k and 1 - tanh^2 K cancels, so a per-factor
    # corner product and -log(1 - z^2)/2 lost up to 22 of the 40 digits
    got, ref = free_energy_pieces(mpf(K)), free_energy_pieces(mpf(K), digits=150)
    with working_dps(150):
        for name in ("q", "f_b", "f_s", "f_c"):
            a, b = getattr(got, name), getattr(ref, name)
            half_unit = mpf(10) ** (mpmath.floor(mpmath.log10(abs(b))) - 39) / 2
            assert abs(a - b) <= half_unit, name


def test_sweep_prints_the_corner_term_at_large_coupling(capsys):
    assert main(["sweep", "--sweep-K", "10:10:1", "--sizes", "4"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    f_c = row.split(",")[header.split(",").index("f_c")]
    ref = free_energy_pieces(mpf(10), digits=100).f_c
    with working_dps(100):
        assert mpmath.nstr(ref, 40, strip_zeros=True) == f_c
