import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavepower import mechanics
from wavepower.errors import DomainError, SolverError
from wavepower.mechanics import (
    DISPERSION_TOL,
    FluidEnvironment,
    power_transfer_factor,
    regular_wave_power,
    wavenumber,
)


def dispersion_residual(k, period, depth, g=9.81):
    omega2 = (2 * np.pi / period) ** 2
    return abs(omega2 - g * k * np.tanh(k * depth)) / omega2


class TestSolveDispersion:
    def test_deep_limit(self):
        # T=10 s in 1000 m of water is effectively deep: k -> omega^2/g
        k = wavenumber(10.0, 1000.0)
        k_deep = (2 * np.pi / 10.0) ** 2 / 9.81
        assert k == pytest.approx(k_deep, rel=1e-3)
        assert dispersion_residual(k, 10.0, 1000.0) <= 1e-12

    def test_shallow_limit(self):
        # T=100 s in 1 m: k -> omega/sqrt(g d)
        k = wavenumber(100.0, 1.0)
        k_shallow = (2 * np.pi / 100.0) / np.sqrt(9.81 * 1.0)
        assert k == pytest.approx(k_shallow, rel=0.01)
        assert k == pytest.approx(0.02006, rel=0.01)

    @pytest.mark.parametrize("period,depth", [
        (1.0, 0.5), (5.0, 3.0), (8.0, 20.0), (12.0, 500.0), (20.0, 0.7),
    ])
    def test_residual_is_defining(self, period, depth):
        k = wavenumber(period, depth)
        assert dispersion_residual(k, period, depth) <= 1e-12

    def test_group_factor_range(self):
        # n = Cg/C = power_transfer_factor(kd) / (2 tanh(kd)) lies in
        # [0.5, 1]
        for period, depth in [(2.0, 500.0), (8.0, 10.0), (50.0, 1.0)]:
            kd = wavenumber(period, depth) * depth
            n = power_transfer_factor(kd) / (2 * np.tanh(kd))
            assert 0.5 - 1e-9 <= n <= 1.0 + 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            wavenumber(-1.0, 10.0)
        with pytest.raises(DomainError):
            wavenumber(5.0, 0.0)
        with pytest.raises(DomainError, match="max_iter must be at least"):
            wavenumber(5.0, 10.0, max_iter=0)

    def test_non_convergence_reports_residual(self):
        with pytest.raises(SolverError) as exc:
            wavenumber(10.0, 50.0, max_iter=1)
        assert exc.value.residual is not None

    def test_vectorized_matches_scalar(self):
        T = np.array([3.0, 7.0, 15.0])
        d = np.array([2.0, 40.0, 300.0])
        ks = wavenumber(T, d)
        for i in range(3):
            assert ks[i] == pytest.approx(wavenumber(T[i], d[i]))


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_batch_equals_its_scalar_calls_bit_for_bit(data, n):
    def column(lo, hi):
        return data.draw(arrays(float, n, elements=st.floats(lo, hi)))

    T, d, H = column(1.0, 20.0), column(0.01, 5000.0), column(0.0, 1.0)
    assert same_bits(wavenumber(T, d),
                     [wavenumber(t, x) for t, x in zip(T, d)])
    scalar = [regular_wave_power(h, t, x) for h, t, x in zip(H, T, d)]
    assert same_bits(regular_wave_power(H, T, d), scalar)
    # the optimizer's layout: rows of an (agents, 3) pack, transposed
    pack = np.stack([H, T, d], axis=1)
    assert same_bits(regular_wave_power(*pack.T), scalar)


def test_batch_of_random_pairs_equals_scalar_calls():
    # each element takes the Newton steps it takes alone, however many
    # its neighbours need
    rng = np.random.default_rng(0)
    T = rng.uniform(1.0, 20.0, 5000)
    d = np.exp(rng.uniform(np.log(0.01), np.log(5000.0), 5000))
    assert same_bits(wavenumber(T, d),
                     [wavenumber(t, x) for t, x in zip(T, d)])


@settings(max_examples=300, deadline=None)
@given(log_kd=st.floats(-6, 3), log_depth=st.floats(-2, 4))
def test_dispersion_residual_within_tol(log_kd, log_depth):
    # the period whose exact solution has k*d = kd, solved back for k
    kd, depth = 10.0 ** log_kd, 10.0 ** log_depth
    period = 2 * np.pi / np.sqrt(9.81 * kd / depth * np.tanh(kd))
    k = wavenumber(period, depth)
    assert dispersion_residual(k, period, depth) <= DISPERSION_TOL
    assert k * depth == pytest.approx(kd, rel=1e-9)


# power_transfer_factor(kd) = 2 n tanh(kd) with n = Cg/C, so n tends to 1
# and the factor to 2 kd in shallow water; n tends to 1/2 and the factor
# to 1 in deep water. The bounds are the leading terms of the expansions
# (1 - 2kd^2/3, 1 - kd^2/3; (4kd - 2) e^-2kd, kd e^-2kd) with room to
# spare, plus rounding.
@settings(max_examples=300, deadline=None)
@given(log_kd=st.floats(-8, -2))
def test_power_transfer_factor_shallow_limit(log_kd):
    kd = 10.0 ** log_kd
    factor = power_transfer_factor(kd)
    n = factor / (2 * np.tanh(kd))
    assert abs(factor / (2 * kd) - 1) <= kd ** 2 + 1e-15
    assert abs(n - 1) <= kd ** 2 + 1e-15


@settings(max_examples=300, deadline=None)
@given(kd=st.floats(5, 1e3))
def test_power_transfer_factor_deep_limit(kd):
    factor = power_transfer_factor(kd)
    n = factor / (2 * np.tanh(kd))
    assert abs(factor - 1) <= 4 * kd * np.exp(-2 * kd) + 1e-15
    assert abs(n - 0.5) <= 3 * kd * np.exp(-2 * kd) + 1e-15


class TestPowerTransferFactor:
    def test_deep_plateau(self):
        assert power_transfer_factor(20.0) == pytest.approx(1.0, abs=1e-6)

    def test_intermediate_value(self):
        # tanh(1.2) * (1 + 2.4/sinh(2.4))
        expected = np.tanh(1.2) * (1 + 2.4 / np.sinh(2.4))
        assert power_transfer_factor(1.2) == pytest.approx(expected)
        assert power_transfer_factor(1.2) == pytest.approx(1.1997, abs=1e-4)

    def test_shallow_expansion(self):
        # small-argument oracle: factor -> 2*kd
        assert power_transfer_factor(0.01) == pytest.approx(0.02, rel=1e-3)

    def test_interior_maximum_via_scan(self):
        kd = np.arange(1e-3, 10.0, 1e-3)
        vals = power_transfer_factor(kd)
        imax = int(np.argmax(vals))
        assert vals[imax] == pytest.approx(1.200, abs=1e-3)
        assert kd[imax] == pytest.approx(1.19, abs=0.02)
        # not monotone: rises then falls
        assert vals[imax] > vals[0] and vals[imax] > vals[-1]

    def test_domain(self):
        with pytest.raises(DomainError):
            power_transfer_factor(0.0)


class TestRegularWavePower:
    def test_zero_height(self):
        assert regular_wave_power(0.0, 5.0, 50.0) == 0.0

    def test_deep_closed_form(self):
        # rho g^2 H^2 T / (32 pi) with factor ~ 1
        expected = 1025 * 9.81 ** 2 * 1.0 * 5.0 / (32 * np.pi)
        assert regular_wave_power(1.0, 5.0, 1000.0) == pytest.approx(
            expected, rel=1e-6)
        assert regular_wave_power(1.0, 5.0, 1000.0) == pytest.approx(
            4906, rel=1e-3)

    def test_reference_point(self):
        # kd ~ 18.9 there, so the depth factor is ~1
        p = regular_wave_power(0.595, 4.102, 79.218)
        expected = 1025 * 9.81 ** 2 * 0.595 ** 2 * 4.102 / (32 * np.pi)
        assert p == pytest.approx(expected, rel=1e-3)
        assert p == pytest.approx(1425, rel=1e-3)

    def test_monotone_in_height(self):
        heights = np.linspace(0.1, 3.0, 20)
        powers = [regular_wave_power(h, 6.0, 30.0) for h in heights]
        assert np.all(np.diff(powers) > 0)

    def test_deep_plateau_in_depth(self):
        # any two depths with kd > 5 agree to 1e-3 relative
        p1 = regular_wave_power(1.0, 5.0, 40.0)
        p2 = regular_wave_power(1.0, 5.0, 800.0)
        assert abs(p1 - p2) / p1 < 1e-3

    def test_env_scaling(self):
        env2 = FluidEnvironment(rho=2 * 1025.0, g=9.81)
        assert regular_wave_power(1.0, 5.0, 50.0, env2) == pytest.approx(
            2 * regular_wave_power(1.0, 5.0, 50.0), rel=1e-12)

    def test_negative_height_rejected(self):
        with pytest.raises(DomainError):
            regular_wave_power(-0.1, 5.0, 50.0)


def test_environment_invariants():
    with pytest.raises(DomainError):
        FluidEnvironment(rho=-1.0)
    with pytest.raises(DomainError):
        FluidEnvironment(g=0.0)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["rho", "g"])
def test_environment_rejects_non_finite(field, bad):
    with pytest.raises(DomainError, match=f"{field} must be positive and fin"):
        FluidEnvironment(**{field: bad})


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("position", [0, 1])
def test_dispersion_rejects_non_finite_period_or_depth(position, bad):
    args = [7.0, 10.0]
    args[position] = bad
    with pytest.raises(DomainError, match="positive and finite"):
        wavenumber(*args)
    with pytest.raises(DomainError, match="positive and finite"):
        regular_wave_power(1.0, *args)
    # one bad element fails the whole batch
    batch = [np.full(4, 7.0), np.full(4, 10.0)]
    batch[position][2] = bad
    with pytest.raises(DomainError, match="positive and finite"):
        wavenumber(*batch)


def test_empty_batch_solves_to_empty():
    assert wavenumber(np.array([]), np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_power_rejects_non_finite_height(bad):
    with pytest.raises(DomainError, match="H must be non-negative and fin"):
        regular_wave_power(bad, 7.0, 10.0)
    H = np.full(4, 1.0)
    H[2] = bad
    with pytest.raises(DomainError, match="H must be non-negative and fin"):
        regular_wave_power(H, 7.0, 10.0)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_transfer_factor_rejects_non_finite_kd(bad):
    with pytest.raises(DomainError, match="kd must be positive and finite"):
        power_transfer_factor(bad)
    with pytest.raises(DomainError, match="kd must be positive and finite"):
        power_transfer_factor([0.5, 1.0, bad, 2.0])


# Block boundaries: with SOLVE_BLOCK patched to 7, batches of every layout
# span several blocks, and each element must keep the bits of its own
# scalar call.
SMALL_BLOCK = 7


def scalar_calls(fn, *args):
    """fn called once per element of the broadcast args, in their shape."""
    args = np.broadcast_arrays(*map(np.asarray, args))
    flat = [fn(*xs) for xs in zip(*(a.ravel() for a in args))]
    return np.reshape(flat, args[0].shape)


@st.composite
def batch_layouts(draw):
    """(H, T, d) as 1-D batches below, at and across block edges,
    (n, 1) x (1, m) broadcasts, transposed views or 0-d arrays."""
    layout = draw(st.sampled_from(["flat", "outer", "transposed", "scalar"]))
    n = draw(st.integers(0, 3 * SMALL_BLOCK + 1))
    m = draw(st.integers(1, 2 * SMALL_BLOCK + 1))
    shape = {"flat": (n,), "outer": (n, 1), "transposed": (m, n),
             "scalar": ()}[layout]
    d_shape = (1, m) if layout == "outer" else shape

    def values(lo, hi, shape):
        return draw(arrays(float, shape, elements=st.floats(lo, hi)))

    H, T, d = (values(0.0, 1.0, shape), values(1.0, 20.0, shape),
               values(0.01, 5000.0, d_shape))
    if layout == "transposed":
        H, T, d = H.T, T.T, d.T
    return H, T, d


@settings(max_examples=200, deadline=None)
@given(batch=batch_layouts())
def test_blocks_give_the_bits_of_scalar_calls(batch):
    H, T, d = batch
    # the references are one-element calls, which any block size holds
    k_ref = scalar_calls(wavenumber, T, d)
    p_ref = scalar_calls(regular_wave_power, H, T, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanics, "SOLVE_BLOCK", SMALL_BLOCK)
        k, p = wavenumber(T, d), regular_wave_power(H, T, d)
    assert np.shape(k) == k_ref.shape and same_bits(k, k_ref)
    assert np.shape(p) == p_ref.shape and same_bits(p, p_ref)


def test_paper_box_grid_equals_one_block(monkeypatch):
    # with SOLVE_BLOCK at least the grid size the whole grid is one block,
    # iterated until its slowest element has converged
    tt, dd = np.meshgrid(np.linspace(2.0, 6.0, 1000),
                         np.linspace(5.0, 100.0, 1000), indexing="ij")
    blocked = regular_wave_power(0.6, tt, dd)
    monkeypatch.setattr(mechanics, "SOLVE_BLOCK", 2 ** 20)
    assert same_bits(blocked, regular_wave_power(0.6, tt, dd))


def test_solver_error_names_the_block_that_failed(monkeypatch):
    monkeypatch.setattr(mechanics, "SOLVE_BLOCK", SMALL_BLOCK)
    # deep water converges on the first check; the one shallow element
    # alone in the last block needs more than one step
    T = np.full(2 * SMALL_BLOCK + 1, 2.0)
    d = np.full(2 * SMALL_BLOCK + 1, 5000.0)
    wavenumber(T[:-1], d[:-1], max_iter=1)
    T[-1], d[-1] = 10.0, 50.0
    with pytest.raises(SolverError) as batch:
        wavenumber(T, d, max_iter=1)
    with pytest.raises(SolverError) as alone:
        wavenumber(10.0, 50.0, max_iter=1)
    assert np.isfinite(batch.value.residual)
    assert batch.value.residual == alone.value.residual


def test_inputs_are_checked_before_any_block(monkeypatch):
    def no_block(*args, **kwargs):
        raise AssertionError("a block was solved before validation")

    # np.nditer hands out the blocks, so no block is solved without it
    monkeypatch.setattr(np, "nditer", no_block)
    H = np.full(3 * SMALL_BLOCK, 1.0)
    H[-1] = -0.1
    with pytest.raises(DomainError, match="H must be non-negative"):
        regular_wave_power(H, 7.0, 10.0)
    d = np.full(3 * SMALL_BLOCK, 10.0)
    d[-1] = np.nan
    with pytest.raises(DomainError, match="positive and finite"):
        regular_wave_power(1.0, 7.0, d)
    with pytest.raises(DomainError, match="positive and finite"):
        wavenumber(7.0, d)


# The power kernel as it was before each Newton step took a single tanh:
# f' from cosh, with kd > 350 cut to 0 where cosh overflows, and the
# transfer factor from a second tanh and a sinh. Kept as a reference for
# the one-tanh kernel, which should differ only in its last bits.
def reference_group_factor(kd):
    with np.errstate(over="ignore"):
        ratio = np.where(kd > 350.0, 0.0, 2.0 * kd / np.sinh(2.0 * kd))
    return 0.5 * (1.0 + ratio)


def reference_power(H, T, depth, rho=1025.0, g=9.81):
    H, T, depth = (np.asarray(x, dtype=float) for x in (H, T, depth))
    omega = 2.0 * np.pi / T
    omega2 = omega * omega
    k = omega2 / g
    with np.errstate(over="ignore"):
        for _ in range(mechanics.DISPERSION_MAX_ITER):
            kd = k * depth
            th = np.tanh(kd)
            f = omega2 - g * k * th
            done = np.abs(f) / omega2 <= DISPERSION_TOL
            if np.all(done):
                break
            fprime = -g * (th + kd * np.where(
                kd > 350.0, 0.0, 1.0 / np.cosh(kd) ** 2))
            k = np.where(done, k, k - f / fprime)
        else:
            raise AssertionError("the reference solve did not converge")
    kd = k * depth
    factor = np.tanh(kd) * 2.0 * reference_group_factor(kd)
    return rho * g ** 2 * H ** 2 * T / (32.0 * np.pi) * factor


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_kernel_agrees_with_the_cosh_reference(data, n):
    def column(lo, hi):
        return data.draw(arrays(float, n, elements=st.floats(lo, hi)))

    H, T, d = column(0.0, 5.0), column(1.0, 20.0), column(0.01, 5000.0)
    np.testing.assert_allclose(regular_wave_power(H, T, d),
                               reference_power(H, T, d), rtol=1e-14, atol=0)
    kd = wavenumber(T, d) * d
    with np.errstate(over="ignore"):
        expected = np.tanh(kd) * (1.0 + 2.0 * kd / np.sinh(2.0 * kd))
    np.testing.assert_allclose(power_transfer_factor(kd), expected,
                               rtol=1e-14, atol=0)


def wide_grid():
    """200 x 200 (T, d) grid, T in [1, 20] s, d in [0.01, 5000] m."""
    return np.meshgrid(np.linspace(1.0, 20.0, 200),
                       np.geomspace(0.01, 5000.0, 200))


def test_newton_converges_within_pinned_steps():
    # 4 steps and the check in the paper box, 11 and the check over the
    # wide grid; a slower Newton derivative takes more
    tt, dd = np.meshgrid(np.linspace(2.0, 6.0, 1000),
                         np.linspace(5.0, 100.0, 1000), indexing="ij")
    wavenumber(tt, dd, max_iter=5)
    wavenumber(*wide_grid(), max_iter=12)


def test_kernel_raises_no_floating_point_error():
    # exp(-2kd) underflows in deep water, which stays ignored; nothing
    # overflows, divides by zero or turns invalid
    t, d = wide_grid()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        regular_wave_power(1.0, t, d)
        regular_wave_power(1.0, 1.0, 25000.0)  # kd about 1.0e5
        power_transfer_factor(np.geomspace(1e-8, 1e5, 2000))


def test_deep_limit_holds_on_a_dense_scan():
    # the deep-limit bounds at every step of 1e-4 in kd where tanh(kd)
    # rounds near 1: sech^2 taken as 1 - tanh^2 cancels there and breaks
    # them at a few hundred of these points, which random draws miss
    kd = np.linspace(5.0, 40.0, 350001)
    factor = power_transfer_factor(kd)
    n = factor / (2 * np.tanh(kd))
    with np.errstate(under="ignore"):
        bound = kd * np.exp(-2 * kd)
    assert np.all(np.abs(factor - 1) <= 4 * bound + 1e-15)
    assert np.all(np.abs(n - 0.5) <= 3 * bound + 1e-15)
