import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavepower import mechanics
from wavepower.errors import DomainError, SolverError
from wavepower.mechanics import (
    DISPERSION_TOL,
    RETIRE_FLOOR,
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


def test_environment_refuses_g_whose_square_overflows():
    # rho*g**2 is in every power; 1e154**2 = 1e308 is still finite
    g_max = math.sqrt(np.finfo(float).max)
    for g in (1e154, g_max):
        assert math.isfinite(FluidEnvironment(g=g).g ** 2)
    for g in (math.nextafter(g_max, math.inf), 1e155):
        with pytest.raises(DomainError, match=r"as must g\*\*2, got "):
            FluidEnvironment(g=g)


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


# (period, g): omega^2 = (2 pi/T)^2 overflows, underflows to 0, or is
# subnormal; or omega^2 is normal and only omega^2/g is not
START_NOT_NORMAL = [(1e-160, 9.81), (1e200, 9.81), (1e155, 9.81),
                    (2 * np.pi / np.sqrt(1e-307), 9.81),
                    (2 * np.pi / np.sqrt(1.5e308), 0.5)]


@pytest.mark.parametrize("period,g", START_NOT_NORMAL)
def test_dispersion_rejects_period_whose_start_is_not_normal(period, g):
    # the tier-1 filter turns any RuntimeWarning on the way into an error
    with pytest.raises(DomainError, match=f"out of range for g={g}"):
        wavenumber(period, 10.0, g=g)
    T = np.full(4, 7.0)
    T[2] = period
    with pytest.raises(DomainError, match="out of range"):
        wavenumber(T, 10.0, g=g)
    with pytest.raises(DomainError, match="out of range"):
        regular_wave_power(1.0, period, 10.0, FluidEnvironment(g=g))


def test_periods_inside_the_limits_are_solved():
    assert wavenumber(1e-153, 10.0) == pytest.approx(4.0243e306, rel=1e-4)
    # omega^2/g = 2e-307 is normal: no DomainError; Newton runs out of steps
    with pytest.raises(SolverError):
        wavenumber(2 * np.pi / np.sqrt(2e-306), 10.0)


# (period, depth): omega^2 and omega^2/g are normal, but the Newton start
# y = omega^2 d/g is subnormal or overflows
START_PAIR_NOT_NORMAL = [(5.0, 1e-307), (1e-153, 1e4), (1e-153, 45.0)]


@pytest.mark.parametrize("period", [5.0, 1e-153])
def test_dispersion_rejects_subnormal_depth(period):
    # 1e-153 s: y = 4e-14 is normal, but k = kd/d would overflow
    with pytest.raises(DomainError, match="depth at least 2.2250738585"):
        wavenumber(period, 1e-320)
    with pytest.raises(DomainError, match="depth at least 2.2250738585"):
        wavenumber([7.0, period], [10.0, 1e-320])


@pytest.mark.parametrize("period,depth", START_PAIR_NOT_NORMAL)
def test_dispersion_rejects_pair_whose_start_is_not_normal(period, depth):
    # the tier-1 filter turns any RuntimeWarning on the way into an error
    match = f"depth {depth!r} m are out of range for g=9.81"
    with pytest.raises(DomainError, match=match):
        wavenumber(period, depth)
    with pytest.raises(DomainError, match=match):
        regular_wave_power(1.0, period, depth)
    T, d = np.full(4, 7.0), np.full(4, 10.0)
    T[2], d[2] = period, depth
    with pytest.raises(DomainError, match=match):
        wavenumber(T, d)


def test_pairs_inside_the_start_limits_are_solved():
    # y = 1.77e308 and 3.2e-308, just inside the normal floats
    assert wavenumber(1e-153, 44.0) == pytest.approx(4.0243e306, rel=1e-4)
    with pytest.raises(SolverError):
        wavenumber(5.0, 2e-307)
    # the shortest period and the deepest depth would overflow y together,
    # but they are not a pair
    T, d = np.array([1e-153, 10.0]), np.array([10.0, 1e4])
    assert same_bits(wavenumber(T, d), [wavenumber(1e-153, 10.0),
                                        wavenumber(10.0, 1e4)])


EDGE_PERIODS = [1e-153, 5e-154, 5.0, 1e3, 1e150]
EDGE_DEPTHS = [1e-320, 2.3e-308, 1e-307, 2e-307, 1e-300, 10.0, 44.0, 45.0,
               1e4, 1e300]


def outcome(fn, *args):
    """fn(*args), or the type of the WavePowerError it raises."""
    try:
        return fn(*args)
    except (DomainError, SolverError) as exc:
        return type(exc)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(EDGE_PERIODS),
                                 st.sampled_from(EDGE_DEPTHS)),
                       min_size=1, max_size=6))
def test_batch_is_refused_exactly_when_one_of_its_pairs_is(pairs):
    T, d = np.array(pairs).T
    alone = [outcome(wavenumber, t, x) for t, x in pairs]
    batch = outcome(wavenumber, T, d)
    if DomainError in alone:
        assert batch is DomainError
    elif SolverError in alone:
        assert batch is SolverError
    else:
        assert same_bits(batch, alone)


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


@st.composite
def retiring_batches(draw):
    """(H, T, d) of RETIRE_FLOOR to 3 RETIRE_FLOOR elements, 1-D, an
    (n, 1) x (1, m) broadcast or a transposed view, and a SOLVE_BLOCK:
    the default, which holds them in one block, or one that cuts them
    into blocks above and below the floor. Depths of 1000 m or more
    converge on the first check, so with a drawn share of shallow ones
    (0.01-50 m, several steps) most blocks retire."""
    layout = draw(st.sampled_from(["flat", "outer", "transposed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shallow = draw(st.floats(0.0, 0.5))
    if layout == "flat":
        shape = d_shape = (draw(st.integers(RETIRE_FLOOR, 3 * RETIRE_FLOOR)),)
    else:
        n, m = draw(st.integers(32, 55)), draw(st.integers(32, 55))
        shape = (n, 1) if layout == "outer" else (m, n)
        d_shape = (1, m) if layout == "outer" else shape
    H, T = rng.uniform(0.0, 1.0, shape), rng.uniform(1.0, 20.0, shape)
    d = np.where(rng.random(d_shape) < shallow,
                 rng.uniform(0.01, 50.0, d_shape),
                 rng.uniform(1000.0, 5000.0, d_shape))
    if layout == "transposed":
        H, T, d = H.T, T.T, d.T
    block = draw(st.sampled_from([mechanics.SOLVE_BLOCK, RETIRE_FLOOR + 300]))
    return H, T, d, block


@settings(max_examples=15, deadline=None)
@given(batch=retiring_batches())
def test_retiring_blocks_give_the_bits_of_scalar_calls(batch):
    H, T, d, block = batch
    k_ref = scalar_calls(wavenumber, T, d)
    p_ref = scalar_calls(regular_wave_power, H, T, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mechanics, "SOLVE_BLOCK", block)
        k, p = wavenumber(T, d), regular_wave_power(H, T, d)
    assert np.shape(k) == k_ref.shape and same_bits(k, k_ref)
    assert np.shape(p) == p_ref.shape and same_bits(p, p_ref)


def test_only_blocks_from_the_floor_up_retire(monkeypatch):
    # every fifth element shallow, the rest deep: more than three
    # quarters converge on the first check and the shallow ones go on
    def batch(n):
        d = np.full(n, 5000.0)
        d[::5] = 5.0
        return np.full(n, 8.0), d

    # the size of every array np.tanh is called on
    sizes, tanh = [], np.tanh
    monkeypatch.setattr(np, "tanh", lambda x, *args: (
        sizes.append(np.size(x)), tanh(x, *args))[1])
    # the optimizer's 10-agent pack, a scalar call and a block one below
    # the floor iterate every element at every check
    for n in (10, 1, RETIRE_FLOOR - 1):
        sizes.clear()
        regular_wave_power(0.5, *batch(n))
        assert len(sizes) > 2 and set(sizes) == {n}
    # so do the blocks of a larger input cut below the floor
    monkeypatch.setattr(mechanics, "SOLVE_BLOCK", RETIRE_FLOOR - 1)
    sizes.clear()
    wavenumber(*batch(3 * RETIRE_FLOOR))
    assert len(sizes) > 6 and set(sizes) <= {RETIRE_FLOOR - 1, 3}
    # a block at the floor iterates only its shallow elements after the
    # first check
    sizes.clear()
    monkeypatch.setattr(mechanics, "SOLVE_BLOCK", RETIRE_FLOOR)
    wavenumber(*batch(RETIRE_FLOOR))
    assert len(sizes) > 2 and sizes[0] == RETIRE_FLOOR
    assert set(sizes[1:]) == {len(range(0, RETIRE_FLOOR, 5))}


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
    # the message names the worst element and g, as a DomainError would,
    # also where the period is one scalar for every depth
    assert "for period 10.0 s and depth 50.0 m at g=9.81 (" in \
        str(alone.value)
    assert str(batch.value) == str(alone.value)
    with pytest.raises(SolverError) as broadcast:
        wavenumber(10.0, d, max_iter=1)
    assert str(broadcast.value) == str(alone.value)
    # a block at the retire floor drops its deep elements at the first
    # check, and then fails on the shallow one as that does alone
    monkeypatch.setattr(mechanics, "SOLVE_BLOCK", RETIRE_FLOOR)
    T = np.full(2 * RETIRE_FLOOR, 2.0)
    d = np.full(2 * RETIRE_FLOOR, 5000.0)
    T[RETIRE_FLOOR + 5], d[RETIRE_FLOOR + 5] = 10.0, 50.0
    with pytest.raises(SolverError) as retired:
        wavenumber(T, d, max_iter=2)
    with pytest.raises(SolverError) as alone:
        wavenumber(10.0, 50.0, max_iter=2)
    assert np.isfinite(retired.value.residual)
    assert retired.value.residual == alone.value.residual
    assert str(retired.value) == str(alone.value)


def test_inputs_are_checked_before_any_block(monkeypatch):
    def no_block(*args, **kwargs):
        raise AssertionError("a block was solved before validation")

    # every block, the one of a small input too, is solved by _solve_block
    monkeypatch.setattr(mechanics, "_solve_block", no_block)
    # 3 * SMALL_BLOCK elements are one block, then three
    for block in (mechanics.SOLVE_BLOCK, SMALL_BLOCK):
        monkeypatch.setattr(mechanics, "SOLVE_BLOCK", block)
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
        # a valid input of the same size reaches the block solver
        with pytest.raises(AssertionError, match="before validation"):
            wavenumber(7.0, np.full(3 * SMALL_BLOCK, 10.0))


# The power kernel as it was before each Newton step took a single tanh:
# f' from cosh, with kd > 350 cut to 0 where cosh overflows, and the
# transfer factor from a second tanh and a sinh. Kept as a reference for
# the one-tanh kernel, which should differ only in its last bits.
def reference_group_factor(kd):
    with np.errstate(over="ignore"):
        ratio = np.where(kd > 350.0, 0.0, 2.0 * kd / np.sinh(2.0 * kd))
    return 0.5 * (1.0 + ratio)


def reference_power(H, T, depth, rho=1025.0, g=9.81):
    """(power, near), near marking as in reference_omega2_solve the
    elements one of whose residuals came within rounding of
    DISPERSION_TOL, which the kernel may take one Newton step more or
    less on."""
    H, T, depth = (np.asarray(x, dtype=float) for x in (H, T, depth))
    omega = 2.0 * np.pi / T
    omega2 = omega * omega
    k = omega2 / g
    near = np.zeros(np.shape(k), dtype=bool)
    with np.errstate(over="ignore"):
        for _ in range(mechanics.DISPERSION_MAX_ITER):
            kd = k * depth
            th = np.tanh(kd)
            f = omega2 - g * k * th
            resid = np.abs(f) / omega2
            near |= np.abs(resid / DISPERSION_TOL - 1.0) < 1e-3
            done = resid <= DISPERSION_TOL
            if np.all(done):
                break
            fprime = -g * (th + kd * np.where(
                kd > 350.0, 0.0, 1.0 / np.cosh(kd) ** 2))
            k = np.where(done, k, k - f / fprime)
        else:
            raise AssertionError("the reference solve did not converge")
    kd = k * depth
    factor = np.tanh(kd) * 2.0 * reference_group_factor(kd)
    return rho * g ** 2 * H ** 2 * T / (32.0 * np.pi) * factor, near


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_kernel_agrees_with_the_cosh_reference(data, n):
    def column(lo, hi):
        return data.draw(arrays(float, n, elements=st.floats(lo, hi)))

    H, T, d = column(0.0, 5.0), column(1.0, 20.0), column(0.01, 5000.0)
    expected, near = reference_power(H, T, d)
    np.testing.assert_allclose(regular_wave_power(H, T, d)[~near],
                               expected[~near], rtol=1e-14, atol=0)
    kd = wavenumber(T, d) * d
    with np.errstate(over="ignore"):
        expected = np.tanh(kd) * (1.0 + 2.0 * kd / np.sinh(2.0 * kd))
    np.testing.assert_allclose(power_transfer_factor(kd), expected,
                               rtol=1e-14, atol=0)


# The dispersion loop as it was before Newton ran in x = kd: k from the
# deep-water k0 = omega^2/g, with the residual |omega^2 - g k tanh(kd)|
# relative to omega^2 and one tanh per step, in the same operation order.
# The kd form takes the same Newton path, scaled by d/g, so the two should
# differ only in their last bits; another path, such as a start nearer the
# root, moves the result by up to the tolerance. The one exception is a
# residual within rounding of DISPERSION_TOL, which the two forms of the
# check may put on opposite sides, so that one takes a step more (2 in 10^7
# random pairs of the wide domain, and 1 of the 10^6-point paper box).
def reference_omega2_solve(T, depth, g=9.81):
    """(k, kd, near) from the omega^2-form loop, each element stopping at
    its own convergence; near marks the elements one of whose residuals
    came within 1e-3 relative of DISPERSION_TOL."""
    omega = 2.0 * np.pi / T
    omega2 = omega * omega
    k = omega2 / g
    near = np.zeros(np.shape(k), dtype=bool)
    for _ in range(mechanics.DISPERSION_MAX_ITER):
        kd = k * depth
        th = np.tanh(kd)
        f = omega2 - k * g * th
        resid = np.abs(f) / omega2
        near |= np.abs(resid / DISPERSION_TOL - 1.0) < 1e-3
        done = resid <= DISPERSION_TOL
        if np.all(done):
            return k, kd, near
        step = f / (((1.0 - th * th) * kd + th) * g)
        k = np.where(done, k, k + step)
    raise AssertionError("the reference solve did not converge")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_kd_form_agrees_with_the_omega2_reference(data, n):
    def column(lo, hi):
        return data.draw(arrays(float, n, elements=st.floats(lo, hi)))

    H, T, d = column(0.0, 5.0), column(1.0, 20.0), column(0.01, 5000.0)
    k, kd, near = reference_omega2_solve(T, d)
    power = power_transfer_factor(kd) * (
        np.square(H) * (1025.0 * 9.81 ** 2) * T / (32.0 * np.pi))
    far = ~near
    np.testing.assert_allclose(wavenumber(T, d)[far], k[far], rtol=2e-15,
                               atol=0)
    np.testing.assert_allclose(regular_wave_power(H, T, d)[far], power[far],
                               rtol=2e-15, atol=0)


def test_kd_form_agrees_with_the_omega2_reference_on_the_paper_box():
    tt, dd = np.meshgrid(np.linspace(2.0, 6.0, 1000),
                         np.linspace(5.0, 100.0, 1000), indexing="ij")
    k, _, near = reference_omega2_solve(tt, dd)
    # 55 of the 10^6 points come near the tolerance; one of them steps once
    # more in the kd form
    assert np.count_nonzero(near) <= 100
    np.testing.assert_allclose(wavenumber(tt, dd)[~near], k[~near],
                               rtol=2e-15, atol=0)


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
