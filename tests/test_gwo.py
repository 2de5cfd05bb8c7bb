import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavepower import gwo
from wavepower.errors import DomainError
from wavepower.gwo import (
    GwoConfig,
    GwoRun,
    SearchBounds,
    a_schedule,
    gwo_maximize,
)
from wavepower.mechanics import (
    FluidEnvironment,
    power_transfer_factor,
    regular_wave_power,
)


def coefficients(a, ndim, r=0.5):
    """The move's A and C, shape (3, ndim), with every r1 and r2 equal to
    r."""
    return (np.full((3, ndim), 2.0 * a * r - a),
            np.full((3, ndim), 2.0 * r))


def sphere(x):
    return -np.sum(np.asarray(x) ** 2, axis=0)


class TestTypes:
    def test_bounds_validation(self):
        with pytest.raises(DomainError):
            SearchBounds(lower=[1.0, 0.0], upper=[1.0, 2.0])
        with pytest.raises(DomainError, match="matching 1-D arrays"):
            SearchBounds(lower=[0.0], upper=[1.0, 2.0])

    @pytest.mark.parametrize("lower,upper", [
        ([0.0, np.nan], [np.inf, 1.0]),
        ([0.0, np.nan], [1.0, 1.0]),
        ([-np.inf, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.inf]),
    ])
    def test_bounds_must_be_finite(self, lower, upper):
        with pytest.raises(DomainError, match="finite"):
            SearchBounds(lower=lower, upper=upper)

    @pytest.mark.parametrize("lower,upper", [
        ([0.0, -np.nextafter(gwo.BOUND_LIMIT, np.inf)], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.nextafter(gwo.BOUND_LIMIT, np.inf)]),
        ([0.0, -1e308], [1.0, 1e308]),
    ])
    def test_bounds_beyond_the_limit_refused(self, lower, upper):
        with pytest.raises(DomainError, match="in magnitude"):
            SearchBounds(lower=lower, upper=upper)

    @pytest.mark.parametrize("objective", [
        lambda x: x[0], lambda x: -x[0], lambda x: np.zeros(x.shape[1])])
    def test_bounds_at_the_limit_run_without_overflow(self, objective):
        # objectives that pull the pack to an edge of the box or leave it
        # spread over all of it; the suite's filterwarnings setting makes
        # a numpy overflow warning an error
        m = gwo.BOUND_LIMIT
        run = gwo_maximize(objective, SearchBounds(lower=[-m, -m],
                                                   upper=[m, m]),
                           GwoConfig(agents=12, max_iter=30, seed=3))
        assert np.all(np.abs(run.best_position) <= m)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            GwoConfig(agents=3)
        with pytest.raises(DomainError):
            GwoConfig(max_iter=0)


class TestASchedule:
    def test_endpoints(self):
        assert a_schedule(0, 200) == 2.0
        assert a_schedule(200, 200) == 0.0

    def test_midpoint(self):
        assert a_schedule(100, 200) == 1.0

    def test_affine(self):
        vals = [a_schedule(i, 50) for i in range(51)]
        assert np.allclose(np.diff(vals), -2.0 / 50)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            a_schedule(-1, 10)
        with pytest.raises(DomainError):
            a_schedule(11, 10)

    def test_array_endpoints(self):
        a = a_schedule(np.arange(201), 200)
        assert (a[0], a[-1]) == (2.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(max_iter=st.integers(1, 2 ** 40), data=st.data())
    def test_array_has_the_bits_of_scalar_calls(self, max_iter, data):
        # gwo_maximize forms a(t) for a block of iterations at once
        start = data.draw(st.integers(0, max_iter))
        stop = data.draw(st.integers(start, min(start + 64, max_iter + 1)))
        got = a_schedule(np.arange(start, stop), max_iter)
        want = np.array([a_schedule(t, max_iter) for t in range(start, stop)])
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("bad", [-1, 11])
    def test_array_with_one_iteration_out_of_range(self, bad):
        iterations = np.arange(11)
        iterations[5] = bad
        with pytest.raises(DomainError, match=f"iteration {bad} outside"):
            a_schedule(iterations, 10)


class TestUpdatePosition:
    """The position update of one agent, gwo._move."""

    def test_fixed_point(self):
        # agent at the leaders with C = 1 (r2 = 0.5): every D is zero
        p = np.array([1.0, -2.0, 3.0])
        out = gwo._move(p, np.stack([p, p, p]), *coefficients(1.5, 3))
        assert out == pytest.approx(p)

    def test_a_zero_gives_leader_mean(self):
        # r1 = 0.5 makes A = 0, so the agent jumps to the leader centroid
        leaders = np.array([[0.0, 0.0], [3.0, 6.0], [6.0, 0.0]])
        out = gwo._move(np.array([100.0, -50.0]), leaders,
                        *coefficients(0.0, 2))
        assert out == pytest.approx(leaders.mean(axis=0))


class TestGwoMaximize:
    bounds3 = SearchBounds(lower=[-10.0, -10.0, -10.0],
                           upper=[10.0, 10.0, 10.0])

    def test_sphere(self):
        run = gwo_maximize(sphere, self.bounds3,
                           GwoConfig(agents=10, max_iter=200, seed=0))
        assert run.best_value >= -1e-4

    def test_deterministic_run(self):
        cfg = GwoConfig(agents=8, max_iter=50, seed=123)
        r1 = gwo_maximize(sphere, self.bounds3, cfg)
        r2 = gwo_maximize(sphere, self.bounds3, cfg)
        assert np.array_equal(r1.best_position, r2.best_position)
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.convergence, r2.convergence)
        assert r1.evaluations == r2.evaluations

    def test_convergence_curve_contract(self):
        cfg = GwoConfig(agents=6, max_iter=40, seed=7)
        run = gwo_maximize(sphere, self.bounds3, cfg)
        assert run.convergence.size == 40
        assert np.all(np.diff(run.convergence) >= 0)
        assert run.convergence[-1] == run.best_value
        assert run.evaluations == 6 * 40

    def test_best_position_in_bounds(self):
        bounds = SearchBounds(lower=[0.1, 2.0], upper=[0.6, 6.0])
        run = gwo_maximize(lambda x: x[0] * x[1], bounds,
                           GwoConfig(agents=5, max_iter=30, seed=1))
        assert np.all(run.best_position >= bounds.lower - 1e-12)
        assert np.all(run.best_position <= bounds.upper + 1e-12)

    def test_curve_tracks_running_max_of_evaluations(self):
        # elitist alpha: best-so-far equals the running max over all
        # evaluations completed by the end of each iteration
        seen = []

        def recording(x):
            v = sphere(x)
            seen.append(v)
            return v

        cfg = GwoConfig(agents=5, max_iter=20, seed=4)
        run = gwo_maximize(recording, self.bounds3, cfg)
        per_iter = np.array(seen)
        assert per_iter.shape == (20, 5)
        running = np.maximum.accumulate(per_iter.max(axis=1))
        assert np.array_equal(run.convergence, running)

    def test_non_finite_objective(self):
        packs = []

        def bad(x):
            packs.append(x.T.copy())
            return np.full_like(x[0], np.nan)

        with pytest.raises(DomainError) as exc:
            gwo_maximize(bad, self.bounds3, GwoConfig(agents=4, max_iter=5))
        assert str(exc.value) == (f"objective returned nan at "
                                  f"{packs[0][0].tolist()}")

    def test_corner_optimum(self):
        # monotone objective: optimizer should reach the box corner
        bounds = SearchBounds(lower=[0.0, 0.0], upper=[1.0, 2.0])
        run = gwo_maximize(lambda x: x[0] + x[1], bounds,
                           GwoConfig(agents=10, max_iter=200, seed=2))
        assert run.best_position == pytest.approx([1.0, 2.0], abs=1e-3)


class _Leaders:
    """Elitist top-3 memory; ties broken by earlier discovery then
    lexicographic position."""

    def __init__(self):
        self._entries = []  # (value, seq, position)

    def consider(self, value, seq, position):
        self._entries.append((value, seq, position))
        self._entries.sort(key=lambda e: (-e[0], e[1], tuple(e[2])))
        del self._entries[3:]

    @property
    def best(self):
        return self._entries[0]

    def positions(self):
        return np.array([e[2] for e in self._entries])


def reference_update(x, L, a, rng):
    """One agent's move, drawing r1 then r2 of shape (3, ndim)."""
    r1 = rng.random(L.shape)
    r2 = rng.random(L.shape)
    A = 2.0 * a * r1 - a
    C = 2.0 * r2
    D = np.abs(C * L - x)
    return np.mean(L - A * D, axis=0)


def reference_gwo(objective, bounds, cfg):
    """The optimizer one agent at a time, one objective call per position
    (ndim,), with a sorted leader list."""
    rng = np.random.default_rng(cfg.seed)
    pos = rng.uniform(bounds.lower, bounds.upper,
                      size=(cfg.agents, bounds.ndim))
    leaders = _Leaders()
    convergence = np.empty(cfg.max_iter)
    evaluations = 0
    for it in range(cfg.max_iter):
        for i in range(cfg.agents):
            leaders.consider(float(objective(pos[i])), evaluations,
                             pos[i].copy())
            evaluations += 1
        convergence[it] = leaders.best[0]
        a = a_schedule(it, cfg.max_iter)
        trio = leaders.positions()
        for i in range(cfg.agents):
            pos[i] = np.clip(reference_update(pos[i], trio, a, rng),
                             bounds.lower, bounds.upper)
    best_value, _, best_position = leaders.best
    return GwoRun(best_position=best_position, best_value=best_value,
                  convergence=convergence, evaluations=evaluations)


PAPER_BOX = SearchBounds(lower=[0.1, 2.0, 5.0], upper=[0.6, 6.0, 100.0])
CUBE = SearchBounds(lower=[-2.0, -2.0], upper=[2.0, 2.0])
LINE = SearchBounds(lower=[-1.0], upper=[3.0])


def draw_block(agents, ndim):
    """Iterations per random draw of gwo_maximize."""
    return max(1, gwo._DRAW_BLOCK // (agents * 6 * ndim))


# objective, box and, for the last four, (agents, max_iter) at an edge of
# gwo_maximize's blocks of random draws (else 4 + seed % 7 agents and 40
# iterations, within one block); "floor" to "signed zero" are plateaus
# where most values tie
REFERENCE_CASES = {
    "paper power": (lambda x: regular_wave_power(*x), PAPER_BOX),
    "sphere": (sphere, TestGwoMaximize.bounds3),
    "constant": (lambda x: np.ones_like(x[0]), CUBE),
    "floor": (lambda x: np.floor(x[0] + x[1]), CUBE),
    "round": (lambda x: np.round(x[0]), CUBE),
    "signed zero": (lambda x: np.where(x[0] > 0, 0.0, -0.0), CUBE),
    # full blocks, then a partial one
    "paper power past two blocks": (
        lambda x: regular_wave_power(*x), PAPER_BOX,
        (10, 2 * draw_block(10, 3) + 18)),
    "line past one block": (
        lambda x: -np.abs(x[0] - 0.5), LINE, (4, draw_block(4, 1) + 18)),
    # too many agents for more than one iteration per draw
    "sphere, one iteration per block": (
        sphere, CUBE, (gwo._DRAW_BLOCK // 12 + 1, 4)),
    "paper power, one iteration": (
        lambda x: regular_wave_power(*x), PAPER_BOX, (10, 1)),
    # a pack of 64 ends halfway through its first block
    "paper power, 64 agents inside one block": (
        lambda x: regular_wave_power(*x), PAPER_BOX,
        (64, draw_block(64, 3) // 2)),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_pack_run_bit_identical_to_per_agent_reference(case, seed):
    objective, bounds, *size = REFERENCE_CASES[case]
    agents, max_iter = size[0] if size else (4 + seed % 7, 40)
    cfg = GwoConfig(agents=agents, max_iter=max_iter, seed=seed)
    want = reference_gwo(objective, bounds, cfg)
    got = gwo_maximize(objective, bounds, cfg)
    assert np.array_equal(got.best_position, want.best_position)
    assert np.array_equal(np.signbit(got.best_position),
                          np.signbit(want.best_position))
    assert repr(got.best_value) == repr(want.best_value)
    assert np.array_equal(got.convergence, want.convergence)
    assert got.evaluations == want.evaluations


def test_error_position_is_the_first_non_finite():
    # agents 1 and 3 are non-finite in the second pack: the error names
    # agent 1, and the objective is not called again
    packs = []

    def objective(x):
        packs.append(x.T.copy())
        values = np.zeros(x.shape[1])
        if len(packs) == 2:
            values[[1, 3]] = [np.inf, np.nan]
        return values

    with pytest.raises(DomainError) as exc:
        gwo_maximize(objective, CUBE, GwoConfig(agents=5, max_iter=3))
    assert len(packs) == 2
    # the floats are written as their reprs, so these are their bits
    assert str(exc.value) == (f"objective returned inf at "
                              f"{packs[-1][1].tolist()}")


def test_objective_sees_the_pack_as_ndim_by_agents():
    seen = []

    def objective(x):
        seen.append(x.copy())
        return x[0] - x[1]

    gwo_maximize(objective, CUBE, GwoConfig(agents=6, max_iter=3))
    assert [x.shape for x in seen] == [(2, 6)] * 3
    first = np.random.default_rng(0).uniform(CUBE.lower, CUBE.upper,
                                             size=(6, 2))
    assert np.array_equal(seen[0], first.T)


@pytest.mark.parametrize("objective", [
    lambda x: 1.0,
    lambda x: x,
    lambda x: x[0][:-1],
    lambda x: x[0][:, None],
    lambda x: np.append(x[0], 0.0),
], ids=["scalar", "whole pack", "one short", "column", "one extra"])
def test_objective_must_return_one_value_per_agent(objective):
    with pytest.raises(DomainError, match=r"expected \(5,\)"):
        gwo_maximize(objective, CUBE, GwoConfig(agents=5, max_iter=3))


ENV = FluidEnvironment()
# The peak of power_transfer_factor f(x) = tanh x + x sech^2 x, whose
# derivative is 2 sech^2(x) (1 - x tanh x): the root of x tanh x = 1.
X_STAR = 1.1996786402577338


def test_x_star_is_the_peak_of_the_transfer_factor():
    assert X_STAR == pytest.approx(1.1996787, abs=1e-7)
    assert abs(X_STAR * np.tanh(X_STAR) - 1.0) <= 2 ** -52
    grid = np.linspace(0.01, 20.0, 200001)
    assert power_transfer_factor(X_STAR) >= power_transfer_factor(grid).max()


def exact_optimum(bounds, env):
    """The (H, T, d) in the box `bounds` where regular_wave_power is
    largest, and that power, by linear theory: P grows with H^2, and at
    any depth with T (the group velocity does), so H = H_max and
    T = T_max; at T_max the depth factor peaks where x tanh x = 1
    (x = kd), and there the dispersion relation omega^2 d/g = x tanh x
    gives d* = g/omega^2 = g T_max^2/(4 pi^2), clipped to [d_min, d_max]."""
    h, t = bounds.upper[:2]
    d = min(max(env.g * t ** 2 / (4 * np.pi ** 2), bounds.lower[2]),
            bounds.upper[2])
    return (h, t, d), float(regular_wave_power(h, t, d, env))


@st.composite
def power_boxes(draw):
    """(H, T, d) boxes inside regular_wave_power's domain (H >= 0, T and d
    positive) whose depths end within three deep-water wavelengths at
    T_max, as the default workload's data-derived box does. Past that the
    power is flat to the last bit over most of the depth range, and the
    pack can stop on that plateau."""
    h_lo = draw(st.floats(0.0, 2.0))
    h_hi = h_lo + draw(st.floats(1e-3, 3.0))
    t_lo = draw(st.floats(1.0, 15.0))
    t_hi = t_lo + draw(st.floats(1e-3, 10.0))
    deep = 3 * ENV.g * t_hi ** 2 / (2 * np.pi)
    d_hi = deep * draw(st.floats(0.02, 1.0))
    d_lo = d_hi * draw(st.floats(1e-3, 0.99))
    return SearchBounds(lower=[h_lo, t_lo, d_lo], upper=[h_hi, t_hi, d_hi])


# no run lands above the exact optimum by more than rounding, and the
# default 10 x 200 run lands within GAP below it: over 3,000 runs on such
# boxes the relative gap had a median of a few 1e-9 and a maximum of 3.4e-7
ROUNDING = 1e-12
GAP = 1e-6


@settings(max_examples=60, deadline=None)
@given(bounds=power_boxes(), seed=st.integers(0, 2 ** 32 - 1))
# criterion 5's box, whose optimum depth is inside it, and criterion 7's,
# whose optimum depth is d_min
@example(bounds=SearchBounds(lower=[0.1, 2.0, 5.0], upper=[0.6, 6.0, 100.0]),
         seed=0)
@example(bounds=SearchBounds(lower=[0.1, 2.0, 5.0],
                             upper=[0.595, 4.102, 100.0]), seed=0)
def test_gwo_reaches_the_exact_optimum(bounds, seed):
    position, best = exact_optimum(bounds, ENV)
    assert np.all((bounds.lower <= position) & (position <= bounds.upper))
    run = gwo_maximize(
        lambda x: regular_wave_power(x[0], x[1], x[2], ENV), bounds,
        GwoConfig(agents=10, max_iter=200, seed=seed))
    assert run.best_value <= best * (1 + ROUNDING)
    assert run.best_value >= best * (1 - GAP)
