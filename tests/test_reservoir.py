"""Driven simulation, regression matrix, readout fitting, training error."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg import lstsq as scipy_lstsq

import rcstab as rc
from rcstab.errors import DegenerateTargetError, TruncatedRunError
from rcstab.reservoir import (
    QR_BLOCK,
    SVD_CUTOFF,
    build_omega,
    drive_cells,
    drive_continuous,
    drive_discrete,
    fit_readout,
    spread,
    train,
)

ZERO_F = rc.Polynomial((0.0,))
#: the directory this rcstab was imported from, for fresh subprocesses
SRC = str(Path(rc.__file__).resolve().parent.parent)


def single_node(w=1.0):
    return rc.ReservoirNetwork(a=np.zeros((1, 1)), w=np.array([w]))


class TestDriveDiscrete:
    def test_unit_delay_copy(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=200)
        result = drive_discrete(single_node(), ZERO_F, s)
        assert not result.diverged
        assert np.array_equal(result.states[:, 0], s)

    def test_zero_input_zero_state(self, ensemble_network):
        s = np.zeros(100)
        result = drive_discrete(ensemble_network, rc.ScaledTanh(-1.0, 0.5), s)
        assert np.all(result.states == 0.0)

    def test_determinism(self, ensemble_network, lorenz_pair_short):
        f = rc.ScaledTanh(-1.0, 0.5)
        a = drive_discrete(ensemble_network, f, lorenz_pair_short.input)
        b = drive_discrete(ensemble_network, f, lorenz_pair_short.input)
        assert np.array_equal(a.states, b.states)

    def test_divergence_flagged(self, ensemble_network, lorenz_pair_short):
        f = rc.Polynomial((0.0, 0.0, 3.0))
        result = drive_discrete(ensemble_network, f, lorenz_pair_short.input)
        assert result.diverged
        assert result.divergence_step is not None
        assert result.states.shape[0] == result.divergence_step


class TestDriveContinuous:
    def test_zero_input_decays_inside_basin(self, two_node_system):
        net, f = two_node_system
        s = np.zeros(3000)
        result = drive_continuous(net, f, s, dt=0.02, initial=(0.5, 0.5))
        assert not result.diverged
        assert np.linalg.norm(result.states[-1]) < 1e-4

    def test_linear_dynamics_match_matrix_exponential(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3)) * 0.3
        net = rc.ReservoirNetwork(a=a, w=np.zeros(3))
        p1 = -3.0
        r0 = np.array([0.4, -0.2, 0.9])
        dt, n = 0.01, 400
        result = drive_continuous(net, rc.Polynomial((p1,)), np.zeros(n), dt, initial=r0)
        exact = expm((a + p1 * np.eye(3)) * (n * dt)) @ r0
        assert np.max(np.abs(result.states[-1] - exact)) <= 1e-9

    def test_zero_order_hold_quadrature(self):
        # with f = 0 and A = 0 each step integrates a constant: r += w*s*dt
        net = single_node(w=2.0)
        s = np.array([1.0, -3.0, 0.5])
        result = drive_continuous(net, ZERO_F, s, dt=0.1)
        expected = 2.0 * np.cumsum(s) * 0.1
        assert np.allclose(result.states[:, 0], expected, atol=1e-15)

    def test_divergence_flagged(self, ensemble_network, lorenz_pair_short):
        f = rc.Polynomial((-3.0, 0.0, 3.0))
        result = drive_continuous(ensemble_network, f, lorenz_pair_short.input, dt=0.02)
        assert result.diverged


def reference_raw(f, r):
    """Nodal evaluation as the one-cell loops computed it, allocating."""
    if isinstance(f, rc.Polynomial):
        acc = np.zeros_like(r)
        for p in reversed(f.coeffs):
            acc = acc * r + p
        return acc * r
    if isinstance(f, rc.ScaledTanh):
        return f.p1 * np.tanh(f.p2 * r)
    return f.p1 / (1.0 + np.exp(-(f.p2 * r)))


def reference_coupling(a_t, y):
    """A y as row 0 of the (SLOTS, m) product that `drive_cells` takes, the
    other rows zero: the product's rounding depends on its shape."""
    padded = np.zeros((rc.reservoir.SLOTS, len(y)))
    padded[0] = y
    return (padded @ a_t)[0]


def reference_drive(net, f, s, time_kind, dt, initial):
    """The one-cell drive loop that `drive_cells` replaced, kept as its
    reference with the coupling of `reference_coupling`: states up to the
    divergence step, and that step."""
    a_t, w = np.ascontiguousarray(net.a.T), net.w
    r = np.zeros(net.m) if initial is None else np.array(initial, dtype=float)
    states = np.empty((len(s), net.m))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(len(s)):
            drive = w * s[n]

            def rhs(y):
                return reference_raw(f, y) + reference_coupling(a_t, y) + drive

            if time_kind == "discrete":
                r = rhs(r)
            else:
                k1 = rhs(r)
                k2 = rhs(r + 0.5 * dt * k1)
                k3 = rhs(r + 0.5 * dt * k2)
                k4 = rhs(r + dt * k3)
                r = r + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (np.all(np.isfinite(r)) and np.max(np.abs(r)) <= 1e6):
                return states[:n], n
            states[n] = r
    return states, None


class TestDriveCells:
    """The batched kernel against the one-cell reference, bit for bit."""

    @pytest.mark.parametrize(
        "time_kind, cells, initial",
        [
            # (-3, 0, 3) diverges at step 145, inside the transient, and
            # (-3, 0, 2) at step 624, inside a check block
            (
                "continuous",
                [rc.Polynomial(c) for c in
                 [(-3.0, 1.0, -1.0), (-3.0, 0.0, 3.0), (-3.0, 0.0, 2.0),
                  (-3.0, 0.0, 1.0), (-3.0, -2.0, -1.0)]],
                None,
            ),
            (
                "discrete",
                [rc.ScaledTanh(-1.0, 0.5), rc.ScaledTanh(0.4, 1.0), rc.ScaledTanh(2.0, 1.5)],
                np.linspace(-0.5, 0.5, 100),
            ),
            (
                "discrete",
                [rc.Sigmoid(3.0, 0.5), rc.Sigmoid(-2.0, 0.25), rc.Sigmoid(0.0, 0.75)],
                None,
            ),
        ],
    )
    def test_matches_one_cell_loop(
        self, ensemble_network, lorenz_pair_short, time_kind, cells, initial
    ):
        s, first, m = lorenz_pair_short.input, 200, ensemble_network.m
        sinks = [np.full((len(s) - first, m + 1), np.nan) for _ in range(2)]
        ended = {}
        for key, sink, step in drive_cells(
            ensemble_network, enumerate(cells), s, time_kind, 0.02, sinks, first, initial
        ):
            assert np.all(np.isnan(sink[:, m]))
            ended[key] = (sink[:, :m].copy(), step)
        assert sorted(ended) == list(range(len(cells)))
        for key, f in enumerate(cells):
            states, step = reference_drive(ensemble_network, f, s, time_kind, 0.02, initial)
            rows, got = ended[key]
            assert got == step
            kept = states[first:]
            assert np.array_equal(rows[: len(kept)], kept)

    @pytest.mark.parametrize(
        "time_kind, cell, diverging",
        [
            # (-3, 0, 2) diverges at step 624 and (0, 0, 3) at step 4, both
            # inside a check block
            ("continuous", rc.Polynomial((-3.0, 1.0, -1.0)), rc.Polynomial((-3.0, 0.0, 2.0))),
            ("discrete", rc.Polynomial((-0.3, 0.0, 0.0)), rc.Polynomial((0.0, 0.0, 3.0))),
        ],
    )
    def test_rows_do_not_depend_on_the_slot(
        self, ensemble_network, lorenz_pair_short, time_kind, cell, diverging
    ):
        s, m = lorenz_pair_short.input, ensemble_network.m

        def rows(cells, n_sinks):
            sinks = [np.full((len(s), m), np.nan) for _ in range(n_sinks)]
            ended = {}
            for key, sink, step in drive_cells(
                ensemble_network, cells, s, time_kind, 0.02, sinks
            ):
                ended[key] = (sink.copy(), step)
            return ended

        alone, step = rows([("cell", cell)], 1)["cell"]  # the other row idle
        assert step is None
        for cells in ([("cell", cell), ("bad", diverging)],
                      [("bad", diverging), ("cell", cell)]):
            ended = rows(cells, 2)
            assert ended["bad"][1] is not None and ended["bad"][1] % 64
            assert ended["cell"][1] is None
            assert ended["cell"][0].tobytes() == alone.tobytes()

    def test_one_cell_drives_match(self, ensemble_network, lorenz_pair_short):
        s, initial = lorenz_pair_short.input, np.full(100, 0.1)
        for f in (rc.Polynomial((-3.0, 1.0, -1.0)), rc.Polynomial((-3.0, 0.0, 2.0))):
            states, step = reference_drive(ensemble_network, f, s, "continuous", 0.02, initial)
            result = drive_continuous(ensemble_network, f, s, 0.02, initial=initial)
            assert result.divergence_step == step and result.diverged == (step is not None)
            assert np.array_equal(result.states, states)
        f = rc.Sigmoid(3.0, 0.5)
        states, step = reference_drive(ensemble_network, f, s, "discrete", None, None)
        result = drive_discrete(ensemble_network, f, s)
        assert step is None and not result.diverged
        assert np.array_equal(result.states, states)


class TestTrain:
    """One pipeline for the train command's one cell and a sweep's slots."""

    RUNTIME = rc.RuntimeParams(transient=200, n_keep=1300, dt=0.02)
    CELLS = [rc.Polynomial(c) for c in
             [(-3.0, 1.0, -1.0), (-3.0, 0.0, 3.0), (-3.0, -2.0, -1.0), (-3.0, 0.5, -2.0)]]

    def test_slots_match_one_cell_at_a_time(self, ensemble_network, lorenz_pair_short):
        net, rt, slots = ensemble_network, self.RUNTIME, rc.reservoir.SLOTS
        # twice as many cells as slots, so that every slot takes a second cell
        cells = self.CELLS + [rc.Polynomial((-3.0, 0.25 * j, -1.5))
                              for j in range(2 * slots - len(self.CELLS))]
        omegas = [rc.reservoir.omega_buffer(net.m, rt.n_keep) for _ in range(slots)]
        batched, fitted_in = {}, set()
        for key, step, fitted in train(
            net, enumerate(cells), lorenz_pair_short, "continuous", rt, omegas
        ):
            batched[key] = (step, None if fitted is None else (fitted.delta_rc, fitted.k.copy()))
            if fitted is not None:
                fitted_in.add(id(fitted.omega))
        assert sorted(batched) == list(range(len(cells)))
        assert fitted_in == {id(o) for o in omegas}
        for key, f in enumerate(cells):
            ((_, step, fitted),) = train(net, [(None, f)], lorenz_pair_short, "continuous", rt)
            assert batched[key][0] == step
            if step is None:
                delta, k = batched[key][1]
                assert fitted.delta_rc == delta and np.array_equal(fitted.k, k)
                assert not any(np.shares_memory(fitted.omega, o) for o in omegas)
            else:
                assert fitted is None and batched[key][1] is None
        assert batched[1][0] == 145

    def test_fit_failure_stays_with_its_cell(self, ensemble_network, lorenz_pair_short):
        # a target that is constant over the post-transient window
        flat = np.concatenate([np.tile([1.0, -1.0], 100), np.zeros(1300)])
        pair = rc.SignalPair(lorenz_pair_short.input, rc.normalize(flat))
        ended = {
            key: (step, fitted)
            for key, step, fitted in train(
                ensemble_network, enumerate(self.CELLS), pair, "continuous", self.RUNTIME
            )
        }
        assert sorted(ended) == list(range(len(self.CELLS)))
        assert ended[1] == (145, None)
        for key in (0, 2, 3):
            step, fitted = ended[key]
            assert step is None and isinstance(fitted, DegenerateTargetError)

    def test_error_state_left_to_the_caller(self, ensemble_network, lorenz_pair_short):
        seen = []

        def cells():
            for key, f in enumerate(self.CELLS):
                seen.append(np.geterr())
                yield key, f

        with np.errstate(over="raise", invalid="raise"):
            for _ in train(ensemble_network, cells(), lorenz_pair_short, "continuous",
                           self.RUNTIME, [np.empty((1300, 101)) for _ in range(2)]):
                seen.append(np.geterr())
        assert len(seen) == 2 * len(self.CELLS)
        assert all(e["over"] == "raise" and e["invalid"] == "raise" for e in seen)


class TestBuildOmega:
    def test_shape_and_ones_column(self):
        states = np.arange(24000.0).reshape(12000, 2)
        omega = build_omega(rc.DriveResult(states), transient=2000, n_keep=10000)
        assert omega.shape == (10000, 3)
        assert np.all(omega[:, 2] == 1.0)
        assert np.array_equal(omega[:, :2], states[2000:12000])

    def test_truncated_run_rejected(self):
        states = np.zeros((500, 2))
        result = rc.DriveResult(states, diverged=True, divergence_step=500)
        with pytest.raises(TruncatedRunError):
            build_omega(result)

    def test_full_length(self):
        states = np.ones((100, 3))
        omega = build_omega(rc.DriveResult(states), transient=0, n_keep=100)
        assert omega.shape == (100, 4)


class TestSpread:
    def test_hand_value(self):
        assert abs(spread([1.0, 2.0, 3.0]) - math.sqrt(2.0 / 3.0)) <= 1e-12

    def test_constant(self):
        assert spread([4.0] * 10) == 0.0

    def test_normalized_signal(self):
        assert abs(spread(rc.normalize(np.arange(50.0))) - 1.0) <= 1e-12


class TestFitReadout:
    def _random_omega(self, seed, n=300, m=6):
        rng = np.random.default_rng(seed)
        return np.hstack([rng.normal(size=(n, m)), np.ones((n, 1))]), rng

    def test_exact_recovery(self):
        omega, rng = self._random_omega(1)
        k_true = rng.normal(size=omega.shape[1])
        g = omega @ k_true
        fitted = fit_readout(omega, g)
        assert np.linalg.norm(omega @ fitted.k - g) / np.linalg.norm(g) <= 1e-8
        assert fitted.delta_rc <= 1e-8

    def test_orthogonal_target_gives_unit_error(self):
        omega, rng = self._random_omega(2)
        v = rng.normal(size=omega.shape[0])
        # project out the column space; the ones column makes g mean-zero
        coeff, *_ = np.linalg.lstsq(omega, v, rcond=None)
        g = v - omega @ coeff
        fitted = fit_readout(omega, g)
        assert abs(fitted.delta_rc - 1.0) <= 1e-8

    def test_rank_deficient_min_norm(self):
        omega, rng = self._random_omega(3)
        omega[:, 1] = omega[:, 0]  # duplicated column
        g = rng.normal(size=omega.shape[0])
        fitted = fit_readout(omega, g)
        null_vec = np.zeros(omega.shape[1])
        null_vec[0], null_vec[1] = 1.0, -1.0
        assert np.linalg.norm(omega @ null_vec) <= 1e-10
        for eps in (0.1, -0.1, 1.0):
            other = fitted.k + eps * null_vec
            assert np.linalg.norm(other) > np.linalg.norm(fitted.k)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            fit_readout(np.ones((5, 2)), np.ones(4))

    @pytest.mark.parametrize("rows", [
        3 * QR_BLOCK + 17,  # not a multiple of the block height
        QR_BLOCK,  # one full block
        QR_BLOCK - 5,  # one partial block
        4,  # fewer rows than columns: the minimum-norm k is unique
    ])
    def test_block_edges_match_scipy(self, rows):
        omega, rng = self._random_omega(9, n=rows, m=6)
        g = rng.normal(size=rows)
        fitted = fit_readout(omega, g)
        k, *_ = scipy_lstsq(omega, g, cond=SVD_CUTOFF)
        assert np.allclose(fitted.k, k, rtol=0.0, atol=1e-12 * np.linalg.norm(k))
        assert np.array_equal(fitted.fit, omega @ fitted.k)

    def test_matches_scipy_on_driven_omegas(self, ensemble_network, lorenz_pair_short):
        """delta_rc as scipy's SVD solve gives it, on Omegas of real m = 100
        drives: within 1e-6 relative, the benchmark's re-solve tolerance,
        for p2 = 0, where cond(Omega) is about 2e11 (3.7e-8 measured), and
        within 1e-9 for p2 != 0, where it is at most 1e9 (1.3e-10)."""
        rt = rc.RuntimeParams(transient=200, n_keep=1300, dt=0.02)
        g = lorenz_pair_short.target[rt.transient:]
        cells = {(0.0, -3.0): 1e-6, (4.0, -3.0): 1e-9, (2.0, -1.0): 1e-9}
        ended = train(ensemble_network, ((c, rc.Polynomial((-3.0, *c))) for c in cells),
                      lorenz_pair_short, "continuous", rt)
        for cell, step, fitted in ended:
            assert step is None
            omega = fitted.omega
            k, *_ = scipy_lstsq(omega, g, cond=SVD_CUTOFF)
            resolved = spread(omega @ k - g) / spread(g)
            assert abs(fitted.delta_rc / resolved - 1.0) <= cells[cell], cell
            assert (np.linalg.cond(omega) > 1e10) == (cell[0] == 0.0)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_no_omega_sized_copy(self):
        """One fit of a 10,000 x 101 Omega raises the process's peak RSS by
        less than a quarter of Omega.  An Omega-sized LAPACK copy, as
        `np.linalg.lstsq` makes, shows here but not to tracemalloc.  The
        peak is VmHWM, which exec resets: a child's ru_maxrss starts at the
        RSS of the process that spawned it, so under pytest it reads no rise."""
        probe = (
            "import numpy as np\n"
            "from rcstab.reservoir import fit_readout\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
            "rng = np.random.default_rng(0)\n"
            "warm = rng.standard_normal((500, 101)); warm[:, 100] = 1.0\n"
            "fit_readout(warm, rng.standard_normal(500))\n"
            "omega = rng.standard_normal((10_000, 101)); omega[:, 100] = 1.0\n"
            "g = rng.standard_normal(10_000)\n"
            "before = peak()\n"
            "fit_readout(omega, g)\n"
            "print((peak() - before) * 1024 / omega.nbytes)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) < 0.25, out.stdout


class TestTrainingError:
    def test_perfect_fit(self):
        omega, rng = TestFitReadout()._random_omega(4)
        g = omega @ rng.normal(size=omega.shape[1])
        assert fit_readout(omega, g).delta_rc <= 1e-10

    def test_zero_readout_unit_error(self):
        rng = np.random.default_rng(5)
        g = rc.normalize(rng.normal(size=400))
        assert abs(fit_readout(np.zeros((400, 3)), g).delta_rc - 1.0) <= 1e-9

    def test_constant_target_rejected(self):
        omega = np.ones((10, 2))
        with pytest.raises(DegenerateTargetError):
            fit_readout(omega, np.full(10, 3.3))

    def test_never_worse_than_mean_predictor(self):
        # the ones column guarantees delta <= 1 for mean-zero targets
        rng = np.random.default_rng(6)
        for trial in range(20):
            n, m = 120, 5
            omega = np.hstack([rng.normal(size=(n, m)), np.ones((n, 1))])
            g = rng.normal(size=n)
            g -= g.mean()
            assert fit_readout(omega, g).delta_rc <= 1.0 + 1e-9

    def test_invariant_under_column_rescaling(self):
        rng = np.random.default_rng(7)
        omega = np.hstack([rng.normal(size=(200, 4)), np.ones((200, 1))])
        g = rng.normal(size=200)
        base = fit_readout(omega, g).delta_rc
        for _ in range(5):
            col = int(rng.integers(0, 4))
            scale = float(rng.uniform(0.1, 5.0)) * (-1 if rng.uniform() < 0.5 else 1)
            shift = float(rng.uniform(-3, 3))
            scaled = omega.copy()
            scaled[:, col] = scale * scaled[:, col] + shift
            assert abs(fit_readout(scaled, g).delta_rc - base) <= 1e-9
