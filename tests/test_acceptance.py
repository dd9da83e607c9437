"""Acceptance suite: one test per criterion, fixed seeds, stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).
Criterion 5 is implemented exactly as stated and is an expected failure:
the refinement distance d(N) at degree 3 with eps_reg = 0.25 provably
*increases* over N in {4, 8, 16, 32} (the exact convolution oracle puts the
turnover near N ~ 55 because of log^2 N factors), so the strict-decrease
assertion cannot hold on this range; see the test output for both the
Monte Carlo and the exact ladders.
"""

import math

import numpy as np
import pytest

import wicknlw as w
from wicknlw.experiments import NONLINEARITIES, scaled_forcing_grid
from wicknlw.engine import hamiltonian_values
from wicknlw.free_field import sample_pair_half
from wicknlw.gibbs import ChainOptions, importance_weights, sample_gibbs_arrays
from wicknlw.wick import hermite_values

from conftest import half_from_full, random_field


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {name}  {detail}")


def closed_form(k, x, sigma):
    return {
        0: np.ones_like(x),
        1: x,
        2: x**2 - sigma,
        3: x**3 - 3 * sigma * x,
        4: x**4 - 6 * sigma * x**2 + 3 * sigma**2,
    }[k]


def test_criterion_01_hermite_algebra():
    rng = np.random.default_rng(101)
    x = rng.uniform(-5.0, 5.0, size=200)
    sig = rng.uniform(0.5, 5.0, size=200)
    ok = True
    for k in range(0, 9):
        vals = np.array([w.hermite(k, xi, si) for xi, si in zip(x, sig)])
        if k <= 4:
            want = closed_form(k, x, sig)
            ok &= bool(np.all(np.abs(vals - want) <= 1e-10 * (1 + np.abs(want))))
        scaled = sig ** (k / 2.0) * np.array(
            [w.hermite(k, xi / math.sqrt(si), 1.0) for xi, si in zip(x, sig)])
        ok &= bool(np.all(np.abs(vals - scaled) <= 1e-10 * (1 + np.abs(vals))))
    # derivative identity: central differences converge at second order
    for k in range(3, 7):
        exact = k * w.hermite(k - 1, 1.3, 2.1)
        err = lambda h: abs(
            (w.hermite(k, 1.3 + h, 2.1) - w.hermite(k, 1.3 - h, 2.1)) / (2 * h)
            - exact)
        ratio = err(1e-3) / err(5e-4)
        ok &= 3.5 <= ratio <= 4.5
    report(1, "Hermite recurrence/closed forms/scaling/derivative", ok)
    assert ok


def test_criterion_02_wick_binomial_identity():
    sigma = w.point_variance(8, 1.0)
    ok = True
    worst = 0.0
    for trial in range(3):
        z = half_from_full(random_field(8, 200 + trial))
        wv = half_from_full(random_field(8, 300 + trial))
        for k in range(1, 6):
            # complete spectra of both sides, cutoff kN
            got = w.wick_binomial(z, wv, k, sigma)
            want = w.wick_power(z + wv, k, sigma)
            scale = np.max(np.abs(want)) + 1.0
            rel = float(np.max(np.abs(got - want)) / scale)
            worst = max(worst, rel)
            ok &= rel <= 1e-10
    report(2, "Wick binomial expansion = Wick power of the sum",
           ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_03_hermite_moment_identities():
    rows = w.hermite_moment_study(8, 1.0, k_max=4, n_samples=100000, seed=303)
    worst = 0.0
    ok = True
    for r in rows:
        dev = abs(r["mc_estimate"] - r["expected"])
        if r["stderr"] == 0.0:
            ok &= dev == 0.0
        else:
            worst = max(worst, dev / r["stderr"])
            ok &= dev <= 3.0 * r["stderr"]
    report(3, "Gaussian moment identities for Hermite evaluations",
           ok, f"{len(rows)} moments, worst |z| {worst:.2f}")
    assert ok


def test_criterion_04_chaos_second_moments():
    rep = w.chaos_convergence_study(3, [1, 4, 8], 1.0, 0.3, 0.25, 10000,
                                    seed=404, cauchy=False)
    ok = True
    worst = 0.0
    desk = {}
    for r in rep.moment_rows:
        z = abs(r["mc_estimate"] - r["analytic"]) / max(r["stderr"], 1e-30)
        worst = max(worst, z)
        ok &= z <= 3.0
        desk[(r["ell"], r["n_max"], tuple(r["mode"]))] = r["analytic"]
    ok &= desk[(1, 1, (1, 0))] == pytest.approx(0.5)
    ok &= desk[(2, 1, (0, 0))] == pytest.approx(4.0)
    for r in rep.cross_rows:
        ok &= abs(r["mean_real"]) <= 3.0 * r["stderr_real"]
        ok &= abs(r["mean_imag"]) <= 3.0 * r["stderr_imag"]
    report(4, "chaos second moments match the convolution oracle",
           ok, f"worst |z| {worst:.2f}; desk values 0.5 and 4 verified")
    assert ok


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the exact convolution oracle shows d(N) increasing "
    "over {4,8,16,32} at degree 3, eps_reg 0.25 (turnover only near N ~ 55 "
    "due to log^2 N factors); the Monte Carlo agrees with the oracle. See "
    "the decisions ledger for the full analysis.",
)
def test_criterion_05_cauchy_refinement_decay():
    rep = w.chaos_convergence_study(3, [4, 8, 16, 32], 1.0, 0.3, 0.25, 1000,
                                    seed=505)
    ladder = {r["n_max"]: r["distance"] for r in rep.cauchy_rows if r["ell"] == 3}
    dists = [ladder[n] for n in (4, 8, 16, 32)]
    # exact RMS oracle for the same quantity, straight from the chaos table
    exact = []
    for n in (4, 8, 16, 32):
        small, big = w.chaos_spectrum(3, n, 1.0), w.chaos_spectrum(3, 2 * n, 1.0)
        r_b, r_s = 6 * n, 3 * n
        diff = big.copy()
        lo = r_b - r_s
        diff[lo : lo + 2 * r_s + 1, lo : lo + 2 * r_s + 1] -= small
        k = np.arange(-r_b, r_b + 1)
        nx, ny = np.meshgrid(k, k, indexing="ij")
        exact.append(math.sqrt(float(np.sum((1 + nx**2 + ny**2) ** -0.25 * diff))))
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    report(5, "refinement distances d(N) strictly decreasing", decreasing,
           f"MC {['%.2f' % d for d in dists]}, exact RMS "
           f"{['%.2f' % d for d in exact]}")
    assert decreasing


@pytest.mark.slow
def test_criterion_06_integrator_quality():
    ctx = w.WickContext.create(16, 1.0, 1)
    u, v, _, _ = sample_gibbs_arrays(ctx, 606, 1,
                                     method="hmc",
                                     opts=ChainOptions(n_chains=1, burn_in=800,
                                                       thin=1))

    def drift(dt, rec):
        traj = w.evolve(u[0], v[0], 1.0, w.DynParams(ctx, dt), record_every=rec)
        h = hamiltonian_values(traj.u, traj.v, ctx)
        return float(np.max(np.abs(h - h[0])) / (1 + abs(h[0])))

    d1 = drift(1e-3, 100)
    d2 = drift(5e-4, 200)
    ratio = d1 / d2
    ok = d1 < 1e-4 and 3.5 <= ratio <= 4.5
    report(6, "energy drift small and second-order", ok,
           f"drift {d1:.3e} (tol 1e-4), ratio {ratio:.3f} (in [3.5, 4.5])")
    assert ok


@pytest.mark.slow
def test_criterion_07_single_mode_gibbs_vs_quadrature():
    rho = 1.0
    oracle = w.single_mode_moment_quadrature(rho, 1, 2)
    ctx = w.WickContext.create(0, rho, 1)

    u_m, _, _, diag_m = sample_gibbs_arrays(
        ctx, 707, 100000, method="metropolis",
        opts=ChainOptions(n_chains=20, burn_in=300, thin=2))
    mv = u_m[:, 0, 0].real ** 2
    z_m = (mv.mean() - oracle) / (mv.std(ddof=1) / math.sqrt(len(mv)))

    u_i, _, pots, diag_i = sample_gibbs_arrays(
        ctx, 708, 100000, method="importance")
    wgt = importance_weights(pots)
    iv = u_i[:, 0, 0].real ** 2
    im = float(np.sum(wgt * iv))
    se_i = math.sqrt(float(np.sum(wgt**2 * (iv - im) ** 2)))
    z_i = (im - oracle) / se_i

    ok = abs(z_m) <= 3.0 and abs(z_i) <= 3.0
    report(7, "single-mode Gibbs sampling matches quadrature", ok,
           f"oracle {oracle:.5f}, metropolis z {z_m:+.2f} "
           f"(acc {diag_m['acceptance_rate']:.2f}), importance z {z_i:+.2f} "
           f"(ESS {diag_i['ess']:.0f})")
    assert ok


@pytest.mark.slow
def test_criterion_08_gibbs_invariance():
    ctx = w.WickContext.create(8, 1.0, 1)
    dyn = w.DynParams(ctx, 1e-3)
    opts = ChainOptions(n_chains=200, burn_in=400, thin=8, traj_time=0.6,
                        traj_dt=0.02)
    rep = w.invariance_test(dyn, 1.0, 10000, seed=20260808, method="hmc",
                            opts=opts)
    zs = {r["observable"]: r["z_score"] for r in rep.observables}
    ok = rep.passed and rep.n_failed == 0
    report(8, "Gibbs measure invariant under the truncated flow", ok,
           "z = " + ", ".join(f"{k}:{v:+.2f}" for k, v in zs.items())
           + f"; drift {rep.max_rel_energy_drift:.2e}; "
           f"sampler R-hat {rep.sampler_diagnostics['r_hat']:.3f}")
    assert ok


@pytest.mark.slow
def test_criterion_09_weak_universality():
    f = NONLINEARITIES["sin"]
    rep = w.universality_experiment(f, [1 / 8, 1 / 16, 1 / 32], rho=1.0,
                                    s=-0.1, t_final=0.5, dt=2e-3, seed=909)
    dists = [r["sup_distance"] for r in rep.rows]
    ok = (not any(r["failed"] for r in rep.rows)
          and all(a > b for a, b in zip(dists, dists[1:])))

    # pure-cubic identity: scaled forcing == (f'''(0)/6) H_3(u; sigma_eps)
    rng = np.random.default_rng(910)
    sig = w.point_variance(8, 1.0)
    worst = 0.0
    for _ in range(100):
        vals = rng.standard_normal((12, 12)) * 3.0
        got = scaled_forcing_grid(NONLINEARITIES["cubic"], 1 / 8, 1.0, vals)
        want = -hermite_values(3, vals, sig) / 6.0
        worst = max(worst, float(np.max(np.abs(got - want))
                                 / (1 + np.max(np.abs(want)))))
    ok &= worst <= 1e-10
    report(9, "scaling ladder decreases; cubic forcing identity", ok,
           f"distances {['%.4f' % d for d in dists]}, "
           f"identity worst rel err {worst:.1e}")
    assert ok


@pytest.mark.slow
def test_criterion_10_determinism():
    """Bit-exact reruns of the machinery behind criteria 3-9 (reduced scale)."""
    ok = True

    a = w.hermite_moment_study(4, 1.0, 2, 2000, seed=1)
    b = w.hermite_moment_study(4, 1.0, 2, 2000, seed=1)
    ok &= a == b

    ca = w.chaos_convergence_study(2, [2, 4], 1.0, 0.3, 0.25, 500, seed=2)
    cb = w.chaos_convergence_study(2, [2, 4], 1.0, 0.3, 0.25, 500, seed=2)
    ok &= (ca.moment_rows, ca.cross_rows, ca.cauchy_rows) == \
          (cb.moment_rows, cb.cross_rows, cb.cauchy_rows)

    ctx0 = w.WickContext.create(0, 1.0, 1)
    for method in ("metropolis", "importance", "hmc"):
        opts = ChainOptions(n_chains=4, burn_in=50, thin=2)
        ua, va, pa, _ = sample_gibbs_arrays(ctx0, 3, 200,
                                            method, opts)
        ub, vb, pb, _ = sample_gibbs_arrays(ctx0, 3, 200,
                                            method, opts)
        ok &= (np.array_equal(ua, ub) and np.array_equal(va, vb)
               and np.array_equal(pa, pb))

    ctx = w.WickContext.create(4, 1.0, 1)
    dyn = w.DynParams(ctx, 2e-3)
    ra = w.invariance_test(dyn, 0.2, 300, seed=4, method="hmc",
                           opts=ChainOptions(n_chains=10, burn_in=100, thin=3))
    rb = w.invariance_test(dyn, 0.2, 300, seed=4, method="hmc",
                           opts=ChainOptions(n_chains=10, burn_in=100, thin=3))
    ok &= ra.observables == rb.observables

    ua = w.universality_experiment(NONLINEARITIES["sin"], [1 / 2, 1 / 4], 1.0,
                                   -0.1, 0.1, 5e-3, seed=5)
    ub = w.universality_experiment(NONLINEARITIES["sin"], [1 / 2, 1 / 4], 1.0,
                                   -0.1, 0.1, 5e-3, seed=5)
    ok &= ua.rows == ub.rows

    u8, v8 = sample_pair_half(w.MuParams(8, 1.0, seed=6), 1)
    ctx8 = w.WickContext.create(8, 1.0, 1)
    ta = w.evolve(u8[0], v8[0], 0.1, w.DynParams(ctx8, 1e-3), record_every=20)
    tb = w.evolve(u8[0], v8[0], 0.1, w.DynParams(ctx8, 1e-3), record_every=20)
    ok &= np.array_equal(ta.u, tb.u) and np.array_equal(ta.v, tb.v)

    report(10, "identical seeds reproduce all outputs bit-exactly", ok)
    assert ok
