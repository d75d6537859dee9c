"""Acceptance gate: ten end-to-end criteria, one test each.

Every criterion test prints a single "criterion NN pass: ..." line
(visible under pytest -s or on failure) and the pytest -v listing itself
gives the per-criterion pass/fail verdict.  Grids and tolerances are
spelled out inline; nothing here is scaled down for speed.  Next to
criterion 05, two oracle tests reach the families it cannot: spin
factors through Clifford matrices, albert through its 27x27
left-multiplication matrices.
"""

import math
import time
import zlib

import numpy as np
from scipy.linalg import expm

from jbtrotter.algebras import (
    AlgebraDescriptor,
    exp_series,
    exp_spectral,
    jb_norm,
    random_element,
    unit,
)
from jbtrotter.axioms import run_axiom_suite
from jbtrotter.jets import (
    inverse_sandwich_defect_jet,
    jet_exp,
    jet_zero,
    product_step_jet,
    residual,
    symmetrized_step_jet,
)
from jbtrotter.trotter import (
    approx_f,
    approx_g,
    approx_h,
    bound_thm31,
    bound_thm33i,
    bound_thm33ii,
    empirical_order,
    exp_sum,
    measured_error,
    plan_min_n,
    sweep,
    tightest_bound,
)
from assoc_oracle import (
    albert_exp_oracle,
    albert_with_roots,
    oracle_exp_sum,
    oracle_f,
    oracle_g,
    oracle_h,
    random_unitary,
    spectral_norm,
    spin_to_matrix,
    to_matrix,
)
from cli_harness import CONTRACT_FILES, contract_bytes, run_in_fresh_process
from conftest import STANDARD_DESCRIPTORS, pauli_pair

FAMILIES = STANDARD_DESCRIPTORS  # sym:6, herm:4, spin:8, albert:3
DOUBLING_N = [1, 2, 4, 8, 16, 32, 64, 128, 256]
SLACK = 1e-9


def _grid_instances(descriptor, m, count, tag):
    """Deterministic instances with per-element norms in (0, 1]."""
    rng = np.random.default_rng(
        [tag, count, m, zlib.crc32(descriptor.kind.encode()), descriptor.dim]
    )
    seeds = rng.integers(0, 2**62, size=(count, m))
    norms = rng.uniform(0.2, 1.0, size=(count, m))
    for i in range(count):
        yield [
            random_element(descriptor, int(seeds[i, j]), float(norms[i, j]))
            for j in range(m)
        ]


def test_criterion_01_axiom_suite():
    started = time.perf_counter()
    worst_by_family = {}
    for desc in FAMILIES:
        results = run_axiom_suite(desc, trials=1000, seed=0)
        for res in results:
            assert res.passed, (str(desc), res)
        worst_by_family[str(desc)] = max(r.worst for r in results)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s, target is under 60s"
    print(
        "criterion 01 pass: axiom suite, 1000 pairs per family, "
        f"worst scaled residual {max(worst_by_family.values()):.3e}, {elapsed:.1f}s"
    )


def test_criterion_02_bound_validity_first_scheme():
    started = time.perf_counter()
    checks = 0
    worst_margin = -math.inf
    for desc in FAMILIES:
        for m in (2, 3, 5):
            for elems in _grid_instances(desc, m, 500, tag=2):
                norms = [jb_norm(a) for a in elems]
                assert all(v <= 1.0 + 1e-12 for v in norms)
                for rec in sweep("g", elems, DOUBLING_N):
                    margin = rec.error - rec.bound_thm31
                    worst_margin = max(worst_margin, margin)
                    assert margin <= SLACK, (str(desc), m, rec)
                    checks += 1
    elapsed = time.perf_counter() - started
    assert checks == 54000
    assert elapsed < 300.0, f"grid took {elapsed:.1f}s, target is under 5 min"
    print(
        f"criterion 02 pass: {checks} g-error vs bound checks, "
        f"worst margin {worst_margin:.3e} (slack {SLACK}), {elapsed:.1f}s"
    )


def test_criterion_03_bound_validity_symmetrized_scheme():
    started = time.perf_counter()
    checks = 0
    worst_margin = -math.inf
    for desc in FAMILIES:
        for m in (2, 3, 5):
            for elems in _grid_instances(desc, m, 500, tag=3):
                for rec in sweep("f", elems, DOUBLING_N):
                    margins = [
                        rec.error - rec.bound_thm33i,
                        rec.error - rec.bound_thm33ii,
                    ]
                    if desc.is_special:
                        margins.append(rec.error - rec.bound_special_i)
                        margins.append(rec.error - rec.bound_special_ii)
                    else:
                        assert rec.bound_special_i is None
                    worst_margin = max(worst_margin, *margins)
                    assert all(mg <= SLACK for mg in margins), (str(desc), m, rec)
                    checks += len(margins)
    elapsed = time.perf_counter() - started
    assert checks == 54000 * 2 + 27000 * 2  # both generic bounds, special on sym/herm
    print(
        f"criterion 03 pass: {checks} f-error vs bound checks incl. sharpened "
        f"special-family bounds, worst margin {worst_margin:.3e}, {elapsed:.1f}s"
    )


def test_criterion_04_convergence_orders():
    slope_ns = [32, 64, 128, 256, 512]
    orders_seen = {}
    for desc in FAMILIES:
        pair = [random_element(desc, 9001, 1.0), random_element(desc, 9002, 1.0)]
        for scheme in ("g", "f"):
            order = empirical_order(sweep(scheme, pair, slope_ns))
            assert 1.7 <= order <= 2.3, (str(desc), scheme, order)
            orders_seen[f"{scheme}/{desc}"] = order
        triple = [random_element(desc, 9003 + k, 1.0) for k in range(3)]
        order_h = empirical_order(sweep("h", triple, slope_ns))
        assert order_h >= 0.9, (str(desc), order_h)
        orders_seen[f"h/{desc}"] = order_h
        err_1 = measured_error("h", triple, 1)
        err_1024 = measured_error("h", triple, 1024)
        assert err_1024 <= 1e-2 * err_1, (str(desc), err_1, err_1024)
    g_orders = [v for k, v in orders_seen.items() if k.startswith("g/")]
    h_orders = [v for k, v in orders_seen.items() if k.startswith("h/")]
    print(
        "criterion 04 pass: slopes over n=32..512, g/f within [1.7, 2.3] "
        f"(g mid {np.mean(g_orders):.2f}), h >= 0.9 (min {min(h_orders):.2f}) "
        "and err(1024) <= 1e-2 err(1) per family"
    )


def test_criterion_05_oracle_equivalence():
    cases = 0
    worst = 0.0
    for i in range(200):
        desc = (AlgebraDescriptor("sym", 6), AlgebraDescriptor("herm", 4))[i % 2]
        m = (2, 3, 5)[i % 3]
        n = (1, 2, 4, 8, 16)[i % 5]
        rng = np.random.default_rng([5, i])
        elems = [
            random_element(desc, int(rng.integers(0, 2**62)), float(rng.uniform(0.3, 1.0)))
            for _ in range(m)
        ]
        mats = [to_matrix(e) for e in elems]

        def rel(got, want):
            return spectral_norm(np.asarray(got) - np.asarray(want)) / max(
                spectral_norm(want), 1e-300
            )

        gaps = [
            rel(to_matrix(approx_g(elems, n)), oracle_g(mats, n)),
            rel(to_matrix(approx_f(elems, n)), oracle_f(mats, n)),
            rel(to_matrix(exp_sum(elems)), oracle_exp_sum(mats)),
            rel(to_matrix(exp_spectral(elems[0])), expm(mats[0])),
        ]
        if m % 2 == 1:
            gaps.append(rel(to_matrix(approx_h(elems, n)), oracle_h(mats, n)))
        worst = max(worst, *gaps)
        assert all(g <= 1e-10 for g in gaps), (str(desc), m, n, gaps)
        cases += 1
    assert cases == 200
    print(
        "criterion 05 pass: 200 seeded sym/herm cases, approximants and "
        f"exponentials vs plain matrix route, worst relative gap {worst:.3e}"
    )


def test_spin_schemes_match_clifford_matrices():
    # spin:8 sits in the 16x16 Clifford matrices, where the schemes are
    # plain matrix products of scipy exponentials.
    desc = AlgebraDescriptor("spin", 8)
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng([55, i])
        elems = [
            random_element(desc, int(rng.integers(0, 2**62)), float(rng.uniform(0.1, 4.0)))
            for _ in range(3)
        ]
        mats = [spin_to_matrix(e) for e in elems]
        for n in (1, 3, 16):
            for approx, oracle in ((approx_g, oracle_g), (approx_f, oracle_f),
                                   (approx_h, oracle_h)):
                want = oracle(mats, n)
                got = spin_to_matrix(approx(elems, n))
                gap = spectral_norm(got - want) / spectral_norm(want)
                worst = max(worst, gap)
                assert gap <= 1e-13, (i, n, approx.__name__, gap)
    print(f"spin Clifford oracle: 50 triples, g/f/h at n = 1, 3, 16, worst rel {worst:.3e}")


def test_albert_exp_matches_left_multiplication_matrix():
    # exp(a) = expm(L_a) 1 with L_a built from the hand-tabulated octonion
    # product: an oracle for the spectral route that shares no arithmetic
    # with it, on random spectra and on roots at and across the series
    # fallback, criterion 07's straddling gaps among them.
    desc = AlgebraDescriptor("albert", 3)
    rng = np.random.default_rng(57)
    cases = [
        random_element(desc, int(rng.integers(0, 2**62)), float(rng.uniform(0.1, 4.0)))
        for _ in range(200)
    ]
    gaps = (0.0, 1e-12, 1e-9, 1e-8, 1e-6, 1e-5, 1e-4, 1e-2)
    cases += [_albert_with_root_gap(gap, 800 + k) for k, gap in enumerate(gaps)]
    cases += [_albert_with_root_gap(float(gap), 700 + k)
              for k, gap in enumerate(np.geomspace(1e-8, 1e-4, 48))]
    cases += [unit(desc) * 0.7, unit(desc) * 0.0]
    worst = 0.0
    for k, a in enumerate(cases):
        want = albert_exp_oracle(a)
        gap = jb_norm(exp_spectral(a) - want) / jb_norm(want)
        worst = max(worst, gap)
        assert gap <= 1e-12, (k, gap)
    print(f"albert left-multiplication oracle: {len(cases)} exponentials, worst rel {worst:.3e}")


def test_criterion_06_jet_claims():
    worst_step = 0.0
    worst_defect = 0.0
    for desc in FAMILIES:
        for m in (2, 3, 4):
            rng = np.random.default_rng([6, m, zlib.crc32(desc.kind.encode())])
            elems = [
                random_element(desc, int(rng.integers(0, 2**62)), float(rng.uniform(0.3, 1.0)))
                for _ in range(m)
            ]
            total = elems[0]
            for e in elems[1:]:
                total = total + e
            s = sum(jb_norm(e) for e in elems)
            limit = 1e-12 * (1.0 + s) ** 3
            ref = jet_exp(total, 3)  # (I, sum, sum^2/2, ...) reference
            r_d = residual(product_step_jet(elems, 3), ref, 2)
            r_h = residual(symmetrized_step_jet(elems, 3), ref, 2)
            r_u = residual(
                inverse_sandwich_defect_jet(elems, 3), jet_zero(desc, 3), 1
            )
            worst_step = max(worst_step, r_d, r_h)
            worst_defect = max(worst_defect, r_u)
            assert r_d <= limit and r_h <= limit, (str(desc), m, r_d, r_h)
            assert r_u <= limit, (str(desc), m, r_u)
    sx, sz = pauli_pair()
    ref = jet_exp(sx + sz, 3)
    d3_gap = jb_norm(
        product_step_jet([sx, sz], 3).coefficients[3] - ref.coefficients[3]
    )
    assert d3_gap > 1e-6
    print(
        "criterion 06 pass: step jets match (I, S, S^2/2) within 1e-12 scaled "
        f"(worst {worst_step:.3e}), defect jet vanishes through degree 1 "
        f"(worst {worst_defect:.3e}), pauli degree-3 gap {d3_gap:.6f} > 1e-6"
    )


def _albert_with_root_gap(gap, mixer_seed):
    return albert_with_roots(random_unitary(np.random.default_rng(mixer_seed)), [0.0, gap, 1.0])


def test_criterion_07_exponential_cross_check():
    worst = 0.0
    for desc in FAMILIES:
        rng = np.random.default_rng([7, zlib.crc32(desc.kind.encode())])
        for i in range(500):
            a = random_element(
                desc, int(rng.integers(0, 2**62)), float(rng.uniform(0.1, 2.0))
            )
            gap = jb_norm(exp_spectral(a) - exp_series(a)) / jb_norm(exp_spectral(a))
            worst = max(worst, gap)
            assert gap <= 1e-11, (str(desc), i, gap)
    # constructed albert spectra with root gaps straddling the 1e-6 fallback
    straddle = 0.0
    for k, gap in enumerate(np.geomspace(1e-8, 1e-4, 48)):
        a = _albert_with_root_gap(float(gap), 700 + k)
        rel = jb_norm(exp_spectral(a) - exp_series(a)) / jb_norm(exp_spectral(a))
        straddle = max(straddle, rel)
        assert rel <= 1e-11, (gap, rel)
    print(
        "criterion 07 pass: spectral vs series exponential, 500 elements per "
        f"family worst rel {worst:.3e}, 48 near-degenerate albert spectra "
        f"across the 1e-6 fallback worst rel {straddle:.3e}"
    )


def test_criterion_08_planner_minimality():
    eps_values = (1e-2, 1e-3, 1e-4, 1e-5, 3e-6)
    norm_choices = ([1.0], [0.5, 0.5], [1.0, 1.0], [0.4, 0.4, 0.4], [1.5])
    combos = []
    for scheme in ("g", "f"):
        for idx, eps in enumerate(eps_values):
            combos.append((scheme, eps, norm_choices[idx % 5]))
            combos.append((scheme, eps, norm_choices[(idx + 2) % 5]))
    assert len(combos) == 20
    for scheme, eps, norms in combos:
        n_min = plan_min_n(scheme, eps, norms=norms)
        assert tightest_bound(scheme, norms, n_min) <= eps, (scheme, eps, norms)
        if n_min > 1:
            assert tightest_bound(scheme, norms, n_min - 1) > eps, (scheme, eps, norms)
    spot = plan_min_n("g", 1e-4, norms=[1.0])
    assert spot == 96
    print(
        "criterion 08 pass: 20 (scheme, eps, norms) planner combos satisfy "
        "bound(n_min) <= eps < bound(n_min - 1); spot g/S=1/eps=1e-4 -> n_min 96"
    )


def test_criterion_09_frozen_spot_values():
    checks = [
        (bound_thm31([1.0], 10), math.e / 300.0),
        (bound_thm33i([0.4, 0.3, 0.3], 10), math.e / 60.0),
        (bound_thm33ii([0.5, 0.5], 100), 0.18 * math.exp(1.02)),
    ]
    for got, want in checks:
        assert abs(got - want) <= 1e-12 * want, (got, want)
    print(
        "criterion 09 pass: closed-form spot values e/300, e/60, 0.18e^1.02 "
        "reproduced to 1e-12 relative"
    )


def test_criterion_10_cli_determinism(tmp_path):
    demo_a = run_in_fresh_process("demo")
    demo_b = run_in_fresh_process("demo")
    assert demo_a.returncode == 0 and demo_b.returncode == 0
    assert demo_a.stdout == demo_b.stdout and demo_a.stdout

    inst = tmp_path / "pair.json"
    inst.write_bytes(contract_bytes({**CONTRACT_FILES["pair.json"], "label": "pair"}))
    args = ("sweep", "--input", str(inst), "--scheme", "g,f", "--n", "1:128:x2")
    sweep_a = run_in_fresh_process(*args)
    sweep_b = run_in_fresh_process(*args)
    assert sweep_a.returncode == 0
    assert sweep_a.stdout == sweep_b.stdout and sweep_a.stdout

    bad = tmp_path / "broken.json"
    bad.write_text("{definitely not json", encoding="utf-8")
    res = run_in_fresh_process("sweep", "--input", str(bad))
    assert res.returncode == 3
    err_lines = res.stderr.strip().split("\n")
    assert len(err_lines) == 1 and err_lines[0].startswith("error[input]:")
    print(
        "criterion 10 pass: demo and sweep byte-identical across repeat runs, "
        "malformed input exits 3 with a one-line reason"
    )
