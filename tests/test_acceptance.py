"""End-to-end acceptance checks.

Each test prints a single pass/fail line for its criterion (visible even
under pytest's capture) and asserts the exact expected values.
"""

import random
import time

import pytest

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.linalg import PolyMatrix, rank_exact, rank_probabilistic
from koszulalg.complexes import (
    koszul,
    canonical_augmentation,
    min_generators_of_homology,
)
from koszulalg.chainmaps import (
    standard_iota,
    perturb,
    random_homotopy,
    rank_of_map,
    is_chain_map,
    rank_six_fixture,
)
from koszulalg.minimal import minimal_model, is_minimal
from koszulalg.filtration import compute_filtration, check_properties, bound_checks
from koszulalg.lift import pipeline, verify_bounds, case0_improved_bound, multiplicative_alpha

from bareiss import bareiss_rank
from test_linalg import _random_matrix
from test_minimal import _dim_homology_mod_k

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def _line(num, label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {label}: {status}")


def test_criterion_1_homotopy_fixture(capsys):
    start = time.time()
    gamma, iota, h, x, dx, Km, K0 = rank_six_fixture()
    gx = gamma.apply(x)
    gdx = gamma.apply(dx)
    cols = PolyMatrix(Km.ring, K0.n, 2)
    for j, v in enumerate((x, dx)):
        for i, p in v.items():
            cols.set(i, j, p)
    ok = (
        gx == {}
        and gdx == {}
        and rank_exact(cols) == 2
        and rank_of_map(gamma) == 6
        and time.time() - start < 1.0
    )
    with capsys.disabled():
        _line(1, "homotopy-perturbed map: kernel pair, rank 6, < 1 s", ok)
    assert ok


def test_criterion_2_standard_inclusion_rank(capsys):
    start = time.time()
    ok = True
    for field in (F2, Q):
        for weight in (1, 2):
            for r in range(1, 6):
                for m in (0, 1, 2):
                    iota, _, _ = standard_iota(RingSpec(field, r, weight), m)
                    ok = ok and rank_of_map(iota) == 2 ** r
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        _line(2, f"rank(iota) = 2^r, r<=5, both weights, F2+Q ({elapsed:.1f}s)", ok)
    assert ok


def test_criterion_3_perturbation_rank_bound(capsys):
    start = time.time()
    violations = 0
    trials = 0
    for field in (F2, Q):
        for r, count in ((3, 500), (4, 200)):
            ring = RingSpec(field, r, 1)
            iota, Km, K0 = standard_iota(ring, 1)
            for trial in range(count):
                rng = random.Random(1000 * r + field.characteristic + trial)
                h = random_homotopy(Km.base, K0.base, rng, homogeneous=True)
                gamma = perturb(iota, h)
                trials += 1
                if rank_of_map(gamma) < 2 * r:
                    violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 180.0
    with capsys.disabled():
        _line(
            3,
            f"{trials} perturbations, rank >= 2r, {violations} violations "
            f"({elapsed:.1f}s)",
            ok,
        )
    assert ok


def test_criterion_4_restricted_rank(capsys):
    ok = True
    for r in (3, 4):
        for m in (1, 2):
            K = koszul(RingSpec(Q, r, 2), m)
            rep = case0_improved_bound(K.base, m, canonical_augmentation(K))
            ok = ok and rep["restricted_rank"] == r + 1 and rep["passed"]
    with capsys.disabled():
        _line(4, "restricted rank = r+1 (weight 2, char 0, r=3,4, m=1,2)", ok)
    assert ok


def test_criterion_5_minimal_model_certificates(capsys, random_corpus):
    ok = True
    for C, expected in random_corpus:
        mm = minimal_model(C)
        ok = ok and mm.verify() == []
        ok = ok and is_minimal(mm.model)
        ok = ok and mm.model.n == expected == _dim_homology_mod_k(C)
        mm2 = minimal_model(mm.model)
        ok = ok and mm2.model.n == mm.model.n
        ok = ok and mm2.model.differential == mm.model.differential
        for seed in range(3):
            alt = minimal_model(C, pivot_rng=random.Random(seed))
            ok = ok and alt.verify() == []
            ok = ok and alt.model.n == mm.model.n
            ok = ok and sorted(alt.model.degrees) == sorted(mm.model.degrees)
    with capsys.disabled():
        _line(5, "100 minimal-model certificates + idempotence + pivot invariance", ok)
    assert ok


def test_criterion_6_filtration(capsys, random_corpus):
    ok = True
    for field in (F2, Q):
        for r in range(1, 6):
            K = koszul(RingSpec(field, r, 1), 0)
            F = compute_filtration(K.base)
            ok = ok and F.length == r + 1
            ok = ok and check_properties(F, canonical_augmentation(K))["passed"]
    for C, _ in random_corpus:
        mm = minimal_model(C)
        if mm.model.n == 0:
            continue
        F = compute_filtration(mm)
        ok = ok and check_properties(F)["passed"]
        rep = bound_checks(mm, F)
        got, want, fine = rep["dim_vs_twice_length"]
        ok = ok and fine and got >= want
    with capsys.disabled():
        _line(6, "filtration length r+1 on Koszul + dim >= 2(l-1) + properties", ok)
    assert ok


def test_criterion_7_pipeline(capsys):
    ok = True
    for field in (F2, Q):
        for r in (2, 3, 4):
            K = koszul(RingSpec(field, r, 1), 1)
            aug = canonical_augmentation(K)
            rep = verify_bounds(K.base, 1, aug)
            ok = ok and rep["passed"]
            ok = ok and rep["rank_gamma"] >= 2 * r
            ok = ok and rep["beta_filtration_violations"] == []
            # independent route: filtration bounds on the minimal model
            run = pipeline(K.base, 1, aug)
            alt = bound_checks(run["minimal"], run["filtration"])
            ok = ok and alt["passed"]
            ok = ok and alt["dim_H"] == rep["dim_H"]
            ok = ok and run["filtration"].length == rep["length"]
    with capsys.disabled():
        _line(7, "lift pipeline r=2,3,4 (F2+Q) with independent cross-check", ok)
    assert ok


def test_criterion_8_min_generators(capsys):
    ok = True
    for field in (F2, Q):
        for r in (2, 3, 4):
            for m in (1, 2):
                K = koszul(RingSpec(field, r, 1), m)
                got = min_generators_of_homology(K.base, (m + 1,) * r)
                ok = ok and got == 2 ** r
    with capsys.disabled():
        _line(8, "min generators of homology = 2^r, r=2,3,4, m=1,2 (F2+Q)", ok)
    assert ok


def test_criterion_9_multiplicative_lift(capsys):
    ok = True
    for field in (F2, Q):
        for r in (1, 2, 3, 4):
            K0 = koszul(RingSpec(field, r, 1), 0)
            alpha, rank = multiplicative_alpha(
                K0.dga(), canonical_augmentation(K0), 1
            )
            ok = ok and is_chain_map(alpha) is None
            ok = ok and rank == 2 ** r
    with capsys.disabled():
        _line(9, "multiplicative lift rank = 2^r, r<=4 (F2+Q)", ok)
    assert ok


def test_criterion_10_rank_oracle_agreement(capsys):
    """Bareiss, the certified evaluation rank and the evaluation lower
    bound agree on 400 random matrices over Q, F2, F3 and F5."""
    disagreements = 0
    for field in (Q, F2, F3, F5):
        ring = RingSpec(field, 3, 1)
        rng = random.Random(field.characteristic + 7)
        for _ in range(100):
            M = _random_matrix(
                ring, rng, rng.randint(1, 10), rng.randint(1, 10), max_deg=3
            )
            exact = bareiss_rank(M)
            if rank_exact(M) != exact:
                disagreements += 1
            for seed in (0, 1, 2):
                if rank_probabilistic(M, seed=seed) != exact:
                    disagreements += 1
    ok = disagreements == 0
    with capsys.disabled():
        _line(10, f"Bareiss = certified = evaluation rank, 400 matrices x 3 seeds, "
                  f"{disagreements} disagreements", ok)
    assert ok
