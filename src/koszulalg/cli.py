"""Command-line experiment runner.

Subcommands cover the worked fixtures (fixture), randomized rank
surveys, the exploratory low-rank search, the bound-verification
pipeline, and thin file-based wrappers around the minimal-model,
filtration, lift and map-verification operations.

Exit codes: 0 all assertions pass, 1 a mathematical assertion failed,
2 usage or input error.  Every command is deterministic given its seed.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .ring import FieldSpec, RingSpec
from .complexes import koszul, canonical_augmentation
from .chainmaps import (
    Homotopy,
    standard_iota,
    perturb,
    is_chain_map,
    rank_of_map,
    random_homotopy,
    rank_six_fixture,
)
from .linalg import PolyMatrix, rank_exact
from .minimal import minimal_model, is_minimal
from .filtration import compute_filtration, check_properties, bound_checks, report_checks
from .lift import LiftError, pipeline, verify_bounds
from .fileio import (
    read_complex,
    read_map,
    write_complex,
    write_map,
    minimal_model_lines,
    FileFormatError,
)

REPORT_VERSION = 1


class MathFailure(Exception):
    """An asserted mathematical identity did not hold."""


def _report(path, command, lines):
    """Print the report, and also write it to `path` unless that is None."""
    out = [f"# koszulalg report v{REPORT_VERSION}", f"command {command}"]
    out.extend(lines)
    text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def _ring(args) -> RingSpec:
    return RingSpec(FieldSpec(args.char), args.rank, args.weight)


def _fmt_check(name, got, want, ok):
    return f"check {name}: {got} vs {want} -> {'PASS' if ok else 'FAIL'}"


def cmd_fixture(args):
    lines = []
    gamma, iota, h, x, dx, Km, K0 = rank_six_fixture()
    failures = []
    for name, v in (("x", x), ("dx", dx)):
        zero = not gamma.apply(v)
        lines.append(f"gamma({name}) zero: {zero}")
        if not zero:
            failures.append(f"gamma({name}) != 0")
    span = PolyMatrix(Km.ring, Km.n, 2)
    for j, v in enumerate((x, dx)):
        for i, p in v.items():
            span.entries[(i, j)] = p
    indep = rank_exact(span) == 2
    lines.append(f"x, dx independent over R: {indep}")
    if not indep:
        failures.append("x, dx dependent")
    rank = rank_of_map(gamma, mode=args.rank_mode, seed=args.seed)
    lines.append(_fmt_check("rank(gamma)", rank, 6, rank == 6))
    if rank != 6:
        failures.append(f"rank {rank} != 6")
    lines.append("result " + ("PASS" if not failures else "FAIL: " + "; ".join(failures)))
    _report(args.out, "fixture", lines)
    if failures:
        raise MathFailure("; ".join(failures))


def cmd_fixture_weight2(args):
    """The same homotopy data under the weight-2 grading convention."""
    from .ring import RingSpec as RS

    ring = RS(FieldSpec(2), 3, 1)
    _, _, h, *_ = rank_six_fixture(ring)
    ring2 = RS(FieldSpec(2), 3, 2)
    Km2 = koszul(ring2, 1)
    K02 = koszul(ring2, 0)
    H2 = PolyMatrix(ring2, K02.n, Km2.n)
    for (i, j), p in h.matrix.entries.items():
        H2.entries[(i, j)] = ring2.monomial(next(iter(p.terms)), next(iter(p.terms.values())))
    h2 = Homotopy(Km2.base, K02.base, H2)
    bad = h2.degree_violations()
    lines = [f"degree violations under weight 2: {len(bad)}"]
    for i, j, got, want in bad:
        lines.append(
            f"  h[{K02.base.generators[i][0]}, {Km2.base.generators[j][0]}]: "
            f"degree {got}, required {want}"
        )
    ok = bool(bad)
    lines.append(
        "result " + ("PASS (construction correctly rejected)" if ok else "FAIL")
    )
    _report(args.out, "fixture --weight 2", lines)
    if not ok:
        raise MathFailure("weight-2 homotopy unexpectedly degree-compatible")


def cmd_rank_survey(args):
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    ring = _ring(args)
    iota, Km, K0 = standard_iota(ring, args.m)
    hist = {}
    low = 2 * args.rank
    worst = None
    for trial in range(args.trials):
        rng = random.Random(args.seed * 100003 + trial)
        h = random_homotopy(Km.base, K0.base, rng, homogeneous=True)
        gamma = perturb(iota, h)
        rank = rank_of_map(gamma, mode=args.rank_mode, seed=args.seed + trial)
        hist[rank] = hist.get(rank, 0) + 1
        if worst is None or rank < worst:
            worst = rank
    lines = [
        f"ring char={args.char} r={args.rank} weight={args.weight} m={args.m}",
        f"trials {args.trials} seed {args.seed}",
    ]
    for rank in sorted(hist):
        lines.append(f"rank {rank}: {hist[rank]}")
    ok = worst >= low
    lines.append(_fmt_check("min rank >= 2r", worst, low, ok))
    lines.append("result " + ("PASS" if ok else "FAIL"))
    _report(args.out, "rank-survey", lines)
    if not ok:
        raise MathFailure(f"found rank {worst} < {low}")


def cmd_search_low_rank(args):
    if args.rank < 4:
        raise UsageError(
            "search needs r >= 4: for r <= 3 the minimum 2r is known to be "
            "attained (see the fixture command for r = 3)"
        )
    ring = _ring(args)
    iota, Km, K0 = standard_iota(ring, args.m)
    best_rank = rank_exact(iota.matrix)
    best_h = Homotopy(Km.base, K0.base, PolyMatrix(ring, K0.n, Km.n))
    rng = random.Random(args.seed)
    for trial in range(args.budget):
        h = random_homotopy(
            Km.base, K0.base, rng, homogeneous=True,
            zero_probability=0.75, max_terms=2,
        )
        gamma = perturb(iota, h)
        rank = rank_exact(gamma.matrix)
        if rank < best_rank:
            best_rank, best_h = rank, h
    best_gamma = perturb(iota, best_h)
    lines = [
        f"ring char={args.char} r={args.rank} weight={args.weight} m={args.m}",
        f"budget {args.budget} seed {args.seed}",
        f"best rank {best_rank} (identity-lift rank {2 ** args.rank}, "
        f"proven lower bound {2 * args.rank})",
        f"chain map: {is_chain_map(best_gamma) is None}",
    ]
    if args.out:
        src = args.out + ".source.cx"
        tgt = args.out + ".target.cx"
        write_complex(src, Km.base, canonical_augmentation(Km))
        write_complex(tgt, K0.base, canonical_augmentation(K0))
        write_map(args.out, best_gamma, src, tgt)
        lines.append(f"certificate written to {args.out}")
    _report(None, "search-low-rank", lines)


def cmd_verify_bounds(args):
    C, aug, dga = read_complex(args.complex)
    lines = [f"input {args.complex}", f"m {args.m}"]
    failures = []
    rep = verify_bounds(C, args.m, aug)
    for key, (got, want, ok) in report_checks(rep).items():
        lines.append(_fmt_check(key, got, want, ok))
        if not ok:
            failures.append(key)
    lines.append(f"dim_H {rep['dim_H']}")
    lines.append(f"rank_gamma {rep['rank_gamma']}")
    lines.append(f"filtration_length {rep['length']}")
    if rep["beta_filtration_violations"]:
        failures.append("beta filtration violations")
    brep = rep["bound_checks"]
    lines.append(f"bound_checks passed {brep['passed']}")
    if not brep["passed"]:
        failures.append("bound_checks")
    ring = C.ring
    rep0 = rep.get("improved_bound")
    if rep0 is not None:
        lines.append(
            _fmt_check(
                "restricted rank (improved bound)",
                rep0["restricted_rank"],
                ring.num_vars + 1,
                rep0["passed"],
            )
        )
        lines.append(f"improved_total_bound {rep0['total_bound']}")
        if not rep0["passed"]:
            failures.append("improved bound")
    mg = rep.get("min_generators")
    if mg is not None:
        want = 2 ** ring.num_vars
        ok = mg >= want
        lines.append(_fmt_check("min generators of homology >= 2^r", mg, want, ok))
        if not ok:
            failures.append("min generators")
    lines.append("result " + ("PASS" if not failures else "FAIL: " + "; ".join(failures)))
    _report(args.out, "verify-bounds", lines)
    if failures:
        raise MathFailure("; ".join(failures))


def cmd_minimal(args):
    C, aug, _ = read_complex(args.complex)
    mm = minimal_model(C)
    bad = mm.verify()
    lines = [
        f"input {args.complex}",
        f"source generators {C.n}",
        f"model generators {mm.model.n}",
        f"certificates valid: {not bad}",
    ]
    if args.out:
        write_complex(args.out, mm.model, extra_lines=minimal_model_lines(mm))
        lines.append(f"model written to {args.out}")
    lines.append("result " + ("PASS" if not bad else "FAIL: " + "; ".join(bad)))
    _report(None, "minimal", lines)
    if bad:
        raise MathFailure("; ".join(bad))


def cmd_filtration(args):
    C, aug, _ = read_complex(args.complex)
    lines = [f"input {args.complex}"]
    if not is_minimal(C):
        mm = minimal_model(C)  # validates C
        lines.append(f"input not minimal; reduced {C.n} -> {mm.model.n} generators")
        target = mm
        model = mm.model
    else:
        problems = C.validate()
        if problems:
            raise UsageError("invalid complex: " + "; ".join(problems))
        target = C
        model = C
    F = compute_filtration(target)
    rep = check_properties(F, aug if aug is not None and aug.source == model else None)
    brep = bound_checks(model, F)
    lines.append(f"length {F.length}")
    lines.append("dims " + " ".join(str(d) for d in F.dims()))
    for msg in rep["failures"]:
        lines.append(f"property failure: {msg}")
    for key, (got, want, ok) in report_checks(brep).items():
        lines.append(_fmt_check(key, got, want, ok))
    ok = rep["passed"] and brep["passed"]
    lines.append("result " + ("PASS" if ok else "FAIL"))
    _report(args.out, "filtration", lines)
    if not ok:
        raise MathFailure("filtration properties or bounds failed")


def cmd_lift(args):
    C, aug, _ = read_complex(args.complex)
    parts = pipeline(C, args.m, aug)
    gamma = parts["gamma"]
    rank = rank_exact(gamma.matrix)
    r = C.ring.num_vars
    lines = [
        f"input {args.complex}",
        f"m {args.m}",
        f"alpha chain map: {is_chain_map(parts['alpha']) is None}",
        f"beta chain map: {is_chain_map(parts['beta']) is None}",
        f"rank(beta . alpha) {rank}",
        _fmt_check("rank >= 2r", rank, 2 * r, rank >= 2 * r),
    ]
    if args.out:
        src = args.out + ".source.cx"
        kmp = args.out + ".km.cx"
        k0p = args.out + ".k0.cx"
        modelp = args.out + ".model.cx"
        write_complex(src, C, aug)
        Km = parts["koszul_m"]
        write_complex(kmp, Km.base, canonical_augmentation(Km))
        write_complex(k0p, parts["koszul_0"].base)
        write_complex(modelp, parts["minimal"].model, parts["model_augmentation"])
        write_map(args.out + ".alpha.map", parts["alpha"], kmp, src)
        write_map(args.out + ".beta.map", parts["beta"], modelp, k0p)
        lines.append(f"maps written to {args.out}.alpha.map / {args.out}.beta.map")
    ok = rank >= 2 * r
    lines.append("result " + ("PASS" if ok else "FAIL"))
    _report(None, "lift", lines)
    if not ok:
        raise MathFailure(f"rank {rank} < {2 * r}")


def cmd_verify_map(args):
    f, sp, tp = read_map(args.map)
    bad = is_chain_map(f)
    rank = rank_of_map(f, mode=args.rank_mode, seed=args.seed)
    lines = [
        f"input {args.map}",
        f"source {sp}",
        f"target {tp}",
        f"chain map: {bad is None}",
        f"rank {rank}",
        "result " + ("PASS" if bad is None else f"FAIL: commutator nonzero at column {bad}"),
    ]
    _report(args.out, "verify-map", lines)
    if bad is not None:
        raise MathFailure(f"not a chain map (column {bad})")


def cmd_koszul(args):
    ring = _ring(args)
    K = koszul(ring, args.m)
    if not args.out:
        raise UsageError("koszul requires --out")
    write_complex(args.out, K.base, canonical_augmentation(K), K.dga())
    lines = [
        f"ring char={args.char} r={args.rank} weight={args.weight} m={args.m}",
        f"generators {K.n}",
        f"written to {args.out}",
        "result PASS",
    ]
    _report(None, "koszul", lines)


class UsageError(Exception):
    pass


@functools.cache
def build_parser():
    """The argument parser, built once per process; callers must not
    modify it."""
    p = argparse.ArgumentParser(
        prog="koszulalg",
        description="Exact rank and dimension bounds for Koszul-type complexes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, ring=False, m=False, seed=False, rank_mode=False, out=True):
        if ring:
            sp.add_argument("--char", type=int, default=2)
            sp.add_argument("--rank", type=int, default=3)
            sp.add_argument("--weight", type=int, choices=(1, 2), default=1)
        if m:
            sp.add_argument("--m", type=int, default=1)
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if rank_mode:
            sp.add_argument(
                "--rank-mode", choices=("exact", "probabilistic"), default="exact"
            )
        if out:
            sp.add_argument("--out", default=None)

    sp = sub.add_parser("fixture", help="reproduce the rank-6 perturbation fixture")
    sp.add_argument("--weight", type=int, choices=(1, 2), default=1)
    common(sp, seed=True, rank_mode=True)
    sp.set_defaults(func=lambda a: cmd_fixture_weight2(a) if a.weight == 2 else cmd_fixture(a))

    sp = sub.add_parser("rank-survey", help="rank histogram of random perturbations")
    common(sp, ring=True, m=True, seed=True, rank_mode=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(func=cmd_rank_survey)

    sp = sub.add_parser("search-low-rank", help="search for rank-deficient lifts (r >= 4)")
    common(sp, ring=True, m=True, seed=True)
    sp.add_argument("--budget", type=int, default=100)
    sp.set_defaults(func=cmd_search_low_rank)

    sp = sub.add_parser("verify-bounds", help="run the full bound pipeline on a complex file")
    sp.add_argument("complex")
    common(sp, m=True)
    sp.set_defaults(func=cmd_verify_bounds)

    sp = sub.add_parser("minimal", help="compute and certify a minimal model")
    sp.add_argument("complex")
    common(sp)
    sp.set_defaults(func=cmd_minimal)

    sp = sub.add_parser("filtration", help="inductive filtration of a minimal complex")
    sp.add_argument("complex")
    common(sp)
    sp.set_defaults(func=cmd_filtration)

    sp = sub.add_parser("lift", help="alpha/beta lifting pipeline")
    sp.add_argument("complex")
    common(sp, m=True)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("verify-map", help="re-verify an emitted map file")
    sp.add_argument("map")
    common(sp, seed=True, rank_mode=True)
    sp.set_defaults(func=cmd_verify_map)

    sp = sub.add_parser("koszul", help="emit a Koszul complex file")
    common(sp, ring=True, m=True)
    sp.set_defaults(func=cmd_koszul)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except MathFailure as e:
        sys.stderr.write(f"assertion failed: {e}\n")
        return 1
    except LiftError as e:
        details = "" if e.degree is None else f"; degree {e.degree}"
        if e.obstruction is not None:
            details += "; obstruction " + ", ".join(
                f"e{u}: {p}" for u, p in sorted(e.obstruction.items())
            )
        sys.stderr.write(f"assertion failed: {e}{details}\n")
        return 1
    except (UsageError, FileFormatError, FileNotFoundError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
