"""Outputs pinned byte for byte against files under tests/golden/.

The files were written by an earlier form of the module-map products
(their own term loops in `DgaStructure.multiply`, the lifts, d∘d and the
tensor-quotient reductions), so these tests hold the single products to
the same reports, written maps, complexes and induced matrices.  The
`minimal` files (the model with its inclusion, projection and homotopy
blocks) were written while the rank-one updates of `minimal_model` still
multiplied terms through the field's own `mul` and `add`.  The
`filtration` reports and the `verify-bounds` report of K_3(0)/Q (where
the lambda action is nontrivial) were written while the filtration and
bound reports still took a minimal model or a complex.  The `lift`
files of noisy-K3(1)-F3, the one β pinned over a finite field, were
written while the filtration's graded bases still came from per-degree
nullspaces of its annihilator.  The `verify-bounds --m 1` report of
K_3(0)/Q, whose every generator meets a term of d that survives mod
t^2, was written while the generator count still built the whole
quotient.  The three `lift` alpha maps were written later, when alpha
moved into the minimal model that beta starts from.
`golden_outputs` builds every pinned text; `tests/golden/` holds one
file per name it returns.
"""

import contextlib
import hashlib
import io
import os
import random
from pathlib import Path

import pytest

from koszulalg.chainmaps import random_homotopy, standard_iota
from koszulalg.cli import main
from koszulalg.complexes import canonical_augmentation, koszul
from koszulalg.fileio import complex_to_text, write_complex
from koszulalg.ring import FieldSpec, RingSpec

from conftest import noisy_complex
from homology_oracle import induced_map_mod

GOLDEN = Path(__file__).parent / "golden"

KOSZUL_INPUTS = [
    # name, char, r, m, weight
    ("K3(0)-Q", 0, 3, 0, 1),
    ("K3(1)-F2", 2, 3, 1, 1),
    ("K3(1)-F3", 3, 3, 1, 1),
    ("K3(1)-Q", 0, 3, 1, 1),
    ("K3(1)-Q-w2", 0, 3, 1, 2),
    ("K3(2)-F2", 2, 3, 2, 1),
    ("K4(1)-Q", 0, 4, 1, 1),
    ("K5(1)-F2", 2, 5, 1, 1),
]
NOISY_INPUTS = [("noisy-K3(1)-Q", 0), ("noisy-K3(1)-F3", 3)]
LIFT_INPUTS = ["K3(1)-Q", "noisy-K3(1)-Q", "noisy-K3(1)-F3"]
# with an augmentation; not minimal ("reduced 16 -> 8"); nontrivial lambda
FILTRATION_INPUTS = ["K3(1)-F2", "noisy-K3(1)-Q", "K3(0)-Q"]

# random_homotopy draws: name, char, r, keyword options; seeds 0..199
HOMOTOPY_DRAWS = [
    ("F2-r4", 2, 4, {"homogeneous": True}),
    ("Q-r4", 0, 4, {"homogeneous": True}),
    ("F2-r5-sparse", 2, 5, {"homogeneous": True, "zero_probability": 0.75, "max_terms": 2}),
    ("F3-r3", 3, 3, {"homogeneous": True}),
    ("F2-r3-inhomogeneous", 2, 3, {}),
]


def _ring(char, r, weight=1):
    return RingSpec(FieldSpec(char), r, weight)


def _cli(argv):
    """stdout of one CLI run, which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def _write_inputs():
    """The verify-bounds inputs in the working directory, by name."""
    for name, char, r, m, weight in KOSZUL_INPUTS:
        K = koszul(_ring(char, r, weight), m)
        write_complex(f"{name}.cx", K.base, canonical_augmentation(K), K.dga())
    for name, char in NOISY_INPUTS:
        K = koszul(_ring(char, 3), 1)
        write_complex(f"{name}.cx", noisy_complex(K.base, random.Random(1), pairs=4))


def _homotopy_digest(char, r, options):
    """sha256 over the 200 draws of every entry, in entry order, with its
    terms in term order, and of the next value of each generator."""
    iota, Km, K0 = standard_iota(_ring(char, r), 1)
    h = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        M = random_homotopy(Km.base, K0.base, rng, **options).matrix
        h.update(repr([(key, list(p.terms.items())) for key, p in M.entries.items()]).encode())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()


def golden_outputs():
    """{file name: text} of every pinned output; runs in the working
    directory, which it fills with the inputs and the written files."""
    _write_inputs()
    out = {}
    for name, _, _, m, _ in KOSZUL_INPUTS:
        out[f"verify-bounds.{name}.txt"] = _cli(["verify-bounds", f"{name}.cx", "--m", str(m)])
    # every generator live: the count runs the general loop
    out["verify-bounds.K3(0)-Q.m1.txt"] = _cli(["verify-bounds", "K3(0)-Q.cx", "--m", "1"])
    for name, _ in NOISY_INPUTS:
        out[f"verify-bounds.{name}.txt"] = _cli(["verify-bounds", f"{name}.cx"])
    for name in FILTRATION_INPUTS:
        out[f"filtration.{name}.txt"] = _cli(["filtration", f"{name}.cx"])
    for name in LIFT_INPUTS:
        out[f"lift.{name}.txt"] = _cli(["lift", f"{name}.cx", "--out", f"lift-{name}"])
        for part in ("alpha.map", "beta.map", "km.cx", "k0.cx", "model.cx"):
            out[f"lift.{name}.{part}"] = Path(f"lift-{name}.{part}").read_text()
    name = "noisy-K3(1)-Q"
    out[f"minimal.{name}.txt"] = _cli(["minimal", f"{name}.cx", "--out", f"minimal-{name}.cx"])
    out[f"minimal.{name}.model.cx"] = Path(f"minimal-{name}.cx").read_text()
    iota, _, _ = standard_iota(_ring(3, 2), 1)
    rows, _, _ = induced_map_mod(iota, (2, 2))
    out["induced_map_mod.K2(1)-F3.txt"] = "".join(f"{row!r}\n" for row in rows)
    K = koszul(_ring(0, 3), 1)
    out["complex_to_text.K3(1)-Q.cx"] = complex_to_text(K.base, canonical_augmentation(K), K.dga())
    out["random_homotopy.sha256.txt"] = "".join(
        f"{name} {_homotopy_digest(char, r, options)}\n"
        for name, char, r, options in HOMOTOPY_DRAWS
    )
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def outputs(workdir):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield golden_outputs()
    finally:
        os.chdir(cwd)


def test_every_golden_file_is_produced(outputs):
    assert sorted(outputs) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_output_matches_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text()


@pytest.mark.parametrize("part", ["alpha.map", "beta.map"])
@pytest.mark.parametrize("name", LIFT_INPUTS)
def test_written_lift_map_verifies(outputs, workdir, name, part):
    """verify-map re-reads each map `lift --out` wrote, with the complexes
    its header names, and finds a chain map."""
    assert "chain map: True\n" in _cli(["verify-map", str(workdir / f"lift-{name}.{part}")])
