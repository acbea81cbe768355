"""The benchmark workloads: their inputs, one op, and the op's answer check.

`setup` builds a workload's inputs through the public koszulalg API.
`ops(k)` lists the ops of pass k in a seeded order.  An op is timed
alone; its check runs after it, outside the op's latency but inside the
pass's wall time.

Per-op cost is heavy-tailed: a perturbed map over Q at r = 4 takes 4 ms
at the median and up to 13 s, and the cost of verify-bounds on a noisy
complex varies threefold between seeds.  Inputs drawn afresh from each
workload seed would make every wall time depend mostly on the seed.  So
each workload runs a fixed corpus, made from consecutive seeds 0..N-1
(slow ones included), and the workload seed sets the op order of every
pass and the evaluation points of `rank_probabilistic`.  The corpora are
sized so that a survey or oracle pass takes about 3-4 s, and several
fit in one run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from pathlib import Path

import koszulalg
from koszulalg import chainmaps, cli, complexes, fileio, linalg

from gen import noisy_complex, random_poly_matrix

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Library entry points are looked up as module attributes at call time,
# so the traced run sees its wrappers.


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run  # () -> answer
        self.check = check  # answer -> (summary, list of problems)


def _ring(char, r, weight=1):
    return koszulalg.RingSpec(koszulalg.FieldSpec(char), r, weight)


def _against_expected(summary, expected, label):
    if label not in expected:
        return ["no recorded answer"]
    if expected[label] != summary:
        return [f"answer {summary} differs from the recorded {expected[label]}"]
    return []


class Survey:
    """Exact rank of seeded homotopy perturbations of the standard iota."""

    name = "survey"
    MAPS = 60
    KINDS = [
        # label, char, r, random_homotopy options
        ("F2-r4-dense", 2, 4, {}),
        ("Q-r4-dense", 0, 4, {}),
        ("F2-r5-sparse", 2, 5, {"zero_probability": 0.75, "max_terms": 2}),
    ]

    def setup(self, seed, workdir, expected):
        self.seed = seed
        self.expected = expected
        self.kinds = []
        for label, char, r, options in self.KINDS:
            iota, Km, K0 = chainmaps.standard_iota(_ring(char, r), 1)
            self.kinds.append((label, r, iota, Km, K0, options))

    def ops(self, k):
        out = []
        for label, r, iota, Km, K0, options in self.kinds:
            for map_seed in range(self.MAPS):
                def run(iota=iota, Km=Km, K0=K0, options=options, map_seed=map_seed):
                    rng = random.Random(map_seed)
                    h = chainmaps.random_homotopy(
                        Km.base, K0.base, rng, homogeneous=True, **options
                    )
                    gamma = chainmaps.perturb(iota, h)
                    return gamma, chainmaps.rank_of_map(gamma, mode="exact")

                op_label = f"{label}#{map_seed}"

                def check(answer, r=r, op_label=op_label):
                    gamma, rank = answer
                    problems = []
                    if chainmaps.is_chain_map(gamma) is not None:
                        problems.append("perturbation is not a chain map")
                    if not 2 * r <= rank <= 2 ** r:
                        problems.append(f"rank {rank} outside [2r, 2^r]")
                    problems += _against_expected(rank, self.expected, op_label)
                    return rank, problems

                out.append(Op(op_label, run, check))
        random.Random(f"survey:{self.seed}:{k}").shuffle(out)
        return out


class Oracle:
    """Exact rank against evaluation rank on rank-oracle test matrices."""

    name = "oracle"
    MATRICES = 30
    FIELDS = (2, 3, 5)

    def setup(self, seed, workdir, expected):
        self.seed = seed
        self.expected = expected
        self.corpus = []
        for p in self.FIELDS:
            ring = _ring(p, 3)
            linalg.evaluation_domain(ring.field)
            for k in range(self.MATRICES):
                M = random_poly_matrix(ring, random.Random(k))
                self.corpus.append((f"F{p}#{k}", M))

    def ops(self, k):
        rng = random.Random(f"oracle:{self.seed}:{k}")
        out = []
        for label, M in self.corpus:
            def run(M=M, point_seed=rng.getrandbits(32)):
                return linalg.rank_exact(M), linalg.rank_probabilistic(M, point_seed)

            def check(answer, label=label):
                exact, probabilistic = answer
                problems = []
                if exact != probabilistic:
                    problems.append(f"exact rank {exact} != evaluation rank {probabilistic}")
                problems += _against_expected(exact, self.expected, label)
                return exact, problems

            out.append(Op(label, run, check))
        rng.shuffle(out)
        return out


class Bounds:
    """`koszulalg verify-bounds` on Koszul and noisy complexes."""

    name = "bounds"
    KOSZUL = [
        # label, char, r, m, weight.  By cost the inputs form three groups:
        # the six r = 3 complexes (under 0.1 s), K4(1)-F2 with the eight
        # noisy F3 complexes (0.1-0.22 s), and six of 0.7-2.4 s.  So the
        # median op is the middle of the second group, timed many times
        # in a run, and not one input timed once a pass.
        ("K3(1)-F2", 2, 3, 1, 1),
        ("K3(1)-F3", 3, 3, 1, 1),
        ("K3(1)-Q", 0, 3, 1, 1),
        ("K3(1)-Q-w2", 0, 3, 1, 2),
        ("K3(2)-F2", 2, 3, 2, 1),
        ("K3(2)-F3", 3, 3, 2, 1),
        ("K4(1)-F2", 2, 4, 1, 1),
        ("K4(1)-Q", 0, 4, 1, 1),
        ("K4(1)-Q-w2", 0, 4, 1, 2),
        ("K5(1)-F2", 2, 5, 1, 1),
        ("K4(2)-F2", 2, 4, 2, 1),
    ]
    NOISY = [
        # label, char, r, copies; m = 1
        ("noisy-K3(1)-Q", 0, 3, 1),
        ("noisy-K4(1)-F2", 2, 4, 1),
        ("noisy-K3(1)-F3", 3, 3, 8),
    ]
    NOISY_PAIRS = 12
    NOISY_MOVES = 40

    def setup(self, seed, workdir, expected):
        self.seed = seed
        self.expected = expected
        self.inputs = []  # (label, path, m, r)
        workdir = Path(workdir)
        for label, char, r, m, weight in self.KOSZUL:
            K = complexes.koszul(_ring(char, r, weight), m)
            path = workdir / f"{label}.cx"
            fileio.write_complex(str(path), K.base, complexes.canonical_augmentation(K), K.dga())
            self.inputs.append((label, path, m, r))
        for label, char, r, copies in self.NOISY:
            K = complexes.koszul(_ring(char, r), 1)
            for copy in range(copies):
                full = f"{label}#{copy}"
                rng = random.Random(copy)
                C, aug = noisy_complex(
                    K.base, complexes.canonical_augmentation(K), rng,
                    self.NOISY_PAIRS, self.NOISY_MOVES,
                )
                problems = C.validate() + aug.validate()
                if problems:
                    raise RuntimeError(f"{full}: invalid generated input: {problems}")
                path = workdir / f"{full}.cx"
                fileio.write_complex(str(path), C, aug)
                self.inputs.append((full, path, 1, r))

    def ops(self, k):
        out = []
        for label, path, m, r in self.inputs:
            def run(path=path, m=m):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["verify-bounds", str(path), "--m", str(m)])
                return code, buf.getvalue()

            def check(answer, label=label, r=r):
                code, text = answer
                summary = _bounds_summary(text)
                problems = []
                if code != 0:
                    problems.append(f"exit code {code}")
                if summary.get("result") != "PASS":
                    problems.append(f"result {summary.get('result')}")
                if summary.get("dim_H") != 2 ** r:
                    problems.append(f"dim_H {summary.get('dim_H')} != 2^r")
                if summary.get("rank_gamma", -1) < 2 * r:
                    problems.append(f"rank_gamma {summary.get('rank_gamma')} < 2r")
                if summary.get("min_generators") != 2 ** r:
                    problems.append(f"min generators {summary.get('min_generators')} != 2^r")
                problems += _against_expected(summary, self.expected, label)
                return summary, problems

            out.append(Op(label, run, check))
        random.Random(f"bounds:{self.seed}:{k}").shuffle(out)
        return out


_MIN_GEN = re.compile(r"check min generators of homology >= 2\^r: (\d+) vs")


def _bounds_summary(text):
    summary = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key in ("dim_H", "rank_gamma", "filtration_length"):
            summary[key] = int(value)
        elif key == "result":
            summary["result"] = value
        else:
            m = _MIN_GEN.match(line)
            if m:
                summary["min_generators"] = int(m.group(1))
    return summary


WORKLOADS = {w.name: w for w in (Survey, Oracle, Bounds)}


def load_expected(name):
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text()).get(name, {})
