"""Plain-text file formats for complexes and maps.

Complex file: a version header, a ring block (char / r / weight), one
`gen name degree` line per generator, `d gen = <combination>` lines for
the nonzero differential columns, optional `augment gen = scalar` lines
and an optional product block (`unit gen`, `parity gen = int`,
`product a b = <combination>`).  A combination is a sum of terms
`coeff*monomial*generator` in the usual polynomial grammar.

Map file: a header pointing at the source and target complex files
(paths relative to the map file), then `f gen = <combination>` lines.

Serialization is canonical (generator order, graded-lex term order), so
read-then-write round-trips byte-identically.
"""

from __future__ import annotations

import contextlib
import os
import re

from .ring import FieldSpec, RingSpec, Polynomial
from .complexes import FreeComplex, Augmentation, DgaStructure
from .chainmaps import ChainMap, Homotopy
from .linalg import PolyMatrix

FORMAT_VERSION = 1

_TOKEN = re.compile(r"\s*([+\-*]|\d+(?:/\d+)?|t\d+(?:\^\d+)?|[A-Za-z_][A-Za-z0-9_]*)")
_VAR = re.compile(r"t(\d+)(?:\^(\d+))?$")


class FileFormatError(ValueError):
    pass


@contextlib.contextmanager
def _line(number):
    """Report a malformed input line as a FileFormatError naming it."""
    try:
        yield
    except ValueError as e:
        raise FileFormatError(f"line {number}: {e}") from None


def _generator(gen_index, name):
    if name not in gen_index:
        raise FileFormatError(f"unknown generator {name!r}")
    return gen_index[name]


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise FileFormatError(f"cannot tokenize {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_combination(ring: RingSpec, gen_index: dict, text: str):
    """Coordinate vector (one polynomial per generator) from a sum of
    coeff*monomial*generator terms."""
    f = ring.field
    vec = [ring.zero() for _ in gen_index]
    tokens = _tokenize(text)
    if not tokens:
        return vec
    i = 0
    while i < len(tokens):
        sign = f.one
        while tokens[i] in "+-":
            if tokens[i] == "-":
                sign = f.neg(sign)
            i += 1
            if i >= len(tokens):
                raise FileFormatError("dangling sign")
        coeff = sign
        exps = [0] * ring.num_vars
        gen = None
        while True:
            tok = tokens[i]
            m = _VAR.match(tok)
            if m:
                var = int(m.group(1))
                if not 1 <= var <= ring.num_vars:
                    raise FileFormatError(f"no variable {tok!r} when r = {ring.num_vars}")
                exps[var - 1] += int(m.group(2) or 1)
            elif tok[0].isdigit():
                coeff = f.mul(coeff, f.parse_scalar(tok))
            elif tok in gen_index:
                if gen is not None:
                    raise FileFormatError(f"two generators in one term near {tok!r}")
                gen = gen_index[tok]
            else:
                raise FileFormatError(f"unknown generator {tok!r}")
            i += 1
            if i >= len(tokens) or tokens[i] != "*":
                break
            i += 1
            if i >= len(tokens):
                raise FileFormatError("dangling '*'")
        if gen is None:
            raise FileFormatError(f"term without a generator in {text!r}")
        vec[gen] = vec[gen] + ring.monomial(exps, coeff)
    return vec


def format_combination(C: FreeComplex, vec) -> str:
    parts = []
    for j, p in enumerate(vec):
        if p is None or p.is_zero():
            continue
        name = C.generators[j][0]
        for s in str(p).split(" + "):
            parts.append(f"{s}*{name}")
    return " + ".join(parts) if parts else "0"


def write_complex(path, C: FreeComplex, augmentation: Augmentation = None,
                  dga: DgaStructure = None, extra_lines=None):
    with open(path, "w") as fh:
        fh.write(complex_to_text(C, augmentation, dga, extra_lines))


def complex_to_text(C: FreeComplex, augmentation: Augmentation = None,
                    dga: DgaStructure = None, extra_lines=None) -> str:
    ring = C.ring
    for name, _ in C.generators:
        if _VAR.match(name):
            raise FileFormatError(f"generator name {name!r} collides with a variable")
    lines = [f"# complex v{FORMAT_VERSION}"]
    lines.append(f"char {ring.field.characteristic}")
    lines.append(f"r {ring.num_vars}")
    lines.append(f"weight {ring.var_weight}")
    for name, q in C.generators:
        lines.append(f"gen {name} {q}")
    for j in range(C.n):
        col = [C.differential.entries.get((i, j)) for i in range(C.n)]
        if all(p is None for p in col):
            continue
        col = [p if p is not None else ring.zero() for p in col]
        lines.append(f"d {C.generators[j][0]} = {format_combination(C, col)}")
    if augmentation is not None:
        f = ring.field
        for j, v in enumerate(augmentation.values):
            if not f.is_zero(v):
                lines.append(
                    f"augment {C.generators[j][0]} = {f.format_scalar(v)}"
                )
    if dga is not None:
        lines.append(f"unit {C.generators[dga.unit][0]}")
        for j, par in enumerate(dga.parity):
            if par % 2:
                lines.append(f"parity {C.generators[j][0]} = 1")
        for (a, b) in sorted(dga.table):
            vec = dga.table[(a, b)]
            if all(p.is_zero() for p in vec):
                continue
            lines.append(
                f"product {C.generators[a][0]} {C.generators[b][0]} = "
                + format_combination(C, vec)
            )
    if extra_lines:
        lines.extend(extra_lines)
    return "\n".join(lines) + "\n"


def read_complex(path):
    """Returns (FreeComplex, Augmentation or None, DgaStructure or None)."""
    with open(path) as fh:
        text = fh.read()
    return complex_from_text(text)


def complex_from_text(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# complex v"):
        raise FileFormatError("missing complex header")
    if lines[0] != f"# complex v{FORMAT_VERSION}":
        raise FileFormatError(f"unsupported version: {lines[0]!r}")
    header = {}
    gens = []
    body = []
    for number, ln in enumerate(lines[1:], start=2):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, rest = ln.partition(" ")
        with _line(number):
            if key in ("char", "r", "weight"):
                header[key] = int(rest)
            elif key == "gen":
                name, q = rest.split()
                gens.append((name, int(q)))
            else:
                body.append((number, key, rest))
    for k in ("char", "r", "weight"):
        if k not in header:
            raise FileFormatError(f"missing ring field {k!r}")
    ring = RingSpec(FieldSpec(header["char"]), header["r"], header["weight"])
    gen_index = {name: j for j, (name, _) in enumerate(gens)}
    if len(gen_index) != len(gens):
        raise FileFormatError("duplicate generator name")
    n = len(gens)
    D = PolyMatrix(ring, n, n)
    C = FreeComplex(ring, gens, D)
    f = ring.field
    aug_values = None
    unit = None
    parity = [0] * n
    table = {}
    for number, key, rest in body:
        with _line(number):
            if key == "d":
                name, _, expr = rest.partition("=")
                j = _generator(gen_index, name.strip())
                vec = parse_combination(ring, gen_index, expr)
                for i, p in enumerate(vec):
                    if not p.is_zero():
                        D.entries[(i, j)] = p
            elif key == "augment":
                name, _, expr = rest.partition("=")
                j = _generator(gen_index, name.strip())
                if aug_values is None:
                    aug_values = [f.zero] * n
                aug_values[j] = f.parse_scalar(expr.strip())
            elif key == "unit":
                unit = _generator(gen_index, rest.strip())
            elif key == "parity":
                name, _, expr = rest.partition("=")
                parity[_generator(gen_index, name.strip())] = int(expr)
            elif key == "product":
                head, _, expr = rest.partition("=")
                a, b = head.split()
                table[(_generator(gen_index, a), _generator(gen_index, b))] = (
                    parse_combination(ring, gen_index, expr)
                )
            elif key in ("inclusion", "projection", "homotopy"):
                continue  # minimal-model annex blocks; not needed to rebuild C
            else:
                raise FileFormatError(f"unknown directive {key!r}")
    augmentation = Augmentation(C, aug_values) if aug_values is not None else None
    dga = None
    if unit is not None:
        zero_vec = [ring.zero() for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table.setdefault((a, b), list(zero_vec))
        dga = DgaStructure(C, parity, unit, table)
    return C, augmentation, dga


def write_map(path, f: ChainMap, source_path, target_path):
    base = os.path.dirname(os.path.abspath(path))
    lines = [f"# map v{FORMAT_VERSION}"]
    lines.append(f"source {os.path.relpath(os.path.abspath(source_path), base)}")
    lines.append(f"target {os.path.relpath(os.path.abspath(target_path), base)}")
    for j in range(f.source.n):
        col = [f.matrix.entries.get((i, j)) for i in range(f.target.n)]
        if all(p is None for p in col):
            continue
        col = [p if p is not None else f.source.ring.zero() for p in col]
        lines.append(
            f"f {f.source.generators[j][0]} = {format_combination(f.target, col)}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_map(path):
    """Returns (ChainMap, source path, target path); complexes are loaded
    from the files the header references."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"# map v{FORMAT_VERSION}":
        raise FileFormatError("missing map header")
    base = os.path.dirname(os.path.abspath(path))
    source_path = target_path = None
    assignments = []
    for number, ln in enumerate(lines[1:], start=2):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, rest = ln.partition(" ")
        if key == "source":
            source_path = os.path.join(base, rest.strip())
        elif key == "target":
            target_path = os.path.join(base, rest.strip())
        elif key == "f":
            name, _, expr = rest.partition("=")
            assignments.append((number, name.strip(), expr))
        else:
            raise FileFormatError(f"unknown directive {key!r}")
    if source_path is None or target_path is None:
        raise FileFormatError("map file must name source and target")
    source, _, _ = read_complex(source_path)
    target, _, _ = read_complex(target_path)
    if source.ring != target.ring:
        raise FileFormatError("source and target rings differ")
    source_index = {name: j for j, (name, _) in enumerate(source.generators)}
    gen_index = {name: j for j, (name, _) in enumerate(target.generators)}
    M = PolyMatrix(source.ring, target.n, source.n)
    for number, name, expr in assignments:
        with _line(number):
            j = _generator(source_index, name)
            vec = parse_combination(source.ring, gen_index, expr)
        for i, p in enumerate(vec):
            if not p.is_zero():
                M.entries[(i, j)] = p
    return ChainMap(source, target, M), source_path, target_path


def minimal_model_lines(mm):
    """Annex blocks appended to the model's complex file."""
    out = []
    src = mm.source
    model = mm.model
    for j in range(model.n):
        col = [mm.inclusion.matrix.entries.get((i, j)) for i in range(src.n)]
        col = [p if p is not None else src.ring.zero() for p in col]
        out.append(
            f"inclusion {model.generators[j][0]} = {format_combination(src, col)}"
        )
    for j in range(src.n):
        col = [mm.projection.matrix.entries.get((i, j)) for i in range(model.n)]
        col = [p if p is not None else src.ring.zero() for p in col]
        out.append(
            f"projection {src.generators[j][0]} = {format_combination(model, col)}"
        )
    for j in range(src.n):
        col = [mm.homotopy.matrix.entries.get((i, j)) for i in range(src.n)]
        if all(p is None for p in col):
            continue
        col = [p if p is not None else src.ring.zero() for p in col]
        out.append(
            f"homotopy {src.generators[j][0]} = {format_combination(src, col)}"
        )
    return out
