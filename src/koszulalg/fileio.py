"""Plain-text file formats for complexes and maps.

Complex file: a version header, a ring block (char / r / weight), one
`gen name degree` line per generator, `d gen = <combination>` lines for
the nonzero differential columns, optional `augment gen = scalar` lines
and an optional product block (`unit gen`, `parity gen = int`,
`product a b = <combination>`).  A combination is a sum of terms
`coeff*monomial*generator`; `ring.parse_combination` reads it, in the one
polynomial grammar, and `Polynomial.__str__` writes its monomials.

Map file: a header pointing at the source and target complex files
(paths relative to the map file), then `f gen = <combination>` lines.
A second `d`, `augment`, `unit`, `parity`, `product`, `source`, `target`
or `f` line for the same entry is refused, as it would replace the first.

Serialization is canonical (generator order, graded-lex term order), so
read-then-write round-trips byte-identically.
"""

from __future__ import annotations

import os

from .ring import _NAME, FieldSpec, RingSpec, parse_combination
from .complexes import FreeComplex, Augmentation, DgaStructure
from .chainmaps import ChainMap
from .linalg import PolyMatrix

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    pass


def _checked_name(name):
    """name, if the tokenizer reads it back as one generator name."""
    if not _NAME.fullmatch(name):
        raise FileFormatError(
            f"generator name {name!r} would not read back: names are "
            "identifiers that do not start with t and a digit"
        )
    return name


def _generator(gen_index, name):
    if name not in gen_index:
        raise FileFormatError(f"unknown generator {name!r}")
    return gen_index[name]


def _first_line(seen, key, head):
    """Record a `key head = ...` line; a second line with the same key and
    head would silently replace the first, so it is an error."""
    line = " ".join([key, *head.split()])
    if line in seen:
        raise FileFormatError(f"second {line!r} line")
    seen.add(line)


def format_combination(C: FreeComplex, element) -> str:
    """A module element of C as a sum of coeff*monomial*generator terms."""
    parts = [
        f"{s}*{C.generators[j][0]}"
        for j, p in sorted(element.items())
        for s in str(p).split(" + ")
    ]
    return " + ".join(parts) if parts else "0"


def write_complex(path, C: FreeComplex, augmentation: Augmentation = None,
                  dga: DgaStructure = None, extra_lines=None):
    with open(path, "w") as fh:
        fh.write(complex_to_text(C, augmentation, dga, extra_lines))


def complex_to_text(C: FreeComplex, augmentation: Augmentation = None,
                    dga: DgaStructure = None, extra_lines=None) -> str:
    ring = C.ring
    for name, _ in C.generators:
        _checked_name(name)
    lines = [f"# complex v{FORMAT_VERSION}"]
    lines.append(f"char {ring.field.characteristic}")
    lines.append(f"r {ring.num_vars}")
    lines.append(f"weight {ring.var_weight}")
    for name, q in C.generators:
        lines.append(f"gen {name} {q}")
    for j, col in C.differential.columns().items():
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
        for (a, b), cell in sorted(dga.table.items()):
            if cell:
                lines.append(
                    f"product {C.generators[a][0]} {C.generators[b][0]} = "
                    + format_combination(C, cell)
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
    try:  # a malformed line is a FileFormatError naming it, here and below
        for number, ln in enumerate(lines[1:], start=2):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, _, rest = ln.partition(" ")
            if key in ("char", "r", "weight"):
                header[key] = int(rest)
            elif key == "gen":
                name, q = rest.split()
                gens.append((_checked_name(name), int(q)))
            else:
                body.append((number, key, rest))
    except ValueError as e:
        raise FileFormatError(f"line {number}: {e}") from None
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
    seen = set()
    try:
        for number, key, rest in body:
            head, _, expr = rest.partition("=")
            if key == "d":
                j = _generator(gen_index, head.strip())
                for i, p in parse_combination(ring, gen_index, expr).items():
                    D.entries[(i, j)] = p
            elif key == "augment":
                j = _generator(gen_index, head.strip())
                if aug_values is None:
                    aug_values = [f.zero] * n
                aug_values[j] = f.parse_scalar(expr.strip())
            elif key == "unit":
                unit = _generator(gen_index, rest.strip())
            elif key == "parity":
                parity[_generator(gen_index, head.strip())] = int(expr)
            elif key == "product":
                a, b = head.split()
                table[(_generator(gen_index, a), _generator(gen_index, b))] = (
                    parse_combination(ring, gen_index, expr)
                )
            elif key in ("inclusion", "projection", "homotopy"):
                continue  # minimal-model annex blocks; not needed to rebuild C
            else:
                raise FileFormatError(f"unknown directive {key!r}")
            _first_line(seen, key, "" if key == "unit" else head)
    except ValueError as e:
        raise FileFormatError(f"line {number}: {e}") from None
    augmentation = Augmentation(C, aug_values) if aug_values is not None else None
    dga = DgaStructure(C, parity, unit, table) if unit is not None else None
    return C, augmentation, dga


def write_map(path, f: ChainMap, source_path, target_path):
    base = os.path.dirname(os.path.abspath(path))
    lines = [f"# map v{FORMAT_VERSION}"]
    lines.append(f"source {os.path.relpath(os.path.abspath(source_path), base)}")
    lines.append(f"target {os.path.relpath(os.path.abspath(target_path), base)}")
    for j, col in f.matrix.columns().items():
        lines.append(f"f {f.source.generators[j][0]} = {format_combination(f.target, col)}")
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
    header = {}  # "source"/"target" -> (line number, path)
    assignments = []
    for number, ln in enumerate(lines[1:], start=2):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, rest = ln.partition(" ")
        if key in ("source", "target"):
            if key in header:
                raise FileFormatError(f"line {number}: second {key!r} line")
            header[key] = (number, os.path.join(base, rest.strip()))
        elif key == "f":
            name, _, expr = rest.partition("=")
            assignments.append((number, name.strip(), expr))
        else:
            raise FileFormatError(f"unknown directive {key!r}")
    if len(header) < 2:
        raise FileFormatError("map file must name source and target")
    source, source_path = _referenced_complex(*header["source"]), header["source"][1]
    target, target_path = _referenced_complex(*header["target"]), header["target"][1]
    if source.ring != target.ring:
        raise FileFormatError("source and target rings differ")
    source_index = {name: j for j, (name, _) in enumerate(source.generators)}
    gen_index = {name: j for j, (name, _) in enumerate(target.generators)}
    M = PolyMatrix(source.ring, target.n, source.n)
    seen = set()
    try:
        for number, name, expr in assignments:
            j = _generator(source_index, name)
            for i, p in parse_combination(source.ring, gen_index, expr).items():
                M.entries[(i, j)] = p
            _first_line(seen, "f", name)
    except ValueError as e:
        raise FileFormatError(f"line {number}: {e}") from None
    return ChainMap(source, target, M), source_path, target_path


def _referenced_complex(number, path):
    """The complex a map header line names; a file that cannot be read
    is an error in that line."""
    try:
        return read_complex(path)[0]
    except OSError as e:
        raise FileFormatError(f"line {number}: cannot read {path}: {e.strerror}") from None


def minimal_model_lines(mm):
    """Annex blocks appended to the model's complex file."""
    out = []
    src = mm.source
    model = mm.model
    inclusion = mm.inclusion.matrix.columns()
    for j, (name, _) in enumerate(model.generators):
        out.append(f"inclusion {name} = {format_combination(src, inclusion.get(j, {}))}")
    projection = mm.projection.matrix.columns()
    for j, (name, _) in enumerate(src.generators):
        out.append(f"projection {name} = {format_combination(model, projection.get(j, {}))}")
    for j, col in mm.homotopy.matrix.columns().items():
        out.append(f"homotopy {src.generators[j][0]} = {format_combination(src, col)}")
    return out
