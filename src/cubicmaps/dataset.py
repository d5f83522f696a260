"""Exhaustive labeled enumeration of plane triples and the output.txt format.

A dataset run fixes a cubic system (a built-in case or a custom one) and
walks the 3-subspaces of GF(p)^dim once, by iter_subspaces.  It lists each
subspace's spanning triples (v, u, t) that pass the vector filter, and
labels a subspace that holds one once, by its plane at the exhaustive
scan bound 9 (no records when make_plane rejects it).  Per subspace the
walk computes the span vectors c·rows and their filter tests once, and
reads the independence of three coordinate vectors c off a per-p table
of determinant bitmasks.  The planes share their pencils, so the
subspaces are labeled in one process, by one linsys.walk_planes walk
through one SystemPencils memo.  The records are sorted by (v, u, t).
The writer formats each distinct vector once and streams its lines.

File format, one record per line, newline-terminated:

    ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1)): 1
"""

import functools
import re

from .finitefield import build_field
from .linsys import (
    DEFAULT_SCAN_BOUND,
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    SystemPencils,
    iter_subspaces,
    iter_vectors,
    reference_system,
    walk_planes,
)
from .surjectivity import label_plane

NORM_ONLY = "norm_only"
STRICT_ORTHONORMAL = "strict_orthonormal"
NO_FILTER = "none"

_FILTER_MODES = (NORM_ONLY, STRICT_ORTHONORMAL, NO_FILTER)


class EnumConfig:
    """Configuration of one enumeration run; its labels are proved at the constant, exhaustive scan_bound."""

    __slots__ = ("case", "system", "p", "filter_mode")

    scan_bound = DEFAULT_SCAN_BOUND

    def __init__(self, case, p=2, filter_mode=NORM_ONLY):
        if isinstance(case, CubicSystem):
            system = case
            if system.field.p != p:
                raise ValueError("custom system must live over GF(p) for the given prime p")
            case = "custom"
        elif case in (FIVE_POINT, SIX_POINT):
            system = reference_system(case, build_field(p))
        else:
            raise ValueError(f"unknown case {case!r}")
        if filter_mode not in _FILTER_MODES:
            raise ValueError(f"unknown filter mode {filter_mode!r}; expected one of {_FILTER_MODES}")
        self.case = case
        self.system = system
        self.p = p
        self.filter_mode = filter_mode

    def __repr__(self):
        return f"EnumConfig({self.case}, p={self.p}, filter={self.filter_mode})"


class DatasetRecord:
    """One surviving triple with its plane label."""

    __slots__ = ("v", "u", "t", "label")

    def __init__(self, v, u, t, label):
        self.v = tuple(v)
        self.u = tuple(u)
        self.t = tuple(t)
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        self.label = label

    @property
    def key(self):
        return (self.v, self.u, self.t)

    def __eq__(self, other):
        if not isinstance(other, DatasetRecord):
            return NotImplemented
        return self.key == other.key and self.label == other.label

    def __hash__(self):
        return hash((self.key, self.label))

    def __repr__(self):
        return f"DatasetRecord({self.key}: {self.label})"


def unit_norm(vec, p):
    """Whether the sum of squared coordinates is 1 in GF(p)."""
    return sum(c * c for c in vec) % p == 1


def _dot(a, b, p):
    return sum(x * y for x, y in zip(a, b)) % p


def passes_filter(mode, v, u, t, p):
    """The vector filter: per-vector unit norm, optionally pairwise orthogonality.

    The walk applies it per span vector and pair, not per triple.
    """
    if mode == NO_FILTER:
        return True
    if not (unit_norm(v, p) and unit_norm(u, p) and unit_norm(t, p)):
        return False
    if mode == STRICT_ORTHONORMAL:
        return _dot(v, u, p) == 0 and _dot(v, t, p) == 0 and _dot(u, t, p) == 0
    return True


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


@functools.lru_cache(maxsize=None)
def _coordinate_tables(p):
    """The nonzero coordinate vectors c of GF(p)^3, and their determinant bitmasks.

    masks[i][j] has bit k set iff det(c_i, c_j, c_k) != 0 mod p: (p^3 - 1)^2
    ints, 49 at p = 2 and 676 at p = 3.
    """
    coords = tuple(c for c in iter_vectors(p, 3) if any(c))
    masks = tuple(tuple(sum(1 << k for k, c in enumerate(coords) if _det3(a, b, c) % p)
                        for b in coords) for a in coords)
    return coords, masks


def _filtered_subspaces(cfg):
    """Yield (rows, triples) for each 3-subspace, in iter_subspaces order, that holds a triple.

    The triples are those of the sorted span vectors c·rows, unit-norm unless
    the filter is none, whose coordinates c have a nonzero determinant mod p,
    read off the per-p mask table.  Under strict a pair that is not
    orthogonal gets no third vector, and the third is orthogonal to both.
    """
    p, mode = cfg.p, cfg.filter_mode
    coords, masks = _coordinate_tables(p)
    everything = (1 << len(coords)) - 1
    for rows in iter_subspaces(p, cfg.system.dim, 3):
        columns = tuple(zip(*rows))
        span = sorted((tuple((c0 * x + c1 * y + c2 * z) % p for x, y, z in columns), k)
                      for k, (c0, c1, c2) in enumerate(coords))
        if mode != NO_FILTER:
            span = [(w, k) for w, k in span if unit_norm(w, p)]
        # per span vector, the bitmask (by coordinate index) of the span vectors it may pair with
        if mode == STRICT_ORTHONORMAL:
            span = [(w, k, sum(1 << j for u, j in span if _dot(w, u, p) == 0)) for w, k in span]
        else:
            span = [(w, k, everything) for w, k in span]
        triples = []
        for v, i, v_pairs in span:
            row = masks[i]
            for u, j, u_pairs in span:
                if v_pairs >> j & 1:
                    allowed = row[j] & v_pairs & u_pairs
                    triples += [(v, u, t) for t, k, _ in span if allowed >> k & 1]
        if triples:
            yield rows, triples


def generate_dataset(cfg, jobs=1, counters=None):
    """The full record list, sorted by (v, u, t), labeled in one process.

    The subspaces that hold a triple are labeled by one walk_planes walk
    through one SystemPencils memo.  When counters is a dict, the number
    of subspaces handed to the labeler (subspaces) and the memo's counters
    are written into it.  Every plane is labeled by label_plane at the
    exhaustive bound, so each label is proved.  jobs accepts only 1:
    perfbench's label-gf2 workload still passes it, until ROADMAP item 8
    removes it along with perfbench's dataset_jobs and pool_path env keys.
    """
    if jobs != 1:
        raise ValueError(f"subspaces are labeled in one process; jobs must be 1, got {jobs!r}")
    subspaces = list(_filtered_subspaces(cfg))
    pencils = SystemPencils(cfg.system)
    planes = walk_planes(cfg.system, [rows for rows, _ in subspaces], pencils)
    labeled = [(triples, label_plane(plane).value)
               for (_, triples), plane in zip(subspaces, planes) if plane is not None]
    if counters is not None:
        counters.update(subspaces=len(subspaces), **pencils.counters())
    return [DatasetRecord(*rec) for rec in sorted(
        (v, u, t, label) for triples, label in labeled for v, u, t in triples)]


class _VectorText(dict):
    """The repr of each vector, computed the first time the vector is looked up."""

    def __missing__(self, vec):
        text = self[vec] = repr(vec)
        return text


def write_output(records, path):
    """Write records as `(v, u, t): label` lines, one per record, streamed.

    Each distinct vector is formatted once; the line is the record's
    `f"{rec.key}: {rec.label}"`, byte for byte.
    """
    text = _VectorText()
    with open(path, "w") as fh:
        fh.writelines(f"({text[rec.v]}, {text[rec.u]}, {text[rec.t]}): {rec.label}\n"
                      for rec in records)


# a `(v, u, t)` key of write_output: three parenthesized vectors
_TRIPLE = re.compile(r"\(\s*\(([^()]*)\)\s*,\s*\(([^()]*)\)\s*,\s*\(([^()]*)\)\s*,?\s*\)")


def _parse_vector(body):
    """The entry tokens of a tuple body like `1, 0` or `1,`; None if not a tuple."""
    parts = body.split(",")
    if len(parts) == 1:
        # "()" is the empty tuple, "(1)" is not a tuple
        return [] if not parts[0].strip() else None
    if not parts[-1].strip():
        parts.pop()
    tokens = [t.strip() for t in parts]
    return None if "" in tokens else tokens


def _parse_key(key_text):
    """The (v, u, t) entry tokens of a key, or None when it is not a triple of tuples."""
    m = _TRIPLE.fullmatch(key_text.strip())
    if m is None:
        return None
    vecs = [_parse_vector(body) for body in m.groups()]
    return None if None in vecs else vecs


def read_output(path):
    """Exact inverse of write_output; parse errors report 1-based line numbers.

    Every record must hold three vectors of one width, the width of the
    first record, with non-negative decimal integer entries.
    """
    records = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            key_text, sep, value_text = line.rpartition(": ")
            if not sep:
                raise ValueError(f"{path}:{lineno}: missing ': ' separator")
            key = _parse_key(key_text)
            if key is None:
                raise ValueError(f"{path}:{lineno}: bad triple {key_text!r}; "
                                 "expected a triple of tuples")
            n = len(key[0])
            if n == 0 or len(key[1]) != n or len(key[2]) != n:
                raise ValueError(f"{path}:{lineno}: the three vectors must be non-empty "
                                 f"and of one length, got {[len(w) for w in key]}")
            if width is None:
                width = n
            elif n != width:
                raise ValueError(f"{path}:{lineno}: width {n} differs from the first "
                                 f"record's width {width}")
            # tokens are non-empty, so the joined text is all digits iff each token is
            digits = "".join(map("".join, key))
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"{path}:{lineno}: entries must be non-negative integers")
            try:
                label = int(value_text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label {value_text!r}") from exc
            if label not in (0, 1):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            records.append(DatasetRecord(*(map(int, w) for w in key), label))
    return records


def stats(records):
    """Exact count/positives/negatives/positive_rate summary."""
    count = len(records)
    positives = sum(rec.label for rec in records)
    return {
        "count": count,
        "positives": positives,
        "negatives": count - positives,
        "positive_rate": positives / count if count else 0.0,
    }
