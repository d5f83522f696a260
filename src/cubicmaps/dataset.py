"""Exhaustive labeled enumeration of plane triples and the output.txt format.

A dataset run fixes a cubic system (one of the built-in cases, or a custom
system) and iterates all triples (v, u, t) of coefficient vectors over
GF(p)^dim in lexicographic order, leftmost coordinate most significant.
A triple survives when it passes make_plane (rank 3 and coprime forms)
and the configured vector filter; each survivor is emitted with the label
of its plane.

Labels depend only on the spanned 3-subspace, so they are computed once
per distinct subspace (canonical RREF representative) and shared.  With
jobs > 1 the distinct subspaces are labeled by a process pool in a fixed
order, which keeps the output byte-identical for any worker count.

File format, one record per line, newline-terminated:

    ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1)): 1
"""

import functools
import multiprocessing
import re

from .finitefield import build_field
from .linsys import (
    DEFAULT_SCAN_BOUND,
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    gf_rref,
    iter_vectors,
    make_plane,
    reference_system,
    require_bound,
)
from .surjectivity import label_plane

NORM_ONLY = "norm_only"
STRICT_ORTHONORMAL = "strict_orthonormal"
NO_FILTER = "none"

_FILTER_MODES = (NORM_ONLY, STRICT_ORTHONORMAL, NO_FILTER)


class EnumConfig:
    """Configuration of one enumeration run."""

    __slots__ = ("case", "system", "p", "filter_mode", "scan_bound")

    def __init__(self, case, p=2, filter_mode=NORM_ONLY, scan_bound=DEFAULT_SCAN_BOUND):
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
        require_bound("scan_bound", scan_bound)
        self.case = case
        self.system = system
        self.p = p
        self.filter_mode = filter_mode
        self.scan_bound = scan_bound

    def __repr__(self):
        return (
            f"EnumConfig({self.case}, p={self.p}, filter={self.filter_mode}, "
            f"scan_bound={self.scan_bound})"
        )


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
    """The vector filter: per-vector unit norm, optionally pairwise orthogonality."""
    if mode == NO_FILTER:
        return True
    if not (unit_norm(v, p) and unit_norm(u, p) and unit_norm(t, p)):
        return False
    if mode == STRICT_ORTHONORMAL:
        return _dot(v, u, p) == 0 and _dot(v, t, p) == 0 and _dot(u, t, p) == 0
    return True


def _label_subspace(system, scan_bound, rows):
    """Label of the plane spanned by canonical rows; None when rejected by make_plane."""
    plane = make_plane(system, *rows)
    if plane is None:
        return None
    return label_plane(plane, scan_bound).value


def _surviving_triples(cfg):
    """Lazily yield (v, u, t, subspace_key) for triples passing filter and rank.

    The filter is applied per vector (and per pair under strict
    orthonormality) before the triple loop; the filtered lists keep
    lexicographic order, so the yield order is that of the full loop.
    """
    p = cfg.p
    mode = cfg.filter_mode
    vectors = list(iter_vectors(p, cfg.system.dim))
    if mode != NO_FILTER:
        vectors = [w for w in vectors if unit_norm(w, p)]
    for v in vectors:
        us = [u for u in vectors if _dot(v, u, p) == 0] if mode == STRICT_ORTHONORMAL else vectors
        for u in us:
            ts = [t for t in us if _dot(u, t, p) == 0] if mode == STRICT_ORTHONORMAL else us
            for t in ts:
                key, _ = gf_rref(p, (v, u, t))
                if len(key) == 3:
                    yield v, u, t, key


def generate_dataset(cfg, jobs=1):
    """The full record list, in triple order; jobs > 1 labels subspaces in a process pool.

    One walk over the triples collects the distinct subspaces in
    first-encounter order; each triple keeps its subspace's index.  The
    subspaces are then labeled by map, or by an order-preserving pool map,
    so the output is independent of the worker count.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    keys = {}
    triples = [(v, u, t, keys.setdefault(key, len(keys)))
               for v, u, t, key in _surviving_triples(cfg)]
    label = functools.partial(_label_subspace, cfg.system, cfg.scan_bound)
    if jobs == 1:
        labels = list(map(label, keys))
    else:
        with multiprocessing.Pool(jobs) as pool:
            labels = pool.map(label, keys, chunksize=4)
    return [DatasetRecord(v, u, t, labels[i]) for v, u, t, i in triples if labels[i] is not None]


def write_output(records, path):
    """Write records as `(v, u, t): label` lines, one per record."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(f"{rec.key}: {rec.label}\n")


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
