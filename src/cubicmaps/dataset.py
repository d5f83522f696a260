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

import ast
import multiprocessing
import os

from .finitefield import build_field
from .linsys import (
    DEFAULT_SCAN_BOUND,
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    iter_vectors,
    make_plane,
    reference_system,
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
            if system.field.p != p or system.field.k != 1:
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


def _subspace3_key(p, v, u, t):
    """Canonical RREF rows of the span of v,u,t over GF(p); None when rank < 3."""
    rows = [list(v), list(u), list(t)]
    n = len(rows[0])
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, 3):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(inv * x) % p for x in rows[r]]
        for i in range(3):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == 3:
            return (tuple(rows[0]), tuple(rows[1]), tuple(rows[2]))
    return None


def _label_subspace(system, rows, scan_bound):
    """Label of the plane spanned by canonical rows; None when rejected by make_plane."""
    plane = make_plane(system, *rows)
    if plane is None:
        return None
    return label_plane(plane, scan_bound).value


_WORKER_STATE = {}


def _worker_init(case, basis_rows, p, scan_bound):
    field = build_field(p)
    if case == "custom":
        from .forms import TernaryForm

        basis = [TernaryForm(field, row) for row in basis_rows]
        system = CubicSystem(field, basis, "custom")
    else:
        system = reference_system(case, field)
    _WORKER_STATE["system"] = system
    _WORKER_STATE["scan_bound"] = scan_bound


def _worker_label(rows):
    return _label_subspace(_WORKER_STATE["system"], rows, _WORKER_STATE["scan_bound"])


def _surviving_triples(cfg):
    """Lazily yield (v, u, t, subspace_key) for triples passing rank and filter."""
    p = cfg.p
    dim = cfg.system.dim
    vectors = list(iter_vectors(p, dim))
    for v in vectors:
        for u in vectors:
            for t in vectors:
                key = _subspace3_key(p, v, u, t)
                if key is None:
                    continue
                if not passes_filter(cfg.filter_mode, v, u, t, p):
                    continue
                yield v, u, t, key


def enumerate_triples(cfg):
    """Stream DatasetRecords in triple order, labeling subspaces on first use."""
    labels = {}
    for v, u, t, key in _surviving_triples(cfg):
        if key not in labels:
            labels[key] = _label_subspace(cfg.system, key, cfg.scan_bound)
        label = labels[key]
        if label is None:
            continue
        yield DatasetRecord(v, u, t, label)


def default_jobs():
    """Worker count from the CUBICMAPS_JOBS variable, else available CPUs."""
    env = os.environ.get("CUBICMAPS_JOBS")
    if env:
        jobs = int(env)
        if jobs < 1:
            raise ValueError("CUBICMAPS_JOBS must be positive")
        return jobs
    return os.cpu_count() or 1


def generate_dataset(cfg, jobs=None):
    """The full record list; jobs > 1 labels distinct subspaces in parallel.

    Output is independent of the worker count: the distinct subspaces are
    collected in first-encounter order, labeled by an order-preserving
    pool map, and records are emitted in triple order afterwards.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if jobs == 1:
        return list(enumerate_triples(cfg))
    keys = []
    seen = set()
    for _, _, _, key in _surviving_triples(cfg):
        if key not in seen:
            seen.add(key)
            keys.append(key)
    basis_rows = [[c.encode() for c in f.coeffs] for f in cfg.system.basis]
    with multiprocessing.Pool(
        jobs, initializer=_worker_init, initargs=(cfg.case, basis_rows, cfg.p, cfg.scan_bound)
    ) as pool:
        labels = dict(zip(keys, pool.map(_worker_label, keys, chunksize=4)))
    records = []
    for v, u, t, key in _surviving_triples(cfg):
        label = labels[key]
        if label is not None:
            records.append(DatasetRecord(v, u, t, label))
    return records


def write_output(records, path):
    """Write records as `(v, u, t): label` lines, one per record."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(f"{rec.key}: {rec.label}\n")


def read_output(path):
    """Exact inverse of write_output; parse errors report 1-based line numbers.

    Every record must hold three vectors of one width, the width of the
    first record, with non-negative integer entries.
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
            try:
                key = ast.literal_eval(key_text)
            except (ValueError, SyntaxError) as exc:
                raise ValueError(f"{path}:{lineno}: bad triple {key_text!r}") from exc
            if (
                not isinstance(key, tuple)
                or len(key) != 3
                or not all(isinstance(w, tuple) for w in key)
            ):
                raise ValueError(f"{path}:{lineno}: expected a triple of tuples")
            n = len(key[0])
            if n == 0 or len(key[1]) != n or len(key[2]) != n:
                raise ValueError(f"{path}:{lineno}: the three vectors must be non-empty "
                                 f"and of one length, got {[len(w) for w in key]}")
            if width is None:
                width = n
            elif n != width:
                raise ValueError(f"{path}:{lineno}: width {n} differs from the first "
                                 f"record's width {width}")
            if not all(type(c) is int and c >= 0 for w in key for c in w):
                raise ValueError(f"{path}:{lineno}: entries must be non-negative integers")
            try:
                label = int(value_text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label {value_text!r}") from exc
            if label not in (0, 1):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            records.append(DatasetRecord(*key, label))
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
