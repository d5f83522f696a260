"""The four benchmark workloads and the golden checks on their outputs.

Each workload is built from the benchmark seed, then `prepare` does what a
fresh process pays before its first item (building the reference systems,
reading inputs, first touch of the scan tables and caches), and `run_pass`
runs one pass through the same public entries the CLI subcommands use.
A pass times only the calls into the package; its outputs are checked
afterwards, and a failed check counts the items it covers as failed.

Why these workloads:
  label-gf2   the paper's main output: both GF(2) datasets at the exhaustive
              bound.  dataset, linsys, forms and the early-exit witness scan
              do the work; 32768 triples collapse to 140 subspaces, and the
              all-unruly six-point case exits early.
  oracle-gf2  the `oracle --all` sweep: full-level covering scans, inversion
              and np.unique instead of early-exit witness search, so a scan
              change that helps one use of `_scan` and costs the other shows.
  train-five  the pinned training recipe on the five-point dataset: only
              `network` runs, and no exact arithmetic.
  certify     the only workload where `certify` and `ratpoly` run.

The labeling workloads are exhaustive, so their inputs are fixed; the seed
only permutes the order of the two cases.  Workloads call only public
functions and the CLI, so refactors of module internals do not break them.  train-five takes its training
seed from the benchmark seed, and certify draws its complex targets from it.
"""

import contextlib
import hashlib
import io
import math
import random
import time
from pathlib import Path

import numpy as np

from cubicmaps import _scan, certify, cli, dataset, linsys, network, surjectivity
from cubicmaps.linsys import FIVE_POINT, SIX_POINT

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
FIVE_POINT_DATA = BENCH_DIR / "data" / "five_point.txt"

# Bezout: the base points of a pencil of coprime cubics have degree <= 9,
# so only bound 9 proves a label.  Smaller bounds are rejected.
EXHAUSTIVE_BOUND = 9

DATASET_SHA256 = {
    FIVE_POINT: "761ae13cb89441362ba0ace22c7d54ba66646ad34462233a1465d1fdd4f30022",
    SIX_POINT: "c5ef0cca2b421410450b483583990450e87df4eae1475edea4ca71aac31030bf",
}
SUBSPACES = {FIVE_POINT: 140, SIX_POINT: 14}
ADMISSIBLE_PLANES = {FIVE_POINT: 150, SIX_POINT: 15}

TRAIN_EPOCHS = 2
DEFAULT_TRAIN_SEED = 42
# save_checkpoint bytes of the pinned recipe at TRAIN_EPOCHS epochs, seed 42,
# one BLAS thread, recorded from the seed commit's network module
CHECKPOINT_SHA256 = "38f89d10fad740eef56b0e2e2ab6876d8198c4e352ee409d56491000a715e1b9"

# one process: the jobs > 1 pool path is not measured, because on a 2-core
# machine pool overhead cannot be told apart from contention
DATASET_JOBS = 1

NUMERIC_TARGETS = 100
RESIDUAL_LIMIT = 1e-9


def require_exhaustive(what, bound):
    """The bound itself; anything but the exhaustive bound is refused."""
    if bound != EXHAUSTIVE_BOUND:
        raise ValueError(
            f"{what} {bound} is not the exhaustive bound {EXHAUSTIVE_BOUND}; "
            "labels at other bounds are unproved"
        )
    return bound


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class PassResult:
    """Items completed in one pass, the seconds spent in the package, and failures."""

    __slots__ = ("items", "seconds", "failed")

    def __init__(self, items, seconds, failed):
        self.items = items
        self.seconds = seconds
        self.failed = failed

    @property
    def rate(self):
        return self.items / self.seconds


def _gf2_configs():
    configs = [dataset.EnumConfig(case, p=2, filter_mode=dataset.NORM_ONLY) for case in (FIVE_POINT, SIX_POINT)]
    for cfg in configs:
        require_exhaustive("scan bound", cfg.scan_bound)
    return configs


# the first admissible six-point plane: label 0, two targets uncovered
WARMUP_PLANE = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _warm_scan_levels(with_oracle):
    """Label, and optionally cross-check, one unruly six-point plane.

    Its unruly pencil is scanned at every level 1..9 and its oracle leaves
    targets uncovered at every level, so every scan table and point cache
    the labeling workloads use is built.
    """
    plane = linsys.make_plane(dataset.EnumConfig(SIX_POINT).system, *WARMUP_PLANE)
    surjectivity.label_plane(plane, EXHAUSTIVE_BOUND)
    if with_oracle:
        surjectivity.forward_oracle(plane, EXHAUSTIVE_BOUND)


class LabelGF2:
    """Both GF(2) datasets, norm filter, one process, written to file."""

    name = "label-gf2"

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def prepare(self):
        self.configs = _gf2_configs()
        self.rng.shuffle(self.configs)
        WORK_DIR.mkdir(exist_ok=True)
        _warm_scan_levels(with_oracle=False)

    def run_pass(self):
        items = failed = 0
        seconds = 0.0
        for cfg in self.configs:
            path = WORK_DIR / f"{cfg.case}.txt"
            started = time.perf_counter()
            records = dataset.generate_dataset(cfg, jobs=DATASET_JOBS)
            dataset.write_output(records, path)
            seconds += time.perf_counter() - started
            items += SUBSPACES[cfg.case]
            if sha256_file(path) != DATASET_SHA256[cfg.case]:
                failed += SUBSPACES[cfg.case]
        return PassResult(items, seconds, failed)


class OracleGF2:
    """`cubicmaps oracle --all` for both cases: label_plane + forward_oracle on every admissible plane."""

    name = "oracle-gf2"
    cli_case = {FIVE_POINT: "five", SIX_POINT: "six"}

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def prepare(self):
        bound = str(require_exhaustive("scan and source bound", EXHAUSTIVE_BOUND))
        WORK_DIR.mkdir(exist_ok=True)
        manifest = WORK_DIR / "oracle-runs.jsonl"
        manifest.unlink(missing_ok=True)
        cases = list(self.cli_case)
        self.rng.shuffle(cases)
        self.argvs = [
            (case, ["--manifest", str(manifest), "oracle", "--all", "--case", self.cli_case[case],
                    "--scan-bound", bound, "--source-bound", bound])
            for case in cases
        ]
        _warm_scan_levels(with_oracle=True)

    def run_pass(self):
        items = failed = 0
        seconds = 0.0
        for case, argv in self.argvs:
            out = io.StringIO()
            started = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            seconds += time.perf_counter() - started
            planes = ADMISSIBLE_PLANES[case]
            items += planes
            lines = out.getvalue().splitlines()
            if code != 0 or f"planes checked: {planes}" not in lines or "0 disagreements" not in lines:
                failed += planes
        return PassResult(items, seconds, failed)


class TrainFive:
    """The pinned recipe (batch 32, Adam 1e-3, 80/20 split) as `cubicmaps train` runs it.

    The input is a checked-in copy of the five-point dataset, so a faster
    or slower labeler cannot move this workload's set-up time.
    """

    name = "train-five"

    def __init__(self, seed):
        self.cfg = network.TrainConfig(epochs=TRAIN_EPOCHS, seed=seed)
        self.first_sha = None

    def prepare(self):
        if sha256_file(FIVE_POINT_DATA) != DATASET_SHA256[FIVE_POINT]:
            raise ValueError(f"{FIVE_POINT_DATA} does not hold the five-point dataset")
        self.records = dataset.read_output(FIVE_POINT_DATA)
        WORK_DIR.mkdir(exist_ok=True)

    def run_pass(self):
        path = WORK_DIR / "model.ckpt"
        started = time.perf_counter()
        model, test_idx, history = network.train(self.records, self.cfg)
        network.save_checkpoint(model, path)
        mse = network.evaluate(model, self.records, test_idx)
        mean_pred = network.mean_prediction(model, self.records, test_idx)
        seconds = time.perf_counter() - started
        items = (len(self.records) - len(test_idx)) * self.cfg.epochs
        sha = sha256_file(path)
        if self.first_sha is None:
            self.first_sha = sha
        ok = (
            sha == self.first_sha
            and (self.cfg.seed != DEFAULT_TRAIN_SEED or sha == CHECKPOINT_SHA256)
            and len(history) == self.cfg.epochs
            and all(math.isfinite(v) for v in (mse, mean_pred, *(loss for _, loss in history)))
        )
        return PassResult(items, seconds, 0 if ok else items)


class Certify:
    """verify_case for both maps plus numeric_preimage at seeded complex targets.

    Each pass follows test_05's recipe with the benchmark seed: 100 targets
    [a:1:b] per map, a and b uniform in the square [-7, 7]^2.  Every pass
    draws the next 100 from one seeded stream, so the rate over a run
    does not hinge on how hard one set of 100 targets is to solve.
    """

    name = "certify"
    cases = (FIVE_POINT, SIX_POINT)
    warmup_target = (1.5, 1.0, -2.25)

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def prepare(self):
        for case in self.cases:
            certify.verify_case(case)
            certify.numeric_preimage(case, self.warmup_target)

    def _targets(self):
        u = self.rng.uniform(-7, 7, size=(NUMERIC_TARGETS, 4))
        return [(complex(ar, ai), 1.0, complex(br, bi)) for ar, ai, br, bi in u.tolist()]

    def run_pass(self):
        items = failed = 0
        seconds = 0.0
        targets = self._targets()
        for case in self.cases:
            started = time.perf_counter()
            cert = certify.verify_case(case)
            seconds += time.perf_counter() - started
            items += 1
            failed += not (cert.passed and cert.checks)
            for target in targets:
                started = time.perf_counter()
                try:
                    _, residual = certify.numeric_preimage(case, target)
                except certify.RootSolveError:
                    residual = math.inf
                seconds += time.perf_counter() - started
                items += 1
                failed += not residual < RESIDUAL_LIMIT
        return PassResult(items, seconds, failed)


WORKLOADS = {w.name: w for w in (LabelGF2, OracleGF2, TrainFive, Certify)}


def clear_scan_caches():
    """Drop the scan's field tables and point caches, so the next scan builds them."""
    for name in ("_tables_cache", "_monomial_cache"):
        getattr(_scan, name, {}).clear()
