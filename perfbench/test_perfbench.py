"""Tests of the benchmark itself: tracing, golden checks and the metric catalogue.

    python3 -m pytest -q perfbench
"""

import json
import os

import pytest

import srcpath

srcpath.pin_blas_threads(os.environ)
srcpath.use_checkout_source()

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cubicmaps import dataset, finitefield, network, surjectivity  # noqa: E402
from cubicmaps.linsys import SIX_POINT  # noqa: E402


@pytest.fixture(scope="module")
def traced_label_pass():
    workload = workloads.LabelGF2(0)
    workload.prepare()
    tracer = tracing.Tracer()
    with tracer.installed():
        result = workload.run_pass()
    return tracer, result


def test_wrappers_are_installed_and_restored():
    label_plane = surjectivity.label_plane
    scalar_mul = vars(finitefield.Scalar)["__mul__"]
    adam_step = vars(network.Adam)["step"]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            patches = list(tracer._patches)
            assert dataset.label_plane is not label_plane
            assert surjectivity.label_plane is not label_plane
            assert vars(finitefield.Scalar)["__mul__"] is not scalar_mul
            raise RuntimeError("restore must not depend on a clean exit")
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    assert dataset.label_plane is label_plane
    assert vars(finitefield.Scalar)["__mul__"] is scalar_mul
    assert vars(network.Adam)["step"] is adam_step
    assert not tracer._patches


def test_a_missing_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(network, "forward")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert "cubicmaps.network.forward" in tracer.missing
    assert not hasattr(network, "forward")


def test_child_spans_nest_within_parents(traced_label_pass):
    tracer, _ = traced_label_pass
    assert any(s.parent is not None for s in tracer.spans)
    children = {}
    for span in tracer.spans:
        assert 0.0 <= span.self_time <= span.duration
        if span.parent is not None:
            parent = span.parent
            assert parent.start <= span.start and span.end <= parent.end
            assert span.self_time <= parent.duration
            children[id(parent)] = children.get(id(parent), 0.0) + span.duration
    for span in tracer.spans:
        assert span.child == pytest.approx(children.get(id(span), 0.0), abs=1e-9)


def test_traced_counts_are_exact(traced_label_pass):
    tracer, result = traced_label_pass
    metrics = tracing.layer_metrics(tracing.Tracer(), tracer, 1.0)
    assert result.failed == 0
    assert metrics["dataset.triples"] == 2**15 + 2**12
    assert metrics["dataset.subspaces"] == 140 + 14
    assert metrics["linsys.plane_admit_ratio"] == (135 + 14) / (140 + 14)
    assert metrics["surjectivity.label_plane_calls"] == 135 + 14
    verdicts = [metrics[f"surjectivity.verdict.{v}"] for v in tracing.VERDICTS]
    assert sum(verdicts) == metrics["surjectivity.test_pencil_calls"]
    assert sum(metrics[f"surjectivity.witness_degree.d{d}"] for d in tracing.LEVELS) == \
        metrics["surjectivity.verdict.not_unruly"]


def test_wrong_dataset_golden_counts_as_failure(monkeypatch):
    workload = workloads.LabelGF2(0)
    workload.prepare()
    monkeypatch.setitem(workloads.DATASET_SHA256, SIX_POINT, "0" * 64)
    result = workload.run_pass()
    assert result.failed == workloads.SUBSPACES[SIX_POINT]


def test_wrong_checkpoint_golden_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "TRAIN_EPOCHS", 1)
    monkeypatch.setattr(workloads, "CHECKPOINT_SHA256", "0" * 64)
    workload = workloads.TrainFive(workloads.DEFAULT_TRAIN_SEED)
    workload.prepare()
    result = workload.run_pass()
    assert result.items > 0 and result.failed == result.items


def test_residual_over_limit_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "RESIDUAL_LIMIT", 0.0)
    workload = workloads.Certify(0)
    workload.prepare()
    result = workload.run_pass()
    assert result.failed == 2 * workloads.NUMERIC_TARGETS


@pytest.mark.parametrize("bound", [0, 2, 8, 10])
def test_non_exhaustive_bounds_are_rejected(bound):
    with pytest.raises(ValueError, match="exhaustive"):
        workloads.require_exhaustive("scan bound", bound)
    assert workloads.require_exhaustive("scan bound", 9) == 9


def test_benchmark_file_matches_the_reported_metrics():
    spec = json.loads((srcpath.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)


def test_slowdown_is_mean_block_time_over_nominal():
    speed = reference.MachineSpeed()
    speed.sample()
    assert len(speed.times) == 1 and speed.times[0] > 0
    speed.times = [reference.NOMINAL_BLOCK_S, 2 * reference.NOMINAL_BLOCK_S]
    assert speed.slowdown() == pytest.approx(1.5)
