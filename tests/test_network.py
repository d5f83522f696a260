import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cubicmaps
from cubicmaps.dataset import DatasetRecord, write_output
from cubicmaps.network import (
    _ADAM_BLOCK,
    Adam,
    NetworkParams,
    TargetScaler,
    TrainConfig,
    evaluate,
    features_and_labels,
    forward,
    gradient_check,
    init_params,
    load_checkpoint,
    loss_and_grad,
    mean_prediction,
    save_checkpoint,
    split_indices,
    train,
    write_history,
)


def frozen_scale(m):
    """Per-column standardization exactly as first released: the reference."""
    means = m.mean(axis=0)
    var = m.var(axis=0)
    divisor = np.where(var < 1e-12, 1.0, np.sqrt(var))
    return (m - means) / divisor


def frozen_adam_steps(arrays, grad_steps, cfg):
    """The allocating Adam update as first released, applied in place to arrays."""
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for i, (a, g) in enumerate(zip(arrays, grads)):
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g * g
            a -= cfg.learning_rate * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + cfg.epsilon)
    return m, v


def claimed_arrays(w, filters, hidden):
    """The checkpoint header's [name, shape] list for the given widths."""
    shapes = [[2, 2, 1, filters], [filters], [2 * (w - 1) * filters, hidden],
              [hidden], [hidden, 1], [1]]
    names = ("conv_w", "conv_b", "w1", "b1", "w2", "b2")
    return [[name, shape] for name, shape in zip(names, shapes)]


class ArrayList:
    """Anything with arrays() is a parameter set to Adam."""

    def __init__(self, arrays):
        self._arrays = tuple(arrays)

    def arrays(self):
        return self._arrays


def small_instance(seed=5, n=6, w=5, filters=3, hidden=4):
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_params(w, rng, filters=filters, hidden=hidden)
    x = rng.standard_normal((n, 3, w, 1))
    y = rng.standard_normal((n, 1))
    return params, x, y


def scaled(*rows):
    """The feature matrix features_and_labels gives one record with these rows (v, u, t)."""
    x, _ = features_and_labels([DatasetRecord(*rows, 0)])
    return x[0, :, :, 0]


class TestScaling:
    def test_per_column_standardization(self):
        rows = ((0, 1, 0), (1, 1, 0), (1, 1, 1))
        raw = np.array(rows, dtype=np.float64)
        matrix = scaled(*rows)
        for j in range(3):
            col = raw[:, j]
            if col.std() < 1e-6:
                assert np.allclose(matrix[:, j], col - col.mean())
            else:
                assert np.allclose(matrix[:, j], (col - col.mean()) / col.std())

    def test_constant_columns_collapse_to_zero(self):
        assert np.array_equal(scaled(*[(0,) * 5] * 3), np.zeros((3, 5)))
        assert np.array_equal(scaled(*[(1,) * 5] * 3), np.zeros((3, 5)))

    def test_feature_rows_are_v_u_t(self):
        rows = ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1))
        want = frozen_scale(np.array(rows, dtype=np.float64))
        assert scaled(*rows).tobytes() == want.tobytes()
        assert not np.array_equal(want, want[::-1])

    def test_features_and_labels_shapes(self, five_records):
        x, y = features_and_labels(five_records[:10])
        assert x.shape == (10, 3, 5, 1)
        assert y.shape == (10, 1)

    def test_features_and_labels_match_per_record_scaling(self, five_records):
        # the five-point records have zero-variance columns, so the guard runs too
        x, _ = features_and_labels(five_records)
        frozen = np.stack([frozen_scale(np.array([r.v, r.u, r.t], dtype=np.float64))
                           for r in five_records])
        assert x[..., 0].tobytes() == frozen.tobytes()

    def test_target_scaler_round_trip(self):
        y = np.array([[0.0], [1.0], [0.0], [0.0]])
        scaler = TargetScaler.fit(y)
        assert np.allclose(scaler.inverse_transform(scaler.transform(y)), y)

    def test_target_scaler_constant_guard(self):
        y = np.zeros((4, 1))
        scaler = TargetScaler.fit(y)
        assert scaler.std == 1.0


class TestInitialization:
    def test_shapes(self):
        rng = np.random.Generator(np.random.PCG64(42))
        params = init_params(5, rng, filters=256, hidden=256)
        assert params.conv_w.shape == (2, 2, 1, 256)
        assert params.conv_b.shape == (256,)
        assert params.w1.shape == (2 * 4 * 256, 256)
        assert params.b1.shape == (256,)
        assert params.w2.shape == (256, 1)
        assert params.b2.shape == (1,)

    def test_glorot_bounds_and_zero_biases(self):
        rng = np.random.Generator(np.random.PCG64(0))
        params = init_params(4, rng, filters=8, hidden=16)
        conv_limit = np.sqrt(6.0 / (4 + 4 * 8))
        assert np.max(np.abs(params.conv_w)) <= conv_limit
        fan_in = 2 * 3 * 8
        w1_limit = np.sqrt(6.0 / (fan_in + 16))
        assert np.max(np.abs(params.w1)) <= w1_limit
        assert not params.conv_b.any()
        assert not params.b1.any()
        assert not params.b2.any()

    def test_same_seed_same_params(self):
        a = init_params(5, np.random.Generator(np.random.PCG64(7)), filters=4, hidden=4)
        b = init_params(5, np.random.Generator(np.random.PCG64(7)), filters=4, hidden=4)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)


class TestForward:
    def test_against_naive_loops(self):
        params, x, _ = small_instance()
        n, _, w, _ = x.shape
        filters = params.conv_w.shape[-1]
        hidden = params.w1.shape[1]
        out = forward(params, x)
        for i in range(n):
            conv = np.zeros((2, w - 1, filters))
            for r in range(2):
                for c in range(w - 1):
                    patch = x[i, r:r + 2, c:c + 2, 0]
                    for f in range(filters):
                        conv[r, c, f] = np.sum(patch * params.conv_w[:, :, 0, f]) + params.conv_b[f]
            conv = np.maximum(conv, 0.0)
            flat = conv.reshape(-1)  # (row, column, channel) order
            h = np.maximum(flat @ params.w1 + params.b1, 0.0)
            val = h @ params.w2 + params.b2
            assert np.allclose(out[i], val, atol=1e-12)

    def test_output_shape(self):
        params, x, _ = small_instance(n=3, w=4)
        assert forward(params, x).shape == (3, 1)


class TestGradients:
    def test_matches_central_differences(self):
        params, x, y = small_instance()
        assert gradient_check(params, x, y) < 1e-4

    def test_loss_is_mean_squared_error(self):
        params, x, y = small_instance()
        loss, _ = loss_and_grad(params, x, y)
        assert np.isclose(loss, float(np.mean((forward(params, x) - y) ** 2)))

    def test_duplicated_batch_same_gradient(self):
        params, x, y = small_instance(n=4)
        _, g1 = loss_and_grad(params, x, y)
        _, g2 = loss_and_grad(params, np.concatenate([x, x]), np.concatenate([y, y]))
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, atol=1e-12)


class TestAdam:
    def test_single_step_closed_form(self):
        cfg = TrainConfig(learning_rate=0.01)
        params, x, y = small_instance(n=3)
        opt = Adam(params, cfg)
        _, grads = loss_and_grad(params, x, y)
        before = [a.copy() for a in params.arrays()]
        opt.step(params, grads)
        for prev, arr, g in zip(before, params.arrays(), grads):
            m_hat = g  # first step: m = (1-b1)g / (1-b1) = g
            v_hat = g * g
            want = prev - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            assert np.allclose(arr, want, atol=1e-12)

    def test_blocked_steps_are_byte_equal_to_frozen_formula(self):
        # below one block, exactly one block, and over one block but not a multiple of it
        shapes = [(7,), (_ADAM_BLOCK,), (3, _ADAM_BLOCK // 2 + 41)]
        rng = np.random.Generator(np.random.PCG64(11))
        cfg = TrainConfig(learning_rate=0.01)
        start = [rng.standard_normal(shape) for shape in shapes]
        grad_steps = [[rng.standard_normal(shape) for shape in shapes] for _ in range(6)]
        blocked = [a.copy() for a in start]
        opt = Adam(ArrayList(blocked), cfg)
        for grads in grad_steps:
            opt.step(ArrayList(blocked), grads)
        frozen = [a.copy() for a in start]
        m, v = frozen_adam_steps(frozen, grad_steps, cfg)
        for got, want in zip(blocked + opt.m + opt.v, frozen + m + v):
            assert got.tobytes() == want.tobytes()

    def test_rejects_non_contiguous_parameters(self):
        a = np.asfortranarray(np.ones((3, 4)))
        opt = Adam(ArrayList([a]), TrainConfig())
        with pytest.raises(ValueError, match="C-contiguous"):
            opt.step(ArrayList([a]), [np.ones((3, 4))])


class TestSplit:
    def test_split_sizes_and_disjointness(self):
        cfg = TrainConfig()
        rng = np.random.Generator(np.random.PCG64(42))
        train_idx, test_idx = split_indices(10, cfg, rng)
        assert len(test_idx) == 2
        assert len(train_idx) == 8
        assert not set(train_idx) & set(test_idx)
        assert sorted(list(train_idx) + list(test_idx)) == list(range(10))

    def test_split_is_deterministic(self):
        cfg = TrainConfig()
        a = split_indices(50, cfg, np.random.Generator(np.random.PCG64(42)))
        b = split_indices(50, cfg, np.random.Generator(np.random.PCG64(42)))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            split_indices(3, TrainConfig(), np.random.Generator(np.random.PCG64(1)))


class TestTraining:
    def test_history_and_metrics(self, five_records, quick_model):
        model, test_idx, history = quick_model
        assert [e for e, _ in history] == [1, 2]
        assert all(np.isfinite(mse) for _, mse in history)
        mse = evaluate(model, five_records, test_idx)
        assert np.isfinite(mse)
        assert np.isfinite(mean_prediction(model, five_records, test_idx))

    def test_predict_raw(self, quick_model):
        model, _, _ = quick_model
        triple = ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1))
        value = model.predict_raw(triple)
        assert np.isfinite(value)
        x = frozen_scale(np.array(triple, dtype=np.float64))[np.newaxis, :, :, np.newaxis]
        assert value == float(model.scaler.inverse_transform(forward(model.params, x))[0, 0])

    def test_rerun_is_bitwise_identical(self, five_records, tmp_path, quick_model):
        model, _, _ = quick_model
        rerun, _, _ = train(five_records, TrainConfig(epochs=2))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(rerun, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pinned_recipe_checkpoint_bytes(self, five_records, tmp_path):
        # seed 42, 2 epochs, one BLAS thread: the checkpoint the benchmark also pins
        data, ckpt = tmp_path / "five.txt", tmp_path / "model.ckpt"
        write_output(five_records, data)
        script = (
            "import sys\n"
            "from cubicmaps.dataset import read_output\n"
            "from cubicmaps.network import TrainConfig, save_checkpoint, train\n"
            "model, _, _ = train(read_output(sys.argv[1]), TrainConfig(epochs=2, seed=42))\n"
            "save_checkpoint(model, sys.argv[2])\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = str(Path(cubicmaps.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", script, str(data), str(ckpt)],
                       env=env, check=True, timeout=600)
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == (
            "38f89d10fad740eef56b0e2e2ab6876d8198c4e352ee409d56491000a715e1b9"
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(test_fraction=1.5)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestCheckpoint:
    def test_round_trip(self, quick_model, tmp_path):
        model, _, _ = quick_model
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for a, b in zip(model.params.arrays(), loaded.params.arrays()):
            assert np.array_equal(a, b)
        assert loaded.scaler.mean == model.scaler.mean
        assert loaded.scaler.std == model.scaler.std
        assert loaded.cfg.to_dict() == model.cfg.to_dict()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTAMODELxxxx")
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload(self, quick_model, tmp_path):
        model, _, _ = quick_model
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, quick_model, tmp_path):
        model, _, _ = quick_model
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    @staticmethod
    def _write_crafted(path, size, header, payload=b""):
        blob = json.dumps(header).encode()
        path.write_bytes(b"CBMNET01" + size(blob).to_bytes(8, "little") + blob + payload)

    @staticmethod
    def _header_and_payload(model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        end = 16 + int.from_bytes(data[8:16], "little")
        return json.loads(data[16:end]), data[end:]

    @staticmethod
    def _peak_bytes_while_rejected(path, match):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                load_checkpoint(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("key", ["config", "target_mean"])
    def test_missing_header_key(self, quick_model, tmp_path, key):
        header, payload = self._header_and_payload(quick_model[0], tmp_path)
        del header[key]
        path = tmp_path / "crafted.ckpt"
        self._write_crafted(path, len, header, payload)
        with pytest.raises(ValueError, match="bad checkpoint header"):
            load_checkpoint(path)

    def test_huge_header_length_rejected_without_reading(self, quick_model, tmp_path):
        path = tmp_path / "crafted.ckpt"
        header, _ = self._header_and_payload(quick_model[0], tmp_path)
        self._write_crafted(path, lambda blob: 1 << 62, header)
        assert self._peak_bytes_while_rejected(path, "header length") < 1 << 20

    @pytest.mark.parametrize("after_magic, match", [
        # one byte over the header cap, with no header behind it
        (((1 << 20) + 1).to_bytes(8, "little"), "header length 1048577 exceeds 1048576 bytes"),
        # a length field cut short
        (b"\x05\x00\x00", "truncated checkpoint"),
        # a header cut short of its length
        ((10).to_bytes(8, "little") + b"{}", "truncated checkpoint"),
        ((6).to_bytes(8, "little") + b"[1, 2]", "header is not a JSON object"),
        ((14).to_bytes(8, "little") + b'{"version": 2}', "unsupported checkpoint version 2"),
    ])
    def test_corrupt_header_rejected(self, tmp_path, after_magic, match):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"CBMNET01" + after_magic)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("overrides, match", [
        # shapes that disagree with w, filters and hidden
        ({"arrays": claimed_arrays(5, 256, 1 << 40)}, "do not match"),
        # shapes that agree with a huge hidden width, but not with the file size
        ({"hidden": 1 << 40, "arrays": claimed_arrays(5, 256, 1 << 40)}, "truncated"),
        ({"w": 1}, "w must be"),
    ])
    def test_bad_shapes_rejected_without_allocating(self, quick_model, tmp_path, overrides, match):
        header, _ = self._header_and_payload(quick_model[0], tmp_path)
        header.update(overrides)
        path = tmp_path / "crafted.ckpt"
        self._write_crafted(path, len, header)
        assert self._peak_bytes_while_rejected(path, match) < 1 << 20


class TestHistory:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_history([(1, 0.5), (2, 0.25)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_mse"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,0.25"
