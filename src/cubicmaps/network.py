"""A small convolutional regressor over dataset triples, built from scratch.

Architecture, for triples of coefficient vectors of length w stacked into
a (3, w, 1) input: Conv2D with 256 filters of size 2x2 (valid padding,
stride 1) + ReLU, flatten in (height, width, channel) nesting order,
Dense 256 + ReLU, Dense 1.  Trained with mini-batch Adam on mean squared
error against standardized labels.

Frozen numeric contracts (everything the architecture does not pin down):
per-column feature standardization uses the population standard deviation
with columns of variance below 1e-12 mapped to zero; ReLU' (0) = 0; Adam
epsilon sits outside the square root; parameters draw from Glorot uniform
bounds +-sqrt(6 / (fan_in + fan_out)) with conv fan_out = kernel area x
filters, biases start at zero.  All randomness comes from one
numpy.random.Generator(PCG64(seed)) consumed in a fixed order: the
train/test split permutation, then the parameter draws (conv, first dense,
second dense), then one shuffle per epoch.  Two runs with the same seed
and thread count produce bitwise-identical checkpoints.  Adam updates m, v
and the parameters in place, one cache-sized block at a time, and every
element goes through the same operations in the same order:
m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g,
a -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps).  That order is part of the
byte-stability contract: reordering or fusing any of them changes the
checkpoint bytes.
"""

import json
import math
import os

import numpy as np

_VAR_GUARD = 1e-12
CHECKPOINT_MAGIC = b"CBMNET01"
_MAX_HEADER_BYTES = 1 << 20
# Elements per in-place Adam block: the a, g, m, v slices and two scratch
# buffers (6 x 256 KiB) stay in L2 cache while all the operations run on them.
_ADAM_BLOCK = 32768
_ARRAY_NAMES = ("conv_w", "conv_b", "w1", "b1", "w2", "b2")


class TrainConfig:
    """Training hyperparameters; defaults are the reference recipe."""

    __slots__ = (
        "epochs", "batch_size", "test_fraction", "seed",
        "learning_rate", "beta1", "beta2", "epsilon",
        "filters", "hidden",
    )

    def __init__(self, epochs=150, batch_size=32, test_fraction=0.2, seed=42,
                 learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-7,
                 filters=256, hidden=256):
        if epochs < 1 or batch_size < 1 or filters < 1 or hidden < 1:
            raise ValueError("epochs, batch_size, filters and hidden must be positive")
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        if learning_rate <= 0 or epsilon <= 0:
            raise ValueError("learning_rate and epsilon must be positive")
        self.epochs = epochs
        self.batch_size = batch_size
        self.test_fraction = test_fraction
        self.seed = seed
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.filters = filters
        self.hidden = hidden

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


def _features(triples):
    """Raw (v, u, t) integer triples as an (N, 3, w, 1) tensor, standardized per triple and column.

    Population statistics; a column of variance below the guard is only centered.
    """
    m = np.array(triples, dtype=np.float64)
    means = m.mean(axis=1, keepdims=True)
    var = m.var(axis=1, keepdims=True)
    x = (m - means) / np.where(var < _VAR_GUARD, 1.0, np.sqrt(var))
    return x[..., np.newaxis]


def features_and_labels(records):
    """Scaled feature tensor (N, 3, w, 1) and float label vector (N, 1)."""
    if not records:
        raise ValueError("no records")
    y = np.array([[float(r.label)] for r in records])
    return _features([(r.v, r.u, r.t) for r in records]), y


class TargetScaler:
    """Standardization of training labels, with the zero-variance guard."""

    __slots__ = ("mean", "std")

    def __init__(self, mean, std):
        self.mean = float(mean)
        self.std = float(std)

    @classmethod
    def fit(cls, y):
        y = np.asarray(y, dtype=np.float64)
        var = y.var()
        return cls(y.mean(), 1.0 if var < _VAR_GUARD else math.sqrt(var))

    def transform(self, y):
        return (np.asarray(y, dtype=np.float64) - self.mean) / self.std

    def inverse_transform(self, y):
        return np.asarray(y, dtype=np.float64) * self.std + self.mean


def _param_shapes(w, filters, hidden):
    """Shapes of conv_w, conv_b, w1, b1, w2, b2 for width-w inputs."""
    flat = 2 * (w - 1) * filters
    return ((2, 2, 1, filters), (filters,), (flat, hidden), (hidden,), (hidden, 1), (1,))


class NetworkParams:
    """All weights of the conv + dense + dense network for width-w inputs."""

    __slots__ = ("w", "filters", "hidden", "conv_w", "conv_b", "w1", "b1", "w2", "b2")

    def __init__(self, w, filters, hidden, conv_w, conv_b, w1, b1, w2, b2):
        arrays = (conv_w, conv_b, w1, b1, w2, b2)
        for name, arr, shape in zip(_ARRAY_NAMES, arrays, _param_shapes(w, filters, hidden)):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        self.w = w
        self.filters = filters
        self.hidden = hidden
        self.conv_w = conv_w
        self.conv_b = conv_b
        self.w1 = w1
        self.b1 = b1
        self.w2 = w2
        self.b2 = b2

    def arrays(self):
        """Parameter arrays in the frozen checkpoint/update order."""
        return (self.conv_w, self.conv_b, self.w1, self.b1, self.w2, self.b2)


def init_params(w, rng, filters=256, hidden=256):
    """Glorot-uniform weights, zero biases; draw order conv, dense1, dense2."""
    if w < 2:
        raise ValueError("input width must be at least 2")
    flat = 2 * (w - 1) * filters
    lim_c = math.sqrt(6.0 / (4 + 4 * filters))
    conv_w = rng.uniform(-lim_c, lim_c, size=(2, 2, 1, filters))
    lim_1 = math.sqrt(6.0 / (flat + hidden))
    w1 = rng.uniform(-lim_1, lim_1, size=(flat, hidden))
    lim_2 = math.sqrt(6.0 / (hidden + 1))
    w2 = rng.uniform(-lim_2, lim_2, size=(hidden, 1))
    return NetworkParams(
        w, filters, hidden,
        conv_w, np.zeros(filters), w1, np.zeros(hidden), w2, np.zeros(1),
    )


def _forward_cached(params, x):
    n, h, w, c = x.shape
    if (h, w, c) != (3, params.w, 1):
        raise ValueError(f"expected input shape (N, 3, {params.w}, 1), got {x.shape}")
    wo = w - 1
    z = np.broadcast_to(params.conv_b, (n, 2, wo, params.filters)).copy()
    for di in (0, 1):
        for dj in (0, 1):
            z += x[:, di:di + 2, dj:dj + wo, 0, np.newaxis] * params.conv_w[di, dj, 0]
    a = np.maximum(z, 0.0)
    flat = a.reshape(n, 2 * wo * params.filters)
    pre1 = flat @ params.w1 + params.b1
    hid = np.maximum(pre1, 0.0)
    out = hid @ params.w2 + params.b2
    return out, (x, z, flat, pre1, hid)


def forward(params, x):
    """Network output for a batch of shape (N, 3, w, 1); returns (N, 1)."""
    out, _ = _forward_cached(params, np.asarray(x, dtype=np.float64))
    return out


def loss_and_grad(params, x, y):
    """Mean squared error over a batch and its exact parameter gradients."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    out, (xc, z, flat, pre1, hid) = _forward_cached(params, x)
    resid = out - y
    loss = float(np.mean(resid**2))
    dout = (2.0 / n) * resid
    dw2 = hid.T @ dout
    db2 = dout.sum(axis=0)
    dhid = dout @ params.w2.T
    dpre1 = dhid * (pre1 > 0.0)
    dw1 = flat.T @ dpre1
    db1 = dpre1.sum(axis=0)
    dflat = dpre1 @ params.w1.T
    wo = params.w - 1
    dz = dflat.reshape(n, 2, wo, params.filters) * (z > 0.0)
    dconv_b = dz.sum(axis=(0, 1, 2))
    dconv_w = np.zeros_like(params.conv_w)
    for di in (0, 1):
        for dj in (0, 1):
            patch = xc[:, di:di + 2, dj:dj + wo, 0]
            dconv_w[di, dj, 0] = np.tensordot(patch, dz, axes=([0, 1, 2], [0, 1, 2]))
    return loss, (dconv_w, dconv_b, dw1, db1, dw2, db2)


def _flat_view(a):
    """A 1-D view of a C-contiguous array; writes through it reach a."""
    if not a.flags.c_contiguous:
        raise ValueError("Adam updates C-contiguous parameter arrays in place")
    return a.reshape(-1)


class Adam:
    """Adam state over the parameter arrays, epsilon outside the root.

    step() updates m, v and the parameters in place, _ADAM_BLOCK elements
    at a time, with the per-element operation order of the module docstring.
    """

    __slots__ = ("cfg", "m", "v", "t", "_s1", "_s2")

    def __init__(self, params, cfg):
        self.cfg = cfg
        self.m = [np.zeros_like(a) for a in params.arrays()]
        self.v = [np.zeros_like(a) for a in params.arrays()]
        self.t = 0
        size = min(_ADAM_BLOCK, max(a.size for a in params.arrays()))
        self._s1 = np.empty(size)
        self._s2 = np.empty(size)

    def step(self, params, grads):
        cfg = self.cfg
        self.t += 1
        b1, b2, lr, eps = cfg.beta1, cfg.beta2, cfg.learning_rate, cfg.epsilon
        c1 = 1.0 - b1
        c2 = 1.0 - b2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for a, g, m, v in zip(params.arrays(), grads, self.m, self.v):
            a = _flat_view(a)
            g = np.asarray(g, dtype=np.float64).reshape(-1)
            if g.size != a.size:
                raise ValueError(f"gradient of {g.size} elements for a parameter of {a.size}")
            m = m.reshape(-1)
            v = v.reshape(-1)
            for lo in range(0, a.size, _ADAM_BLOCK):
                hi = min(lo + _ADAM_BLOCK, a.size)
                ab, gb, mb, vb = a[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
                s1 = self._s1[:hi - lo]
                s2 = self._s2[:hi - lo]
                # m = beta1*m + (1-beta1)*g
                np.multiply(mb, b1, out=mb)
                np.multiply(gb, c1, out=s1)
                np.add(mb, s1, out=mb)
                # v = beta2*v + ((1-beta2)*g)*g
                np.multiply(vb, b2, out=vb)
                np.multiply(gb, c2, out=s1)
                np.multiply(s1, gb, out=s1)
                np.add(vb, s1, out=vb)
                # a -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
                np.divide(mb, bc1, out=s1)
                np.multiply(s1, lr, out=s1)
                np.divide(vb, bc2, out=s2)
                np.sqrt(s2, out=s2)
                np.add(s2, eps, out=s2)
                np.divide(s1, s2, out=s1)
                np.subtract(ab, s1, out=ab)


def split_indices(n, cfg, rng):
    """Shuffle 0..n-1; the last ceil(test_fraction * n) indices form the test set."""
    if n < 5:
        raise ValueError("need at least 5 records to split")
    perm = rng.permutation(n)
    n_test = math.ceil(cfg.test_fraction * n)
    return perm[: n - n_test], perm[n - n_test:]


class TrainedModel:
    """Trained parameters plus the target scaler and the config that made them."""

    __slots__ = ("params", "scaler", "cfg")

    def __init__(self, params, scaler, cfg):
        self.params = params
        self.scaler = scaler
        self.cfg = cfg

    def predict_raw(self, triple):
        """Prediction for one raw (v, u, t) integer triple, on the label scale."""
        out = forward(self.params, _features([triple]))
        return float(self.scaler.inverse_transform(out)[0, 0])


def train(records, cfg=None):
    """Train on a record list; returns (model, test indices, history).

    history is a list of (epoch, mean train MSE) pairs where the mean is
    taken over the batch losses of the epoch, weighted by batch size and
    measured before each update.
    """
    cfg = cfg or TrainConfig()
    x, y = features_and_labels(records)
    n = x.shape[0]
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    train_idx, test_idx = split_indices(n, cfg, rng)
    params = init_params(x.shape[2], rng, cfg.filters, cfg.hidden)
    scaler = TargetScaler.fit(y[train_idx])
    x_train = x[train_idx]
    y_train = scaler.transform(y[train_idx])
    adam = Adam(params, cfg)
    history = []
    n_train = len(train_idx)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_train)
        sse = 0.0
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = loss_and_grad(params, x_train[batch], y_train[batch])
            sse += loss * len(batch)
            adam.step(params, grads)
        history.append((epoch, sse / n_train))
    return TrainedModel(params, scaler, cfg), test_idx, history


def evaluate(model, records, test_idx):
    """Test MSE on standardized labels (the training-time loss scale)."""
    x, y = features_and_labels(records)
    out = forward(model.params, x[test_idx])
    resid = out - model.scaler.transform(y[test_idx])
    return float(np.mean(resid**2))


def mean_prediction(model, records, test_idx):
    """Mean of label-scale predictions over the test slice."""
    x, _ = features_and_labels(records)
    out = forward(model.params, x[test_idx])
    return float(np.mean(model.scaler.inverse_transform(out)))


def gradient_check(params, x, y, h=1e-5):
    """Max relative error between analytic and central finite-difference grads."""
    _, grads = loss_and_grad(params, x, y)
    worst = 0.0
    for arr, grad in zip(params.arrays(), grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(params, x, y)
            flat[i] = orig - h
            lm, _ = loss_and_grad(params, x, y)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            denom = max(abs(gflat[i]) + abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


def write_history(history, path):
    """Training history as a two-column CSV."""
    with open(path, "w") as fh:
        fh.write("epoch,train_mse\n")
        for epoch, mse in history:
            fh.write(f"{epoch},{mse!r}\n")


def save_checkpoint(model, path):
    """Serialize a model: magic, length-prefixed JSON header, raw float64 data.

    The byte stream is a pure function of the model contents, so reruns
    with identical parameters produce identical files.
    """
    header = {
        "version": 1,
        "w": model.params.w,
        "filters": model.params.filters,
        "hidden": model.params.hidden,
        "target_mean": model.scaler.mean,
        "target_std": model.scaler.std,
        "config": model.cfg.to_dict(),
        "arrays": [[name, list(arr.shape)]
                   for name, arr in zip(_ARRAY_NAMES, model.params.arrays())],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for arr in model.params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint.

    The header length, the array names and shapes, and the payload size
    are all checked against fixed caps, the header's widths and the file
    size before anything of that size is read or allocated.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        size_bytes = fh.read(8)
        if len(size_bytes) != 8:
            raise ValueError(f"{path}: truncated checkpoint")
        size = int.from_bytes(size_bytes, "little")
        if size > _MAX_HEADER_BYTES:
            raise ValueError(f"{path}: header length {size} exceeds {_MAX_HEADER_BYTES} bytes")
        blob = fh.read(size)
        if len(blob) != size:
            raise ValueError(f"{path}: truncated checkpoint")
        header = json.loads(blob.decode())
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header is not a JSON object")
        if header.get("version") != 1:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
        dims = [header.get(key) for key in ("w", "filters", "hidden")]
        if not all(type(d) is int for d in dims) or dims[0] < 2 or dims[1] < 1 or dims[2] < 1:
            raise ValueError(f"{path}: w must be an integer >= 2, "
                             "filters and hidden integers >= 1")
        expected = [[name, list(shape)] for name, shape in zip(_ARRAY_NAMES, _param_shapes(*dims))]
        if header.get("arrays") != expected:
            raise ValueError(f"{path}: arrays {header.get('arrays')!r} do not match "
                             f"w, filters and hidden, which imply {expected!r}")
        payload = 8 * sum(math.prod(shape) for _, shape in expected)
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if remaining < payload:
            raise ValueError(f"{path}: truncated checkpoint")
        if remaining > payload:
            raise ValueError(f"{path}: trailing bytes after checkpoint payload")
        arrays = []
        for _, shape in expected:
            count = math.prod(shape)
            data = fh.read(8 * count)
            if len(data) != 8 * count:
                raise ValueError(f"{path}: truncated checkpoint")
            arrays.append(np.frombuffer(data, dtype="<f8").reshape(shape).copy())
    params = NetworkParams(header["w"], header["filters"], header["hidden"], *arrays)
    try:
        scaler = TargetScaler(header["target_mean"], header["target_std"])
        cfg = TrainConfig.from_dict(header["config"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: bad checkpoint header: {exc!r}") from None
    return TrainedModel(params, scaler, cfg)
