"""Multilayer-perceptron frame classifiers, signer adaptation, and tandem
observation construction.

Networks are fully-connected ReLU stacks with a softmax output, trained by
minibatch SGD with momentum on an L2-regularized cross-entropy loss, in
float64 and bit-reproducible for a fixed seed.  The LIN adaptation modes graft
a per-frame affine input transform and a trainable copy of the softmax layer
onto the frozen hidden layers; fine-tune retrains a copy of the whole network.
At their initializations they reproduce the unadapted outputs exactly.
Training and every adaptation mode share one SGD loop, ``_sgd``.
Each parameter set it trains is one flat float64 vector, ``params``: weight
matrices first, then biases, each array a view of it.  Gradients are written
into views of a vector of the same layout, so a step's momentum update is a
few whole-vector operations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fileio import DataError, check_fields, in_file, read_model, shaped_array, write_json
from .vision import apply_pca

LOG_FLOOR = 1e-10


@dataclass
class TrainConfig:
    learning_rate: float = in_file(default=0.01, at_least=0)
    momentum: float = in_file(default=0.95, at_least=0)
    batch_size: int = in_file(default=100, at_least=1)
    max_epochs: int = in_file(default=30, at_least=0)
    weight_decay: float = in_file(default=1e-5, at_least=0)
    # a dropout of 1 would divide the masks by zero
    dropout: float = in_file(default=0.0, at_least=0, below=1)
    validation_fraction: float = in_file(default=0.1, at_least=0, below=1)
    plateau_patience: int = 2   # epochs without val improvement before halving
    seed: int = 0
    section: str = in_file(None, default="classifier")   # the config section, named in errors

    def __post_init__(self):
        check_fields(self)


class MlpModel:
    """Weights plus class names; layers[i] = (W, b) with W shaped (out, in),
    views of ``params`` (every W, then every b), to be changed in place."""

    SCHEMA = "segspell-mlp-1"

    def __init__(self, layers, class_names):
        self.layers = list(layers)    # like() reads the shapes from these
        self.params = np.concatenate([np.ravel(a) for part in zip(*self.layers) for a in part],
                                     dtype=np.float64)
        self.layers = self.like(self.params)
        self.class_names = list(class_names)
        if self.layers[-1][0].shape[0] != len(self.class_names):
            raise ValueError("output layer size does not match class count")

    @property
    def input_dim(self):
        return self.layers[0][0].shape[1]

    @property
    def num_classes(self):
        return len(self.class_names)

    def copy(self):
        return MlpModel(self.layers, self.class_names)

    def like(self, flat):
        """[(W, b)] views of a vector laid out like ``params``."""
        views = _views(flat, [a for part in zip(*self.layers) for a in part])
        return list(zip(views[:len(self.layers)], views[len(self.layers):]))

    def forward(self, x, keep_hidden=False, dropout_masks=None):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ValueError("input dim %d does not match model dim %d"
                             % (x.shape[1], self.input_dim))
        return _forward(self.layers, x, keep_hidden, dropout_masks)

    def predict_proba(self, x):
        return softmax(self.forward(x))

    def to_jsonable(self):
        return {
            "schema": self.SCHEMA,
            "arch": [w.shape[1] for w, _ in self.layers] + [self.layers[-1][0].shape[0]],
            "class_names": self.class_names,
            "layers": [{"W": w.tolist(), "b": b.tolist()} for w, b in self.layers],
        }

    @classmethod
    def from_jsonable(cls, obj):
        """Refuses another schema and layers that do not chain from the
        input to one output per class (DataError)."""
        if obj.get("schema") != cls.SCHEMA:
            raise DataError("unsupported model schema: %r" % obj.get("schema"))
        layers, width = [], None
        for i, layer in enumerate(obj["layers"]):
            w = shaped_array(layer["W"], (None, width), "layer %d W" % i)
            layers.append((w, shaped_array(layer["b"], (len(w),), "layer %d b" % i)))
            width = len(w)
        if width != len(obj["class_names"]):
            raise DataError("output layer of %s units for %d classes"
                            % (width, len(obj["class_names"])))
        return cls(layers, obj["class_names"])

    def save(self, path):
        write_json(path, self.to_jsonable())

    @classmethod
    def load(cls, path):
        return read_model(path, cls.from_jsonable)


def _views(flat, arrays):
    """Views of the vector ``flat`` shaped like ``arrays``, end to end."""
    cuts = np.cumsum([np.size(a) for a in arrays])[:-1]
    return [v.reshape(np.shape(a)) for v, a in zip(np.split(flat, cuts), arrays)]


def _forward(layers, x, keep_hidden=False, dropout_masks=None):
    """Logits of the ReLU stack ``layers`` on rows x (and each layer's input)."""
    hidden = [x]
    for i, (w, b) in enumerate(layers):
        h = hidden[-1] @ w.T
        h += b
        if i == len(layers) - 1:
            return (h, hidden) if keep_hidden else h
        np.maximum(h, 0.0, out=h)
        if dropout_masks is not None:
            h *= dropout_masks[i]
        hidden.append(h)


def softmax(logits):
    """Softmax over the last axis, computed in place in ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def init_mlp(input_dim, hidden, num_classes, class_names, seed=0):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dims = [input_dim] + list(hidden) + [num_classes]
    layers = []
    for i in range(len(dims) - 1):
        scale = np.sqrt(2.0 / dims[i])
        layers.append((rng.normal(0.0, scale, size=(dims[i + 1], dims[i])),
                       np.zeros(dims[i + 1])))
    return MlpModel(layers, class_names)


def cross_entropy(probs, labels):
    p = np.maximum(probs[np.arange(len(labels)), labels], LOG_FLOOR)
    return float(-(np.log(p, out=p).sum() / len(p)))


def loss_and_gradients(model, x, labels, weight_decay=0.0, dropout_masks=None, grads=None):
    """Regularized cross-entropy and its gradient for every layer.

    loss = mean CE + 0.5 * weight_decay * sum ||W||^2   (biases unpenalized)

    The gradient goes into ``grads``, ``model.like`` views of a vector laid
    out like ``model.params`` (new ones when None); returns (loss, grads)."""
    logits, hidden = model.forward(x, keep_hidden=True, dropout_masks=dropout_masks)
    probs = softmax(logits)
    loss = cross_entropy(probs, labels)
    if weight_decay:
        loss += 0.5 * weight_decay * sum(float((w * w).sum()) for w, _ in model.layers)
    return loss, _backprop(model, probs, hidden, labels, weight_decay, dropout_masks, grads)


def _backprop(model, delta, hidden, labels, weight_decay, dropout_masks=None, grads=None):
    """``loss_and_gradients``' gradient from its forward pass: the softmax
    outputs ``delta`` (overwritten) and the hidden activations."""
    grads = model.like(np.empty_like(model.params)) if grads is None else grads
    n = len(labels)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    for i in range(len(model.layers) - 1, -1, -1):
        (w, _), (gw, gb) = model.layers[i], grads[i]
        np.matmul(delta.T, hidden[i], out=gw)
        gw += weight_decay * w    # also when 0, which turns a -0.0 into 0.0
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = delta @ w
            if dropout_masks is not None:
                delta *= dropout_masks[i - 1]
            delta *= hidden[i] > 0
    return grads


def train_mlp(dataset, cfg, arch, class_names):
    """Train a classifier on (windows, labels); returns (model, history).

    The validation split comes off the end of a seeded permutation; the
    learning rate halves after ``plateau_patience`` epochs without
    improvement in validation (error, loss), and the weights of the best
    validation epoch are returned.  history is a list of per-epoch records
    suitable for the CSV learning-curve log.
    """
    x, y = dataset
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if len(x) == 0:
        raise ValueError("empty training set")
    present = np.unique(y)
    if len(present) < len(class_names):
        missing = [class_names[i] for i in range(len(class_names)) if i not in set(present)]
        warnings.warn("classes absent from training data: %s" % ", ".join(map(str, missing)))

    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5eed)))
    model = init_mlp(x.shape[1], arch, len(class_names), class_names, seed=cfg.seed)

    perm = rng.permutation(len(x))
    n_val = min(int(round(cfg.validation_fraction * len(x))), len(x) - 1)
    val_idx, train_idx = perm[len(x) - n_val:], perm[:len(x) - n_val]
    xt, yt = x[train_idx], y[train_idx]
    xv, yv = (x[val_idx], y[val_idx]) if n_val else (xt, yt)

    grad = np.empty_like(model.params)
    grads = model.like(grad)

    def step(idx):
        masks = [(rng.random((len(idx), w.shape[0])) >= cfg.dropout) / (1.0 - cfg.dropout)
                 for w, _ in model.layers[:-1]] if cfg.dropout > 0 else None
        return loss_and_gradients(model, xt[idx], yt[idx], cfg.weight_decay, masks,
                                  grads)[0], grad

    def evaluate(train_loss):
        val_probs = model.predict_proba(xv)
        val_err = float(np.mean(np.argmax(val_probs, axis=1) != yv))
        val_loss = cross_entropy(val_probs, yv)
        return (val_err, val_loss), {"train_loss": train_loss, "val_error": val_err,
                                     "val_loss": val_loss}

    history = _sgd(model.params, step, evaluate, (np.inf, np.inf), len(xt), cfg, rng)
    return model, history


def _sgd(params, step, evaluate, best, n, cfg, rng):
    """Minibatch SGD with momentum on the flat vector ``params``, in place.

    Each epoch visits a fresh permutation of the n examples in batches;
    ``step(idx)`` returns (loss, gradient), a vector laid out like params
    (weights first, then biases), as is the velocity.  After each epoch
    ``evaluate(mean batch loss)`` returns (key, record); the learning rate
    halves after ``plateau_patience`` epochs whose key does not beat the
    best, and the parameters of the best epoch (the starting ones if none
    beats ``best``) are restored at the end.  Returns the epoch records.
    An overflow, an invalid operation or a NaN or infinity in the record
    is divergence: DataError naming the epoch and the learning rate's config field.
    """
    velocity = np.zeros_like(params)
    best_params = params.copy()
    lr = cfg.learning_rate
    since_improve = 0
    history = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(cfg.max_epochs):
                order = rng.permutation(n)
                total, batches = 0.0, 0
                for start in range(0, n, cfg.batch_size):
                    loss, grad = step(order[start:start + cfg.batch_size])
                    total += loss
                    batches += 1
                    velocity *= cfg.momentum
                    velocity -= lr * grad
                    params += velocity
                key, record = evaluate(total / max(batches, 1))
                history.append({"epoch": epoch + 1, **record, "lr": lr})
                if not np.isfinite(list(record.values())).all():
                    raise FloatingPointError(", ".join("%s %s" % kv for kv in record.items()))
                if key < best:
                    best, since_improve = key, 0
                    best_params = params.copy()
                else:
                    since_improve += 1
                    if since_improve >= cfg.plateau_patience:
                        lr *= 0.5
                        since_improve = 0
    except FloatingPointError as e:
        raise DataError("%s.learning_rate: training diverged at epoch %d (%s); lower it"
                        % (cfg.section, epoch + 1, e)) from None
    params[...] = best_params
    return history


def history_csv(history):
    lines = ["epoch,train_loss,val_error,val_loss,lr"]
    for h in history:
        lines.append("%d,%r,%r,%r,%r" % (h["epoch"], h["train_loss"],
                                         h["val_error"], h["val_loss"], h["lr"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Signer adaptation

MODES = ("LIN+UP", "LIN+LON", "fine-tune")
LIN_PARAMS = ("w_lin", "out_w", "b_lin", "out_b")   # their order in params


class AdaptationModel:
    """Adapted classifier; behaves like MlpModel for prediction.

    LIN modes apply an affine transform to each static per-frame descriptor
    of the input window (shared across the window) before the frozen hidden
    layers of the base network, and carry their own softmax layer, a copy of
    the base's.  LIN+UP and LIN+LON train the same four arrays (W_LIN, b_LIN
    and the softmax layer) from the same start, so they give identical models
    and histories; they are views of ``params``, in ``LIN_PARAMS`` order.
    fine-tune carries a fully retrained copy of the base and its ``params``.
    """

    def __init__(self, mode, base, window, static_dim,
                 w_lin=None, b_lin=None, out_w=None, out_b=None, tuned=None):
        if mode not in MODES:
            raise ValueError("unknown adaptation mode %r" % (mode,))
        self.mode = mode
        self.base = base
        self.window = window
        self.static_dim = static_dim
        if mode == "fine-tune":
            self.tuned = tuned if tuned is not None else base.copy()
            self.params = self.tuned.params
        else:
            w0, b0 = base.layers[-1]
            start = [np.eye(static_dim) if w_lin is None else w_lin, w0 if out_w is None else out_w,
                     np.zeros(static_dim) if b_lin is None else b_lin, b0 if out_b is None else out_b]
            self.params = np.concatenate([np.ravel(a) for a in start], dtype=np.float64)
            self.w_lin, self.out_w, self.b_lin, self.out_b = _views(self.params, start)
            if self.w_lin.shape != (static_dim, static_dim):
                raise ValueError("W_LIN must be square over the static descriptor")

    @property
    def class_names(self):
        return self.base.class_names

    def like(self, flat):
        """Views of a vector laid out like ``params``, by name in the LIN modes."""
        return self.tuned.like(flat) if self.mode == "fine-tune" else dict(
            zip(LIN_PARAMS, _views(flat, [getattr(self, k) for k in LIN_PARAMS])))

    def _transform(self, x):
        n = x.shape[0]
        frames = x.reshape(n, self.window, self.static_dim)
        return (frames @ self.w_lin.T + self.b_lin).reshape(n, -1)

    def logits(self, x, keep_hidden=False):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.mode == "fine-tune":
            return self.tuned.forward(x, keep_hidden=keep_hidden)
        return _forward(self.base.layers[:-1] + [(self.out_w, self.out_b)],
                        self._transform(x), keep_hidden)

    forward = logits

    def predict_proba(self, x):
        return softmax(self.logits(x))

    SCHEMA = "segspell-adapted-mlp-1"

    def to_jsonable(self):
        obj = {"schema": self.SCHEMA, "mode": self.mode, "window": self.window,
               "static_dim": self.static_dim, "base": self.base.to_jsonable()}
        if self.mode == "fine-tune":
            obj["tuned"] = self.tuned.to_jsonable()
        else:
            obj.update({"w_lin": self.w_lin.tolist(), "b_lin": self.b_lin.tolist(),
                        "out_w": self.out_w.tolist(), "out_b": self.out_b.tolist()})
        return obj

    @classmethod
    def from_jsonable(cls, obj):
        """Refuses another schema or mode, a window that does not fill the
        base's input, and an adapted part whose shapes do not fit the base
        (DataError)."""
        if obj.get("schema") != cls.SCHEMA or obj.get("mode") not in MODES:
            raise DataError("unsupported model schema or mode: %r, %r"
                            % (obj.get("schema"), obj.get("mode")))
        base = MlpModel.from_jsonable(obj["base"])
        window, static_dim = obj["window"], obj["static_dim"]
        if window * static_dim != base.input_dim:
            raise DataError("window %r x static_dim %r does not fill the base's %d inputs"
                            % (window, static_dim, base.input_dim))
        if obj["mode"] == "fine-tune":
            tuned = MlpModel.from_jsonable(obj["tuned"])
            if [w.shape for w, _ in tuned.layers] != [w.shape for w, _ in base.layers]:
                raise DataError("tuned layers differ in shape from the base's")
            return cls("fine-tune", base, window, static_dim, tuned=tuned)
        w0 = base.layers[-1][0]
        return cls(obj["mode"], base, window, static_dim,
                   w_lin=shaped_array(obj["w_lin"], (static_dim,) * 2, "w_lin"),
                   b_lin=shaped_array(obj["b_lin"], (static_dim,), "b_lin"),
                   out_w=shaped_array(obj["out_w"], w0.shape, "out_w"),
                   out_b=shaped_array(obj["out_b"], (len(w0),), "out_b"))

    def save(self, path):
        write_json(path, self.to_jsonable())


def load_classifier(path):
    """Load either a plain or an adapted classifier from JSON."""
    return read_model(path, lambda obj: (
        AdaptationModel if obj.get("schema") == AdaptationModel.SCHEMA else MlpModel
    ).from_jsonable(obj))


def adapt(model, adaptation_set, mode, cfg, window, static_dim):
    """Adapt a trained classifier to a new signer.

    ``adaptation_set`` is (windows, labels) with frame classes from
    ground-truth peaks or forced alignment.  Returns (AdaptationModel,
    history); history[0] records the epoch-0 (unadapted) loss and the model
    of the best epoch by adaptation-set cross-entropy is returned.
    """
    x, y = adaptation_set
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if len(x) == 0:
        raise ValueError("empty adaptation set")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xADA9)))
    adapted = AdaptationModel(mode, model, window, static_dim)
    grad = np.empty_like(adapted.params)
    grads = adapted.like(grad)

    def step(idx):   # evaluate ignores the batch loss, so none is computed
        if mode == "fine-tune":
            logits, hidden = adapted.tuned.forward(x[idx], keep_hidden=True)
            _backprop(adapted.tuned, softmax(logits), hidden, y[idx], cfg.weight_decay,
                      grads=grads)
        else:
            _lin_gradients(adapted, x[idx], y[idx], cfg.weight_decay, grads)
        return 0.0, grad

    def evaluate(_):
        loss = _adapted_loss(adapted, x, y)
        return loss, {"loss": loss}

    start = _adapted_loss(adapted, x, y)
    history = _sgd(adapted.params, step, evaluate, start, len(x), cfg, rng)
    return adapted, [{"epoch": 0, "loss": start}] + history


def _adapted_loss(adapted, x, y):
    return cross_entropy(softmax(adapted.logits(x)), y)


def _lin_gradients(adapted, x, y, weight_decay, g=None):
    """The LIN parameters' gradient, written into and returned as ``g``,
    ``adapted.like`` views (new ones when None)."""
    g = adapted.like(np.empty_like(adapted.params)) if g is None else g
    logits, hidden = adapted.logits(x, keep_hidden=True)
    delta = softmax(logits)
    n = len(y)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    np.matmul(delta.T, hidden[-1], out=g["out_w"])
    g["out_w"] += weight_decay * adapted.out_w
    delta.sum(axis=0, out=g["out_b"])
    delta = delta @ adapted.out_w
    for i in range(len(adapted.base.layers) - 2, -1, -1):
        delta *= hidden[i + 1] > 0
        delta = delta @ adapted.base.layers[i][0]
    frames = x.reshape(n, adapted.window, adapted.static_dim)
    dflat = delta.reshape(n, adapted.window, adapted.static_dim)
    np.einsum("nwo,nwi->oi", dflat, frames, out=g["w_lin"])
    g["w_lin"] += weight_decay * adapted.w_lin
    dflat.sum(axis=(0, 1), out=g["b_lin"])
    return g


# ---------------------------------------------------------------------------
# Tandem observations

def tandem_transform(block, transform):
    """Classifier outputs as the tandem front end takes them: as they are
    ('linear') or their log, floored at ``LOG_FLOOR`` ('log')."""
    if transform == "log":
        return np.log(np.maximum(block, LOG_FLOOR))
    if transform != "linear":
        raise ValueError("transform must be 'linear' or 'log'")
    return block


def build_tandem_observation(letter_post, descriptors, pca_post, pca_image, transform):
    """Tandem observations: letter posteriors, ``tandem_transform``ed and
    reduced by ``pca_post``, concatenated with the descriptors reduced by
    ``pca_image``.  (T, classes) posteriors and (T, dim) descriptors give
    (T, .); one frame of each gives one vector."""
    return np.concatenate([apply_pca(pca_post, tandem_transform(letter_post, transform)),
                           apply_pca(pca_image, descriptors)], axis=-1)
