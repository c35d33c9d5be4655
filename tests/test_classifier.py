import numpy as np
import pytest

from segspell import classifier as C


def make_data(n=60, d=6, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, classes, size=n)
    return x, y


def small_model(d=6, classes=4, seed=1):
    return C.init_mlp(d, [8, 8], classes, ["c%d" % i for i in range(classes)],
                      seed=seed)


class TestForward:
    def test_softmax_uniform_on_zero_weights(self):
        model = small_model(d=5, classes=28)
        for w, b in model.layers:
            w[:] = 0.0
            b[:] = 0.0
        probs = model.predict_proba(np.ones((3, 5)))
        np.testing.assert_allclose(probs, 1.0 / 28, atol=1e-15)

    def test_softmax_shift_invariance(self):
        model = small_model()
        x = np.random.default_rng(0).normal(size=(10, 6))
        p1 = model.predict_proba(x)
        w, b = model.layers[-1]
        model.layers[-1] = (w, b + 3.25)
        p2 = model.predict_proba(x)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_distributions_normalized(self):
        model = small_model()
        x = np.random.default_rng(1).normal(size=(1000, 6))
        p = model.predict_proba(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p >= 0).all()

    def test_dimension_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((2, 7)))


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(3)
        model = small_model(seed=3)
        x, y = make_data(n=5, seed=3)
        decay = 1e-3
        _, grads = C.loss_and_gradients(model, x, y, weight_decay=decay)
        eps = 1e-5
        checked = 0
        for li, (w, b) in enumerate(model.layers):
            for arr, g in ((w, grads[li][0]), (b, grads[li][1])):
                flat = arr.ravel()
                gflat = np.asarray(g).ravel()
                for idx in rng.choice(flat.size, size=4, replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp, _ = C.loss_and_gradients(model, x, y, weight_decay=decay)
                    flat[idx] = orig - eps
                    lmn, _ = C.loss_and_gradients(model, x, y, weight_decay=decay)
                    flat[idx] = orig
                    fd = (lp - lmn) / (2 * eps)
                    rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), 1e-8)
                    assert rel < 1e-4, (li, idx, fd, gflat[idx])
                    checked += 1
        assert checked >= 20


class TestTraining:
    def test_zero_epochs_returns_initialization(self):
        x, y = make_data()
        cfg = C.TrainConfig(max_epochs=0, seed=5)
        model, history = C.train_mlp((x, y), cfg, [8], ["a", "b", "c", "d"])
        init = C.init_mlp(x.shape[1], [8], 4, ["a", "b", "c", "d"], seed=cfg.seed)
        for (w1, b1), (w2, b2) in zip(model.layers, init.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        assert history == []

    def test_separable_toy_reaches_perfect_accuracy(self):
        # two clusters separated along the first axis; verify separability
        # directly (a threshold classifier achieves it) before training
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(10, 3)) * 0.2 + np.array([2.0, 0, 0])
        x1 = rng.normal(size=(10, 3)) * 0.2 + np.array([-2.0, 0, 0])
        x = np.vstack([x0, x1])
        y = np.array([0] * 10 + [1] * 10)
        assert ((x[:, 0] > 0) == (y == 0)).all()  # separability oracle
        cfg = C.TrainConfig(learning_rate=0.1, momentum=0.9, batch_size=5,
                            max_epochs=50, weight_decay=0.0,
                            validation_fraction=0.0, seed=7)
        model, _ = C.train_mlp((x, y), cfg, [8], ["a", "b"])
        assert (np.argmax(model.predict_proba(x), axis=1) == y).all()

    def test_training_bit_reproducible(self):
        x, y = make_data(seed=11)
        cfg = C.TrainConfig(max_epochs=5, seed=11, dropout=0.3)
        m1, h1 = C.train_mlp((x, y), cfg, [8], ["a", "b", "c", "d"])
        m2, h2 = C.train_mlp((x, y), cfg, [8], ["a", "b", "c", "d"])
        for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)
        assert h1 == h2

    def test_missing_class_warns(self):
        x, y = make_data()
        y = np.where(y == 3, 0, y)
        cfg = C.TrainConfig(max_epochs=1, seed=0)
        with pytest.warns(UserWarning, match="absent"):
            C.train_mlp((x, y), cfg, [4], ["a", "b", "c", "d"])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            C.train_mlp((np.zeros((0, 3)), np.zeros(0, dtype=int)),
                        C.TrainConfig(), [4], ["a"])

    @pytest.mark.parametrize("field, value", [
        ("dropout", 1.0), ("dropout", 1.5), ("dropout", -0.1),
        ("validation_fraction", 1.0), ("validation_fraction", -0.1)])
    def test_fraction_fields_bounded(self, field, value):
        with pytest.raises(ValueError, match=field + " must be"):
            C.TrainConfig(**{field: value})

    def test_learning_curve_csv(self):
        x, y = make_data()
        cfg = C.TrainConfig(max_epochs=3, seed=2)
        _, history = C.train_mlp((x, y), cfg, [6], ["a", "b", "c", "d"])
        csv = C.history_csv(history)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("epoch,")
        assert len(lines) == 4


class TestAdaptation:
    window, static_dim = 3, 4

    def base_and_data(self):
        rng = np.random.default_rng(13)
        base = C.init_mlp(self.window * self.static_dim, [10], 5,
                          list("abcde"), seed=13)
        x = rng.normal(size=(40, self.window * self.static_dim))
        y = rng.integers(0, 5, size=40)
        return base, x, y

    def test_lin_up_identity_at_init_bitwise(self):
        base, x, _ = self.base_and_data()
        adapted = C.AdaptationModel("LIN+UP", base, self.window, self.static_dim)
        np.testing.assert_array_equal(adapted.logits(x), base.forward(x))

    def test_lin_lon_identity_at_init_bitwise(self):
        base, x, _ = self.base_and_data()
        adapted = C.AdaptationModel("LIN+LON", base, self.window, self.static_dim)
        np.testing.assert_array_equal(adapted.logits(x), base.forward(x))

    def test_zero_epoch_adapt_returns_identity(self):
        base, x, y = self.base_and_data()
        for mode in ("LIN+UP", "LIN+LON", "fine-tune"):
            cfg = C.TrainConfig(max_epochs=0, seed=1)
            adapted, history = C.adapt(base, (x, y), mode, cfg,
                                       self.window, self.static_dim)
            np.testing.assert_array_equal(adapted.logits(x), base.forward(x))
            assert len(history) == 1  # the epoch-0 record

    def test_finetune_strictly_reduces_cross_entropy(self):
        base, x, y = self.base_and_data()
        cfg = C.TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=10,
                            max_epochs=5, weight_decay=0.0, seed=2)
        adapted, history = C.adapt(base, (x, y), "fine-tune", cfg,
                                   self.window, self.static_dim)
        final = C.cross_entropy(adapted.predict_proba(x), y)
        assert final < history[0]["loss"]

    def test_lin_modes_improve_loss(self):
        base, x, y = self.base_and_data()
        cfg = C.TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=10,
                            max_epochs=8, weight_decay=0.0, seed=3)
        for mode in ("LIN+UP", "LIN+LON"):
            adapted, history = C.adapt(base, (x, y), mode, cfg,
                                       self.window, self.static_dim)
            assert min(h["loss"] for h in history) < history[0]["loss"]

    def test_lin_gradients_match_finite_differences(self):
        base, x, y = self.base_and_data()
        adapted = C.AdaptationModel("LIN+UP", base, self.window, self.static_dim)
        rng = np.random.default_rng(4)
        adapted.w_lin += 0.1 * rng.normal(size=adapted.w_lin.shape)
        grads = C._lin_gradients(adapted, x, y, 0.0)
        eps = 1e-6
        for name, arr in (("w_lin", adapted.w_lin), ("out_b", adapted.out_b)):
            flat = arr.ravel()
            gflat = grads[name].ravel()
            for idx in rng.choice(flat.size, size=3, replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp = C._adapted_loss(adapted, x, y)
                flat[idx] = orig - eps
                lm = C._adapted_loss(adapted, x, y)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - gflat[idx]) / max(abs(fd), 1e-8) < 1e-3

    def test_unknown_mode_rejected(self):
        base, x, y = self.base_and_data()
        with pytest.raises(ValueError):
            C.adapt(base, (x, y), "mystery", C.TrainConfig(), 3, 4)

    def test_adapted_model_roundtrip(self, tmp_path):
        base, x, y = self.base_and_data()
        cfg = C.TrainConfig(max_epochs=2, seed=5)
        for mode in ("LIN+UP", "LIN+LON", "fine-tune"):
            adapted, _ = C.adapt(base, (x, y), mode, cfg, self.window, self.static_dim)
            path = str(tmp_path / ("m_%s.json" % mode.replace("+", "_")))
            adapted.save(path)
            loaded = C.load_classifier(path)
            np.testing.assert_allclose(loaded.logits(x), adapted.logits(x), atol=1e-12)


class TestTandemObservation:
    def test_letter_block_is_28(self):
        post = C.FramePosteriors(letters=np.full(28, 1.0 / 28))
        block = C.classifier_block(post, "letter")
        assert block.shape == (28,)

    def test_feature_block_is_26(self):
        sizes = {"SF POR": 4, "SF joints": 7, "SF quantity": 5,
                 "SF thumb": 3, "SF handpart": 4, "UF": 3}
        post = C.FramePosteriors(features={k: np.full(v, 1.0 / v)
                                           for k, v in sizes.items()})
        block = C.classifier_block(post, "feature", feature_order=sorted(sizes))
        assert block.shape == (26,)

    def test_log_floor(self):
        post = C.FramePosteriors(letters=np.zeros(28))
        obs = C.build_tandem_observation(post, np.zeros(4), "letter",
                                         transform="log")
        np.testing.assert_allclose(obs[:28], np.log(1e-10), atol=1e-12)

    def test_missing_classifier_rejected(self):
        post = C.FramePosteriors()
        with pytest.raises(ValueError):
            C.build_tandem_observation(post, np.zeros(4), "letter")

    def test_pca_applied_and_concatenated(self):
        from segspell.vision import fit_pca
        rng = np.random.default_rng(0)
        posts = rng.random((30, 28))
        imgs = rng.normal(size=(30, 6))
        p1 = fit_pca(posts, 5)
        p2 = fit_pca(imgs, 3)
        post = C.FramePosteriors(letters=posts[0])
        obs = C.build_tandem_observation(post, imgs[0], "letter", p1, p2)
        assert obs.shape == (8,)


# ---------------------------------------------------------------------------
# Oracle for the shared SGD loop: test-local copies of the three loops it
# replaced (plain training, the LIN adaptation loop with its own hidden-layer
# forward, and fine-tuning), each with its own per-array momentum update,
# plateau halving and best-epoch restore.  They run on test-local copies of
# the allocating forward pass, softmax, cross-entropy and gradients that the
# flat-vector step replaced, so the oracle shares no arithmetic with the code
# it checks.

def ref_forward(layers, x, keep_hidden=False, dropout_masks=None):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    hidden = [x]
    h = x
    for i, (w, b) in enumerate(layers[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
        if dropout_masks is not None:
            h = h * dropout_masks[i]
        hidden.append(h)
    w, b = layers[-1]
    logits = h @ w.T + b
    return (logits, hidden) if keep_hidden else logits


def ref_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ref_cross_entropy(probs, labels):
    return float(-np.mean(np.log(np.maximum(probs[np.arange(len(labels)), labels],
                                            C.LOG_FLOOR))))


def ref_loss_and_gradients(layers, x, labels, weight_decay=0.0, dropout_masks=None):
    logits, hidden = ref_forward(layers, x, keep_hidden=True, dropout_masks=dropout_masks)
    probs = ref_softmax(logits)
    n = len(labels)
    loss = ref_cross_entropy(probs, labels)
    if weight_decay:
        loss += 0.5 * weight_decay * sum(float(np.sum(w * w)) for w, _ in layers)
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = delta.T @ hidden[i] + weight_decay * w
        gb = delta.sum(axis=0)
        grads[i] = (gw, gb)
        if i > 0:
            delta = delta @ w
            if dropout_masks is not None:
                delta = delta * dropout_masks[i - 1]
            delta = delta * (hidden[i] > 0)
    return loss, grads


def ref_momentum_step(layers, velocity, grads, lr, cfg):
    for i, ((gw, gb), (vw, vb)) in enumerate(zip(grads, velocity)):
        vw *= cfg.momentum
        vw -= lr * gw
        vb *= cfg.momentum
        vb -= lr * gb
        w, b = layers[i]
        layers[i] = (w + vw, b + vb)


def reference_train_mlp(dataset, cfg, arch, class_names):
    """(the trained layers' arrays, history)"""
    x, y = dataset
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5eed)))
    init = C.init_mlp(x.shape[1], arch, len(class_names), class_names, seed=cfg.seed)
    layers = [(w.copy(), b.copy()) for w, b in init.layers]
    perm = rng.permutation(len(x))
    n_val = int(round(cfg.validation_fraction * len(x)))
    n_val = min(max(n_val, 0), len(x) - 1)
    val_idx, train_idx = perm[len(x) - n_val:], perm[:len(x) - n_val]
    xt, yt = x[train_idx], y[train_idx]
    xv, yv = (x[val_idx], y[val_idx]) if n_val else (xt, yt)
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    lr = cfg.learning_rate
    best = (np.inf, np.inf)
    best_layers = [(w.copy(), b.copy()) for w, b in layers]
    since_improve = 0
    history = []
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(xt))
        epoch_loss = 0.0
        nb = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            masks = None
            if cfg.dropout > 0:
                masks = [(rng.random((len(idx), w.shape[0])) >= cfg.dropout)
                         / (1.0 - cfg.dropout)
                         for w, _ in layers[:-1]]
            loss, grads = ref_loss_and_gradients(layers, xt[idx], yt[idx],
                                                 cfg.weight_decay, masks)
            epoch_loss += loss
            nb += 1
            ref_momentum_step(layers, velocity, grads, lr, cfg)
        val_probs = ref_softmax(ref_forward(layers, xv))
        val_err = float(np.mean(np.argmax(val_probs, axis=1) != yv))
        val_loss = ref_cross_entropy(val_probs, yv)
        history.append({"epoch": epoch + 1, "train_loss": epoch_loss / max(nb, 1),
                        "val_error": val_err, "val_loss": val_loss, "lr": lr})
        if (val_err, val_loss) < best:
            best = (val_err, val_loss)
            best_layers = [(w.copy(), b.copy()) for w, b in layers]
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.plateau_patience:
                lr *= 0.5
                since_improve = 0
    if cfg.max_epochs > 0:
        layers = best_layers
    return [a for layer in layers for a in layer], history


def reference_lin_logits(base, params, x, window, static_dim, keep_hidden=False):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    frames = x.reshape(len(x), window, static_dim)
    xt = (frames @ params["w_lin"].T + params["b_lin"]).reshape(len(x), -1)
    return ref_forward(base.layers[:-1] + [(params["out_w"], params["out_b"])], xt,
                       keep_hidden)


def reference_lin_loss(base, params, x, y, window, static_dim):
    return ref_cross_entropy(ref_softmax(reference_lin_logits(base, params, x, window,
                                                              static_dim)), y)


def reference_lin_gradients(base, params, x, y, weight_decay, window, static_dim):
    logits, hidden = reference_lin_logits(base, params, x, window, static_dim,
                                          keep_hidden=True)
    probs = ref_softmax(logits)
    n = len(y)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    g_out_w = delta.T @ hidden[-1] + weight_decay * params["out_w"]
    g_out_b = delta.sum(axis=0)
    delta = delta @ params["out_w"]
    for i in range(len(base.layers) - 2, -1, -1):
        delta = delta * (hidden[i + 1] > 0)
        delta = delta @ base.layers[i][0]
    frames = x.reshape(n, window, static_dim)
    dflat = delta.reshape(n, window, static_dim)
    g_w_lin = np.einsum("nwo,nwi->oi", dflat, frames) + weight_decay * params["w_lin"]
    g_b_lin = dflat.sum(axis=(0, 1))
    return {"w_lin": g_w_lin, "b_lin": g_b_lin, "out_w": g_out_w, "out_b": g_out_b}


def reference_adapt(model, x, y, mode, cfg, window, static_dim):
    """(the adapted arrays in ``adapted_arrays`` order, history)"""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xADA9)))
    if mode == "fine-tune":
        return reference_finetune(model, x, y, cfg, rng)
    w0, b0 = model.layers[-1]
    params = {"w_lin": np.eye(static_dim), "b_lin": np.zeros(static_dim),
              "out_w": w0.copy(), "out_b": b0.copy()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    lr = cfg.learning_rate
    history = [{"epoch": 0,
                "loss": reference_lin_loss(model, params, x, y, window, static_dim)}]
    best = history[0]["loss"]
    best_state = {k: v.copy() for k, v in params.items()}
    since_improve = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads = reference_lin_gradients(model, params, x[idx], y[idx],
                                            cfg.weight_decay, window, static_dim)
            for k in params:
                velocity[k] *= cfg.momentum
                velocity[k] -= lr * grads[k]
                params[k] += velocity[k]
        loss = reference_lin_loss(model, params, x, y, window, static_dim)
        history.append({"epoch": epoch + 1, "loss": loss, "lr": lr})
        if loss < best:
            best = loss
            best_state = {k: v.copy() for k, v in params.items()}
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.plateau_patience:
                lr *= 0.5
                since_improve = 0
    return [best_state[k] for k in ("w_lin", "b_lin", "out_w", "out_b")], history


def reference_finetune(model, x, y, cfg, rng):
    layers = [(w.copy(), b.copy()) for w, b in model.layers]
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    lr = cfg.learning_rate
    history = [{"epoch": 0, "loss": ref_cross_entropy(ref_softmax(ref_forward(layers, x)), y)}]
    best = history[0]["loss"]
    best_layers = [(w.copy(), b.copy()) for w, b in layers]
    since_improve = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grads = ref_loss_and_gradients(layers, x[idx], y[idx], cfg.weight_decay)
            ref_momentum_step(layers, velocity, grads, lr, cfg)
        loss = ref_cross_entropy(ref_softmax(ref_forward(layers, x)), y)
        history.append({"epoch": epoch + 1, "loss": loss, "lr": lr})
        if loss < best:
            best = loss
            best_layers = [(w.copy(), b.copy()) for w, b in layers]
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.plateau_patience:
                lr *= 0.5
                since_improve = 0
    return [a for layer in best_layers for a in layer], history


def reference_logits(mode, base, arrays, x, window, static_dim):
    if mode == "fine-tune":
        return ref_forward(list(zip(arrays[0::2], arrays[1::2])), x)
    params = dict(zip(("w_lin", "b_lin", "out_w", "out_b"), arrays))
    return reference_lin_logits(base, params, x, window, static_dim)


def adapted_arrays(adapted):
    if adapted.mode == "fine-tune":
        return [a for layer in adapted.tuned.layers for a in layer]
    return [adapted.w_lin, adapted.b_lin, adapted.out_w, adapted.out_b]


def assert_arrays_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def protocol_shaped_data(n, seed):
    """n frames of the protocol's 100 inputs (a window of 5 x 20) and 28
    classes."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 100)), rng.integers(0, 28, size=n)


class TestSgdOracle:
    """train_mlp and adapt, both on the shared loop, against the copies above:
    weights np.array_equal, histories ==."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("validation_fraction", [0.0, 0.1])
    @pytest.mark.parametrize("max_epochs, weight_decay, patience", [
        (0, 1e-5, 2), (7, 0.0, 1), (7, 1e-4, 2)])
    def test_train_mlp_equals_reference(self, dropout, validation_fraction,
                                        max_epochs, weight_decay, patience):
        x, y = make_data(n=83, d=6, classes=4, seed=21)
        cfg = C.TrainConfig(learning_rate=0.2, momentum=0.9, batch_size=16,
                            max_epochs=max_epochs, weight_decay=weight_decay,
                            dropout=dropout, validation_fraction=validation_fraction,
                            plateau_patience=patience, seed=4)
        names = ["a", "b", "c", "d"]
        model, history = C.train_mlp((x, y), cfg, [9, 7], names)
        ref, ref_history = reference_train_mlp((x, y), cfg, [9, 7], names)
        assert_arrays_equal([a for l in model.layers for a in l], ref)
        assert history == ref_history
        assert len(history) == max_epochs

    @pytest.mark.parametrize("weight_decay, dropout", [(1e-5, 0.0), (0.0, 0.0), (1e-5, 0.2)])
    def test_train_mlp_equals_reference_at_protocol_shapes(self, weight_decay, dropout):
        # 471 training frames: four batches of 100 and a partial one of 71
        x, y = protocol_shaped_data(523, seed=31)
        cfg = C.TrainConfig(learning_rate=0.05, max_epochs=4, weight_decay=weight_decay,
                            dropout=dropout, plateau_patience=1, seed=6)
        names = ["c%d" % i for i in range(28)]
        model, history = C.train_mlp((x, y), cfg, [64, 64], names)
        ref, ref_history = reference_train_mlp((x, y), cfg, [64, 64], names)
        assert_arrays_equal([a for l in model.layers for a in l], ref)
        assert history == ref_history

    def test_train_mlp_oracle_covers_plateau_halving(self):
        x, y = make_data(n=83, d=6, classes=4, seed=21)
        cfg = C.TrainConfig(learning_rate=0.2, momentum=0.9, batch_size=16,
                            max_epochs=7, weight_decay=0.0, plateau_patience=1,
                            seed=4)
        _, history = C.train_mlp((x, y), cfg, [9, 7], ["a", "b", "c", "d"])
        assert history[-1]["lr"] < history[0]["lr"]

    def check_adapt(self, base, x, y, cfg, mode, window, static_dim):
        before = [a.copy() for layer in base.layers for a in layer]
        adapted, history = C.adapt(base, (x, y), mode, cfg, window, static_dim)
        assert_arrays_equal([a for layer in base.layers for a in layer], before)
        ref, ref_history = reference_adapt(base, x, y, mode, cfg, window, static_dim)
        assert_arrays_equal(adapted_arrays(adapted), ref)
        assert history == ref_history
        assert len(history) == cfg.max_epochs + 1
        assert np.array_equal(adapted.logits(x),
                              reference_logits(mode, base, ref, x, window, static_dim))

    @pytest.mark.parametrize("mode", ["LIN+UP", "LIN+LON", "fine-tune"])
    @pytest.mark.parametrize("learning_rate, max_epochs, weight_decay", [
        (0.05, 6, 0.0), (0.05, 6, 1e-4), (0.05, 0, 1e-5), (40.0, 3, 0.0)])
    def test_adapt_equals_reference(self, mode, learning_rate, max_epochs,
                                    weight_decay):
        window, static_dim = 3, 4
        rng = np.random.default_rng(13)
        base = C.init_mlp(window * static_dim, [10, 6], 5, list("abcde"), seed=13)
        x = rng.normal(size=(47, window * static_dim))
        y = rng.integers(0, 5, size=47)
        cfg = C.TrainConfig(learning_rate=learning_rate, momentum=0.9, batch_size=10,
                            max_epochs=max_epochs, weight_decay=weight_decay,
                            plateau_patience=1, seed=2)
        self.check_adapt(base, x, y, cfg, mode, window, static_dim)

    @pytest.mark.parametrize("mode", ["LIN+UP", "fine-tune"])
    @pytest.mark.parametrize("weight_decay", [1e-5, 0.0])
    def test_adapt_equals_reference_at_protocol_shapes(self, mode, weight_decay):
        # 250 frames: two batches of 100 and a partial one of 50
        x, y = protocol_shaped_data(250, seed=32)
        base = C.init_mlp(100, [64, 64], 28, ["c%d" % i for i in range(28)], seed=7)
        cfg = C.TrainConfig(learning_rate=0.05, max_epochs=3, weight_decay=weight_decay,
                            plateau_patience=1, seed=8)
        self.check_adapt(base, x, y, cfg, mode, 5, 20)

    def test_adapt_oracle_covers_restore_of_start(self):
        # with a huge rate no epoch beats the epoch-0 loss, so the loop must
        # hand back the starting parameters
        window, static_dim = 3, 4
        rng = np.random.default_rng(13)
        base = C.init_mlp(window * static_dim, [10, 6], 5, list("abcde"), seed=13)
        x = rng.normal(size=(47, window * static_dim))
        y = rng.integers(0, 5, size=47)
        cfg = C.TrainConfig(learning_rate=40.0, momentum=0.9, batch_size=10,
                            max_epochs=3, weight_decay=0.0, seed=2)
        adapted, history = C.adapt(base, (x, y), "fine-tune", cfg, window, static_dim)
        assert min(h["loss"] for h in history[1:]) > history[0]["loss"]
        assert_arrays_equal(adapted_arrays(adapted),
                            [a for layer in base.layers for a in layer])

    def test_lin_up_and_lin_lon_are_identical(self):
        # both LIN modes train W_LIN, b_LIN and a copy of the softmax layer
        # from the same start; a LIN+LON with its own output network must
        # change this test and the AdaptationModel docstring together
        window, static_dim = 3, 4
        rng = np.random.default_rng(17)
        base = C.init_mlp(window * static_dim, [10], 5, list("abcde"), seed=17)
        x = rng.normal(size=(40, window * static_dim))
        y = rng.integers(0, 5, size=40)
        cfg = C.TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=10,
                            max_epochs=5, weight_decay=1e-4, seed=3)
        up, h_up = C.adapt(base, (x, y), "LIN+UP", cfg, window, static_dim)
        lon, h_lon = C.adapt(base, (x, y), "LIN+LON", cfg, window, static_dim)
        assert_arrays_equal(adapted_arrays(up), adapted_arrays(lon))
        assert h_up == h_lon


class TestFlatParameters:
    """Trained layers are views of one vector; copies and saved models hold
    the same values in their own vectors."""

    def test_trained_model_survives_copy_and_save_load(self, tmp_path):
        x, y = protocol_shaped_data(300, seed=33)
        cfg = C.TrainConfig(max_epochs=2, seed=9)
        model, _ = C.train_mlp((x, y), cfg, [64, 64], ["c%d" % i for i in range(28)])
        assert all(np.shares_memory(a, model.params) for l in model.layers for a in l)
        model.save(str(tmp_path / "m.json"))
        for other in (model.copy(), C.MlpModel.load(str(tmp_path / "m.json"))):
            assert not np.shares_memory(other.params, model.params)
            assert np.array_equal(other.params, model.params)
            assert_arrays_equal([a for l in other.layers for a in l],
                                [a for l in model.layers for a in l])
            assert np.array_equal(other.forward(x), model.forward(x))
        copy = model.copy()
        copy.layers[0][0][0, 0] += 1.0
        assert copy.params[0] == model.params[0] + 1.0

    @pytest.mark.parametrize("mode", ["LIN+UP", "fine-tune"])
    def test_adapted_model_survives_save_load(self, tmp_path, mode):
        x, y = protocol_shaped_data(200, seed=34)
        base = C.init_mlp(100, [64, 64], 28, ["c%d" % i for i in range(28)], seed=7)
        adapted, _ = C.adapt(base, (x, y), mode, C.TrainConfig(max_epochs=2, seed=1), 5, 20)
        assert all(np.shares_memory(a, adapted.params) for a in adapted_arrays(adapted))
        adapted.save(str(tmp_path / "a.json"))
        loaded = C.load_classifier(str(tmp_path / "a.json"))
        assert np.array_equal(loaded.params, adapted.params)
        assert_arrays_equal(adapted_arrays(loaded), adapted_arrays(adapted))
        assert np.array_equal(loaded.logits(x), adapted.logits(x))
