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
        assert (model.predict(x) == y).all()

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
# forward, and fine-tuning), each with its own momentum update, plateau
# halving and best-epoch restore.

def reference_train_mlp(dataset, cfg, arch, class_names):
    x, y = dataset
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5eed)))
    model = C.init_mlp(x.shape[1], arch, len(class_names), class_names, seed=cfg.seed)
    perm = rng.permutation(len(x))
    n_val = int(round(cfg.validation_fraction * len(x)))
    n_val = min(max(n_val, 0), len(x) - 1)
    val_idx, train_idx = perm[len(x) - n_val:], perm[:len(x) - n_val]
    xt, yt = x[train_idx], y[train_idx]
    xv, yv = (x[val_idx], y[val_idx]) if n_val else (xt, yt)
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers]
    lr = cfg.learning_rate
    best = (np.inf, np.inf)
    best_layers = [(w.copy(), b.copy()) for w, b in model.layers]
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
                         for w, _ in model.layers[:-1]]
            loss, grads = C.loss_and_gradients(model, xt[idx], yt[idx],
                                               cfg.weight_decay, masks)
            epoch_loss += loss
            nb += 1
            for i, ((gw, gb), (vw, vb)) in enumerate(zip(grads, velocity)):
                vw *= cfg.momentum
                vw -= lr * gw
                vb *= cfg.momentum
                vb -= lr * gb
                w, b = model.layers[i]
                model.layers[i] = (w + vw, b + vb)
        val_probs = model.predict_proba(xv)
        val_err = float(np.mean(np.argmax(val_probs, axis=1) != yv))
        val_loss = C.cross_entropy(val_probs, yv)
        history.append({"epoch": epoch + 1, "train_loss": epoch_loss / max(nb, 1),
                        "val_error": val_err, "val_loss": val_loss, "lr": lr})
        if (val_err, val_loss) < best:
            best = (val_err, val_loss)
            best_layers = [(w.copy(), b.copy()) for w, b in model.layers]
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.plateau_patience:
                lr *= 0.5
                since_improve = 0
    if cfg.max_epochs > 0:
        model.layers = best_layers
    return model, history


def reference_lin_logits(adapted, x, keep_hidden=False):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    xt = adapted._transform(x)
    hidden = [xt]
    h = xt
    for w, b in adapted.base.layers[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
        hidden.append(h)
    logits = h @ adapted.out_w.T + adapted.out_b
    return (logits, hidden) if keep_hidden else logits


def reference_lin_loss(adapted, x, y):
    return C.cross_entropy(C.softmax(reference_lin_logits(adapted, x)), y)


def reference_lin_gradients(adapted, x, y, weight_decay):
    logits, hidden = reference_lin_logits(adapted, x, keep_hidden=True)
    probs = C.softmax(logits)
    n = len(y)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    g_out_w = delta.T @ hidden[-1] + weight_decay * adapted.out_w
    g_out_b = delta.sum(axis=0)
    delta = delta @ adapted.out_w
    for i in range(len(adapted.base.layers) - 2, -1, -1):
        delta = delta * (hidden[i + 1] > 0)
        delta = delta @ adapted.base.layers[i][0]
    frames = x.reshape(n, adapted.window, adapted.static_dim)
    dflat = delta.reshape(n, adapted.window, adapted.static_dim)
    g_w_lin = np.einsum("nwo,nwi->oi", dflat, frames) + weight_decay * adapted.w_lin
    g_b_lin = dflat.sum(axis=(0, 1))
    return {"w_lin": g_w_lin, "b_lin": g_b_lin, "out_w": g_out_w, "out_b": g_out_b}


def reference_adapt(model, x, y, mode, cfg, window, static_dim):
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xADA9)))
    if mode == "fine-tune":
        return reference_finetune(model, x, y, cfg, rng, window, static_dim)
    adapted = C.AdaptationModel(mode, model, window, static_dim)
    params = {"w_lin": adapted.w_lin, "b_lin": adapted.b_lin,
              "out_w": adapted.out_w, "out_b": adapted.out_b}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    lr = cfg.learning_rate
    history = [{"epoch": 0, "loss": reference_lin_loss(adapted, x, y)}]
    best = history[0]["loss"]
    best_state = {k: v.copy() for k, v in params.items()}
    since_improve = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads = reference_lin_gradients(adapted, x[idx], y[idx], cfg.weight_decay)
            for k in params:
                velocity[k] *= cfg.momentum
                velocity[k] -= lr * grads[k]
                params[k] += velocity[k]
        loss = reference_lin_loss(adapted, x, y)
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
    for k, v in best_state.items():
        params[k][...] = v
    return adapted, history


def reference_finetune(model, x, y, cfg, rng, window, static_dim):
    tuned = model.copy()
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in tuned.layers]
    lr = cfg.learning_rate
    history = [{"epoch": 0, "loss": C.cross_entropy(tuned.predict_proba(x), y)}]
    best = history[0]["loss"]
    best_layers = [(w.copy(), b.copy()) for w, b in tuned.layers]
    since_improve = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grads = C.loss_and_gradients(tuned, x[idx], y[idx], cfg.weight_decay)
            for i, ((gw, gb), (vw, vb)) in enumerate(zip(grads, velocity)):
                vw *= cfg.momentum
                vw -= lr * gw
                vb *= cfg.momentum
                vb -= lr * gb
                w, b = tuned.layers[i]
                tuned.layers[i] = (w + vw, b + vb)
        loss = C.cross_entropy(tuned.predict_proba(x), y)
        history.append({"epoch": epoch + 1, "loss": loss, "lr": lr})
        if loss < best:
            best = loss
            best_layers = [(w.copy(), b.copy()) for w, b in tuned.layers]
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.plateau_patience:
                lr *= 0.5
                since_improve = 0
    tuned.layers = best_layers
    return C.AdaptationModel("fine-tune", model, window, static_dim, tuned=tuned), history


def adapted_arrays(adapted):
    if adapted.mode == "fine-tune":
        return [a for layer in adapted.tuned.layers for a in layer]
    return [adapted.w_lin, adapted.b_lin, adapted.out_w, adapted.out_b]


def assert_arrays_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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
        assert_arrays_equal([a for l in model.layers for a in l],
                            [a for l in ref.layers for a in l])
        assert history == ref_history
        assert len(history) == max_epochs

    def test_train_mlp_oracle_covers_plateau_halving(self):
        x, y = make_data(n=83, d=6, classes=4, seed=21)
        cfg = C.TrainConfig(learning_rate=0.2, momentum=0.9, batch_size=16,
                            max_epochs=7, weight_decay=0.0, plateau_patience=1,
                            seed=4)
        _, history = C.train_mlp((x, y), cfg, [9, 7], ["a", "b", "c", "d"])
        assert history[-1]["lr"] < history[0]["lr"]

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
        before = [a.copy() for layer in base.layers for a in layer]
        cfg = C.TrainConfig(learning_rate=learning_rate, momentum=0.9, batch_size=10,
                            max_epochs=max_epochs, weight_decay=weight_decay,
                            plateau_patience=1, seed=2)
        adapted, history = C.adapt(base, (x, y), mode, cfg, window, static_dim)
        assert_arrays_equal([a for layer in base.layers for a in layer], before)
        ref, ref_history = reference_adapt(base, x, y, mode, cfg, window, static_dim)
        assert_arrays_equal(adapted_arrays(adapted), adapted_arrays(ref))
        assert history == ref_history
        assert len(history) == max_epochs + 1
        forward = ref.logits if mode == "fine-tune" else \
            (lambda x: reference_lin_logits(ref, x))
        assert np.array_equal(adapted.logits(x), forward(x))

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
