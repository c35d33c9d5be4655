"""Experiment engine: tandem recognizer assembly, splits, adaptation runs,
the full evaluation protocol (dependent / independent / adapted rows) and
the two-pass segmental cascade.

A recognizer bundle is (frame classifier, PCA pair, letter HMM, bigram LM)
plus the frontend settings used to build tandem observations.  The
protocol mirrors the recording-and-evaluation design: per-signer 10-fold
signer-dependent runs reported over 8 folds, leave-one-signer-out
signer-independent runs, and signer-adapted runs that fine-tune only the
frame classifiers on a fraction of the test signer's data labeled either
from ground truth or from forced alignments.  The cascade runs in the
adapted setting; ``cascade_recognizers`` builds its recognizers for every
caller.
"""

from __future__ import annotations

import logging
import os
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .alphabet import BEGIN_SILENCE, END_SILENCE, LetterAlphabet
from .classifier import (AdaptationModel, TrainConfig, adapt, build_tandem_observation,
                         load_classifier, tandem_transform, train_mlp)
from .fileio import DataError, FieldError, check_fields, in_file, read_model, write_json
from .hmm import (DecodeConfig, LetterHmm, build_decode_graph, forced_align, nbest, train_em,
                  unit_transitions, viterbi_decode)
from .lm import load_arpa, train_bigram
from .metrics import score_corpus
from .scrf import (BaselineFeature, ClassifierStatFeature, FeatureContext,
                   FirstPassFeatures, LmFeature, PeakFeature, ScrfConfig, SegmentalModel,
                   TrainingExample, build_second_pass, nbest_decode, rescore,
                   span_thirds, train_cll, viterbi as scrf_viterbi)
from .segments import NoPathError, frame_labels, letters_only
from .vision import PcaModel, fit_pca, stack_windows

log = logging.getLogger(__name__)


@dataclass
class FrontendConfig:
    window: int = in_file(default=5, at_least=1)   # odd: centred on its frame
    pca_classifier: int = in_file(default=12, at_least=1)
    pca_image: int = in_file(default=10, at_least=1)
    transform: str = in_file(default="linear", choices=("linear", "log"))  # of posteriors

    def __post_init__(self):
        check_fields(self)
        if self.window % 2 != 1:
            raise FieldError("window", "odd", self.window)


@dataclass
class PipelineConfig:
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    arch: tuple[int, ...] = in_file("classifier.arch", default=(64, 64), at_least=1)
    # stage seeds derive from ``seed``, the plateau patience is fixed, and
    # adaptation trains without dropout or a validation split
    train: TrainConfig = in_file(
        "classifier", ("seed", "plateau_patience"), default_factory=lambda: TrainConfig(
            learning_rate=0.02, momentum=0.9, max_epochs=14))
    adapt_train: TrainConfig = in_file(
        "adaptation", ("seed", "plateau_patience", "dropout", "validation_fraction"),
        default_factory=lambda: TrainConfig(
            learning_rate=0.01, momentum=0.9, max_epochs=16, validation_fraction=0.0,
            section="adaptation"))
    letter_states: int = in_file("hmm.letter_states", default=3, at_least=1)
    silence_states: int = in_file("hmm.silence_states", default=9, at_least=1)
    gmm_components: int = in_file("hmm.gmm_components", default=2, at_least=1)
    em_iters: int = in_file("hmm.em_iters", default=2, at_least=0)
    decode: DecodeConfig = in_file("hmm.decode", default_factory=DecodeConfig)
    folds: int = in_file(default=10, at_least=3)   # test, held-out and training folds
    report_folds: int = in_file(default=8, at_least=1)
    adapt_fraction: float = in_file("adaptation.fraction", default=0.2, above=0, below=1)
    seed: int = in_file(default=20160825, at_least=0)   # NumPy seeds are non-negative

    def __post_init__(self):
        check_fields(self)
        if self.report_folds > self.folds:
            raise FieldError("report_folds", "at most folds=%d" % self.folds,
                             self.report_folds)


@dataclass
class Recognizer:
    classifier: object           # MlpModel or AdaptationModel
    pca_post: object
    pca_image: object
    hmm: object
    lm: object
    cfg: PipelineConfig

    def posteriors(self, word):
        windows = stack_windows(word.descriptors, self.cfg.frontend.window)
        return self.classifier.predict_proba(windows)

    def observations(self, word, post=None):
        """Tandem observations (T, dim) of a word from its letter posteriors
        and descriptors; ``post`` are those posteriors when the caller
        already has them."""
        if post is None:
            post = self.posteriors(word)
        return build_tandem_observation(post, word.descriptors, self.pca_post,
                                        self.pca_image, self.cfg.frontend.transform)


def ground_truth_frame_labels(word, alphabet):
    return [alphabet.letter_index(l) for l in frame_labels(word.segments, word.num_frames)]


def frame_dataset(words, alphabet, window, labels=ground_truth_frame_labels):
    """Stacked windows and integer frame labels (``labels(word, alphabet)``,
    ground truth by default), pooled over words."""
    return (np.concatenate([stack_windows(w.descriptors, window) for w in words]),
            np.asarray([y for ys in each_word(lambda w: labels(w, alphabet), words)
                        for y in ys], dtype=int))


def train_frame_classifier(words, alphabet, cfg, seed_offset=0):
    x, y = frame_dataset(words, alphabet, cfg.frontend.window)
    tcfg = replace(cfg.train, seed=cfg.seed + seed_offset)
    model, history = train_mlp((x, y), tcfg, list(cfg.arch), list(alphabet.symbols))
    return model, history


def fit_frontend_pcas(words, posts, cfg):
    """Separate PCA models for the classifier block and the image block,
    fit on the training words and their frame posteriors."""
    posts = tandem_transform(np.concatenate(posts), cfg.frontend.transform)
    descs = np.concatenate([w.descriptors for w in words])
    k1 = min(cfg.frontend.pca_classifier, posts.shape[1], len(posts) - 1)
    k2 = min(cfg.frontend.pca_image, descs.shape[1], len(descs) - 1)
    return fit_pca(posts, k1), fit_pca(descs, k2)


def assemble_recognizer(train_words, alphabet, cfg, classifier, lm):
    """Tandem recognizer around a trained frame classifier and an LM: fit
    the PCA pair and train the HMM on the training set's observations.
    Returns (recognizer, per-iteration EM log-likelihoods)."""
    rec = Recognizer(classifier, None, None, None, lm, cfg)
    posts = [rec.posteriors(w) for w in train_words]
    pca_post, pca_img = fit_frontend_pcas(train_words, posts, cfg)
    rec = replace(rec, pca_post=pca_post, pca_image=pca_img)
    seqs = [rec.observations(w, post) for w, post in zip(train_words, posts)]
    hmm_model, loglik = train_em(
        seqs, [w.letters for w in train_words], list(alphabet.letters)
        + list(alphabet.doubled), seqs[0].shape[1],
        segmentations=[w.segments for w in train_words],
        iters=cfg.em_iters, letter_states=cfg.letter_states,
        silence_states=cfg.silence_states, components=cfg.gmm_components)
    return replace(rec, hmm=hmm_model), loglik


def build_recognizer(train_words, alphabet, cfg, lm_words=None, seed_offset=0):
    """Train the full tandem recognizer on one training set."""
    classifier, _ = train_frame_classifier(train_words, alphabet, cfg, seed_offset)
    words_for_lm = lm_words if lm_words is not None else \
        sorted({w.word for w in train_words})
    lm = train_bigram(words_for_lm, alphabet)
    return assemble_recognizer(train_words, alphabet, cfg, classifier, lm)[0]


def each_word(fn, words):
    """[fn(w) for w in words]; a NoPathError raised for a word carries that
    word as ``word``, unless a nested call already set it, so its message
    names the word's file."""
    out = []
    for w in words:
        try:
            out.append(fn(w))
        except NoPathError as e:
            if e.word is None:
                e.word = w
            raise
    return out


def decode_words(recognizer, words):
    """Tandem Viterbi decode, one word after another; returns [(reference
    letters, hypothesis letters)] with boundary silences stripped.  The
    decode graph is built once for all words."""
    graph = build_decode_graph(recognizer.hmm, recognizer.lm, recognizer.cfg.decode)
    return each_word(lambda w: (w.letters, viterbi_decode(
        recognizer.hmm, recognizer.lm, recognizer.observations(w), recognizer.cfg.decode,
        graph)[0]), words)


def evaluate(recognizer, words):
    return score_corpus(decode_words(recognizer, words))


# ---------------------------------------------------------------------------
# Splits

def dependent_folds(words, n_folds, seed):
    """Deterministic shuffle of one signer's word tokens into folds;
    DataError when a fold would be empty."""
    if len(words) < n_folds:
        raise DataError("signer %s has %d word(s), fewer than folds=%d"
                        % (words[0].signer_id, len(words), n_folds))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF01D)))
    order = rng.permutation(len(words))
    folds = [[] for _ in range(n_folds)]
    for i, idx in enumerate(order):
        folds[i % n_folds].append(words[idx])
    return folds


def adaptation_split(words, fraction, seed, evaluated=True):
    """Adaptation subset vs evaluation remainder for one signer; DataError
    when the subset would be empty, or the remainder when ``evaluated``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xADA7)))
    order = rng.permutation(len(words))
    n_adapt = int(round(fraction * len(words)))
    if not n_adapt or evaluated and n_adapt == len(words):
        raise DataError("signer %s has %d word(s): adaptation.fraction %g leaves no word to %s"
                        % (words[0].signer_id, len(words), fraction,
                           "evaluate" if n_adapt else "adapt on"))
    adapt_idx = set(order[:n_adapt].tolist())
    adapt_words = [words[i] for i in sorted(adapt_idx)]
    eval_words = [words[i] for i in range(len(words)) if i not in adapt_idx]
    return adapt_words, eval_words


# ---------------------------------------------------------------------------
# Adaptation

def forced_alignment_frame_labels(recognizer, word, alphabet):
    obs = recognizer.observations(word)
    segs, _ = forced_align(recognizer.hmm, obs, word.letters)
    return [alphabet.letter_index(l) for l in frame_labels(segs, word.num_frames)]


def adapt_recognizer(recognizer, adapt_words, alphabet, mode="fine-tune",
                     label_source="GT", seed_offset=0):
    """Adapt the frame classifier only; PCA, HMM and LM stay fixed."""
    cfg = recognizer.cfg
    if label_source == "GT":
        labels = ground_truth_frame_labels
    elif label_source == "FA":
        labels = partial(forced_alignment_frame_labels, recognizer)
    else:
        raise ValueError("label_source must be 'GT' or 'FA'")
    x, y = frame_dataset(adapt_words, alphabet, cfg.frontend.window, labels)
    base = recognizer.classifier
    if isinstance(base, AdaptationModel):
        base = base.base
    tcfg = replace(cfg.adapt_train, seed=cfg.seed + 7000 + seed_offset)
    static_dim = adapt_words[0].descriptors.shape[1]
    adapted, history = adapt(base, (x, y), mode, tcfg,
                             cfg.frontend.window, static_dim)
    return replace(recognizer, classifier=adapted), history


def realign_adapt(recognizer, adapt_words, eval_words, alphabet, iters=2):
    """Iterated forced-alignment adaptation: align with the current
    recognizer, fine-tune the classifier from its signer-independent
    initialization on those labels, re-align with the adapted recognizer,
    and repeat.  Returns (final recognizer, per-iteration LER list)."""
    lers = []
    current = recognizer
    for it in range(iters):
        adapted, _ = adapt_recognizer(current, adapt_words, alphabet,
                                      mode="fine-tune", label_source="FA",
                                      seed_offset=100 + it)
        lers.append(evaluate(adapted, eval_words)["ler"])
        current = adapted
    return current, lers


# ---------------------------------------------------------------------------
# Protocol

def split_by_signer(corpus):
    """The corpus's words per signer id, signers in order of first word."""
    out = {}
    for w in corpus.words:
        out.setdefault(w.signer_id, []).append(w)
    return out


PROTOCOL_ROWS = ("independent", "FA", "GT", "dependent")


def run_protocol(corpus, cfg=None, rows=PROTOCOL_ROWS):
    """The full evaluation protocol on a synthetic corpus.

    Emits a table shaped like the headline letter-error-rate table: one row
    per training condition (signer-independent, forced-alignment adapted,
    ground-truth adapted, signer-dependent), one column per signer plus the
    mean, each cell a letter error rate with its D/S/I decomposition.  The
    signers are those with words.  Progress goes to this module's logger at
    INFO.
    """
    cfg = cfg or PipelineConfig()
    alphabet = LetterAlphabet()
    by_signer = split_by_signer(corpus)
    signer_ids = list(by_signer)
    if len(signer_ids) < 2:
        raise DataError("protocol needs at least 2 signers with words for leave-one-out")
    lm_words = corpus.word_list
    details = {row: {} for row in rows}
    if "dependent" in rows:
        for si, sid in enumerate(signer_ids):
            folds = dependent_folds(by_signer[sid], cfg.folds, cfg.seed + si)
            fold_scores = []
            pooled = []
            for f in range(cfg.report_folds):
                test = folds[f]
                train = [w for g, fold in enumerate(folds) if g != f
                         and g != (f + 1) % cfg.folds for w in fold]
                rec = build_recognizer(train, alphabet, cfg, lm_words,
                                       seed_offset=si * 100 + f)
                pairs = decode_words(rec, test)
                pooled.extend(pairs)
                fold_scores.append(score_corpus(pairs)["ler"])
                log.info("dependent %s fold %d: LER %.2f", sid, f, fold_scores[-1])
            scores = score_corpus(pooled)
            details["dependent"][sid] = scores

    independents = {}
    if any(r in rows for r in ("independent", "FA", "GT")):
        for si, sid in enumerate(signer_ids):
            train = [w for other in signer_ids if other != sid
                     for w in by_signer[other]]
            independents[sid] = build_recognizer(train, alphabet, cfg, lm_words,
                                                 seed_offset=1000 + si)
            log.info("independent recognizer for %s trained", sid)

    if "independent" in rows:
        for sid in signer_ids:
            scores = evaluate(independents[sid], by_signer[sid])
            details["independent"][sid] = scores
            log.info("independent %s: LER %.2f", sid, scores["ler"])

    for row, source in (("GT", "GT"), ("FA", "FA")):
        if row not in rows:
            continue
        for si, sid in enumerate(signer_ids):
            adapt_words, eval_words = adaptation_split(
                by_signer[sid], cfg.adapt_fraction, cfg.seed + si)
            adapted, _ = adapt_recognizer(independents[sid], adapt_words,
                                          alphabet, "fine-tune", source,
                                          seed_offset=si)
            scores = evaluate(adapted, eval_words)
            details[row][sid] = scores
            log.info("%s-adapted %s: LER %.2f", source, sid, scores["ler"])

    ler = {}
    for row in rows:
        vals = [details[row][sid]["ler"] for sid in signer_ids]
        ler[row] = dict(zip(signer_ids, vals), Mean=float(np.mean(vals)))
    return {"rows": list(rows), "signers": signer_ids,
            "ler": ler, "details": {
                row: {sid: {k: details[row][sid][k]
                            for k in ("ler", "D_rate", "S_rate", "I_rate", "N")}
                      for sid in signer_ids}
                for row in rows}}


ROW_TITLES = {"independent": "Signer-independent",
              "FA": "Forced align.",
              "GT": "Ground truth",
              "dependent": "Signer-dependent"}


def format_protocol_table(report):
    signers = report["signers"]
    header = ["%-20s" % "Condition"] + ["%8s" % s for s in signers] + ["%8s" % "Mean"]
    lines = ["".join(header)]
    for row in report["rows"]:
        cells = ["%-20s" % ROW_TITLES.get(row, row)]
        cells += ["%8.2f" % report["ler"][row][s] for s in signers]
        cells += ["%8.2f" % report["ler"][row]["Mean"]]
        lines.append("".join(cells))
    lines.append("")
    lines.append("D/S/I decomposition (% of reference letters):")
    for row in report["rows"]:
        for s in signers:
            d = report["details"][row][s]
            lines.append("  %-18s %s  D %6.2f  S %6.2f  I %6.2f"
                         % (ROW_TITLES.get(row, row), s,
                            d["D_rate"], d["S_rate"], d["I_rate"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Lattices for the segmental models

def nbest_lattices(recognizer, words, n=None):
    cfg = recognizer.cfg.decode if n is None else replace(recognizer.cfg.decode, nbest=n)
    policy = unit_transitions(recognizer.hmm, recognizer.lm, cfg)
    return each_word(lambda w: nbest(recognizer.hmm, recognizer.lm,
                                     recognizer.observations(w), cfg, policy), words)


# ---------------------------------------------------------------------------
# Segmental models: first-pass training, rescoring, and the cascade

def make_context(recognizer, word, lm=None, baseline_frames=None):
    return FeatureContext(word.num_frames,
                          letter_posteriors=recognizer.posteriors(word),
                          descriptors=word.descriptors,
                          lm=lm, baseline_frames=baseline_frames)


def _full_space_examples(recognizer, words):
    """Full-space CLL examples of ``words``, less those whose reference
    label sequence has adjacent identical letters: a segment boundary must
    change the label, so such references admit no segmentation
    (doubled-letter tokens cover that case when enabled)."""
    return [TrainingExample(make_context(recognizer, w), list(w.labels), list(w.segments))
            for w in words if not any(a == b for a, b in zip(w.labels, w.labels[1:]))]


def build_firstpass_model(alphabet, num_classes, scfg):
    """First-pass segmental model; the average-posterior weight of each
    label's own classifier class starts positive, so the initial model is
    already a per-segment posterior decoder that training then refines."""
    feat = FirstPassFeatures(num_classes, scfg.max_duration)
    model = SegmentalModel(alphabet.symbols, [feat], max_duration=scfg.max_duration,
                           min_letter_duration=scfg.min_letter_duration,
                           initial_labels={BEGIN_SILENCE}, final_labels={END_SILENCE})
    for li in range(min(num_classes, len(model.labels))):
        model.weights[li * feat.block + li] = scfg.init_scale
    return model


def train_firstpass(recognizer, train_words, alphabet, scfg=ScrfConfig()):
    """First-pass segmental model trained by full-space CLL."""
    model = build_firstpass_model(alphabet, len(recognizer.classifier.class_names), scfg)
    return model, train_cll(model, _full_space_examples(recognizer, train_words), scfg)


def firstpass_decode(model, recognizer, words):
    return each_word(lambda w: (w.letters, letters_only(
        scrf_viterbi(model, make_context(recognizer, w))[0])), words)


def build_rescoring_model(alphabet, num_classes, scfg):
    """Rescoring segmental model over baseline lattices: LM probability,
    baseline-consistency, per-label classifier span statistics, and peak
    detection features."""
    feats = [LmFeature(), BaselineFeature()] + [
        ClassifierStatFeature(kind, num_classes) for kind in ("mean", "max")]
    model = SegmentalModel(alphabet.symbols, feats + [PeakFeature()],
                           max_duration=scfg.max_duration,
                           min_letter_duration=scfg.min_letter_duration)
    model.weights[0] = 1.0   # start from the LM
    model.weights[1] = 0.5   # and trust the baseline a little
    return model


def train_rescoring(recognizer, train_words, alphabet, scfg=ScrfConfig(), lattices=None):
    """Rescoring SCRF trained by lattice-restricted CLL over baseline
    N-best lattices; when not supplied, the recognizer's ``nbest_lattices``,
    the size ``rescore_words`` decodes on."""
    num_classes = len(recognizer.classifier.class_names)
    model = build_rescoring_model(alphabet, num_classes, scfg)
    if lattices is None:
        lattices = nbest_lattices(recognizer, train_words)
    data = []
    for w, lattice in zip(train_words, lattices):
        ctx = make_context(recognizer, w, lm=recognizer.lm,
                           baseline_frames=lattice.baseline_frames)
        data.append(TrainingExample(ctx, list(w.labels), list(w.segments), lattice))
    history = train_cll(model, data, scfg)
    return model, history


def rescore_words(model, recognizer, words, lattices=None):
    if lattices is None:
        lattices = nbest_lattices(recognizer, words)
    return [(w.letters, letters_only(rescore(model, lattice, make_context(
        recognizer, w, lm=recognizer.lm, baseline_frames=lattice.baseline_frames))[0]))
        for w, lattice in zip(words, lattices)]


def load_scrf(path, recognizer, alphabet, scfg=ScrfConfig()):
    """Rebuild a saved segmental model: the first-pass feature set when the
    stored manifest names only ``firstpass``, else the rescoring set that
    ``build_rescoring_model`` builds.  The weights then load with a manifest
    check, which refuses a model of any other feature set (DataError)."""
    num_classes = len(recognizer.classifier.class_names)

    def build(obj):
        names = [m["name"] for m in obj.get("manifest", [])]
        cfg = replace(scfg, max_duration=obj.get("max_duration", scfg.max_duration),
                      min_letter_duration=obj.get("min_letter_duration",
                                                  scfg.min_letter_duration))
        build_model = build_firstpass_model if names == ["firstpass"] else build_rescoring_model
        return build_model(alphabet, num_classes, cfg)

    return read_model(path, build).load_weights(path)


def train_segment_classifier(recognizer, train_words, alphabet, cfg):
    """Segment-level classifier on ground-truth segments: input is the
    fixed-dimension summary (means of the span's thirds of the frame
    posteriors, as ``SegmentClassifierFeature`` reads them), output the
    segment label."""
    xs, ys = [], []
    for w in train_words:
        post = recognizer.posteriors(w)
        for seg in w.segments:
            xs.append(span_thirds(post[seg.start:seg.end + 1], np.mean))
            ys.append(alphabet.letter_index(seg.label))
    tcfg = replace(cfg.adapt_train, seed=cfg.seed + 9000)
    model, _ = train_mlp((np.asarray(xs), np.asarray(ys, dtype=int)), tcfg,
                         list(cfg.arch), list(alphabet.symbols))
    return model


def cascade_recognizers(train_words, target_words, alphabet, cfg, lm_words=None):
    """The cascade's recognizers: one built on ``train_words`` (its LM on
    ``lm_words``, as in ``build_recognizer``), and a copy fine-tuned on the
    ground-truth labels of the test signer's adaptation words.  Returns
    (train recognizer, adapted recognizer, the rest of ``target_words``)."""
    adapt_words, eval_words = adaptation_split(target_words, cfg.adapt_fraction, cfg.seed)
    rec_train = build_recognizer(train_words, alphabet, cfg, lm_words)
    rec_eval, _ = adapt_recognizer(rec_train, adapt_words, alphabet)
    return rec_train, rec_eval, eval_words


def run_cascade(recognizer_train, recognizer_eval, train_words, eval_words,
                alphabet, cfg, scfg=ScrfConfig()):
    """Two-pass discriminative segmental cascade.

    The first-pass model and the second-pass features train on the training
    signers' recognizer; evaluation runs with the (possibly adapted)
    recognizer for the test signer.  Returns first- and second-pass LERs.
    """
    first, _ = train_firstpass(recognizer_train, train_words, alphabet, scfg)

    seg_mlp = train_segment_classifier(recognizer_train, train_words, alphabet, cfg)
    second = build_second_pass(first, seg_mlp)
    train_cll(second, [replace(ex, lattice=nbest_decode(first, ex.ctx, scfg.nbest))
                       for ex in _full_space_examples(recognizer_train, train_words)], scfg)

    def both_passes(w):
        ctx = make_context(recognizer_eval, w)
        lattice = nbest_decode(first, ctx, scfg.nbest)
        return ((w.letters, letters_only(list(lattice.hypotheses[0].labels))),
                (w.letters, letters_only(rescore(second, lattice, ctx)[0])))

    pairs = each_word(both_passes, eval_words)
    first_pairs, second_pairs = [p for p, _ in pairs], [p for _, p in pairs]
    return {"first_ler": score_corpus(first_pairs)["ler"],
            "second_ler": score_corpus(second_pairs)["ler"],
            "first_pairs": first_pairs, "second_pairs": second_pairs}


# ---------------------------------------------------------------------------
# Recognizer bundles on disk.  A bundle stores what training fitted and the
# front end it was fitted for; decode settings come from the decoding run's
# config (a ``decode`` block in an older frontend.json is ignored).

def save_recognizer(rec, directory):
    os.makedirs(directory, exist_ok=True)
    rec.classifier.save(os.path.join(directory, "classifier.json"))
    write_json(os.path.join(directory, "pca.json"),
               {"classifier_block": rec.pca_post.to_jsonable(),
                "image_block": rec.pca_image.to_jsonable()})
    rec.hmm.save(os.path.join(directory, "hmm.json"))
    rec.lm.save(os.path.join(directory, "lm.arpa"))
    write_json(os.path.join(directory, "frontend.json"), asdict(rec.cfg.frontend))


def load_recognizer(directory, cfg=None):
    """The bundle in ``directory`` under ``cfg`` (default PipelineConfig()),
    whose front end is replaced by the bundle's.  Refuses parts that do not
    fit together (DataError naming the file): the classifier reads windows
    of ``frontend.window`` frames, the PCAs its classes and one frame of
    its input, the HMM their outputs, and its letters are the LM's."""
    path = partial(os.path.join, directory)
    frontend = read_model(path("frontend.json"), lambda fe: FrontendConfig(
        **{f.name: fe[f.name] for f in fields(FrontendConfig)}))
    classifier = load_classifier(path("classifier.json"))
    pca_post, pca_image = read_model(path("pca.json"), lambda pcas: [
        PcaModel.from_jsonable(pcas[block]) for block in ("classifier_block", "image_block")])
    hmm = LetterHmm.load(path("hmm.json"))
    lm = load_arpa(path("lm.arpa"))
    width = getattr(classifier, "base", classifier).input_dim
    for name, what, got, want in [
            ("classifier.json", "input width modulo the window", width % frontend.window, 0),
            ("pca.json", "input sizes", (len(pca_post.mean), len(pca_image.mean)),
             (len(classifier.class_names), width // frontend.window)),
            ("pca.json", "output size", len(pca_post.components) + len(pca_image.components),
             hmm.dim),
            ("hmm.json", "distinct LM letters", len(set(hmm.letters) & set(lm.histories[1:])),
             len(hmm.letters))]:
        if got != want:
            raise DataError("%s: %s %s, expected %s" % (path(name), what, got, want))
    return Recognizer(classifier, pca_post, pca_image, hmm, lm,
                      replace(cfg or PipelineConfig(), frontend=frontend))
