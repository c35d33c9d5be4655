import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segspell.alphabet import (BEGIN_SILENCE, END_SILENCE, LetterAlphabet,
                               UnknownSymbolError)
from segspell.fileio import DataError
from segspell.lm import load_arpa, train_bigram


def wb_oracle(words, prev, nxt):
    """Witten-Bell value computed directly from counts, independent of the
    model implementation."""
    bigrams = {}
    unigrams = {}
    for w in words:
        toks = list(w)
        prev_tok = BEGIN_SILENCE
        for t in toks + [END_SILENCE]:
            bigrams[(prev_tok, t)] = bigrams.get((prev_tok, t), 0) + 1
            unigrams[t] = unigrams.get(t, 0) + 1
            prev_tok = t
    succ = [chr(ord("A") + i) for i in range(26)] + [END_SILENCE]
    n1 = sum(unigrams.values())
    p_uni = (unigrams.get(nxt, 0) + 1) / (n1 + len(succ))
    c_h = sum(v for (h, _), v in bigrams.items() if h == prev)
    t_h = sum(1 for (h, _) in bigrams if h == prev)
    if c_h + t_h == 0:
        return p_uni
    return bigrams.get((prev, nxt), 0) / (c_h + t_h) + t_h / (c_h + t_h) * p_uni


def successors(alphabet):
    return list(alphabet.letters) + [END_SILENCE]


def test_smoothing_reserves_mass():
    lm = train_bigram(["AB", "AB"])
    assert lm.prob("A", "B") < 1.0
    for v in successors(LetterAlphabet()):
        assert lm.prob("A", v) > 0.0


def test_normalization_over_unseen_history():
    lm = train_bigram(["AB", "AB"])
    total = sum(lm.prob("Q", v) for v in successors(LetterAlphabet()))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_witten_bell_value_against_count_oracle():
    words = ["AB", "AC", "BC"]
    lm = train_bigram(words)
    assert lm.prob("A", "B") == pytest.approx(wb_oracle(words, "A", "B"), abs=1e-12)
    # hand value: c(AB)=1, c(A.)=2, T(A)=2, p1(B)=(2+1)/(9+27)
    assert lm.prob("A", "B") == pytest.approx(0.25 + 0.5 * (3 / 36), abs=1e-12)


def test_single_word_corpus_closed_form():
    words = ["AB"]
    lm = train_bigram(words)
    for prev, nxt in [(BEGIN_SILENCE, "A"), ("A", "B"), ("B", END_SILENCE)]:
        assert lm.prob(prev, nxt) == pytest.approx(wb_oracle(words, prev, nxt), abs=1e-12)


def test_logprob_finite_and_nonpositive():
    lm = train_bigram(["AB", "CD"])
    for prev in [BEGIN_SILENCE] + list(LetterAlphabet().letters):
        for nxt in successors(LetterAlphabet()):
            lp = lm.logprob(prev, nxt)
            assert math.isfinite(lp) and lp <= 0.0


def test_unknown_symbols_rejected():
    lm = train_bigram(["AB"])
    with pytest.raises(UnknownSymbolError):
        lm.logprob("A", "<s>")
    with pytest.raises(UnknownSymbolError):
        lm.logprob("</s>", "A")


def test_out_of_alphabet_word_names_position():
    with pytest.raises(UnknownSymbolError) as e:
        train_bigram(["AB", "A1C"])
    msg = str(e.value)
    assert "A1C" in msg and "1" in msg


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_bigram([])


def test_training_deterministic():
    words = ["TULIP", "ROAD", "GEORGE"]
    assert train_bigram(words).to_arpa() == train_bigram(words).to_arpa()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="ABCDE", min_size=1, max_size=6),
                min_size=1, max_size=8))
def test_per_history_normalization_property(words):
    lm = train_bigram(words)
    alphabet = LetterAlphabet()
    for h in [BEGIN_SILENCE] + list(alphabet.letters):
        total = sum(lm.prob(h, v) for v in successors(alphabet))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_arpa_roundtrip(tmp_path):
    lm = train_bigram(["TULIP", "ROAD", "ART", "QUIZ"])
    path = tmp_path / "lm.arpa"
    lm.save(str(path))
    text = path.read_text()
    assert "\\data\\" in text and "\\1-grams:" in text and "\\2-grams:" in text
    loaded = load_arpa(str(path))
    alphabet = LetterAlphabet()
    for h in [BEGIN_SILENCE] + list(alphabet.letters):
        for v in successors(alphabet):
            assert loaded.prob(h, v) == pytest.approx(lm.prob(h, v), rel=2e-6)
        assert sum(loaded.prob(h, v) for v in successors(alphabet)) == \
            pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "400", "x", "0.5"])
@pytest.mark.parametrize("column", ["bigram", "unigram", "backoff"])
def test_arpa_non_finite_value_refused(tmp_path, column, value):
    # a log10 above 0 is a probability above 1, but a backoff weight may exceed 1
    path = tmp_path / "lm.arpa"
    train_bigram(["TULIP", "ROAD"]).save(str(path))
    lines = path.read_text().split("\n")
    at = lines.index("\\2-grams:") + 1 if column == "bigram" else \
        [line.split("\t")[1:2] for line in lines].index(["T"])
    parts = lines[at].split("\t")
    parts[2 if column == "backoff" else 0] = value
    lines[at] = "\t".join(parts)
    path.write_text("\n".join(lines))
    if (column, value) == ("backoff", "0.5"):
        lm = load_arpa(str(path))
        assert lm.backoff[lm.histories.index("T")] == 10.0 ** 0.5
        return
    with pytest.raises(DataError) as e:
        load_arpa(str(path))
    assert "%s line %d" % (path, at + 1) in str(e.value)


def test_arpa_keeps_minus_99_and_absent_backoff(tmp_path):
    path = tmp_path / "lm.arpa"
    lm = train_bigram(["TULIP", "ROAD"])
    lm.save(str(path))
    lines = path.read_text().split("\n")
    # <s> is never predicted, and </s> is no history: it has no backoff weight
    assert lines[lines.index("\\1-grams:") + 1].startswith("-99.0000000\t<s>\t")
    assert any(line.endswith("\t" + END_SILENCE) for line in lines)
    assert load_arpa(str(path)).prob("T", END_SILENCE) == \
        pytest.approx(lm.prob("T", END_SILENCE), rel=2e-6)


def test_arpa_successor_without_unigram_refused(tmp_path):
    path = tmp_path / "lm.arpa"
    train_bigram(["TULIP", "ROAD"]).save(str(path))
    lines = path.read_text().split("\n")
    path.write_text("\n".join(line for line in lines if line.split("\t")[1:2] != ["Q"]))
    with pytest.raises(DataError, match="not an ARPA bigram file .*Q"):
        load_arpa(str(path))


def test_arpa_symbols_outside_the_alphabet_are_skipped(tmp_path):
    # each cell reads only its own pair's values, so the plain alphabet's
    # table is the doubled one's, less the doubled tokens
    doubled = LetterAlphabet(doubled=("LL", "ZZ"))
    path = tmp_path / "lm.arpa"
    train_bigram(["PIZZA", "BALL", "JAZZ", "ROAD"], doubled).save(str(path))
    full, plain = load_arpa(str(path), doubled), load_arpa(str(path))
    rows, cols = full.cells(plain.histories, plain.successors)
    assert np.array_equal(plain.probs, full.probs[np.ix_(rows, cols)])


def test_shipped_wordlists_600_types():
    from segspell.cli import builtin_wordlist
    w1, w2 = builtin_wordlist("1"), builtin_wordlist("2")
    assert len(w1) == 300 and len(w2) == 300
    assert len(set(w1)) == 300 and len(set(w2)) == 300
    lm = train_bigram(w1 + w2)
    assert lm.prob("Q", "U") > lm.prob("Q", "Z")


@pytest.mark.parametrize("doubled", [(), ("ZZ",)])
def test_table_entries_equal_prob_and_logprob(tmp_path, doubled):
    # one (histories x successors) table serves every lookup; its logs are
    # math.log's bits, before and after an ARPA round trip
    alphabet = LetterAlphabet(doubled=doubled)
    trained = train_bigram(["PIZZA", "JAZZ", "TULIP", "ROAD", "QUIZ"], alphabet)
    trained.save(str(tmp_path / "lm.arpa"))
    for lm in (trained, load_arpa(str(tmp_path / "lm.arpa"), alphabet)):
        assert lm.probs.shape == lm.logprobs.shape == (len(lm.histories), len(lm.successors))
        for i, h in enumerate(lm.histories):
            for j, v in enumerate(lm.successors):
                assert lm.probs[i, j] == lm.prob(h, v)
                assert lm.logprobs[i, j] == lm.logprob(h, v) == math.log(lm.prob(h, v))
        outside = ["<start>", "<s>", "A", "</s>"]
        matrix = lm.prob_matrix(outside, outside)
        for i, h in enumerate(outside):
            for j, v in enumerate(outside):
                known = h in lm.histories and v in lm.successors
                assert matrix[i, j] == (lm.prob(h, v) if known else 1.0)


# sha256 prefixes of (to_arpa(), probs.tobytes(), logprobs.tobytes()) for a
# trained model and for the same model after a save/load round trip; they
# change only with an explanation in CHANGES.md
LM_DIGESTS = {
    "list1": (("1fbd5e90bcb7b84f", "79ff7198c75fe35f", "a61b50eaee5575e2"),
              ("1fbd5e90bcb7b84f", "4c3e7273d16de8ad", "25c0ca35534aa1c0")),
    "lists1+2": (("b5ec8e9a9fd38c03", "0a8155eabe47bfb7", "504f6efb47b6ac6e"),
                 ("b5ec8e9a9fd38c03", "7adcd452f44fe764", "63e1d0857ff891b1")),
    "list1-first5": (("0c0d7a759f2c1cea", "a73860d34e53c135", "cc528e8bfb28f7d4"),
                     ("0c0d7a759f2c1cea", "2ac6df1caf2014a6", "0151539d21605ede")),
    "list1-doubled": (("7415cc9ef7b95f78", "f78c940d5c7890d7", "937469468f89ecfa"),
                      ("7415cc9ef7b95f78", "3189f8a7b1cc33aa", "ae546c8508fdaac5")),
}


@pytest.mark.parametrize("case", sorted(LM_DIGESTS))
def test_lm_bits_are_pinned(tmp_path, case):
    from segspell.cli import builtin_wordlist
    w1 = builtin_wordlist("1")
    words, doubled = {"list1": (w1, ()), "lists1+2": (w1 + builtin_wordlist("2"), ()),
                      "list1-first5": (w1[:5], ()),   # the protocol workload's LM
                      "list1-doubled": (w1, ("LL", "SS", "ZZ"))}[case]
    alphabet = LetterAlphabet(doubled=doubled)
    trained = train_bigram(words, alphabet)
    trained.save(str(tmp_path / "lm.arpa"))
    loaded = load_arpa(str(tmp_path / "lm.arpa"), alphabet)
    digests = tuple(tuple(hashlib.sha256(b).hexdigest()[:16] for b in (
        lm.to_arpa().encode(), lm.probs.tobytes(), lm.logprobs.tobytes()))
        for lm in (trained, loaded))
    assert digests == LM_DIGESTS[case]
