"""Smoothed backoff bigram letter language model.

Witten-Bell discounting interpolated with add-one-smoothed unigrams:

    p(v | h) = c(h,v) / (c(h) + T(h))  +  bow(h) * p1(v)
    bow(h)   = T(h) / (c(h) + T(h))          (1 if h was never seen)
    p1(v)    = (c1(v) + 1) / (N1 + V)

where c(h,v) are bigram counts, c(h) = sum_v c(h,v), T(h) is the number of
distinct successor types of h, and the unigram statistics run over all
successor tokens (letters and ``</s>``).  Every word contributes the
transitions ``<s> -> w[0]``, ``w[i] -> w[i+1]`` and ``w[-1] -> </s>``.
Per-history distributions sum to one exactly, and every probability is
strictly positive, so log probabilities are always finite.  A model is
its ARPA file's content in arrays (``BigramLm``): ``train_bigram`` computes
them from counts, and ``load_arpa`` reads them back.
"""

from __future__ import annotations

import math

import numpy as np

from .alphabet import BEGIN_SILENCE, END_SILENCE, LetterAlphabet, UnknownSymbolError
from .fileio import DataError, atomic_write_text, open_input


def _indices(alphabet):
    """({history: row}, {successor: column}) of a bigram model over
    ``alphabet``: ``<s>`` and the tokens, then the tokens and ``</s>``."""
    successors = alphabet.letters + alphabet.doubled + (END_SILENCE,)
    return ({h: i for i, h in enumerate((BEGIN_SILENCE,) + successors[:-1])},
            {v: j for j, v in enumerate(successors)})


class BigramLm:
    """An ARPA bigram file's content over (histories x successors):
    ``bigram[h, v]`` the probability of each pair seen in training (0
    elsewhere), ``unigram[v]`` p1(v) and ``backoff[h]`` bow(h).  Every
    lookup reads ``probs``, bigram[h, v] for a seen pair and else
    bow(h) * p1(v), or its natural log ``logprobs`` (by ``math.log``:
    ``np.log`` differs from it in the last bit for some values)."""

    def __init__(self, alphabet, bigram, unigram, backoff):
        self._row, self._col = _indices(alphabet)
        self.histories, self.successors = tuple(self._row), tuple(self._col)
        self.bigram, self.unigram, self.backoff = bigram, unigram, backoff
        self.probs = np.where(bigram > 0, bigram, backoff[:, None] * unigram)
        self.logprobs = np.array([[math.log(p) for p in row] for row in self.probs.tolist()])

    def cells(self, prevs, nexts):
        """(rows, columns) of the table for the histories ``prevs`` and the
        successors ``nexts``; UnknownSymbolError for a symbol outside them."""
        for symbols, index, what in ((prevs, self._row, "history"),
                                     (nexts, self._col, "successor")):
            for s in symbols:
                if s not in index:
                    raise UnknownSymbolError("unknown %s symbol: %r" % (what, s))
        return [self._row[s] for s in prevs], [self._col[s] for s in nexts]

    def prob(self, prev, next_sym):
        (i,), (j,) = self.cells([prev], [next_sym])
        return float(self.probs[i, j])

    def logprob(self, prev, next_sym):
        (i,), (j,) = self.cells([prev], [next_sym])
        return float(self.logprobs[i, j])

    def prob_matrix(self, prevs, nexts):
        """(len(prevs), len(nexts)) probabilities read from the table, 1.0
        for a pair whose history or successor is outside the model."""
        rows = np.array([self._row.get(s, -1) for s in prevs], dtype=int)
        cols = np.array([self._col.get(s, -1) for s in nexts], dtype=int)
        return np.where((rows >= 0)[:, None] & (cols >= 0), self.probs[np.ix_(rows, cols)], 1.0)

    def to_arpa(self):
        """ARPA plain text (log10 values), the seen pairs row-major."""
        # <s> is never predicted (log10 p = -99 by convention); </s> is no history
        logps = [-99.0] + [math.log10(p) for p in self.unigram.tolist()]
        unigrams = ["%.7f\t%s" % (p, v) + ("" if b is None else "\t%.7f" % math.log10(b))
                    for p, v, b in zip(logps, self.histories + (END_SILENCE,),
                                       self.backoff.tolist() + [None])]
        bigrams = ["%.7f\t%s %s" % (math.log10(self.bigram[i, j]), self.histories[i],
                                    self.successors[j]) for i, j in zip(*np.nonzero(self.bigram))]
        lines = ["\\data\\", "ngram 1=%d" % len(unigrams), "ngram 2=%d" % len(bigrams), "",
                 "\\1-grams:", *unigrams, "", "\\2-grams:", *bigrams, "", "\\end\\"]
        return "\n".join(lines) + "\n"

    def save(self, path):
        atomic_write_text(path, self.to_arpa())


def train_bigram(words, alphabet=None):
    """Count-based Witten-Bell bigram training over a word list; an
    out-of-alphabet character is rejected, naming the word and position."""
    alphabet = alphabet or LetterAlphabet()
    words = list(words)
    if not words:
        raise ValueError("empty training corpus")
    row, col = _indices(alphabet)
    pairs = [row[h] * len(col) + col[v] for word in words
             for tokens in [alphabet.tokenize(word)]
             for h, v in zip([BEGIN_SILENCE] + tokens, tokens + [END_SILENCE])]
    counts = np.bincount(pairs, minlength=len(row) * len(col)).reshape(len(row), len(col))
    unigram = (counts.sum(axis=0) + 1.0) / (counts.sum() + len(col))
    totals, types = counts.sum(axis=1), (counts > 0).sum(axis=1)
    denominators = np.maximum(totals + types, 1)   # an unseen history has no pairs
    backoff = np.where(totals > 0, types / denominators, 1.0)
    bigram = np.where(counts > 0, counts / denominators[:, None] + backoff[:, None] * unigram, 0)
    return BigramLm(alphabet, bigram, unigram, backoff)


def load_arpa(path, alphabet=None):
    """Read an ARPA bigram file written by ``BigramLm.save``, skipping any
    symbol outside ``alphabet``.  Probabilities round-trip through the
    log10 text within 1e-7, inside every consumer's tolerance here."""
    alphabet = alphabet or LetterAlphabet()
    row, col = _indices(alphabet)

    def prob(token, lineno):
        try:
            value = 10.0 ** float(token)
            if 0.0 < value < math.inf:
                return value
        except (ValueError, OverflowError):
            pass
        raise DataError("%s line %d holds %s, not a finite log10 value"
                        % (path, lineno, token))

    # one spare slot at the end of each axis takes the skipped symbols (-1)
    bigram = np.zeros((len(row) + 1, len(col) + 1))
    unigram, backoff = np.zeros(len(col) + 1), np.ones(len(row) + 1)
    section = None
    try:
        with open_input(path) as f:
            for lineno, line in enumerate(f, 1):
                parts = line.split()
                if not parts:
                    continue
                if parts[0].startswith("\\"):
                    section = parts[0]
                elif section == "\\1-grams:":
                    unigram[col.get(parts[1], -1)] = prob(parts[0], lineno)
                    if len(parts) > 2:   # histories only: </s> has no backoff weight
                        backoff[row.get(parts[1], -1)] = prob(parts[2], lineno)
                elif section == "\\2-grams:":
                    bigram[row.get(parts[1], -1), col.get(parts[2], -1)] = prob(parts[0], lineno)
    except (IndexError, UnicodeDecodeError) as e:
        raise DataError("%s: not an ARPA bigram file (%s: %s)"
                        % (path, type(e).__name__, e)) from None
    missing = ", ".join(v for v, p in zip(col, unigram) if not p)
    if missing:
        raise DataError("%s: not an ARPA bigram file (no unigram for %s)" % (path, missing))
    return BigramLm(alphabet, bigram[:-1, :-1], unigram[:-1], backoff[:-1])
