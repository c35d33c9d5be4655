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
strictly positive, so log probabilities are always finite.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .alphabet import BEGIN_SILENCE, END_SILENCE, LetterAlphabet, UnknownSymbolError
from .fileio import DataError, atomic_write_text, open_input


class BigramLm:
    """Bigram probabilities for the pairs seen in training plus backed-off
    unigrams for the rest: p(v | h) = bigram[h, v] when (h, v) was seen,
    else bow(h) * p1(v).  Both ``train_bigram`` and ``load_arpa`` build
    this class, so a model behaves the same before and after a save.

    Every value is kept in one (histories x successors) table, ``probs``,
    with its natural log in ``logprobs`` (each taken by ``math.log``:
    ``np.log`` differs from it in the last bit for some values)."""

    def __init__(self, alphabet, bigram_probs, unigram_probs, backoff):
        self.alphabet = alphabet
        self.histories = (BEGIN_SILENCE,) + alphabet.letters + alphabet.doubled
        self.successors = alphabet.letters + alphabet.doubled + (END_SILENCE,)
        self._row = {h: i for i, h in enumerate(self.histories)}
        self._col = {v: j for j, v in enumerate(self.successors)}
        self.bigram_probs = dict(bigram_probs)
        self._uni = {s: unigram_probs[s] for s in self.successors}
        self._bow = dict(backoff)
        table = [[self.bigram_probs.get((h, v), self._bow.get(h, 1.0) * self._uni[v])
                  for v in self.successors] for h in self.histories]
        self.probs = np.array(table)
        self.logprobs = np.array([[math.log(p) for p in row] for row in table])

    def cells(self, prevs, nexts):
        """(rows, columns) of the table for the histories ``prevs`` and the
        successors ``nexts``; UnknownSymbolError for a symbol outside them."""
        for symbols, index, what in ((prevs, self._row, "history"),
                                     (nexts, self._col, "successor")):
            for s in symbols:
                if s not in index:
                    raise UnknownSymbolError("unknown %s symbol: %r" % (what, s))
        return [self._row[s] for s in prevs], [self._col[s] for s in nexts]

    def backoff_weight(self, prev):
        self.cells([prev], [])
        return self._bow.get(prev, 1.0)

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
        """Serialize in ARPA plain text (log10 values)."""
        lines = ["\\data\\"]
        unigrams = []
        # <s> is never predicted; by convention it gets log10 p = -99
        unigrams.append((-99.0, BEGIN_SILENCE, math.log10(self.backoff_weight(BEGIN_SILENCE))))
        for s in self.successors:
            bow = self.backoff_weight(s) if s in self._row else None
            unigrams.append((math.log10(self._uni[s]), s, None if bow is None else math.log10(bow)))
        bigrams = []
        for h in self.histories:
            for v in self.successors:
                if (h, v) in self.bigram_probs:
                    bigrams.append((math.log10(self.bigram_probs[(h, v)]), h, v))
        lines.append("ngram 1=%d" % len(unigrams))
        lines.append("ngram 2=%d" % len(bigrams))
        lines.append("")
        lines.append("\\1-grams:")
        for logp, sym, bow in unigrams:
            if bow is None:
                lines.append("%.7f\t%s" % (logp, sym))
            else:
                lines.append("%.7f\t%s\t%.7f" % (logp, sym, bow))
        lines.append("")
        lines.append("\\2-grams:")
        for logp, h, v in bigrams:
            lines.append("%.7f\t%s %s" % (logp, h, v))
        lines.append("")
        lines.append("\\end\\")
        return "\n".join(lines) + "\n"

    def save(self, path):
        atomic_write_text(path, self.to_arpa())


def train_bigram(words, alphabet=None):
    """Count-based Witten-Bell bigram training over a word list.

    Out-of-alphabet characters are rejected with the word and position named.
    """
    if alphabet is None:
        alphabet = LetterAlphabet()
    words = list(words)
    if not words:
        raise ValueError("empty training corpus")
    bigram_counts = Counter()
    unigram_counts = Counter()
    for word in words:
        tokens = alphabet.tokenize(word)
        prev = BEGIN_SILENCE
        for tok in tokens:
            bigram_counts[(prev, tok)] += 1
            unigram_counts[tok] += 1
            prev = tok
        bigram_counts[(prev, END_SILENCE)] += 1
        unigram_counts[END_SILENCE] += 1
    successors = alphabet.letters + alphabet.doubled + (END_SILENCE,)
    n1 = sum(unigram_counts.values())
    uni = {s: (unigram_counts.get(s, 0) + 1.0) / (n1 + len(successors))
           for s in successors}
    totals, types = Counter(), Counter()
    for (h, v), c in bigram_counts.items():
        totals[h] += c
        types[h] += 1
    backoff = {h: types[h] / (totals[h] + types[h]) for h in totals}
    probs = {(h, v): c / (totals[h] + types[h]) + backoff[h] * uni[v]
             for (h, v), c in bigram_counts.items()}
    return BigramLm(alphabet, probs, uni, backoff)


def load_arpa(path, alphabet=None):
    """Read an ARPA bigram file written by ``BigramLm.save``.

    Probabilities round-trip through the log10 text within 1e-7, which is
    inside every consumer's tolerance here."""
    if alphabet is None:
        alphabet = LetterAlphabet()

    def prob(token, lineno):
        try:
            value = 10.0 ** float(token)
            if 0.0 < value < math.inf:
                return value
        except (ValueError, OverflowError):
            pass
        raise DataError("%s line %d holds %s, not a finite log10 value"
                        % (path, lineno, token))

    probs, unis, backoff = {}, {}, {}
    section = None
    try:
        with open_input(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("\\"):
                    section = line
                    continue
                parts = line.split()
                if section == "\\1-grams:":
                    unis[parts[1]] = prob(parts[0], lineno)
                    if len(parts) > 2:   # histories only: </s> has no backoff weight
                        backoff[parts[1]] = prob(parts[2], lineno)
                elif section == "\\2-grams:":
                    probs[(parts[1], parts[2])] = prob(parts[0], lineno)
        return BigramLm(alphabet, probs, unis, backoff)
    except (IndexError, KeyError, UnicodeDecodeError) as e:
        raise DataError("%s: not an ARPA bigram file (%s: %s)"
                        % (path, type(e).__name__, e)) from None
