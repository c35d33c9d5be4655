"""The letter alphabet and the phonetic handshape table.

The letter alphabet is A-Z plus the two boundary symbols ``<s>`` (begin
silence) and ``</s>`` (end silence), 28 classes in total.  Doubled-letter
tokens (e.g. ``ZZ``) are off by default and can be enabled per experiment.

The phonetic table ships as editable JSON under ``segspell/data``: 27 rows
(a-z plus zz) of joint angles, spread flag, thumb parameters and palm
orientation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

BEGIN_SILENCE = "<s>"
END_SILENCE = "</s>"
SILENCES = (BEGIN_SILENCE, END_SILENCE)
LETTERS = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


class UnknownSymbolError(KeyError):
    """Raised when a symbol is not part of the alphabet or a table."""


class LetterAlphabet:
    """Ordered symbol set: A-Z, optional doubled tokens, then <s> and </s>.

    Letter indices are fixed (A=0 .. Z=25); boundary symbols always take the
    last two indices so that serialized models keep stable class ids.
    """

    def __init__(self, doubled=()):
        for tok in doubled:
            if not (len(tok) == 2 and tok[0] == tok[1] and tok[0] in LETTERS):
                raise ValueError("doubled token must repeat one letter: %r" % (tok,))
        self.letters = LETTERS
        self.doubled = tuple(doubled)
        self.symbols = self.letters + self.doubled + SILENCES
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in alphabet")
        self._index = {s: i for i, s in enumerate(self.symbols)}

    @property
    def class_count(self):
        return len(self.symbols)

    def letter_index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbolError("unknown symbol: %r" % (symbol,)) from None

    def symbol(self, index):
        if not 0 <= index < len(self.symbols):
            raise UnknownSymbolError("index out of range: %d" % index)
        return self.symbols[index]

    def tokenize(self, word):
        """Split a word into letter tokens, greedily matching doubled tokens."""
        tokens = []
        i = 0
        while i < len(word):
            pair = word[i:i + 2]
            if pair in self.doubled:
                tokens.append(pair)
                i += 2
                continue
            ch = word[i]
            if ch not in LETTERS:
                raise UnknownSymbolError(
                    "word %r has out-of-alphabet character %r at position %d"
                    % (word, ch, i))
            tokens.append(ch)
            i += 1
        return tokens


@dataclass(frozen=True)
class PhoneticRow:
    index_mcp: float
    index_pip: float
    middle_mcp: float
    middle_pip: float
    ring_mcp: float
    ring_pip: float
    pinky_mcp: float
    pinky_pip: float
    spread: float
    thumb_y: float
    thumb_z: float
    thumb_pip: float
    thumb_touch: float
    touch_finger: str
    palm: str

    def finger_angles(self):
        return (self.index_mcp, self.index_pip, self.middle_mcp, self.middle_pip,
                self.ring_mcp, self.ring_pip, self.pinky_mcp, self.pinky_pip)


class PhoneticFeatureTable:
    """27-row table of numeric handshape descriptions (a-z plus zz)."""

    ANGLE_VALUES = frozenset({0, 45, 90, 135, 180, -45, -1, 1})

    def __init__(self):
        data = json.loads(resources.files("segspell.data").joinpath(
            "phonetic_features.json").read_text(encoding="utf-8"))
        rows = data["rows"]
        if len(rows) != 27:
            raise ValueError("phonetic table must have 27 rows, got %d" % len(rows))
        self.rows = {}
        for letter, r in rows.items():
            row = PhoneticRow(
                index_mcp=r["index"][0], index_pip=r["index"][1],
                middle_mcp=r["middle"][0], middle_pip=r["middle"][1],
                ring_mcp=r["ring"][0], ring_pip=r["ring"][1],
                pinky_mcp=r["pinky"][0], pinky_pip=r["pinky"][1],
                spread=r["spread"],
                thumb_y=r["thumb"]["y"], thumb_z=r["thumb"]["z"],
                thumb_pip=r["thumb"]["pip"], thumb_touch=r["thumb"]["touch"],
                touch_finger=r["touch_finger"], palm=r["palm"])
            for v in row.finger_angles() + (row.spread, row.thumb_y, row.thumb_z,
                                            row.thumb_pip, row.thumb_touch):
                if v not in self.ANGLE_VALUES:
                    raise ValueError("row %r has out-of-table value %r" % (letter, v))
            self.rows[letter] = row

    def phonetic_values(self, letter):
        key = letter.lower()
        if key not in self.rows:
            raise UnknownSymbolError("unknown letter: %r" % (letter,))
        return self.rows[key]
