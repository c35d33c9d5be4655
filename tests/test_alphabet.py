import pytest

from segspell.alphabet import (BEGIN_SILENCE, END_SILENCE, LetterAlphabet,
                               PhoneticFeatureTable, UnknownSymbolError)


def test_class_count_and_fixed_indices(alphabet):
    assert alphabet.class_count == 28
    assert alphabet.letter_index("A") == 0
    assert alphabet.letter_index("Z") == 25
    assert alphabet.letter_index(BEGIN_SILENCE) == 26
    assert alphabet.letter_index(END_SILENCE) == 27


def test_unknown_symbol_names_offender(alphabet):
    with pytest.raises(UnknownSymbolError) as e:
        alphabet.letter_index("7")
    assert "7" in str(e.value)


def test_index_roundtrip_all_classes(alphabet):
    for i in range(alphabet.class_count):
        assert alphabet.letter_index(alphabet.symbol(i)) == i


def test_symbols_unique(alphabet):
    assert len(set(alphabet.symbols)) == alphabet.class_count


def test_doubled_tokens_off_by_default_and_enabled():
    assert LetterAlphabet().class_count == 28
    dbl = LetterAlphabet(doubled=("ZZ",))
    assert dbl.class_count == 29
    assert dbl.letter_index("ZZ") == 26
    assert dbl.letter_index(BEGIN_SILENCE) == 27
    assert dbl.tokenize("PIZZA") == ["P", "I", "ZZ", "A"]
    assert LetterAlphabet().tokenize("PIZZA") == list("PIZZA")


def test_tokenize_rejects_out_of_alphabet(alphabet):
    with pytest.raises(UnknownSymbolError) as e:
        alphabet.tokenize("AB9")
    assert "AB9" in str(e.value) and "2" in str(e.value)


class TestPhonetic:
    table = PhoneticFeatureTable()

    def test_row_count_and_uniqueness(self):
        assert len(self.table.rows) == 27
        assert set(self.table.rows) == set("abcdefghijklmnopqrstuvwxyz") | {"zz"}

    def test_row_a(self):
        r = self.table.phonetic_values("a")
        assert r.finger_angles() == (90,) * 8
        assert r.spread == 0
        assert (r.thumb_y, r.thumb_z, r.thumb_pip, r.thumb_touch) == (0, 0, 90, 180)
        assert r.palm == "for" and r.touch_finger == "i"

    def test_row_b(self):
        r = self.table.phonetic_values("b")
        assert r.finger_angles() == (180,) * 8
        assert r.thumb_y == 0 and r.thumb_z == -45

    def test_row_w(self):
        r = self.table.phonetic_values("w")
        assert r.finger_angles()[:6] == (180,) * 6
        assert r.finger_angles()[6:] == (90, 90)
        assert r.spread == 1

    def test_all_values_in_declared_set(self):
        for letter in self.table.rows:
            r = self.table.phonetic_values(letter)
            for v in r.finger_angles() + (r.spread, r.thumb_y, r.thumb_z,
                                          r.thumb_pip, r.thumb_touch):
                assert v in PhoneticFeatureTable.ANGLE_VALUES

    def test_unknown_letter_rejected(self):
        with pytest.raises(UnknownSymbolError):
            self.table.phonetic_values("7")
