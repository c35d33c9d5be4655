import numpy as np
import pytest

from segspell import fileio


def test_matrix_roundtrip(tmp_path):
    m = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    path = str(tmp_path / "m.fmat")
    fileio.write_matrix(path, m)
    back = fileio.read_matrix(path)
    assert back.shape == (3, 4)
    np.testing.assert_allclose(back, m, atol=1e-6)
    raw = open(path, "rb").read()
    assert raw[:4] == b"FMAT"
    assert len(raw) == 12 + 12 * 4


def test_matrix_bad_magic(tmp_path):
    path = str(tmp_path / "bad.fmat")
    open(path, "wb").write(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        fileio.read_matrix(path)


@pytest.mark.parametrize("shape", [(5, 7), (6, 4, 3)])
def test_png_roundtrip(tmp_path, shape):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    path = str(tmp_path / "img.png")
    fileio.write_png(path, img)
    back = fileio.read_png(path)
    assert np.array_equal(back, img)


def test_png_deterministic_bytes(tmp_path):
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    p1, p2 = str(tmp_path / "a.png"), str(tmp_path / "b.png")
    fileio.write_png(p1, img)
    fileio.write_png(p2, img)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_atomic_write_leaves_no_temp(tmp_path):
    path = str(tmp_path / "out.txt")
    fileio.atomic_write_text(path, "hello")
    assert open(path).read() == "hello"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert not leftovers


def test_write_json_refuses_non_finite(tmp_path):
    from segspell.classifier import init_mlp
    model = init_mlp(3, [4], 2, ["a", "b"], seed=0)
    model.layers[0][0][1, 2] = np.nan
    path = tmp_path / "clf.json"
    with pytest.raises(ValueError):
        model.save(str(path))
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError):
        fileio.write_json(str(path), {"w": [1.0, float("inf")]})
    assert list(tmp_path.iterdir()) == []
