import numpy as np
import pytest

from netcontrast.matio import read_matrix, write_matrix


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 7))
    m = m + m.T
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m)  # 17 digits round-trips doubles
    # the exact text, with a signed zero, the least subnormal and an integer
    write_matrix(path, [[-0.0, 5e-324], [5e-324, 3.0]])
    assert path.read_text() == "2\n-0 4.9406564584124654e-324\n4.9406564584124654e-324 3\n"


def test_rejects_asymmetric(tmp_path):
    m = np.arange(9.0).reshape(3, 3)
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    with pytest.raises(ValueError, match="asymmetric"):
        read_matrix(path)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        write_matrix("/tmp/never-written.txt", np.zeros((2, 3)))


def test_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("hello\n1 2\n2 1\n")
    with pytest.raises(ValueError, match="dimension"):
        read_matrix(path)
    path.write_text("3\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        read_matrix(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_rejects_non_finite(tmp_path, bad):
    # NaN compares False against the symmetry tolerance, so it needs its own check
    path = tmp_path / "m.txt"
    path.write_text(f"2\n1 {bad}\n{bad} 1\n")
    with pytest.raises(ValueError, match="m.txt.*infinite"):
        read_matrix(path)
