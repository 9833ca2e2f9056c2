import numpy as np
import pytest

import divlab as dl
from divlab import io


def test_field_roundtrip(tmp_path):
    g = dl.make_grid(2, 1, 6)
    f = dl.constant_field(g, np.array([[2.0, 0.25], [0.25, 1.0]]))
    path = tmp_path / "field.txt"
    io.save_field(f, path)
    loaded = io.load_field(path)
    assert loaded.grid == g
    assert np.allclose(loaded.cells, f.cells, rtol=1e-15)
    assert loaded.theta_minus == pytest.approx(f.theta_minus, rel=1e-12)


def test_field_roundtrip_1d(tmp_path):
    g = dl.make_grid(1, 2, 8)
    f = dl.sampled_field(g, lambda p: 1 + 0.5 * np.sin(np.pi * p[:, 0]))
    path = tmp_path / "f.txt"
    io.save_field(f, path)
    loaded = io.load_field(path, bc="neumann")
    assert loaded.grid.bc == "neumann"
    assert np.allclose(loaded.cells, f.cells)
