import re
import struct

import numpy as np
import pytest

from aghash.errors import FormatError, ShapeError
from aghash.network import (
    CHECKPOINT_VERSION,
    init_params,
    load_arrays,
    save_arrays,
)


class TestInit:
    def test_shapes(self):
        gcn = init_params(d_prime=10, h=7, r=4, seed=0)
        assert gcn.W1.shape == (7, 10) and gcn.W2.shape == (4, 7)

    def test_deterministic(self):
        a = init_params(6, 5, 4, seed=9)
        b = init_params(6, 5, 4, seed=9)
        assert np.array_equal(a.W1, b.W1)
        assert np.array_equal(a.W2, b.W2)

    def test_draws_w1_then_w2(self):
        # the two weights are the seed's first two draws, so they are those of
        # every earlier model that drew more parameters after them
        gcn = init_params(6, 5, 4, seed=9)
        rng = np.random.default_rng(9)
        assert np.array_equal(gcn.W1, rng.standard_normal((5, 6)) * np.sqrt(2.0 / 6))
        assert np.array_equal(gcn.W2, rng.standard_normal((4, 5)) * np.sqrt(2.0 / 5))

    def test_scale(self):
        gcn = init_params(400, 300, 4, seed=1)
        assert gcn.W1.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.1)

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            init_params(0, 5, 4, seed=0)


def _listed(meta):
    """The shapes a test container lists in its own meta."""
    return [tuple(shape) for shape in meta["shapes"]]


class TestCheckpointContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal(2)]
        meta = {"shapes": [[3, 4], [2]], "note": "x"}
        p = tmp_path / "c.bin"
        save_arrays(p, arrays, meta)
        back, back_meta = load_arrays(p, _listed)
        assert back_meta == meta
        assert [a.shape for a in back] == [(3, 4), (2,)]
        assert all(np.array_equal(a, b) for a, b in zip(back, arrays))
        back[0][0, 0] = 1.0  # the loaded arrays are ordinary writable ones

    def test_layout(self, tmp_path):
        # header, meta JSON with sorted keys, the raw float64s in the order given and nothing after
        p = tmp_path / "c.bin"
        save_arrays(p, [np.arange(6.0).reshape(2, 3), np.array([-1.5])], {"shapes": [[2, 3], [1]], "a": 1})
        meta = b'{"a": 1, "shapes": [[2, 3], [1]]}'
        payload = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -1.5], dtype="<f8").tobytes()
        assert p.read_bytes() == (b"AGCK" + struct.pack("<II", CHECKPOINT_VERSION, len(meta)) + meta
                                  + payload)

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(6)
        arrays = [rng.standard_normal((2, 2)), rng.standard_normal(3)]
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        save_arrays(p1, arrays, {"k": 1, "shapes": [[2, 2], [3]]})
        save_arrays(p2, arrays, {"shapes": [[2, 2], [3]], "k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="not a checkpoint file"):
            load_arrays(p, _listed)

    def test_truncated(self, tmp_path):
        p = tmp_path / "c.bin"
        save_arrays(p, [np.ones((4, 4))], {"shapes": [[4, 4]]})
        saved = p.read_bytes()
        for cut in (1, 8, 9, 128, len(saved) - 4):
            p.write_bytes(saved[:-cut])
            with pytest.raises(FormatError, match=re.escape(str(p))):
                load_arrays(p, _listed)

    @pytest.mark.parametrize("extra", [b"\x00", bytes(8)])
    def test_trailing_bytes(self, tmp_path, extra):
        p = tmp_path / "c.bin"
        save_arrays(p, [np.ones((4, 4))], {"shapes": [[4, 4]]})
        p.write_bytes(p.read_bytes() + extra)
        with pytest.raises(FormatError, match=f"payload has {128 + len(extra)} bytes, its shapes need 128"):
            load_arrays(p, _listed)

    def test_length_is_checked_before_any_array_is_formed(self, tmp_path):
        # shapes far beyond memory: forming them first would fail with MemoryError or worse
        p = tmp_path / "c.bin"
        save_arrays(p, [np.ones(2)], {"shapes": [[2**40, 2**40], [2**62]]})
        with pytest.raises(FormatError, match="payload has 16 bytes"):
            load_arrays(p, _listed)

    def test_meta_length_beyond_file(self, tmp_path):
        p = tmp_path / "c.bin"
        p.write_bytes(b"AGCK" + struct.pack("<II", CHECKPOINT_VERSION, 2**32 - 1) + b"{}")
        with pytest.raises(FormatError, match="truncated checkpoint meta"):
            load_arrays(p, _listed)
