import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen
from kvlatent import ctf
from kvlatent.errors import ValidationError


class TestRoundTrip:
    def test_f64_bytes_stable(self, tmp_path):
        rng = gen(601)
        arr = rng.standard_normal((4, 7))
        path = tmp_path / "a.ctf"
        ctf.write_ctf(path, arr, ctf.DTYPE_F64)
        first = path.read_bytes()
        back, code = ctf.read_ctf_ex(path)
        assert code == ctf.DTYPE_F64
        assert np.array_equal(back, arr)
        ctf.write_ctf(path, back, code)
        assert path.read_bytes() == first

    def test_f32_bytes_stable_and_upconverted(self, tmp_path):
        rng = gen(602)
        arr = rng.standard_normal((3, 5))
        path = tmp_path / "a.ctf"
        ctf.write_ctf(path, arr, ctf.DTYPE_F32)
        first = path.read_bytes()
        back, code = ctf.read_ctf_ex(path)
        assert code == ctf.DTYPE_F32
        assert back.dtype == np.float64
        assert np.allclose(back, arr, atol=1e-6)
        ctf.write_ctf(path, back, code)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("shape", [(5,), (4, 7), (2, 3, 4)])
    def test_f64_read_is_a_writable_view_of_the_read_buffer(self, tmp_path, monkeypatch,
                                                            shape):
        buffers = []
        real = ctf._read_file

        def recording(path):
            buffers.append(real(path))
            return buffers[-1]

        monkeypatch.setattr(ctf, "_read_file", recording)
        arr = gen(603).standard_normal(shape)
        path = tmp_path / "a.ctf"
        ctf.write_ctf(path, arr, ctf.DTYPE_F64)
        first = path.read_bytes()
        for read in (ctf.read_ctf_ex, ctf.read_ctf_digest):
            back, _ = read(path)
            assert np.shares_memory(back, buffers[-1])
            assert back.flags.writeable and back.flags.aligned
            assert back.dtype == np.float64 and np.array_equal(back, arr)
            ctf.write_ctf(path, back, ctf.DTYPE_F64)
            assert path.read_bytes() == first
            back[...] = 0.0
        assert ctf.read_ctf_digest(path)[1] == hashlib.sha256(first).hexdigest()

    @pytest.mark.parametrize("dtype", [ctf.DTYPE_F32, ctf.DTYPE_F64])
    @pytest.mark.parametrize("shape", [(3,), (4, 7), (2, 0, 3), (2, 3, 4)])
    def test_write_returns_the_digest_of_its_bytes(self, tmp_path, dtype, shape):
        arr = gen(604).standard_normal(shape)
        path = tmp_path / "a.ctf"
        assert ctf.write_ctf(path, arr, dtype) is None
        first = path.read_bytes()
        digest = ctf.write_ctf(path, np.asfortranarray(arr), dtype, digest=True)
        assert path.read_bytes() == first
        assert digest == hashlib.sha256(first).hexdigest() == ctf.read_ctf_digest(path)[1]

    def test_rewrite_replaces_the_file_and_spares_its_links(self, tmp_path, monkeypatch):
        path, link = tmp_path / "a.ctf", tmp_path / "link.ctf"
        ctf.write_ctf(path, np.ones(3))
        first = path.read_bytes()
        os.link(path, link)
        ctf.write_ctf(path, np.zeros(3))
        assert link.read_bytes() == first
        assert ctf.read_ctf(path).tolist() == [0.0, 0.0, 0.0]

        def refuse(src, dst):
            raise OSError("rename refused")

        # A write that fails leaves the old file and no .partial sibling.
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            ctf.write_ctf(path, np.ones(3))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ctf", "link.ctf"]
        assert ctf.read_ctf(path).tolist() == [0.0, 0.0, 0.0]

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        dtype=st.sampled_from([ctf.DTYPE_F32, ctf.DTYPE_F64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_any_shape(self, shape, dtype, seed):
        arr = gen(seed).standard_normal(tuple(shape))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.ctf"
            ctf.write_ctf(path, arr, dtype)
            back, code = ctf.read_ctf_ex(path)
        assert code == dtype
        assert back.shape == tuple(shape)
        tol = 0.0 if dtype == ctf.DTYPE_F64 else 1e-6
        assert np.allclose(back, arr, atol=tol)


class TestHeaderLayout:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "a.ctf"
        ctf.write_ctf(path, np.array([[1.0, 2.0]]), ctf.DTYPE_F64)
        data = path.read_bytes()
        assert data[:4] == b"CARE"
        version, dtype, ndim = struct.unpack_from("<IBB", data, 4)
        assert (version, dtype, ndim) == (1, 1, 2)
        dims = struct.unpack_from("<QQ", data, 10)
        assert dims == (1, 2)
        values = np.frombuffer(data, "<f8", offset=26)
        assert np.array_equal(values, [1.0, 2.0])


class TestValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.ctf"
        ctf.write_ctf(path, np.ones((2, 2)))
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="magic"):
            ctf.read_ctf(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "a.ctf"
        ctf.write_ctf(path, np.ones((2, 2)))
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="version"):
            ctf.read_ctf(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.ctf"
        ctf.write_ctf(path, np.ones((2, 2)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValidationError, match="payload"):
            ctf.read_ctf(path)

    def test_rejects_nonfinite_on_write(self, tmp_path):
        with pytest.raises(ValidationError):
            ctf.write_ctf(tmp_path / "a.ctf", np.array([np.nan]))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ctf.read_ctf(tmp_path / "missing.ctf")

    @pytest.mark.parametrize("dims", [(2**63, 0), (0, 2**64 - 1), (2**62, 0), (2**40, 2**40, 0)])
    def test_dims_too_large_for_an_array(self, tmp_path, dims):
        # Zero values match the empty payload, so only the shape check stops these.
        path = tmp_path / "a.ctf"
        header = struct.pack("<4sIBB", b"CARE", 1, ctf.DTYPE_F64, len(dims))
        path.write_bytes(header + struct.pack(f"<{len(dims)}Q", *dims))
        with pytest.raises(ValidationError, match="too large"):
            ctf.read_ctf(path)

    def test_zero_dim_within_bounds_reads_empty(self, tmp_path):
        path = tmp_path / "a.ctf"
        path.write_bytes(struct.pack("<4sIBBQQ", b"CARE", 1, ctf.DTYPE_F32, 2, 2**20, 0))
        assert ctf.read_ctf(path).shape == (2**20, 0)

    @pytest.mark.parametrize("ndim", [0, ctf.MAX_NDIM + 1, 255])
    def test_ndim_out_of_range(self, tmp_path, ndim):
        # A dims list of ones and one value: complete apart from ndim itself.
        path = tmp_path / "a.ctf"
        header = struct.pack("<4sIBB", b"CARE", 1, ctf.DTYPE_F64, ndim)
        path.write_bytes(header + struct.pack(f"<{ndim}Q", *[1] * ndim) + b"\0" * 8)
        with pytest.raises(ValidationError, match="ndim"):
            ctf.read_ctf(path)

    def test_most_dims_round_trip(self, tmp_path):
        path = tmp_path / "a.ctf"
        ctf.write_ctf(path, np.ones((1,) * ctf.MAX_NDIM))
        assert ctf.read_ctf(path).shape == (1,) * ctf.MAX_NDIM
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # numpy 1 caps arrays at 32 dims
            with pytest.raises(ValidationError, match="dims"):
                ctf.write_ctf(path, np.ones((1,) * (ctf.MAX_NDIM + 1)))
