import pytest

from conftest import blas_threads

from cmtomo import _blas
from cmtomo._blas import one_blas_thread


class TestOneBlasThread:
    def test_one_thread_inside_restored_after(self):
        before = blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS is loaded in this process")
        with one_blas_thread():
            assert blas_threads() == 1
            with one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_restored_when_the_block_raises(self):
        before = blas_threads()
        with pytest.raises(KeyError):
            with one_blas_thread():
                raise KeyError("inside")
        assert blas_threads() == before

    def test_nothing_done_without_a_library(self, monkeypatch):
        found = _blas._openblas()
        before = found[0]() if found else None
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        assert blas_threads() is None
        with one_blas_thread():
            assert (found[0]() if found else None) == before
        assert (found[0]() if found else None) == before
