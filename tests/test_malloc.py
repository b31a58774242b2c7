import ctypes

import pytest

from cmtomo import _malloc


@pytest.fixture
def uncached():
    """keep_freed_memory with an empty cache, emptied again afterwards."""
    _malloc.keep_freed_memory.cache_clear()
    yield _malloc.keep_freed_memory
    _malloc.keep_freed_memory.cache_clear()


class Library:
    """A loaded library, with or without a mallopt that records its calls."""

    def __init__(self, with_mallopt=True):
        self.calls = []
        if with_mallopt:
            # a plain function, which takes argtypes and restype as a ctypes function does
            def mallopt(param, value):
                self.calls.append((param, value))
                return 1

            self.mallopt = mallopt


class TestKeepFreedMemory:
    def test_sets_both_thresholds_once(self, uncached, monkeypatch):
        lib = Library()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
        assert uncached() is True
        assert uncached() is True
        assert lib.calls == [(_malloc._M_MMAP_THRESHOLD, 32 << 20), (_malloc._M_TRIM_THRESHOLD, 64 << 20)]

    def test_nothing_done_without_mallopt(self, uncached, monkeypatch):
        lib = Library(with_mallopt=False)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
        assert uncached() is False
        assert lib.calls == []

    def test_nothing_done_where_the_process_cannot_be_opened(self, uncached, monkeypatch):
        def no_library(name):
            raise OSError("no handle for the process")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert uncached() is False
