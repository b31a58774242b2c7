"""Hold the OpenBLAS that numpy loaded to one thread for the span of a block.

After each multi-threaded product an OpenBLAS worker spins on a second
core for a while before it sleeps.  Code that starts its own threads
right after such a product runs beside the spinner; with one BLAS thread
there is none.  The library is found among the shared objects mapped
into this process (/proc/self/maps, so Linux only), under the symbols of
numpy's bundled build or of a plain OpenBLAS.  Where none is found the
context manager does nothing.
"""

from __future__ import annotations

import contextlib
import functools

# (get, set) symbol pairs: numpy's bundled scipy-openblas64 build, then a plain OpenBLAS
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads) of the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            # address, perms, offset, device, inode and, for a mapped file, its path
            fields = [line.split(maxsplit=5) for line in maps]
        paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with one OpenBLAS thread; restore the count on every exit."""
    found = _openblas()
    if found is None:
        yield
        return
    get, put = found
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
