"""Keep freed memory in the process for reuse, instead of unmapping it.

glibc maps each block at or above its mmap threshold afresh and unmaps
it on free, and it raises the threshold only when a larger mapped block
is freed (mallopt(3), M_MMAP_THRESHOLD).  A loop that keeps allocating
blocks of one large size, as numpy's FFT scratch and array temporaries
do, so faults in fresh pages at every call: `np.fft.rfft` at length
32,768 takes 96 minor page faults per call, and about 1 once a 4 MiB
array has been freed.  Fixing the threshold at glibc's 64-bit maximum,
and the heap's trim threshold at twice that (the pair glibc's dynamic
rule keeps), serves such blocks from memory the process already holds.
Where glibc's mallopt is not found the function does nothing.
"""

from __future__ import annotations

import functools

# mallopt parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


@functools.cache
def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds for this process, once;
    True where both were set, False where mallopt is not found."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # mallopt returns 1 on success, 0 on error
    set_mmap = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    set_trim = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(set_mmap and set_trim)
