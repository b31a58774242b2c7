"""Stable evaluation of Hermite functions and their squares.

Everything here works with the physicists' Hermite polynomials H_n
(weight e^{-y^2}).  Large-n evaluation goes through the orthonormal
functions h_n(y) = H_n(y) e^{-y^2/2} / sqrt(2^n n! sqrt(pi)) or the
orthonormal polynomials p_n = H_n / sqrt(2^n n! sqrt(pi)), whose
three-term recurrences keep every intermediate bounded; the raw H_n
overflow near n ~ 150 and are never formed.  The Laguerre polynomials
L_n, which give the number states' characteristic functions, are
evaluated the same way, times their Gaussian factor e^{-u/2}.  The
cosine sums over uniform grids take their cosines from `cosine_blocks`.
"""

from __future__ import annotations

import math

import numpy as np

# Mantissa rescaling threshold for the exponential-free recurrence.
_RESCALE = 1e120
_LOG_RESCALE = 120.0 * math.log(10.0)


def hermite_functions(nmax: int, y) -> np.ndarray:
    """All orthonormal Hermite functions h_0..h_nmax at y.

    Returns an array of shape (nmax+1,) + shape(y).  Satisfies
    integral of h_m h_n dy = delta_mn; underflow far in the Gaussian
    tail flushes to zero, which is the correct limit for every use here.
    """
    y = np.asarray(y, dtype=float)
    out = np.empty((nmax + 1,) + y.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * y * y)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for k in range(1, nmax):
        out[k + 1] = y * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def hermite_sq_density_factor(n: int, y):
    """H_n^2(y) e^{-y^2} / (2^n n! sqrt(pi)), stable for n up to at least 1000.

    This is the unit-normalized density of the n-th oscillator level in
    a dimensionless quadrature variable; it equals h_n(y)^2, formed as
    p_n(y)^2 e^{-y^2} from the log-scaled polynomial recurrence so that
    no Gaussian factor underflows before the polynomial has grown.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    y_arr = np.asarray(y, dtype=float)
    p1, _, ls = _orthonormal_poly_pair(n, y_arr)
    result = p1 * p1 * np.exp(2.0 * ls - y_arr * y_arr)
    if np.isscalar(y):
        return float(result)
    return result


def laguerre_gauss(n: int, u) -> np.ndarray:
    """e^{-u/2} L_n(u) for u >= 0: the offset-0 function of level n in
    `laguerre_gauss_levels`, bounded by one in modulus."""
    return next(laguerre_gauss_levels(n + 1, u, first=n))[0]


def laguerre_gauss_levels(levels: int, u, offsets=(0,), first: int = 0):
    """Yield the normalized Laguerre functions of levels j = first..levels-1.

    f_j^{(d)}(u) = sqrt(j!/(j+d)!) u^{d/2} e^{-u/2} L_j^{(d)}(u), u >= 0,
    is the modulus of the displacement element <j+d|D(b)|j> at
    |b|^2 = u (Cahill and Glauber, Phys. Rev. 177, 1857 (1969)), so it
    is bounded by one.  offsets are the distinct d >= 0 to walk, in
    increasing order; step j yields those with j + d < levels, one row
    each, shape (count,) + shape(u): row i of every step walks the
    offsets[i]-th subdiagonal of a levels x levels matrix.  Each offset's
    recurrence and rescaling are elementwise, so a row does not depend
    on which other offsets are walked beside it.

    The recurrence runs in j at fixed d (the ladder recurrence in the
    matrix indices is unstable), on the differences
    D_j = L_j - L_{j-1}: (j+1) D_{j+1} = (j+d) D_j - u L_j and
    L_{j+1} = L_j + D_{j+1}, each step times the ratio
    sqrt((j+1)/(j+1+d)) of consecutive normalizations.  At d = 0 the
    differences vanish at u = 0; the plain three-term form adds a
    rounding error of the size of L_j at every step, and those errors
    grow like j^2 eps near u = 0.  L_j and D_j, normalized, are carried
    as mantissas with a per-node log-scale that starts at
    log(u^{d/2} e^{-u/2} / sqrt(d!)), so neither that start value
    underflows nor L_j overflows before they meet; a node's scale is
    exponentiated again only when it is rescaled.  Levels below first
    are not yielded, and their values are never formed.
    """
    u = np.asarray(u, dtype=float)
    offsets = np.asarray(offsets, dtype=int)
    d = offsets.astype(float).reshape((len(offsets),) + (1,) * u.ndim)
    ls = np.repeat((-0.5 * u)[None], len(offsets), axis=0)
    moved = offsets > 0
    if moved.any():
        half_log_fact = np.array([0.5 * math.lgamma(k + 1.0) for k in offsets[moved]])
        with np.errstate(divide="ignore"):
            ls[moved] += 0.5 * d[moved] * np.log(u) - half_log_fact.reshape(d[moved].shape)
    lag = np.ones_like(ls)
    diff = np.ones_like(ls)
    scale = np.exp(ls)
    work = np.empty_like(ls)
    for j in range(levels):
        rows = int(np.searchsorted(offsets, levels - j))
        if rows < len(lag):
            lag, diff, ls, scale, d, work = (a[:rows] for a in (lag, diff, ls, scale, d, work))
        if j >= first:
            yield lag * scale
        if j + 1 == levels:
            return
        ratio = np.sqrt((j + 1) / (j + 1 + d))
        diff *= j + d
        diff -= np.multiply(u, lag, out=work)
        diff *= ratio / (j + 1)
        lag *= ratio
        lag += diff
        if np.abs(lag, out=work).max() > _RESCALE:
            big = work > _RESCALE
            lag[big] /= _RESCALE
            diff[big] /= _RESCALE
            ls[big] += _LOG_RESCALE
            scale[big] = np.exp(ls[big])


def cosine_blocks(dx: float, count: int, k, entries: int):
    """cos(j dx k) for j < count and every k, one block of rows at a time.

    Yields (start, block): block[i] is the row of node start + i, of
    len(k) entries, and the blocks follow each other from start 0 up to
    count.  Each block is freshly allocated, so a caller may scale it in
    place, and holds at most max(entries, len(k)) entries.

    With P = 2**floor(log2(count) / 2), halved while P len(k) > entries
    and P > 1, node j = b P + q sits at b P dx + q dx, so each entry is
    cos(a + c) = cos a cos c - sin a sin c of a coarse phase a = b P dx k
    and a fine phase c = q dx k.  The fine factors are built once and the
    coarse ones per block, so the blocks cost (count/P + P) len(k)
    cosines and as many sines, and three real operations per entry, not
    count len(k) cosines.  Each factor's phase is rounded once, so an
    entry errs by a few eps times max_j |j dx k|, the rounding that a
    directly formed cos(x k) makes at the grid's largest |x|.
    """
    k = np.asarray(k, dtype=float)
    fine_len = 1 << (count.bit_length() - 1) // 2
    while fine_len > 1 and fine_len * len(k) > entries:
        fine_len //= 2
    fine = np.outer(dx * np.arange(fine_len), k)
    cos_fine, sin_fine = np.cos(fine), np.sin(fine)
    coarse_rows = max(1, entries // (fine_len * len(k)))
    blocks = -(-count // fine_len)
    for first in range(0, blocks, coarse_rows):
        coarse = np.outer(dx * (fine_len * np.arange(first, min(first + coarse_rows, blocks))), k)
        block = np.cos(coarse)[:, None, :] * cos_fine
        block -= np.sin(coarse)[:, None, :] * sin_fine
        start = first * fine_len
        yield start, block.reshape(-1, len(k))[:count - start]


def _orthonormal_poly_pair(m: int, z: np.ndarray):
    """Scaled values of the orthonormal Hermite polynomials p_m, p_{m-1}.

    p_k = H_k / sqrt(2^k k! sqrt(pi)) grows like e^{z^2/2} at large |z|,
    so the recurrence carries a per-node log-scale: the true values are
    (p1, p2) * exp(ls).
    """
    p1 = np.full_like(z, math.pi ** -0.25)
    p2 = np.zeros_like(z)
    ls = np.zeros_like(z)
    for j in range(m):
        p1, p2 = z * math.sqrt(2.0 / (j + 1)) * p1 - math.sqrt(j / (j + 1)) * p2, p1
        big = np.abs(p1) > _RESCALE
        if big.any():
            # np.where, not masked assignment: a 0-d z makes p1 a numpy scalar
            p1 = np.where(big, p1 / _RESCALE, p1)
            p2 = np.where(big, p2 / _RESCALE, p2)
            ls = np.where(big, ls + _LOG_RESCALE, ls)
    return p1, p2, ls
