"""Compiled hot-path kernels with pure-numpy fallbacks.

The streaming hot path spends its time in a handful of numerical
primitives: the rank-``k`` covariance update (Gram-of-factor assembly,
one small ``eigh``, the rotation back),
the per-block rho/weight/wstar evaluations of the three M-scale
families, the block residual norms, and gap patching.  This module
provides each as a numba ``@njit(nogil=True)`` kernel **and** as a pure
numpy fallback, selected once at import time:

``REPRO_JIT=auto`` (default)
    Compile when :mod:`numba` is importable, fall back silently
    otherwise — numba stays an optional dependency
    (``pip install .[jit]``).
``REPRO_JIT=1``
    Require the compiled path; a missing numba produces a loud
    :class:`RuntimeWarning` and the numpy fallback (never a crash).
``REPRO_JIT=0``
    Force the numpy fallback even when numba is installed.

Two properties matter beyond raw speed:

* **nogil** — compiled kernels release the GIL, so
  :class:`~repro.streams.engine.ThreadedEngine` PE threads running
  concurrent PCA updates can overlap on real cores instead of
  serializing on the interpreter lock.
* **parity** — the compiled and fallback paths agree to 1e-10
  (``tests/test_kernels.py``); ``cache=True`` persists compilation
  across processes so only the first call in a fresh environment pays
  the compile latency (seconds; see ``docs/performance.md`` §8).

The heavy kernels are written in a numba-compatible numpy dialect and
used *as the same source* for both paths (interpreted numpy when JIT is
off); the small elementwise kernels keep separate vectorized fallbacks
where the fused loop form and the vectorized form differ.

Runtime switching (benchmarks, tests) goes through :func:`set_jit`;
production code reads the dispatch table exactly once per call via the
thin module-level wrappers.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "jit_enabled",
    "jit_status",
    "set_jit",
    "use_jit",
    "rank_k_core",
    "residual_norm2_block",
    "rho_weights_bisquare",
    "rho_weights_cauchy",
    "rho_weights_skipped",
    "fill_gappy_rows",
]

#: Relative rank tolerance shared with :mod:`repro.core.lowrank`.
_RELATIVE_RANK_TOL = 1e-12

#: Element budget of the ``(g, k, d)`` masked-basis temporary in the
#: numpy gap fill (32 MiB of float64); larger gappy sets go in slabs.
_FILL_SLAB_ELEMS = 1 << 22

try:  # optional dependency — the fallback path must import cleanly
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised by the no-numba CI leg
    numba = None
    HAVE_NUMBA = False


def _requested() -> str:
    value = os.environ.get("REPRO_JIT", "auto").strip().lower()
    if value in ("0", "off", "false", "no"):
        return "0"
    if value in ("1", "on", "true", "yes"):
        return "1"
    return "auto"


# ---------------------------------------------------------------------------
# Kernel sources
# ---------------------------------------------------------------------------
#
# Dialect rules (so one source serves both the compiled and interpreted
# paths): no einsum, no ``clip(..., None)``, no boolean fancy indexing,
# explicit ``ascontiguousarray`` before ``np.dot`` on transposed views,
# loops instead of newaxis broadcasting.


def _rank_k_core_src(basis, lam, yw, gamma, p):
    """Top-``p`` eigensystem of ``gamma·E Λ Eᵀ + Yw Ywᵀ`` (main path).

    ``basis`` is ``(d, m)`` with ``m >= 1`` orthonormal columns,
    ``lam`` the ``(m,)`` non-negative eigenvalues, ``yw`` the ``(d, k)``
    weighted block with ``k >= 1`` columns, ``gamma > 0``.  Callers
    handle the degenerate cases (empty basis, zero gamma, empty block)
    before dispatching here — see :func:`repro.core.lowrank.rank_k_update`.

    Gram-of-factor form: the update is ``A Aᵀ`` with
    ``A = [E·sqrt(γΛ), Yw]``, and because ``EᵀE = I`` its Gram matrix
    needs only ``Z = Eᵀ Yw`` and ``Ywᵀ Yw``::

        G = [[γΛ, sqrt(γΛ)·Z], [Zᵀ·sqrt(γΛ), Ywᵀ Yw]]

    One ``eigh`` of the ``(m+k) × (m+k)`` matrix ``G = V W Vᵀ`` gives
    ``U = A V W^{-1/2}`` — the same route
    :func:`repro.core.lowrank.eigensystem_of_factor` takes, without ever
    concatenating ``A``.
    """
    d = basis.shape[0]
    m = basis.shape[1]
    k = yw.shape[1]
    n = m + k

    s = np.empty(m)
    for i in range(m):
        s[i] = np.sqrt(gamma * lam[i])
    bt = np.ascontiguousarray(basis.T)
    z = np.dot(bt, yw)                 # (m, k)
    ywt = np.ascontiguousarray(yw.T)
    gyy = np.dot(ywt, yw)              # (k, k)

    gram = np.zeros((n, n))
    for i in range(m):
        gram[i, i] = gamma * lam[i]
        for j in range(k):
            c = s[i] * z[i, j]
            gram[i, m + j] = c
            gram[m + j, i] = c
    for i in range(k):
        for j in range(k):
            gram[m + i, m + j] = gyy[i, j]

    w_asc, v_asc = np.linalg.eigh(gram)
    w = w_asc[::-1].copy()
    v = np.ascontiguousarray(v_asc[:, ::-1])
    for i in range(n):
        if w[i] < 0.0:
            w[i] = 0.0
    keep = 0
    if w[0] > 0.0:
        for i in range(n):
            if w[i] > w[0] * _RELATIVE_RANK_TOL:
                keep += 1
    k_out = p if p < keep else keep
    if k_out == 0:
        return np.zeros((d, 0)), np.zeros(0)

    # U = A V W^{-1/2}, split by the two column groups of A.
    v1 = np.empty((m, k_out))
    v2 = np.empty((k, k_out))
    for c in range(k_out):
        inv = 1.0 / np.sqrt(w[c])
        for i in range(m):
            v1[i, c] = s[i] * v[i, c] * inv
        for i in range(k):
            v2[i, c] = v[m + i, c] * inv
    e_new = np.dot(basis, v1) + np.dot(yw, v2)
    # Defensive re-orthonormalization, mirroring eigensystem_of_factor.
    q_mat, _ = np.linalg.qr(e_new)
    return q_mat, w[:k_out].copy()


def _rank_k_core_np(basis, lam, yw, gamma, p):
    """Vectorized numpy fallback of :func:`_rank_k_core_src`.

    Same algebra, expressed with BLAS-level operations: the jit source's
    per-element loops are free once compiled but cost O(d·k) interpreter
    iterations when numba is absent, which would erase the block-update
    speedup the fallback exists to preserve.
    """
    m = basis.shape[1]
    n = m + yw.shape[1]
    glam = gamma * lam
    s = np.sqrt(glam)
    cross = (basis.T @ yw) * s[:, None]    # (m, k)
    gram = np.zeros((n, n))
    np.fill_diagonal(gram[:m, :m], glam)
    gram[:m, m:] = cross
    gram[m:, :m] = cross.T
    gram[m:, m:] = yw.T @ yw

    w_asc, v_asc = np.linalg.eigh(gram)
    w = np.maximum(w_asc[::-1], 0.0)
    keep = 0
    if w[0] > 0.0:
        keep = int(np.count_nonzero(w > w[0] * _RELATIVE_RANK_TOL))
    k_out = min(p, keep)
    if k_out == 0:
        return np.zeros((basis.shape[0], 0)), np.zeros(0)
    w_top = w[:k_out]
    v_top = v_asc[:, : -k_out - 1 : -1] / np.sqrt(w_top)
    e_new = basis @ (v_top[:m] * s[:, None]) + yw @ v_top[m:]
    q_mat, _ = np.linalg.qr(e_new)
    return q_mat, w_top.copy()


def _residual_norm2_block_src(y, basis):
    """Squared residual norms of rows of ``y`` against ``basis``.

    One fused pass: reconstruction plus per-row accumulation, no
    ``(k, d)`` residual temporary.
    """
    k = y.shape[0]
    d = y.shape[1]
    proj = np.dot(y, basis)            # (k, p)
    bt = np.ascontiguousarray(basis.T)
    recon = np.dot(proj, bt)           # (k, d)
    r2 = np.empty(k)
    for i in range(k):
        acc = 0.0
        for j in range(d):
            diff = y[i, j] - recon[i, j]
            acc += diff * diff
        r2[i] = acc
    return r2


def _residual_norm2_block_np(y, basis):
    proj = y @ basis
    resid = y - proj @ basis.T
    return np.einsum("ij,ij->i", resid, resid)


def _rho_weights_bisquare_src(t, c2):
    """Fused ``(W, W*)`` for the Tukey bisquare family."""
    n = t.shape[0]
    w = np.empty(n)
    wstar = np.empty(n)
    w0 = 3.0 / c2
    for i in range(n):
        z = t[i] / c2
        if z < 1.0:
            u = 1.0 - z
            w[i] = w0 * u * u
        else:
            w[i] = 0.0
        if t[i] < 1e-300:
            wstar[i] = w0
        else:
            zc = z
            if zc > 1.0:
                zc = 1.0
            rho = zc * (3.0 - 3.0 * zc + zc * zc)
            wstar[i] = rho / t[i]
    return w, wstar


def _rho_weights_bisquare_np(t, c2):
    z = t / c2
    w = np.where(z < 1.0, (3.0 / c2) * (1.0 - np.minimum(z, 1.0)) ** 2, 0.0)
    zc = np.clip(z, 0.0, 1.0)
    rho = zc * (3.0 - 3.0 * zc + zc * zc)
    small = t < 1e-300
    wstar = np.where(small, 3.0 / c2, rho / np.where(small, 1.0, t))
    return w, wstar


def _rho_weights_cauchy_src(t, c2):
    """Fused ``(W, W*)`` for the Cauchy family, finite at ``t = inf``.

    ``W* = rho/t = (t/(t+c2))/t`` collapses exactly to ``1/(t+c2)``,
    which is finite and cancellation-free on all of ``[0, inf]``; ``W``
    is evaluated as ``(c2/(t+c2))/(t+c2)`` to avoid the ``(t+c2)²``
    overflow at ``t > ~1e154``.
    """
    n = t.shape[0]
    w = np.empty(n)
    wstar = np.empty(n)
    for i in range(n):
        denom = t[i] + c2
        w[i] = (c2 / denom) / denom
        wstar[i] = 1.0 / denom
    return w, wstar


def _rho_weights_cauchy_np(t, c2):
    denom = t + c2
    w = (c2 / denom) / denom
    wstar = 1.0 / denom
    return w, wstar


def _rho_weights_skipped_src(t, c2):
    """Fused ``(W, W*)`` for the skipped-mean family."""
    n = t.shape[0]
    w = np.empty(n)
    wstar = np.empty(n)
    inv = 1.0 / c2
    for i in range(n):
        if t[i] < c2:
            w[i] = inv
        else:
            w[i] = 0.0
        if t[i] < 1e-300:
            wstar[i] = inv
        else:
            rho = t[i] * inv
            if rho > 1.0:
                rho = 1.0
            wstar[i] = rho / t[i]
    return w, wstar


def _rho_weights_skipped_np(t, c2):
    w = np.where(t < c2, 1.0 / c2, 0.0)
    small = t < 1e-300
    rho = np.minimum(t / c2, 1.0)
    wstar = np.where(small, 1.0 / c2, rho / np.where(small, 1.0, t))
    return w, wstar


def _fill_gappy_rows_src(filled, mask, mean, basis, ridge, rows):
    """Patch the listed gappy rows of ``filled`` in place.

    Per row: masked ridge least squares against ``basis`` (the same
    normal equations as :func:`repro.core.gaps.fill_from_basis`), mean
    fill when nothing is observed or the basis is empty.  Returns the
    per-row patched-entry counts for the listed rows.
    """
    d = filled.shape[1]
    kcomp = basis.shape[1]
    n_filled = np.zeros(rows.shape[0], dtype=np.int64)
    for ri in range(rows.shape[0]):
        i = rows[ri]
        n_obs = 0
        for j in range(d):
            if mask[i, j]:
                n_obs += 1
        n_miss = d - n_obs
        n_filled[ri] = n_miss
        if n_miss == 0:
            continue
        if kcomp == 0 or n_obs == 0:
            for j in range(d):
                if not mask[i, j]:
                    filled[i, j] = mean[j]
            continue
        e_obs = np.empty((n_obs, kcomp))
        y_obs = np.empty(n_obs)
        row = 0
        for j in range(d):
            if mask[i, j]:
                for c in range(kcomp):
                    e_obs[row, c] = basis[j, c]
                y_obs[row] = filled[i, j] - mean[j]
                row += 1
        et = np.ascontiguousarray(e_obs.T)
        gram = np.dot(et, e_obs)
        for c in range(kcomp):
            gram[c, c] += ridge
        z = np.linalg.solve(gram, np.dot(et, y_obs))
        for j in range(d):
            if not mask[i, j]:
                acc = mean[j]
                for c in range(kcomp):
                    acc += basis[j, c] * z[c]
                filled[i, j] = acc
    return n_filled


def _fill_gappy_rows_np(filled, mask, mean, basis, ridge, rows):
    """Row-vectorized numpy fallback of :func:`_fill_gappy_rows_src`.

    All listed rows are patched at once.  With ``M`` the ``(g, d)``
    0/1 mask of the listed rows, row ``i``'s masked normal equations are
    ``G_i = Σ_j M_ij e_j e_jᵀ + ridge·I`` and ``b_i = Σ_j M_ij y_ij e_j``:
    every ``G_i`` comes from one GEMM of the masked basis copies
    ``(g·k, d)`` against ``basis``, every ``b_i`` from one GEMM of the
    zero-filled centered rows, then one stacked solve and one
    ``np.where`` scatter.  A row with nothing observed has ``G = ridge·I``
    and ``b = 0``, so it is mean-filled by the same algebra.  Rows are
    taken in slabs so the ``(g, k, d)`` temporary stays bounded.
    """
    d = filled.shape[1]
    kcomp = basis.shape[1]
    n_filled = np.empty(rows.shape[0], dtype=np.int64)
    slab = max(1, _FILL_SLAB_ELEMS // max(d * kcomp, 1))
    bt = np.ascontiguousarray(basis.T)               # (k, d)
    for lo in range(0, rows.shape[0], slab):
        sel = rows[lo : lo + slab]
        obs = mask[sel]                              # (g, d)
        x = filled[sel]
        n_filled[lo : lo + slab] = d - np.count_nonzero(obs, axis=1)
        if kcomp == 0:
            filled[sel] = np.where(obs, x, mean)
            continue
        g = sel.shape[0]
        masked_bt = obs[:, None, :] * bt             # (g, k, d)
        gram = (masked_bt.reshape(g * kcomp, d) @ basis).reshape(
            g, kcomp, kcomp
        )
        gram.reshape(g, -1)[:, :: kcomp + 1] += ridge    # the diagonals
        rhs = np.where(obs, x - mean, 0.0) @ basis   # (g, k)
        z = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        filled[sel] = np.where(obs, x, mean + z @ bt)
    return n_filled


# ---------------------------------------------------------------------------
# Dispatch table
# ---------------------------------------------------------------------------

#: Kernel name -> (fallback impl, jit source).  The fallback is pure
#: numpy; the jit source doubles as an interpreted implementation, which
#: is what the parity tests exercise when numba is absent.
_SOURCES = {
    "rank_k_core": (_rank_k_core_np, _rank_k_core_src),
    "residual_norm2_block": (_residual_norm2_block_np, _residual_norm2_block_src),
    "rho_weights_bisquare": (_rho_weights_bisquare_np, _rho_weights_bisquare_src),
    "rho_weights_cauchy": (_rho_weights_cauchy_np, _rho_weights_cauchy_src),
    "rho_weights_skipped": (_rho_weights_skipped_np, _rho_weights_skipped_src),
    "fill_gappy_rows": (_fill_gappy_rows_np, _fill_gappy_rows_src),
}

_compiled: dict[str, object] = {}
_IMPL: dict[str, object] = {}
_jit_on = False


def _compile_all() -> None:
    """JIT-wrap every kernel source (idempotent, lazy import cost only).

    ``cache=True`` persists the compiled machine code on disk, so the
    first-call compile latency is paid once per environment rather than
    once per process; ``nogil=True`` is the point — see the module
    docstring.
    """
    if _compiled or not HAVE_NUMBA:
        return
    for name, (_, src) in _SOURCES.items():
        _compiled[name] = numba.njit(cache=True, nogil=True, fastmath=False)(
            src
        )


def set_jit(enabled: bool) -> bool:
    """Select the compiled (``True``) or numpy (``False``) dispatch.

    Returns the state actually installed: asking for the compiled path
    without numba available falls back to numpy (with a warning), so
    the return value — not the argument — is the truth.
    """
    global _jit_on
    if enabled and not HAVE_NUMBA:
        warnings.warn(
            "REPRO_JIT requested the compiled kernels but numba is not "
            "installed; falling back to the numpy path "
            "(pip install 'repro[jit]' to enable)",
            RuntimeWarning,
            stacklevel=2,
        )
        enabled = False
    if enabled:
        _compile_all()
        for name in _SOURCES:
            _IMPL[name] = _compiled[name]
    else:
        for name, (fallback, _) in _SOURCES.items():
            _IMPL[name] = fallback
    _jit_on = enabled
    return enabled


def jit_enabled() -> bool:
    """Whether the compiled dispatch is currently installed."""
    return _jit_on


def jit_status() -> dict:
    """Machine-readable status for benchmark payloads and diagnostics."""
    return {
        "numba_available": HAVE_NUMBA,
        "enabled": _jit_on,
        "requested": _requested(),
        "numba_version": getattr(numba, "__version__", None)
        if HAVE_NUMBA
        else None,
    }


@contextmanager
def use_jit(enabled: bool):
    """Temporarily force the compiled or fallback dispatch (tests)."""
    previous = _jit_on
    set_jit(enabled)
    try:
        yield
    finally:
        set_jit(previous)


# Import-time selection.
_request = _requested()
if _request == "0":
    set_jit(False)
elif _request == "1":
    set_jit(True)  # warns + falls back when numba is missing
else:
    set_jit(HAVE_NUMBA)


# ---------------------------------------------------------------------------
# Public wrappers (one dict lookup per call; rebindable via set_jit)
# ---------------------------------------------------------------------------


def rank_k_core(basis, lam, yw, gamma, p):
    """Dispatch :func:`_rank_k_core_src` (compiled when JIT is on)."""
    return _IMPL["rank_k_core"](basis, lam, yw, gamma, p)


def residual_norm2_block(y, basis):
    """Per-row squared residual norms ``||y_i - E Eᵀ y_i||²``."""
    return _IMPL["residual_norm2_block"](y, basis)


def rho_weights_bisquare(t, c2):
    """Fused ``(W(t), W*(t))`` arrays for the bisquare family."""
    return _IMPL["rho_weights_bisquare"](t, c2)


def rho_weights_cauchy(t, c2):
    """Fused ``(W(t), W*(t))`` arrays for the Cauchy family."""
    return _IMPL["rho_weights_cauchy"](t, c2)


def rho_weights_skipped(t, c2):
    """Fused ``(W(t), W*(t))`` arrays for the skipped-mean family."""
    return _IMPL["rho_weights_skipped"](t, c2)


def fill_gappy_rows(filled, mask, mean, basis, ridge, rows):
    """Patch the listed gappy rows in place; see the kernel source."""
    return _IMPL["fill_gappy_rows"](filled, mask, mean, basis, ridge, rows)
