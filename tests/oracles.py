"""Exact oracles with no primes, for the tests.

No product path calls them; the tests check the certified route of
mccool.exactla against them by name: _rank_bareiss, a fraction-free
Bareiss elimination over Z (sparse, Markowitz-style pivoting, lazy
telescoped rescaling of rows that miss the pivot column),
_kernel_exact, the Hermite form of [M^T | I], and _conv_accumulated,
the tensor product of freelie._conv summed and cancelled word by word.
"""

from __future__ import annotations

from mccool import exactla
from mccool.exactla import CertificateError, SparseMat, _cleared, hnf_rows


def _rank_bareiss(m: SparseMat) -> int:
    rows: dict = {}
    for (i, j), v in _cleared(m, 0).entries.items():
        rows.setdefault(i, {})[j] = v
    colocc: dict = {}
    for r, row in rows.items():
        for c in row:
            colocc.setdefault(c, set()).add(r)
    piv_seq = [1]  # piv_seq[t] = pivot of step t
    stamp = {r: 0 for r in rows}
    rank_ = 0

    def bring(r, target):
        # lazy telescoped rescale: entries of row r are minors at step stamp[r]
        s = stamp[r]
        if s == target:
            return
        num, den = piv_seq[target], piv_seq[s]
        row = rows[r]
        for c in list(row):
            val = row[c] * num
            if val % den:
                raise CertificateError("Bareiss rescale is not exact")
            row[c] = val // den
        stamp[r] = target

    while rows:
        best = None
        for c, occ in colocc.items():
            cl = len(occ)
            for r in occ:
                score = (len(rows[r]) - 1) * (cl - 1)
                key = (score, r, c)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, r0, c0 = best
        t = rank_ + 1
        bring(r0, t - 1)
        piv = rows[r0][c0]
        piv_seq.append(piv)
        prow = rows[r0]
        for r in list(colocc[c0]):
            if r == r0:
                continue
            bring(r, t - 1)
            row = rows[r]
            f = row[c0]
            prev = piv_seq[t - 1]
            for c, pv in prow.items():
                val = piv * row.get(c, 0) - f * pv
                if val:
                    if val % prev:
                        raise CertificateError("Bareiss step is not exact")
                    row[c] = val // prev
                    colocc.setdefault(c, set()).add(r)
                elif c in row:
                    del row[c]
                    colocc[c].discard(r)
            for c in [c for c in row if c not in prow]:
                val = row[c] * piv
                if val % prev:
                    raise CertificateError("Bareiss rescale is not exact")
                row[c] = val // prev
            stamp[r] = t
            if not row:
                del rows[r]
                del stamp[r]
        for c in prow:
            colocc[c].discard(r0)
            if not colocc[c]:
                del colocc[c]
        del rows[r0]
        del stamp[r0]
        rank_ += 1
    return rank_


# _kernel_exact refuses entries above this many bits: a kernel that needs
# larger numbers fails at once instead of growing toward _HNF_BITS
_EXACT_KERNEL_BITS = 2048


def _kernel_exact(columns, nrows: int) -> list:
    """Integer kernel from the Hermite normal form of [M^T | I].

    Independent of the modular engine (no primes, no reconstruction):
    an oracle that only the tests call.  Row j is
    column j of M followed by the unit vector e_j, so the lattice is all
    (x M^T, x).  The Hermite rows whose first nrows entries vanish are a
    basis of its part with x M^T = 0, and their identity parts are in
    Hermite form themselves: they are the unique Hermite basis of the
    kernel lattice, which is saturated.
    """
    ncols = len(columns)
    rows = []
    for j, col in enumerate(columns):
        row = [0] * (nrows + ncols)
        for i, v in col:
            row[i] = v
        row[nrows + j] = 1
        rows.append(row)
    # hnf_rows reads its entry bound from exactla._HNF_BITS at each call
    limit, exactla._HNF_BITS = exactla._HNF_BITS, _EXACT_KERNEL_BITS
    try:
        reduced = hnf_rows(rows)
    except RuntimeError as exc:
        raise RuntimeError(
            f"exact kernel entries exceed the {_EXACT_KERNEL_BITS}-bit bound"
        ) from exc
    finally:
        exactla._HNF_BITS = limit
    return [r[nrows:] for r in reduced if not any(r[:nrows])]


def _conv_accumulated(a: dict, b: dict) -> dict:
    """The tensor product of two coefficient dicts, word to coefficient:
    every pair of words adds its product to their concatenation, and a
    word whose sum cancels is dropped.  It assumes nothing of the factors'
    degrees, where freelie._conv relies on both being homogeneous."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            val = out.get(wa + wb, 0) + ca * cb
            if val:
                out[wa + wb] = val
            else:
                out.pop(wa + wb, None)
    return out
