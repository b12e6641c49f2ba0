"""Split injections and projections between the rank-3 and rank-n settings.

For a three-element subset I = {i1 < i2 < i3} of {1..n}, iota embeds the
rank-3 generator symbols by k_st -> k_{i_s i_t} (and a, b, c through the
standard section a = k12, b = k21, c = k13); pi projects the rank-n
symbols back, killing every k_ij that touches an index outside J.  The
same maps exist on derivations, where iota relabels generator images
along I and pi kills the letters outside J.

independence_certificate packages the propagation argument: it checks
that each iota_I(omega) is nonzero, is killed by tau over L[n], and
projects under every pi_J to delta_IJ * omega; the projection grid is
exactly what forces linear independence of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivations import Derivation
from .freelie import LieElement, abc_alphabet, substitute, x_alphabet
from .johnson import _ABC_PAIRS, LiePolynomial, mccool_symbols, omega, tau_evaluate

__all__ = [
    "IndexTriple",
    "iota_sym",
    "pi_sym",
    "iota_der",
    "pi_der",
    "embed_abc",
    "independence_certificate",
    "IndependenceCertificate",
]


@dataclass(frozen=True)
class IndexTriple:
    """A three-element subset i1 < i2 < i3 of {1..n}."""

    indices: tuple
    n: int

    def __post_init__(self):
        idx = tuple(self.indices)
        if len(idx) != 3 or list(idx) != sorted(set(idx)):
            raise ValueError("need three strictly increasing indices")
        if idx[0] < 1 or idx[-1] > self.n:
            raise ValueError(f"indices out of range 1..{self.n}")
        object.__setattr__(self, "indices", idx)

    def __iter__(self):
        return iter(self.indices)

    def position(self, i: int) -> int:
        """1-based position of i in the triple."""
        return self.indices.index(i) + 1


def _as_triple(i, n: int) -> IndexTriple:
    if isinstance(i, IndexTriple):
        if i.n != n:
            raise ValueError("triple was built for a different n")
        return i
    return IndexTriple(tuple(i), n)


def iota_sym(i, p: LiePolynomial, n: int) -> LiePolynomial:
    """Embed a rank-3 Lie polynomial into the rank-n symbols along I.

    Accepts polynomials over {a, b, c} (the standard section a = k12,
    b = k21, c = k13) or over the rank-3 symbols; each generator k_st
    goes to k_{i_s i_t}.
    """
    triple = _as_triple(i, n)
    sym_n = mccool_symbols(n)
    if p.alphabet == abc_alphabet():
        pairs = _ABC_PAIRS
    else:
        pairs = [(int(lab[1]), int(lab[2])) for lab in p.alphabet.labels]
    images = []
    for s, t in pairs:
        its = triple.indices[s - 1]
        itt = triple.indices[t - 1]
        images.append((1, sym_n.alphabet.index(f"k{its}{itt}")))
    return substitute(p, tuple(images), sym_n.alphabet)


def pi_sym(j, q: LiePolynomial, n: int) -> LiePolynomial:
    """Project a rank-n Lie polynomial onto the rank-3 symbols along J.

    k_ij survives as k_{pos(i) pos(j)} when both indices lie in J and is
    killed otherwise.
    """
    triple = _as_triple(j, n)
    sym_n = mccool_symbols(n)
    sym_3 = mccool_symbols(3)
    if q.alphabet != sym_n.alphabet:
        raise ValueError("polynomial is not over the rank-n symbols")
    inset = set(triple.indices)
    images = []
    for a, b in sym_n.pairs:
        if a in inset and b in inset:
            label = f"k{triple.position(a)}{triple.position(b)}"
            images.append((1, sym_3.alphabet.index(label)))
        else:
            images.append(None)
    return substitute(q, tuple(images), sym_3.alphabet)


def embed_abc(p: LiePolynomial) -> LiePolynomial:
    """Rewrite a polynomial over {a, b, c} over the rank-3 symbols."""
    return iota_sym(IndexTriple((1, 2, 3), 3), p, 3)


# ---------------------------------------------------------------------------
# the derivation level


def iota_der(i, d: Derivation, n: int) -> Derivation:
    """Embed a derivation of L[3] into L[n] along the triple I."""
    triple = _as_triple(i, n)
    if d.alphabet.size != 3:
        raise ValueError("iota_der starts from a derivation of L[3]")
    big = x_alphabet(n)
    letters = tuple((1, t - 1) for t in triple.indices)
    images = [LieElement.zero(big, d.degree + 1) for _ in range(n)]
    for s, t in enumerate(triple.indices):
        images[t - 1] = substitute(d.images[s], letters, big)
    return Derivation(big, d.degree, tuple(images))


def pi_der(j, d: Derivation, n: int) -> Derivation:
    """Project a derivation of L[n] to L[3] along J (quotient by the
    ideal generated by the other generators)."""
    triple = _as_triple(j, n)
    if d.alphabet.size != n:
        raise ValueError("pi_der starts from a derivation of L[n]")
    small = x_alphabet(3)
    letters = [None] * n
    for s, t in enumerate(triple.indices):
        letters[t - 1] = (1, s)
    images = tuple(substitute(d.images[t - 1], tuple(letters), small) for t in triple.indices)
    return Derivation(small, d.degree, images)


# ---------------------------------------------------------------------------
# the propagation certificate


@dataclass(frozen=True)
class IndependenceCertificate:
    """Outcome of the delta_IJ projection argument for iota_I(omega)."""

    n: int
    count: int
    verified: bool
    nonzero_ok: bool
    tau_kills_ok: bool
    grid_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "verified": self.verified,
            "checks": {
                "embedded_elements_nonzero": self.nonzero_ok,
                "tau_kills_each_element": self.tau_kills_ok,
                "projection_grid_is_identity": self.grid_ok,
            },
        }


def _triples(n: int):
    out = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                out.append(IndexTriple((a, b, c), n))
    return out


def independence_certificate(n: int) -> IndependenceCertificate:
    """Certify binom(n, 3) independent degree-6 kernel elements of tau.

    Embeds omega along every triple I, checks nonzeroness, checks that
    tau over L[n] kills each embedded element, and evaluates the full
    projection grid pi_J(iota_I(omega)) == delta_IJ * omega; if a linear
    combination of the family vanished, applying pi_J would kill every
    coefficient, so the identity grid certifies independence.
    """
    if not (3 <= n <= 7):
        raise ValueError("certificate supported for 3 <= n <= 7")
    om = omega()
    om3 = embed_abc(om)
    triples = _triples(n)
    embedded = [iota_sym(t, om, n) for t in triples]
    nonzero_ok = all(not e.is_zero() for e in embedded)
    tau_kills_ok = all(tau_evaluate(e).is_zero() for e in embedded)
    grid_ok = True
    for jt in triples:
        for it, e in zip(triples, embedded):
            proj = pi_sym(jt, e, n)
            want = om3 if it.indices == jt.indices else LieElement.zero(om3.alphabet, 6)
            if proj != want:
                grid_ok = False
    return IndependenceCertificate(
        n=n,
        count=len(triples),
        verified=nonzero_ok and tau_kills_ok and grid_ok,
        nonzero_ok=nonzero_ok,
        tau_kills_ok=tau_kills_ok,
        grid_ok=grid_ok,
    )