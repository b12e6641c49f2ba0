"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria with a command-level runtime budget are measured in a cold
subprocess through the installed CLI, so caching inside this test
process cannot flatter the timings.  Exact integer equality everywhere.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import random_lie_element
from mccool.derivations import Derivation, apply, der_bracket, tangential_witness
from mccool.exactla import SparseMat, smith_normal_form
from mccool.freelie import (
    LieElement,
    abc_alphabet,
    from_tensor,
    lie_bracket,
    to_tensor,
    x_alphabet,
)
from mccool.johnson import (
    bracket_map_rank,
    kernel_report,
    omega,
    tau_evaluate,
    tau_generator,
)
from mccool.stabilization import independence_certificate
from mccool.symmetry import S3_ALL, equivariance_check, kernel_character
from mccool.psigma3 import intersection_kappa, sd_rank, sd_tau_kernel
from mccool.words import lyndon_tuples, witt_dimension
from oracles import _rank_bareiss

EXPECTED_AMBIENT = [3, 3, 8, 18, 48, 116, 312, 810, 2184]
EXPECTED_KERNEL = [0, 0, 0, 0, 0, 1, 6, 24, 92]
EXPECTED_CHARACTERS = {6: [1, -1, 1], 7: [6, 0, 0], 8: [24, -2, 0], 9: [92, 0, 2]}


def verdict(number: int, ok: bool, detail: str):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {state}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_cli(args, timeout):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "mccool.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout + 60,
    )
    elapsed = time.monotonic() - start
    return proc, elapsed


def test_criterion_1_dimension_table():
    proc7, elapsed7 = run_cli(["dims", "--max-degree", "7"], timeout=120)
    ok7 = proc7.returncode == 0 and elapsed7 <= 30.0
    proc9, elapsed9 = run_cli(["dims", "--max-degree", "9"], timeout=700)
    data = json.loads(proc9.stdout)
    rows_ok = [
        (r["ambient"], r["kernel"]) for r in data["rows"]
    ] == list(zip(EXPECTED_AMBIENT, EXPECTED_KERNEL))
    ok9 = proc9.returncode == 0 and data["matches_reference"] and rows_ok
    ok9 = ok9 and (elapsed7 + elapsed9) <= 600.0
    verdict(
        1,
        ok7 and ok9,
        f"dimension table k=1..9 reproduced (k<=7 in {elapsed7:.1f}s <= 30s, "
        f"total {elapsed7 + elapsed9:.1f}s <= 600s)",
    )


def test_criterion_2_omega_certificate():
    proc, elapsed = run_cli(["verify-omega"], timeout=60)
    data = json.loads(proc.stdout)
    checks = {c["id"]: c for c in data["checks"]}
    coeff = int(checks["omega-nonzero-tensor-coefficient"]["detail"]["coefficient"])
    ok = (
        proc.returncode == 0
        and data["pass"]
        and coeff != 0
        and checks["tau-of-omega-vanishes"]["pass"]
        and checks["degree6-kernel-lattice-is-generated-by-omega"]["pass"]
        and elapsed <= 5.0
    )
    # the lattice identification is up to sign; re-check in-process
    rep = kernel_report(6)
    ok = ok and rep.kernel_dim == 1
    ok = ok and rep.kernel_basis[0] in (omega(), -omega())
    verdict(
        2,
        ok,
        f"tau(omega)=0, ccbbaa coefficient {coeff} != 0, degree-6 kernel "
        f"lattice = Z*omega ({elapsed:.1f}s <= 5s)",
    )


def test_criterion_3_characters():
    proc, elapsed = run_cli(["characters", "--max-degree", "9"], timeout=700)
    data = json.loads(proc.stdout)
    got = {int(k): v["character"] for k, v in data["characters"].items()}
    ok = proc.returncode == 0 and got == EXPECTED_CHARACTERS and elapsed <= 600.0
    # the degree-6 character is the sign representation
    ok = ok and kernel_character(6).multiplicities() == (0, 1, 0)
    verdict(
        3,
        ok,
        f"characters k=6..9 match and k=6 is the sign representation "
        f"({elapsed:.1f}s <= 600s)",
    )


@pytest.fixture(scope="module")
def warm_kernels():
    for k in range(1, 10):
        kernel_report(k)
    return True


def test_criterion_4_bracket_map(warm_kernels):
    start = time.monotonic()
    results = {k: bracket_map_rank(k) for k in (5, 6, 7, 8)}
    elapsed = time.monotonic() - start
    ok = elapsed <= 60.0
    for k in (6, 7, 8):
        rep = results[k]
        ok = ok and rep.injective and rep.rank == 3 * kernel_report(k).kernel_dim
    for k in (5, 6, 7, 8):
        ok = ok and not results[k].surjective
    verdict(
        4,
        ok,
        "bracket map injective for k=6,7,8 and non-surjective for k=5..8 "
        f"(ranks {[results[k].rank for k in (5, 6, 7, 8)]}, {elapsed:.1f}s <= 60s)",
    )


def test_criterion_5_propagation():
    start = time.monotonic()
    certs = {n: independence_certificate(n) for n in (4, 5)}
    elapsed = time.monotonic() - start
    ok = elapsed <= 120.0
    for n, want in ((4, 4), (5, 10)):
        cert = certs[n]
        ok = (
            ok
            and cert.count == want
            and cert.verified
            and cert.nonzero_ok
            and cert.tau_kills_ok
            and cert.grid_ok
        )
    verdict(
        5,
        ok,
        f"iota_I(omega) families independent for n=4 (4 elements) and n=5 "
        f"(10 elements) via the delta_IJ grid ({elapsed:.1f}s <= 120s)",
    )


def test_criterion_6_structure_checks(warm_kernels):
    start = time.monotonic()
    ok = all(sd_rank(k) == 2 * witt_dimension(3, k) for k in range(1, 10))
    for k in range(1, 8):
        ker = sd_tau_kernel(k)
        ok = ok and len(ker) == kernel_report(k).kernel_dim
        ok = ok and all(u.hpart.is_zero() for u in ker)
        ok = ok and intersection_kappa(k) == kernel_report(k).kernel_dim
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 300.0
    verdict(
        6,
        ok,
        "sd ranks, sd_tau kernel in the section with matching dimensions, "
        f"and the triple intersection agree for k<=7 ({elapsed:.1f}s <= 300s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: randomized property suites, >= 200 cases each, zero failures


def _random_elem(rng, alphabet, degree, terms=3):
    return random_lie_element(rng, alphabet, degree, terms=terms)


def _prop_jacobi_antisymmetry(rng):
    alphabet = abc_alphabet()
    du = rng.randint(1, 4)
    dv = rng.randint(1, 4)
    dw = rng.randint(1, max(1, 8 - du - dv))
    u, v, w = (_random_elem(rng, alphabet, d) for d in (du, dv, dw))
    if not (lie_bracket(u, v) + lie_bracket(v, u)).is_zero():
        return False
    jac = (
        lie_bracket(lie_bracket(u, v), w)
        + lie_bracket(lie_bracket(v, w), u)
        + lie_bracket(lie_bracket(w, u), v)
    )
    return jac.is_zero()


def _prop_leibniz(rng):
    alphabet = x_alphabet(3)
    gens = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    d = tau_generator(3, *rng.choice(gens))
    if rng.random() < 0.4:
        d = der_bracket(d, tau_generator(3, *rng.choice(gens)))
    du = rng.randint(1, 3)
    dv = rng.randint(1, max(1, 7 - du - d.degree))
    u, v = _random_elem(rng, alphabet, du), _random_elem(rng, alphabet, dv)
    lhs = apply(d, lie_bracket(u, v))
    rhs = lie_bracket(apply(d, u), v) + lie_bracket(u, apply(d, v))
    return lhs == rhs


def _prop_graded_relations(rng):
    n = rng.randint(4, 6)
    i, j, k, l = rng.sample(range(1, n + 1), 4)
    dij = tau_generator(n, i, j)
    dik = tau_generator(n, i, k)
    djk = tau_generator(n, j, k)
    dkl = tau_generator(n, k, l)
    return (
        der_bracket(dij, dkl).is_zero()
        and der_bracket(dik, djk).is_zero()
        and der_bracket(dik + djk, dij).is_zero()
    )


def _random_tangential(rng, degree):
    alphabet = x_alphabet(3)
    images = []
    for i in range(3):
        w = _random_elem(rng, alphabet, degree, terms=2)
        xi = LieElement.generator(alphabet, f"X{i + 1}")
        images.append(lie_bracket(xi, w))
    return Derivation(alphabet, degree, tuple(images))


def _prop_tangential_closure(rng):
    d1 = _random_tangential(rng, rng.randint(1, 2))
    d2 = _random_tangential(rng, rng.randint(1, 2))
    b = der_bracket(d1, d2)
    witnesses = tangential_witness(b)  # raises NotTangential on failure
    alphabet = b.alphabet
    for i in range(3):
        xi = LieElement.generator(alphabet, f"X{i + 1}")
        if lie_bracket(xi, witnesses[i]) != b.images[i]:
            return False
    return True


def _prop_tau_morphism(rng):
    alphabet = abc_alphabet()
    du = rng.randint(1, 4)
    dv = rng.randint(1, max(1, 7 - du))
    p, q = _random_elem(rng, alphabet, du), _random_elem(rng, alphabet, dv)
    return tau_evaluate(lie_bracket(p, q)) == der_bracket(tau_evaluate(p), tau_evaluate(q))


def _prop_equivariance(rng):
    alphabet = abc_alphabet()
    sigma = rng.choice(S3_ALL)
    p = _random_elem(rng, alphabet, rng.randint(1, 6), terms=2)
    return equivariance_check(sigma, p)


def _prop_tensor_roundtrip(rng):
    alphabet = abc_alphabet()
    u = _random_elem(rng, alphabet, rng.randint(1, 8), terms=4)
    return from_tensor(to_tensor(u)) == u


def _prop_snf_chain(rng):
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    dense = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
    snf = smith_normal_form(SparseMat.from_dense(dense))
    if any(d <= 0 for d in snf.divisors):
        return False
    for a, b in zip(snf.divisors, snf.divisors[1:]):
        if b % a:
            return False
    # rank consistency against the independent elimination
    return snf.rank == _rank_bareiss(SparseMat.from_dense(dense))


PROPERTY_SUITES = [
    ("jacobi-antisymmetry", _prop_jacobi_antisymmetry),
    ("leibniz", _prop_leibniz),
    ("graded-relations", _prop_graded_relations),
    ("tangential-closure", _prop_tangential_closure),
    ("tau-lie-morphism", _prop_tau_morphism),
    ("s3-equivariance", _prop_equivariance),
    ("tensor-roundtrip", _prop_tensor_roundtrip),
    ("snf-chain", _prop_snf_chain),
]


def test_criterion_7_property_suites():
    cases = 200
    failures = {}
    for name, prop in PROPERTY_SUITES:
        rng = random.Random(f"acceptance-{name}")
        bad = sum(1 for _ in range(cases) if not prop(rng))
        if bad:
            failures[name] = bad
    verdict(
        7,
        not failures,
        f"{len(PROPERTY_SUITES)} property suites x {cases} randomized cases, "
        f"zero failures ({failures if failures else 'all clean'})",
    )
