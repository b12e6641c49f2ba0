"""The three workloads as lists of checked operations.

An operation is one call into the package whose output is checked before
the next one starts (a closed loop with one client).  Its latency covers
the call and its checks.  Each check is one golden or reference
comparison, one certificate or one identity.

Calls go through module attributes (``cli.main``, ``johnson.tau_evaluate``)
so that the traced run sees them; the inputs are built with references
taken at import time, before tracing is installed, so building them adds
no spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from mccool import cli, derivations, freelie, johnson, stabilization, symmetry
from mccool.freelie import LieElement, abc_alphabet
from mccool.symmetry import S3_ALL
from mccool.words import lyndon_tuples

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "src" / "mccool" / "data" / "expected_dimensions.json"

# CLI runs and bracket-map degrees per workload; "toy" is the self-test size
TABLES = {
    "full": {"max_degree": 9, "bracket_map": range(5, 9)},
    "toy": {"max_degree": 6, "bracket_map": range(5, 6)},
}
STRUCTURE = {
    "full": {"kernel_degree": 7, "psigma_degree": 7, "stabilize_n": 7},
    "toy": {"kernel_degree": 5, "psigma_degree": 5, "stabilize_n": 4},
}
ALGEBRA_CHECKS = {"full": 1000, "toy": 40}

# total degrees of each identity; the stream cycles through every split of
# them.  The free-Lie cap is 10, and tau of degree k lands in degree k + 1.
ALGEBRA_DEGREES = {
    "bracket": range(2, 11),
    "jacobi": range(3, 11),
    "tau": range(2, 10),
    "equivariance": range(1, 10),
    "iota_pi": range(1, 10),
}
ALGEBRA_KINDS = tuple(ALGEBRA_DEGREES)


class Checks:
    """Attempted checks and a description of each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_argv(workload: str, size: str, seed: int) -> dict:
    """Golden name -> (argv, expected exit code)."""
    if workload == "tables":
        k = str(TABLES[size]["max_degree"])
        return {
            "dims": (["dims", "--max-degree", k], 0),
            "characters": (["characters", "--max-degree", k], 0),
        }
    p = STRUCTURE[size]
    return {
        "verify_omega": (["verify-omega"], 0),
        # negative control: the corrupted element must fail its checks
        "verify_omega_corrupt": (["verify-omega", "--self-test-corrupt"], 1),
        "kernel": (["kernel", "--degree", str(p["kernel_degree"]), "--divisors"], 0),
        "psigma": (["psigma", "--max-degree", str(p["psigma_degree"]), "--seed", str(seed)], 0),
        "stabilize": (["stabilize", "--n", str(p["stabilize_n"])], 0),
    }


def bracket_map_table(degrees) -> str:
    lines = []
    for k in degrees:
        r = johnson.bracket_map_rank(k)
        lines.append(
            f"{r.degree} rank={r.rank} source={r.source_dim} target={r.target_dim} "
            f"injective={r.injective} surjective={r.surjective}\n"
        )
    return "".join(lines)


def _cli_op(name, argv, want_rc, goldens, checks, reference):
    def op():
        rc, out = _run_cli(argv)
        cmd = " ".join(argv)
        checks.check(rc == want_rc, f"`{cmd}` exited {rc}, expected {want_rc}")
        checks.check(out == goldens.get(name), f"`{cmd}` stdout differs from golden {name}")
        if reference is not None:
            reference(json.loads(out))

    return op


def _check_dims(ref, checks):
    def check(payload):
        for row in payload["rows"]:
            k = str(row["k"])
            checks.check(
                (row["ambient"], row["kernel"]) == (ref["ambient"][k], ref["kernel"][k]),
                f"dims row k={k} differs from expected_dimensions.json",
            )
    return check


def _check_characters(ref, checks):
    def check(payload):
        for k, entry in payload["characters"].items():
            checks.check(
                entry["character"] == ref["characters"][k],
                f"character k={k} differs from expected_dimensions.json",
            )
    return check


def _check_kernel(ref, checks):
    def check(payload):
        k = str(payload["degree"])
        checks.check(
            payload["kernel_dim"] == ref["kernel"][k],
            f"kernel dim k={k} differs from expected_dimensions.json",
        )
    return check


def cli_ops(workload: str, size: str, seed: int, goldens: dict, checks: Checks) -> list:
    """(name, op) pairs for the tables and structure workloads."""
    ref = json.loads(REFERENCE.read_text())
    references = {
        "dims": _check_dims(ref, checks),
        "characters": _check_characters(ref, checks),
        "kernel": _check_kernel(ref, checks),
    }
    ops = [
        (name, _cli_op(name, argv, rc, goldens, checks, references.get(name)))
        for name, (argv, rc) in cli_argv(workload, size, seed).items()
    ]
    if workload == "tables":
        degrees = TABLES[size]["bracket_map"]

        def bracket_map():
            got = bracket_map_table(degrees)
            checks.check(got == goldens.get("bracket_map"),
                         "bracket_map_rank differs from golden bracket_map")

        ops.append(("bracket_map", bracket_map))
    return ops


# ---------------------------------------------------------------------------
# algebra: a seeded stream of exact identities


_ABC = abc_alphabet()
_COEFFS = (-3, -2, -1, 1, 2, 3)
_TERMS = 2  # Lyndon words per random element


def _element(rng: random.Random, degree: int) -> LieElement:
    words = lyndon_tuples(3, degree)
    coeffs = {}
    while len(coeffs) < min(_TERMS, len(words)):
        coeffs[rng.choice(words)] = rng.choice(_COEFFS)
    return LieElement(_ABC, degree, coeffs)


def _compositions(total: int, parts: int) -> list:
    """Nondecreasing degree tuples with the given sum."""
    if parts == 1:
        return [(total,)]
    return [
        (first, *rest)
        for first in range(1, total // parts + 1)
        for rest in _compositions(total - first, parts - 1)
        if rest[0] >= first
    ]


def _schedule(kind: str) -> list:
    """The fixed cycle of degree tuples (and sigma or n) for one kind."""
    parts = {"bracket": 2, "tau": 2, "jacobi": 3}.get(kind, 1)
    shapes = [c for total in ALGEBRA_DEGREES[kind] for c in _compositions(total, parts)]
    if kind == "equivariance":
        return [(shape, sigma) for shape in shapes for sigma in S3_ALL]
    if kind == "iota_pi":
        return [(shape, n) for shape in shapes for n in (5, 6, 7)]
    return [(shape, None) for shape in shapes]


def algebra_stream(seed, count: int) -> list:
    """(kind, degree, inputs) for each check; the same seed gives the same list.

    Kinds, degree splits, sigma and n follow a fixed cycle, so every seed
    carries the same mix of work; the seed picks the Lyndon words, the
    coefficients and the index triples.  Varying only those keeps the cost
    of a stream close across seeds.
    """
    rng = random.Random(seed)
    schedules = {kind: _schedule(kind) for kind in ALGEBRA_KINDS}
    stream = []
    for i in range(count):
        kind = ALGEBRA_KINDS[i % len(ALGEBRA_KINDS)]
        cycle = schedules[kind]
        shape, extra = cycle[(i // len(ALGEBRA_KINDS)) % len(cycle)]
        elements = tuple(_element(rng, d) for d in shape)
        if kind == "equivariance":
            inputs = (extra, *elements)
        elif kind == "iota_pi":
            triple = tuple(sorted(rng.sample(range(1, extra + 1), 3)))
            inputs = (triple, extra, *elements)
        else:
            inputs = elements
        stream.append((kind, sum(shape), inputs))
    return stream


def _identity(kind: str, inputs) -> bool:
    bracket = freelie.lie_bracket
    if kind == "bracket":
        u, v = inputs
        return bracket(u, v) == bracket(u, v, via="tensor")
    if kind == "jacobi":
        u, v, w = inputs
        return (
            bracket(bracket(u, v), w) + bracket(bracket(v, w), u) + bracket(bracket(w, u), v)
        ).is_zero()
    if kind == "tau":
        u, v = inputs
        tau = johnson.tau_evaluate
        return tau(bracket(u, v)) == derivations.der_bracket(tau(u), tau(v))
    if kind == "equivariance":
        return symmetry.equivariance_check(*inputs)
    triple, n, p = inputs
    embedded = stabilization.iota_sym(triple, p, n)
    return stabilization.pi_sym(triple, embedded, n) == stabilization.embed_abc(p)


def algebra_ops(seed, size: str, checks: Checks) -> list:
    ops = []
    for kind, total, inputs in algebra_stream(seed, ALGEBRA_CHECKS[size]):
        def op(kind=kind, total=total, inputs=inputs):
            checks.check(_identity(kind, inputs), f"{kind} identity failed in degree {total}")

        ops.append((kind, op))
    return ops
