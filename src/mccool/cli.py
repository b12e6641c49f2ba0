"""Command-line front end.

Subcommands reproduce the computations end to end and exit nonzero on
the first failing check:

  dims          dimension table (ambient and kernel) up to --max-degree
  kernel        the KernelReport of --degree [--divisors]
  verify-omega  the four-part certificate for the degree-6 generator
  characters    S3 characters of the kernel in degrees 6..--max-degree
  stabilize     the delta_IJ propagation certificate for --n
  psigma        semidirect Lie ring checks to --max-degree [--seed, --check]
  all           everything above, aggregated [--max-degree, --n, --seed]

Every subcommand also takes --format json|csv|md and --out PATH; each
other option is a keyword parameter of the subcommand's cmd_* function.

Output is deterministic: no timestamps, sorted keys in JSON.  The
computation is single-threaded; identical configurations give
identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import johnson, psigma3, stabilization, symmetry
from .freelie import LieElement, abc_alphabet, left_normed, to_tensor
from .psigma3 import SDElement, c_alphabet
from .words import lyndon_tuples, witt_dimension

__all__ = ["main", "build_parser"]


@functools.cache
def _reference_table() -> dict:
    with resources.files("mccool.data").joinpath("expected_dimensions.json").open() as fh:
        return json.load(fh)


def _top_degree() -> int:
    """The top degree of the reference table, the one bound on the degrees
    the CLI solves and the default --max-degree: dims and kernel refuse a
    degree above it, characters and psigma stop there."""
    return max(map(int, _reference_table()["kernel"]))


def _refuse_above_top(k: int) -> None:
    if k > (top := _top_degree()):
        raise ValueError(f"degree {k} above {top}, the top degree of the reference table")


# ---------------------------------------------------------------------------
# individual commands; each returns (payload dict, ok flag)


def cmd_dims(max_degree: int):
    _refuse_above_top(max_degree)
    ref = _reference_table()
    rows = []
    ok = True
    for k in range(1, max_degree + 1):
        ambient = witt_dimension(3, k)
        kernel = johnson.kernel_report(k).kernel_dim
        rows.append({"k": k, "ambient": ambient, "kernel": kernel})
        want_a = ref["ambient"].get(str(k))
        want_k = ref["kernel"].get(str(k))
        if want_a is not None and want_a != ambient:
            ok = False
        if want_k is not None and want_k != kernel:
            ok = False
    payload = {
        "command": "dims",
        "n": 3,
        "max_degree": max_degree,
        "rows": rows,
        "matches_reference": ok,
    }
    return payload, ok


def cmd_kernel(degree: int, with_divisors: bool):
    _refuse_above_top(degree)
    rep = johnson.kernel_report(degree)
    if with_divisors:
        rep = replace(rep, elementary_divisors=johnson.elementary_divisors(degree))
    payload = rep.to_json_dict()
    payload["command"] = "kernel"
    payload["ring"] = "z"  # kernel lattices are over the integers
    return payload, True


def cmd_verify_omega(self_test_corrupt: bool = False):
    om = generator = johnson.omega()
    if self_test_corrupt:
        # negative control: damage the element and watch the checks fail
        alphabet = abc_alphabet()
        gens = {lab: LieElement.generator(alphabet, lab) for lab in "abc"}
        om = om + left_normed([gens[ch] for ch in "abacbc"])
    checks = []

    coeff = to_tensor(om).coefficient("ccbbaa")
    checks.append(
        {
            "id": "omega-nonzero-tensor-coefficient",
            "pass": coeff != 0,
            "detail": {"word": "ccbbaa", "coefficient": str(coeff)},
        }
    )
    tau_zero = johnson.tau_evaluate(om).is_zero()
    checks.append({"id": "tau-of-omega-vanishes", "pass": tau_zero, "detail": {}})

    rep = johnson.kernel_report(6)
    lattice_ok = rep.kernel_dim == 1 and rep.kernel_basis[0] in (generator, -generator)
    checks.append(
        {
            "id": "degree6-kernel-lattice-is-generated-by-omega",
            "pass": lattice_ok,
            "detail": {"kernel_dim": rep.kernel_dim},
        }
    )
    char = symmetry.kernel_character(6)
    checks.append(
        {
            "id": "degree6-character-is-sign",
            "pass": tuple(char) == (1, -1, 1),
            "detail": {"character": list(char)},
        }
    )
    ok = all(c["pass"] for c in checks)
    return {"command": "verify-omega", "checks": checks, "pass": ok}, ok


def cmd_characters(max_degree: int):
    ref = _reference_table()["characters"]
    out = {}
    ok = True
    top = min(max_degree, _top_degree())
    for k in range(6, top + 1):
        ch = symmetry.kernel_character(k)
        out[str(k)] = {
            "character": list(ch),
            "multiplicities": dict(
                zip(("trivial", "sign", "standard"), ch.multiplicities())
            ),
        }
        if str(k) in ref and list(ch) != ref[str(k)]:
            ok = False
    payload = {
        "command": "characters",
        "max_degree": top,
        "characters": out,
        "matches_reference": ok,
    }
    return payload, ok


def cmd_stabilize(n: int):
    cert = stabilization.independence_certificate(n)
    payload = cert.to_json_dict()
    payload["command"] = "stabilize"
    return payload, cert.verified


def _check_ranks(cap: int, rng) -> tuple:
    rows, ok = {}, True
    for k in range(1, cap + 1):
        rows[str(k)] = got = psigma3.sd_rank(k)
        ok = ok and got == 2 * witt_dimension(3, k) and len(psigma3._sd_basis(k)) == got
    return ok, rows


def _check_jacobi(cap: int, rng) -> tuple:
    ok = True
    br = psigma3.sd_bracket
    for _ in range(60):
        du, dv = rng.randint(1, 3), rng.randint(1, 3)
        dw = rng.randint(1, max(1, 7 - du - dv))
        u, v, w = (_random_sd(rng, d) for d in (du, dv, dw))
        ok = ok and (br(br(u, v), w) + br(br(v, w), u) + br(br(w, u), v)).is_zero()
    return ok, {"samples": 60}


# the psigma checks that solve a kernel per degree stop here
_PSIGMA_SOLVE_TOP = 7


def _check_tau_kernel(cap: int, rng) -> tuple:
    ok, dims = True, {}
    for k in range(1, min(cap, _PSIGMA_SOLVE_TOP) + 1):
        ker = psigma3.sd_tau_kernel(k)
        expect = johnson.kernel_report(k).kernel_dim
        dims[str(k)] = len(ker)
        ok = ok and len(ker) == expect and all(u.hpart.is_zero() for u in ker)
    return ok, dims


def _check_intersection(cap: int, rng) -> tuple:
    ok, dims = True, {}
    for k in range(1, min(cap, _PSIGMA_SOLVE_TOP) + 1):
        got = psigma3.intersection_kappa(k)
        dims[str(k)] = got
        ok = ok and got == johnson.kernel_report(k).kernel_dim
    return ok, dims


# the psigma checks in their default order; each returns (pass, detail)
_PSIGMA_CHECKS = {
    "ranks": _check_ranks,
    "jacobi": _check_jacobi,
    "tau-kernel": _check_tau_kernel,
    "intersection": _check_intersection,
}


def cmd_psigma(max_degree: int, seed: int, checks=None):
    rng = random.Random(seed)
    cap = min(max_degree, _top_degree())
    results = []
    for name in checks or _PSIGMA_CHECKS:
        if name not in _PSIGMA_CHECKS:
            raise SystemExit(f"unknown psigma check {name!r}")
        ok, detail = _PSIGMA_CHECKS[name](cap, rng)
        results.append({"id": name, "pass": ok, "detail": detail})
    ok = all(c["pass"] for c in results)
    return {"command": "psigma", "checks": results, "pass": ok}, ok


def _random_sd(rng: random.Random, degree: int):
    words = lyndon_tuples(3, degree)
    h = {rng.choice(words): rng.randint(-2, 2) for _ in range(2)}
    g = {rng.choice(words): rng.randint(-2, 2) for _ in range(2)}
    return SDElement(
        LieElement(c_alphabet(), degree, h), LieElement(abc_alphabet(), degree, g)
    )


def cmd_all(max_degree: int, n: int, seed: int):
    # stabilize first: a bad --n fails before any solve (output is sorted by name)
    results = {
        "stabilize": cmd_stabilize(n),
        "dims": cmd_dims(max_degree),
        "verify_omega": cmd_verify_omega(),
        "characters": cmd_characters(max_degree),
        "psigma": cmd_psigma(max_degree, seed),
    }
    reports = {name: payload for name, (payload, _) in results.items()}
    ok = all(sub_ok for _, sub_ok in results.values())
    return {"command": "all", "reports": reports, "pass": ok}, ok


# ---------------------------------------------------------------------------
# rendering


def _md_table(rows) -> str:
    """A markdown table of rows of cells, the first row the header."""
    lines = ["| " + " | ".join(cells) + " |" for cells in rows]
    lines.insert(1, "|---" * len(rows[0]) + "|")
    return "\n".join(lines) + "\n"


def _render_md(payload: dict) -> str:
    cmd = payload["command"]
    if cmd == "dims":
        rows = payload["rows"]
        return _md_table([
            ["k", *(str(r["k"]) for r in rows)],
            ["dim L_k", *(str(r["ambient"]) for r in rows)],
            ["dim kernel_k", *(str(r["kernel"]) for r in rows)],
        ])
    if cmd == "characters":
        ks = sorted(payload["characters"], key=int)
        chars = [
            "(" + ", ".join(str(x) for x in payload["characters"][k]["character"]) + ")"
            for k in ks
        ]
        return _md_table([["k", *ks], ["character of kernel_k", *chars]])
    if cmd == "kernel":
        lines = [
            f"degree {payload['degree']}: domain {payload['domain_dim']}, "
            f"rank {payload['image_rank']}, kernel {payload['kernel_dim']}",
            "",
        ]
        for term in payload["basis"]:
            lines.append(
                "- "
                + " ".join(f"{t['coeff']}*[{t['word']}]" for t in term["terms"])
            )
        return "\n".join(lines) + "\n"
    return _render_json(payload)


def _render_csv(payload: dict) -> dict:
    """One csv table per logical table; returns {filename: text}."""
    cmd = payload["command"]
    if cmd == "dims":
        lines = ["k,ambient,kernel"]
        for r in payload["rows"]:
            lines.append(f"{r['k']},{r['ambient']},{r['kernel']}")
        return {"dims.csv": "\n".join(lines) + "\n"}
    if cmd == "characters":
        lines = ["k,chi_id,chi_transposition,chi_3cycle"]
        for k in sorted(payload["characters"], key=int):
            ch = payload["characters"][k]["character"]
            lines.append(f"{k},{ch[0]},{ch[1]},{ch[2]}")
        return {"characters.csv": "\n".join(lines) + "\n"}
    if cmd == "kernel":
        lines = ["degree,domain_dim,image_rank,kernel_dim"]
        lines.append(
            f"{payload['degree']},{payload['domain_dim']},"
            f"{payload['image_rank']},{payload['kernel_dim']}"
        )
        return {f"kernel_{payload['degree']}.csv": "\n".join(lines) + "\n"}
    if cmd == "all":
        out = {}
        for sub in payload["reports"].values():
            out.update(_render_csv(sub))
        return out
    return {f"{cmd}.csv": _render_json(payload)}


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(payload: dict, format: str, out: str | None) -> None:
    if format == "json":
        _write(_render_json(payload), out)
    elif format == "md":
        _write(_render_md(payload), out)
    else:
        tables = _render_csv(payload)
        if out is None:
            for name in sorted(tables):
                sys.stdout.write(f"# {name}\n{tables[name]}")
        else:
            base = Path(out)
            if len(tables) == 1 and not base.is_dir():
                _write(next(iter(tables.values())), out)
            else:
                base.mkdir(parents=True, exist_ok=True)
                for name in sorted(tables):
                    (base / name).write_text(tables[name])


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# argument parsing


def _positive(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"{k} is below 1")
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mccool",
        description="Exact computations in the graded Lie theory of basis-conjugating automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, max_degree=False, n=False, seed=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")
        p.add_argument("--out", default=None)
        if max_degree:
            p.add_argument("--max-degree", type=_positive, default=_top_degree())
        if n:
            p.add_argument("--n", type=int, default=3)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    command("dims", "dimension table and reference comparison", max_degree=True)
    p_kernel = command("kernel", "kernel report for one degree")
    p_kernel.add_argument("--degree", type=int, required=True)
    p_kernel.add_argument("--divisors", action="store_true", dest="with_divisors")
    command("verify-omega", "certificate for the degree-6 kernel generator").add_argument(
        "--self-test-corrupt", action="store_true",
        help="negative control: corrupt the element and expect failure",
    )
    command("characters", "S3 characters of the kernel", max_degree=True)
    command("stabilize", "propagation certificate", n=True)
    command("psigma", "semidirect-product structure checks", max_degree=True, seed=True).add_argument(
        "--check",
        action="append",
        dest="checks",
        choices=tuple(_PSIGMA_CHECKS),
        default=None,
    )
    command("all", "run every check", max_degree=True, n=True, seed=True)
    return parser


_COMMANDS = {
    "dims": cmd_dims,
    "kernel": cmd_kernel,
    "verify-omega": cmd_verify_omega,
    "characters": cmd_characters,
    "stabilize": cmd_stabilize,
    "psigma": cmd_psigma,
    "all": cmd_all,
}


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    command, format, out = options.pop("command"), options.pop("format"), options.pop("out")
    try:
        payload, ok = _COMMANDS[command](**options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, format, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
