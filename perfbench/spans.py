"""Span recording around calls into mccool's modules, and the per-layer
numbers derived from the recorded spans.

The spans are installed from outside the package: each traced function
is replaced, in every mccool module that holds it, by a wrapper that
records (id, parent, name, start, end, attrs).  Functions look their
globals up at call time, so calls inside a module are traced too.
Nothing under src/ changes.  Spans are kept in memory and written out
once, when the traced run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# (module, attribute, span name); several attributes may share one name.
# words.standard_factorization and words.is_lyndon are left out: they are
# cached per-word lookups inside the other layers' inner loops, where a
# span would cost more than the call.
TARGETS = (
    ("mccool.cli", "main", "cli"),
    ("mccool.exactla", "_kernel_lattice_columns", "exactla.kernel"),
    ("mccool.exactla", "smith_normal_form", "exactla.smith"),
    ("mccool.exactla", "rank", "exactla.rank"),
    ("mccool.exactla", "intersect_columnspaces", "exactla.intersect"),
    ("mccool.johnson", "kernel_report", "johnson.kernel_report"),
    ("mccool.johnson", "bracket_map_rank", "johnson.bracket_map_rank"),
    ("mccool.johnson", "tau_evaluate", "johnson.tau_evaluate"),
    ("mccool.freelie", "lie_bracket", "freelie.lie_bracket"),
    ("mccool.freelie", "to_tensor", "freelie.tensor"),
    ("mccool.freelie", "from_tensor", "freelie.tensor"),
    ("mccool.derivations", "apply", "derivations.apply"),
    ("mccool.derivations", "apply_via_tensor", "derivations.apply"),
    ("mccool.derivations", "der_bracket", "derivations.der_bracket"),
    ("mccool.derivations", "inner_derivation", "derivations.inner"),
    ("mccool.symmetry", "kernel_character", "symmetry.kernel_character"),
    ("mccool.symmetry", "equivariance_check", "symmetry.equivariance"),
    ("mccool.psigma3", "sd_tau_kernel", "psigma3.sd_tau_kernel"),
    ("mccool.psigma3", "intersection_kappa", "psigma3.intersection_kappa"),
    ("mccool.psigma3", "sd_bracket", "psigma3.sd_bracket"),
    ("mccool.stabilization", "independence_certificate", "stabilization.certificate"),
    ("mccool.stabilization", "iota_sym", "stabilization.iota_pi"),
    ("mccool.stabilization", "pi_sym", "stabilization.iota_pi"),
    ("mccool.stabilization", "embed_abc", "stabilization.iota_pi"),
    ("mccool.stabilization", "iota_der", "stabilization.iota_pi"),
    ("mccool.stabilization", "pi_der", "stabilization.iota_pi"),
    ("mccool.words", "lyndon_tuples", "words"),
    ("mccool.words", "lyndon_index", "words"),
    ("mccool.words", "witt_dimension", "words"),
)


def _kernel_attrs(columns, nrows):
    """Shape of the matrix handed to the exact kernel solve."""
    return {
        "rows": nrows,
        "cols": len(columns),
        "nnz": sum(len(c) for c in columns),
    }


ATTRS = {"exactla.kernel": _kernel_attrs}


class Tracer:
    """In-memory span list; spans of one traced process share run_id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [id, parent, name, t0, t1, attrs]
        self._stack: list = []

    def _open(self, name: str, attrs) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[4] = time.perf_counter()

    def wrap(self, fn, name: str):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark itself (one operation)."""
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def install(self) -> None:
        """Wrap every target in every loaded mccool module holding it."""
        for mod_name, attr, name in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr)
            traced = self.wrap(original, name)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "mccool":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                rec = {"run": self.run_id, "id": sid, "parent": parent,
                       "name": name, "t0": t0, "t1": t1}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def check_nesting(spans: list) -> list:
    """Problems with the span tree: one run id, parents known and earlier,
    children inside their parent's interval."""
    problems = []
    runs = {s["run"] for s in spans}
    if len(runs) != 1:
        problems.append(f"{len(runs)} run ids in one traced run")
    by_id = {}
    for s in spans:
        if s["t1"] is None or s["t1"] < s["t0"]:
            problems.append(f"span {s['id']} {s['name']} has no valid end")
        p = s["parent"]
        if p is not None:
            parent = by_id.get(p)
            if parent is None:
                problems.append(f"span {s['id']} names unknown parent {p}")
            elif not (parent["t0"] <= s["t0"] and s["t1"] <= parent["t1"]):
                problems.append(f"span {s['id']} {s['name']} leaves parent {p}")
        by_id[s["id"]] = s
    return problems


# per-layer metric -> (span name, kind); kind "s" sums the outermost spans
# of that name (recursion counted once), "self_s" sums span time minus the
# time of direct children, "calls" counts spans
LAYER_TIMES = {
    "exactla.kernel.s": ("exactla.kernel", "s"),
    "exactla.kernel.calls": ("exactla.kernel", "calls"),
    "exactla.smith.s": ("exactla.smith", "s"),
    "exactla.rank.s": ("exactla.rank", "s"),
    "exactla.intersect.s": ("exactla.intersect", "s"),
    "johnson.kernel_report.self_s": ("johnson.kernel_report", "self_s"),
    "johnson.bracket_map_rank.self_s": ("johnson.bracket_map_rank", "self_s"),
    "johnson.tau_evaluate.s": ("johnson.tau_evaluate", "s"),
    "freelie.lie_bracket.s": ("freelie.lie_bracket", "s"),
    "freelie.lie_bracket.calls": ("freelie.lie_bracket", "calls"),
    "freelie.tensor.s": ("freelie.tensor", "s"),
    "derivations.apply.s": ("derivations.apply", "s"),
    "derivations.der_bracket.s": ("derivations.der_bracket", "s"),
    "symmetry.kernel_character.self_s": ("symmetry.kernel_character", "self_s"),
    "symmetry.equivariance.self_s": ("symmetry.equivariance", "self_s"),
    "psigma3.sd_tau_kernel.self_s": ("psigma3.sd_tau_kernel", "self_s"),
    "psigma3.intersection_kappa.self_s": ("psigma3.intersection_kappa", "self_s"),
    "psigma3.sd_bracket.s": ("psigma3.sd_bracket", "s"),
    "stabilization.certificate.self_s": ("stabilization.certificate", "self_s"),
    "stabilization.iota_pi.s": ("stabilization.iota_pi", "s"),
    "words.s": ("words", "s"),
    "cli.self_s": ("cli", "self_s"),
}


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer values from one traced run's spans."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    ancestors = {}  # id -> frozenset of ancestor span names
    for s in spans:
        p = s["parent"]
        if p is None:
            ancestors[s["id"]] = frozenset()
        else:
            parent = by_id[p]
            ancestors[s["id"]] = ancestors[p] | {parent["name"]}
            child_time[p] = child_time.get(p, 0.0) + s["t1"] - s["t0"]
    out = {}
    for metric, (name, kind) in LAYER_TIMES.items():
        mine = [s for s in spans if s["name"] == name]
        if kind == "calls":
            out[metric] = len(mine)
        elif kind == "self_s":
            out[metric] = sum(s["t1"] - s["t0"] - child_time.get(s["id"], 0.0) for s in mine)
        else:
            out[metric] = sum(s["t1"] - s["t0"] for s in mine if name not in ancestors[s["id"]])
    kern = [s["attrs"] for s in spans if s["name"] == "exactla.kernel"]
    out["exactla.kernel.cells"] = sum(a["rows"] * a["cols"] for a in kern)
    out["exactla.kernel.nnz"] = sum(a["nnz"] for a in kern)
    out["exactla.kernel.max_cols"] = max((a["cols"] for a in kern), default=0)
    out["derivations.calls"] = sum(
        1 for s in spans if s["name"].startswith("derivations.")
    )
    top = sum(s["t1"] - s["t0"] for s in spans if s["parent"] is None)
    out["trace.coverage"] = top / wall_s if wall_s > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
