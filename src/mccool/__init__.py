"""Exact computations around the Johnson morphism of basis-conjugating groups.

Free Lie rings in the Lyndon basis, their positive-degree derivations,
the Johnson morphism tau on the rank-3 generator symbols, its
degree-by-degree kernel with certified integer bases, the S3 action and
kernel characters, the semidirect model h x| g of the graded Lie ring,
and the split embeddings that propagate the degree-6 kernel generator
to every rank n >= 3.
"""

from .derivations import (
    Derivation,
    NotTangential,
    apply,
    apply_via_tensor,
    der_bracket,
    inner_derivation,
    tangential_witness,
)
from .exactla import (
    SNFResult,
    SparseMat,
    intersect_columnspaces,
    kernel_lattice,
    rank,
    smith_normal_form,
)
from .freelie import (
    Alphabet,
    LieElement,
    NotALieElement,
    TensorElement,
    abc_alphabet,
    from_tensor,
    left_normed,
    lie_bracket,
    to_tensor,
    witt_dimension,
    x_alphabet,
)
from .johnson import (
    BracketMapReport,
    KernelReport,
    McCoolSymbols,
    bracket_map_rank,
    elementary_divisors,
    kernel_report,
    omega,
    tau_evaluate,
    tau_generator,
)
from .psigma3 import (
    SDElement,
    intersection_kappa,
    sd_bracket,
    sd_rank,
    sd_s3_action,
    sd_tau,
    sd_tau_kernel,
)
from .stabilization import (
    IndependenceCertificate,
    IndexTriple,
    independence_certificate,
    iota_der,
    iota_sym,
    pi_der,
    pi_sym,
)
from .symmetry import (
    Character,
    KernelNotStable,
    S3Element,
    action_on_degree,
    action_on_generators,
    equivariance_check,
    kernel_character,
)

from . import derivations, exactla, freelie, johnson, psigma3, stabilization, symmetry, words

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level memo of the package: the lru_cached word
    tables, the bracket and expansion tables, the substitution and
    per-sigma memos, the tau maps with their per-word derivations, and the
    reports.  Results recompute equal; alphabets and symbol tables are
    rebuilt equal."""
    for module in (words, freelie, derivations, exactla, johnson, symmetry, psigma3, stabilization):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
