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
    LiePolynomial,
    McCoolSymbols,
    bracket_map_rank,
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

__version__ = "0.1.0"
