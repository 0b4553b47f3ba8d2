"""Finite-level plus/minus cyclotomic group-ring toolkit.

Capped-precision p-adic scalars, the group algebra of (Z/p^n)^* over Q_p,
cyclotomic evaluation slots and Gauss sums, truncated half-logarithms, the
signed (plus/minus) decomposition of admissible pairs, and an exact-rational
laboratory for the corresponding subspaces of Q(zeta_{p^n}).
"""

from .cyclotomic import CharacterSpec, CyclotomicScalar, eval_char, gauss_sum
from .errors import IwaError
from .groupring import (
    GroupRingElem,
    divide_exact,
    divisible_by_phi,
    invert_unit,
    phi,
    twist_gamma,
)
from .halflogs import (
    MINUS,
    PLUS,
    HalfLogParams,
    log_trunc,
    predicted_locus,
    vanishing_locus,
)
from .padic import PadicScalar, QuadExtScalar, teichmuller
from .plusminus import (
    AdmissiblePair,
    PMDecomposition,
    check_admissible,
    compose,
    decompose,
    make_alpha,
)
from .qpn import (
    CycRationalElem,
    plus_minus_space,
    r_space,
    spaces_equal,
    u_space_dim,
)
from .verify import run_suite

__all__ = [
    "AdmissiblePair",
    "CharacterSpec",
    "CycRationalElem",
    "CyclotomicScalar",
    "GroupRingElem",
    "HalfLogParams",
    "IwaError",
    "MINUS",
    "PLUS",
    "PMDecomposition",
    "PadicScalar",
    "QuadExtScalar",
    "check_admissible",
    "compose",
    "decompose",
    "divide_exact",
    "divisible_by_phi",
    "eval_char",
    "gauss_sum",
    "invert_unit",
    "log_trunc",
    "make_alpha",
    "phi",
    "plus_minus_space",
    "predicted_locus",
    "r_space",
    "run_suite",
    "spaces_equal",
    "teichmuller",
    "twist_gamma",
    "u_space_dim",
    "vanishing_locus",
]

__version__ = "0.1.0"
