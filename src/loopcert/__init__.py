"""loopcert: exact-arithmetic certificates for commutative subalgebras of
loop algebras and Yangians.

The package constructs Bethe generator families of the RTT Yangian of
gl_n, their classical counterparts on congruence-subgroup coordinates,
universal Gaudin families D^k Phi_i, and shift-of-argument families, and
mechanically certifies commutativity, free-generation dimensions,
leading-term identities and Grassmannian limit decompositions at finite
truncation, all over exact rationals.
"""

from .commpoly import CommPoly, LoopAlgebra, ZhPoly
from .envelop import (NCPoly, PBWContext, current_context, gaudin_evaluation,
                      talalaev_generators, tensor_context)
from .errors import (BoundsError, LoopcertError, RegularityError,
                     TruncationError, ValidationError)
from .families import classical_bethe, gaudin_generators, soa_generators
from .liealg import InvariantPolynomial, LieAlgebraData, centralizer, load_config, preset
from .linalg import Subspace, limit_subspace
from .yangian import (YangianContext, bethe_generators, gr1, gr2,
                      quantum_minor, yangian)

__version__ = "0.1.0"

__all__ = [
    "BoundsError", "CommPoly", "InvariantPolynomial",
    "LieAlgebraData", "LoopAlgebra", "LoopcertError", "NCPoly", "PBWContext",
    "RegularityError", "Subspace", "TruncationError",
    "ValidationError", "YangianContext", "ZhPoly", "bethe_generators",
    "centralizer", "classical_bethe", "current_context", "gaudin_evaluation",
    "gaudin_generators", "gr1", "gr2", "limit_subspace", "load_config",
    "preset", "quantum_minor", "soa_generators", "talalaev_generators",
    "tensor_context", "yangian",
]
