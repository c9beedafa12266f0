"""Operads, braces and exact cohomology for finite-dimensional Loday algebras."""

from .algebra import AlgebraSpec, multiply, verify_axioms
from .algfile import load_algebra, parse_algebra, serialize_algebra
from .cochains import (Cochain, MultContext, bracket, brace, circ,
                       canonical_multiplication, delta_trias, diff_d, dot,
                       gamma, identity_cochain)
from .cohomology import (check_g_algebra, coboundary_preimage,
                         cohomology_dims, cocycle_representatives,
                         matrix_of_d)
from .fields import PrimeField, QQ
from .params import enumerate_params
from .preoperadic import r_part, r_zero, verify_system

__version__ = "0.1.0"
