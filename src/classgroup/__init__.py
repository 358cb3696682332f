"""Class group, class number and regulator computation for number fields.

The pipeline: fix a factor base of prime ideals of bounded norm, collect
relations by BKZ-reducing the lattices of random power-product ideals,
extract the group structure by integer HNF/SNF, read units off the relation
kernel, and verify the product h * Reg against a truncated Euler-product
approximation of the zeta residue.
"""

from .errors import ClassGroupError
from .field import AlgebraicNumber, NumberField, norm_of, parse_field
from .ideals import FactorBase, Ideal, PrimeIdeal, build_factor_base, factor_prime
from .intlinalg import GroupStructure, class_group_from_relations
from .lattice import LatticeBasis, ReductionReport, bkz, cheon_reduce, enumerate_svp, hnf_lattice, lll
from .params import ClassDParams, PlanReport, classify_D, select_params
from .relations import CollectionConfig, Relation, RelationMatrix, collect
from .smoothness import LExpr, SmoothnessResult, dickman_rho, eval_L, smooth_part, smooth_probability
from .analytic import AnalyticData, count_roots_of_unity, euler_residue, regulator_from_kernel, verify

__version__ = "0.1.0"
