"""qspectral: exact S-spectrum toolkit for quaternionic operators.

Finite quaternionic matrices get exact eigensphere, rank and
ascent/descent analysis through rational arithmetic plus the complex
adjoint embedding; a structured class of infinite-dimensional operators
(finite block + diagonal families + weighted shift tails + finite-rank
perturbation) gets an exact classifier for the S-spectrum and its
essential / Weyl / Browder refinements, cross-checked by an independent
truncation oracle.
"""

from .errors import (DelegatedError, DimensionMismatchError, DomainError,
                     NumericalError, QSpectralError, RankDeficiencyError,
                     SpecFileError)
from .quat import HalfPlanePoint, Quaternion, sphere_of, slice_representative
from .qmat import (HilbertBasis, QMatrix, QVector, adjoint, chi,
                   finite_rank_op, gram_schmidt, kernel_basis, rank)
from .leftmul import left_scalar_op, left_scalar_vec, right_scalar_op
from .spec_fd import (AscDescReport, EigensphereSet, asc_dsc, on_eigensphere,
                      pseudo_resolvent, right_eigenspheres)
from .opmodel import (ConstantFamily, GeometricFamily, Membership, ShiftTail,
                      SpectralClassification, StructuredOperator,
                      browder_spectrum, classify, fredholm_index, perturb,
                      weyl_spectrum)
from .regions import (RegionSet, boundary_distance, region_circle,
                      region_disk, region_empty, region_point,
                      spectrum_regions)
from .oracle import TruncationReport, cross_check, truncate

__version__ = "0.1.0"
