"""qspectral: exact S-spectrum toolkit for quaternionic operators.

Finite quaternionic matrices get exact eigensphere, rank and
ascent/descent analysis through rational arithmetic plus the complex
adjoint embedding; a structured class of infinite-dimensional operators
(finite block + diagonal families + weighted shift tails + finite-rank
perturbation) gets an exact classifier for the S-spectrum and its
essential / Weyl / Browder refinements, cross-checked by an independent
truncation oracle.

The package root exports what the README's library examples use: the
structured operator and its classification (``ShiftTail``,
``StructuredOperator``, ``classify``, ``spectrum_regions``) and left
scalar multiplication (``HilbertBasis``, ``Quaternion``, ``QVector``,
``left_scalar_vec``, ``left_scalar_op``, ``right_scalar_op``).  Everything
else is imported from its module.
"""

from .quat import Quaternion
from .qmat import HilbertBasis, QVector
from .leftmul import left_scalar_op, left_scalar_vec, right_scalar_op
from .opmodel import ShiftTail, StructuredOperator, classify
from .regions import spectrum_regions

__version__ = "0.1.0"
