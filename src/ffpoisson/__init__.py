"""Exact harmonic analysis over rational function fields.

Finite-field towers with exact cyclotomic character values, formal
exponential-sum classes with specialization by point counting, jet-window
test functions with residue-pairing Fourier transforms, the rational-point
summation formula over F_q(t), and cyclic division algebras with a
matched-transform comparison harness.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    CycScalar,
    FieldDescriptor,
    FieldElem,
    cyc_normalize,
    make_field,
    psi,
    trace,
)


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""
