"""Numerical toolkit for deformed symplectic structures on cotangent bundles of Lie groups."""

__version__ = "0.1.0"

from .algebra import (
    LieAlgebra,
    ValidationReport,
    ad_matrix,
    get_algebra,
    is_semisimple,
    killing_form,
    load_algebra,
    validate_algebra,
)
from .cohomology import (
    CohomologyDims,
    cohomology_dimensions,
    cocycle_residual,
    delta1_scalar,
    delta1_vector,
    delta2,
    solve_primitive,
)
from .dynamics import (
    InertiaTensor,
    Trajectory,
    euler_reference,
    hamiltonian,
    hamiltonian_vector_field,
    integrate,
    so3_vector_representation,
)
from .errors import (
    DegenerateForm,
    InvalidInput,
    InvalidValue,
    LieDeformError,
    NotACocycle,
    NotAntisymmetric,
    NotExact,
    ShapeMismatch,
    StepRejected,
)
from .phase_space import (
    DeformedStructure,
    DegeneracyReport,
    degeneracy,
    lie_poisson_block,
    load_deformation,
    omega_matrix,
    poisson_tensor,
)
from .symmetry import (
    IsotropySubalgebra,
    isotropy_subalgebra,
)
