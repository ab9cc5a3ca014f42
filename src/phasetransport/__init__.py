"""Momentum-affine parallel transport of particle worldlines.

A transport kernel affine in momentum — a momentum-independent block
plus a momentum-linear block — covers free fall (the linear block built
from metric derivatives) and the Lorentz force (the constant block
e times the field strength) in one integrator.  Curvature contractions
and potential-closure checks validate the field inputs; a small CLI
runs bundled scenarios against closed-form references.
"""

from .connection import (
    NonLinearConnection,
    Particle,
    electromagnetic_connection,
    gravitational_connection,
    superpose,
    zero_connection,
)
from .curvature import bianchi_residual, closure_residual, faraday_field_of
from .errors import (
    IncompatibleChecker,
    MalformedFaraday,
    NonMonotoneTime,
    OutsideDomain,
    ParseError,
    SingularMetric,
    StepRejected,
    TransportError,
    ValidationError,
)
from .fields import (
    AntisymmetricFaraday,
    FaradayField,
    UniformFaraday,
    VectorPotential,
    axial_magnetic_potential_spherical,
    coulomb_potential,
    eb_from_matrix,
    matrix_from_eb,
    uniform_faraday,
    uniform_field_potential,
    zero_potential,
)
from .metrics import minkowski, schwarzschild, weak_field, without_closed_form
from .tensor import (
    DomainGuard,
    FlatMetric,
    FourVector,
    MetricField,
    SpacetimeEvent,
)
from .report import CHECKERS, CSV_COLUMNS, RunReport, check, emit, run
from .scenarios import (
    Scenario,
    builtin_names,
    load_builtin,
    load_scenario,
    load_scenario_file,
)
from .transport import (
    IntegratorConfig,
    PhaseState,
    Trajectory,
    TrajectorySample,
    acceleration_terms,
    coordinate_force,
    geodesic_integrate,
    integrate,
    minimal_substitution_trajectory,
)

__version__ = "0.1.0"
