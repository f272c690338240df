"""Reduction, averaging and relative equilibria of perturbed 4-D isotropic
oscillators in 1:1:1:1 resonance.

Layers, bottom up:

* ``model``       -- the Cartesian Hamiltonian, its integrals, a monitored
                     reference integrator;
* ``invariants``  -- quadratic invariants, staged orbit maps, the reduced
                     Lie-Poisson dynamics on the final surface;
* ``charts``      -- projective Euler / projective Andoyer / 4-D Delaunay
                     symplectic charts and their compositions;
* ``normalform``  -- averaging over the fast Delaunay angle to second order,
                     with an independent bracket oracle;
* ``equilibria``  -- relative equilibria of the averaged flow and their
                     cross-validation against the Poisson side;
* ``verify``      -- the property-suite battery behind `resonance-lab verify`;
* ``cli``         -- the command-line front end.
"""

from .model import (
    CartesianState,
    IntegralValues,
    IntegrationError,
    ModelParams,
    Trajectory,
    canonical_bracket,
    first_integrals,
    hamiltonian,
    integrate,
)
from .invariants import (
    EmptyReducedSpaceError,
    KLJVector,
    PiVector,
    ThriceReducedPoint,
    f_of_K,
    feasible_interval,
    klj_map,
    pi_map,
    reduced_flow,
    reduced_h3,
    second_space_residuals,
    thrice_map,
)
from .charts import (
    AndoyerPoint,
    ChartDomainError,
    DegenerateEccentricityError,
    DelaunayPoint,
    EulerPoint,
    andoyer_to_delaunay,
    andoyer_to_euler,
    cartesian_to_delaunay,
    cartesian_to_euler,
    composed_h0,
    connection_G,
    delaunay_to_andoyer,
    delaunay_to_cartesian,
    delaunay_to_positions,
    euler_to_andoyer,
    euler_to_cartesian,
    kepler_solve,
)
from .normalform import (
    NFCoefficientsOrder1,
    average_over_ell,
    normalized_rhs,
    order1_coeffs,
    perturbation_delaunay,
    second_order_oracle,
    w1,
)
from .equilibria import (
    EquilibriumRecord,
    assemble_eta_poly,
    cross_validate,
    periodic_branches,
    solve_tori3,
    sweep,
)

__version__ = "0.1.0"
