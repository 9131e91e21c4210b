"""Built-in systems: the planar constrained toy model, the relativistic
point particle, a user-defined polynomial system, and abelian gauge fields on
a periodic lattice.

The first three share the interface behind the ``brackets`` and ``evolve``
commands: ``bracket_chart`` and its ``bracket_pairs``, ``sample(rng, count)``
(one validated batch: a ``PhaseSpacePoint`` of (count, dim) coordinates),
``constraints_at(x)`` and ``dirac_oracle(pair, x)`` at a point or a batch (None
where there is no closed form), ``flow(kind, multiplier, hamiltonian)``
returning the flow and the constraint set to monitor, and ``initial_point(...)``
(None unless the model knows the named starting values).
"""

from .custom import CustomModel
from .klauder import KlauderModel, KRamp, RadialPotential
from .maxwell import LatticeMaxwell
from .particle import RelativisticParticle

__all__ = ["CustomModel", "KlauderModel", "KRamp", "RadialPotential", "LatticeMaxwell",
           "RelativisticParticle"]
