"""jetmech: variational mechanics for non-conservative systems.

Declare a mechanical system as a dynamical one-form F_i dx^i + Pi_i dv^i
on the first-order jet space, split it into an exact Lagrangian part plus
a non-conservative remainder via the homotopy operator, derive the
equations of motion with the dual Spencer operator, and verify the result
numerically against direct Newtonian oracles, energy balance laws and
first-variation quadrature.

Each public name is imported from its one home module, such as
``jetmech.symexpr`` or ``jetmech.dynamics``. The package re-exports none of
them, so importing a layer loads only the layers it builds on.
"""

__version__ = "0.1.0"
