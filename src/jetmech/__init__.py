"""jetmech: variational mechanics for non-conservative systems.

Declare a mechanical system as a dynamical one-form F_i dx^i + Pi_i dv^i
on the first-order jet space, split it into an exact Lagrangian part plus
a non-conservative remainder via the homotopy operator, derive the
equations of motion with the dual Spencer operator, and verify the result
numerically against direct Newtonian oracles, energy balance laws and
first-variation quadrature.
"""

from .errors import (
    AdmissibilityError,
    AuditUnsupportedError,
    DifferentiationError,
    MechError,
    ReconstructionError,
    SingularMassError,
    TruncationError,
    UnboundSymbolError,
)
from .symexpr import (
    TAU,
    Expr,
    ForcingSignal,
    PolynomialSignal,
    SinusoidSignal,
    Symbol,
    SymbolKind,
    acc,
    compile_expr,
    coord,
    param,
    partial,
    polynomial_signal,
    scaling_integral,
    signal_symbol,
    sinusoid_signal,
    substitute,
    vel,
)
from .formcalc import (
    Decomposition,
    TwoForm,
    VerticalOneForm,
    accept_user_split,
    d0,
    d1,
    decompose,
    format_one_form,
    format_two_form,
    homotopy,
)
from .spencer import (
    EquationsOfMotion,
    assemble_with_split,
    dual_spencer,
    spencer_residual,
    total_time_derivative,
    variational_derivative,
)
from .dynamics import (
    BalanceReport,
    ExplicitODE,
    Trajectory,
    VariationField,
    assemble_explicit,
    energy_audit,
    first_variation,
    integrate,
    oracle_compare,
    transversality_term,
    write_trajectory_csv,
)
from .dsl import (
    ExprContext,
    ParseError,
    PRESETS,
    SystemSpec,
    format_expr,
    parse_expr,
    parse_system,
    preset,
    text_to_expr,
)

__version__ = "0.1.0"
