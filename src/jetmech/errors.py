"""Exception hierarchy shared across the package."""


class MechError(Exception):
    """Base class for all jetmech errors."""


class UnboundSymbolError(MechError):
    """A symbol required for evaluation or compilation has no binding."""


class AdmissibilityError(MechError):
    """A homotopy-style operation met a signal outside the polynomial family.

    Carries the offending signal name in ``signal_name``.
    """

    def __init__(self, signal_name: str):
        self.signal_name = signal_name
        super().__init__(
            f"signal '{signal_name}' is not homotopy-admissible "
            "(homotopy decomposition requires polynomial signals)"
        )


class DifferentiationError(MechError):
    """Differentiation request that the expression algebra does not define."""


class ReconstructionError(MechError):
    """A declared Lagrangian/anti-exact split does not rebuild the source form.

    ``residual`` holds the one-form by which the reconstruction misses.
    """

    def __init__(self, residual, message: str):
        self.residual = residual
        super().__init__(message)


class TruncationError(MechError):
    """An integration the command needs whole stopped before the end of its
    grid; the message names why, as ``Trajectory.truncation`` does."""


class SingularMassError(MechError):
    """Mass matrix not invertible at some state (pivot below threshold)."""


class AuditUnsupportedError(MechError):
    """Energy audit requested for a split outside its supported family."""
