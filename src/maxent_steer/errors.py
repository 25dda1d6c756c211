"""Exception hierarchy shared by all solver modules."""


class SteeringError(Exception):
    """Base class for every error raised by this package."""


class IndefiniteInput(SteeringError):
    """A matrix that must be positive semidefinite has a significantly negative eigenvalue."""


class NotPD(SteeringError):
    """A matrix that must be positive definite is not."""


class SingularBlock(SteeringError):
    """The conditioned block of a joint covariance is numerically singular."""


class SingularA(SteeringError):
    """A state matrix that must be inverted is numerically singular.

    Carries the step index at which the inversion failed.
    """

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"state matrix A_{step} is numerically singular")


class BadWindow(SteeringError):
    """A Gramian was requested over an empty or reversed time window."""


class SingularGramian(SteeringError):
    """A Gramian that must be inverted is numerically singular."""


class GateNotPD(SteeringError):
    """A gate matrix I + B^T Pi B lost positive definiteness during a Riccati sweep.

    Carries the step index at which the gate failed.
    """

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(
            message or f"gate matrix at step {step} is not positive definite"
        )


class BranchDegenerate(SteeringError):
    """A gate matrix built from the minus-branch Lyapunov solution failed to be
    positive definite, signalling violated solvability hypotheses."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(
            message or f"minus-branch gate at step {step} is not positive definite"
        )


class NumericalLimit(SteeringError):
    """A result is out of reach of the working precision, not mathematically refused:
    for example a Riccati sweep whose Pi overflowed from a finite terminal weight.

    Carries the step index at which the computation left the representable range.
    """

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"computation left the floating-point range at step {step}")


class NonpositiveEpsilon(SteeringError):
    """The entropy weight must be strictly positive and finite."""


class InfeasibleProblem(SteeringError):
    """The steering problem violates the solvability assumptions.

    ``report`` holds the :class:`~maxent_steer.system.FeasibilityReport`
    when the failure was detected by the validator.
    """

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class DimensionMismatch(SteeringError):
    """Shapes of system, policy, or boundary data are inconsistent."""


class NotTwoDimensional(SteeringError):
    """Ellipse output is only defined for two-dimensional state spaces."""


class ParseError(SteeringError):
    """A problem-specification or policy file could not be parsed."""
