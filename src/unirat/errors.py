"""Exception types shared across the package."""


class UniratError(Exception):
    """Base class for all package errors."""


class InvalidInputError(UniratError, ValueError):
    """Rejected input: non-finite entries, bad shapes, bad parameters."""


class NodeCollisionError(InvalidInputError):
    """A test node coincides with a support node where that is not allowed."""

    def __init__(self, test_node, support_node):
        self.test_node = test_node
        self.support_node = support_node
        super().__init__(
            f"test node {test_node!r} collides with support node {support_node!r}"
        )


class NumericalFailureError(UniratError, RuntimeError):
    """An iterative kernel failed to converge; carries the final residual."""

    def __init__(self, message, residual):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class PoleEvaluationError(UniratError, ArithmeticError):
    """The denominator of a rational approximant vanished at an evaluation
    point, a support node whose denominator coefficient is 0 included."""

    def __init__(self, location):
        self.location = location
        super().__init__(f"denominator vanishes at x = {location!r}")

