"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Malformed input: bad signature, arity, parameter, or spec."""


class SignatureMismatchError(InvalidInputError):
    """Operands carry different pseudo-Euclidean signatures."""


def _violated(value, kind: str) -> str:
    """How a radicand (>= 0) or a denominator (> 0) fails its rule."""
    finite = -float("inf") < value < float("inf")
    return "not finite" if not finite else "negative" if kind == "radicand" else "not positive"


class ConstraintViolationError(InvalidInputError):
    """A curve-family parameter set makes a radicand negative, a
    denominator non-positive, or either not finite.  ``radicand`` names the
    offending expression and ``kind`` says which of the two it is."""

    def __init__(self, radicand: str, value: float, kind: str = "radicand"):
        self.radicand = radicand
        self.value = value
        super().__init__(f"{kind} {radicand} is {_violated(value, kind)} (= {value:.6g})")


class PremiseError(InvalidInputError):
    """A surface constructor's curve premises failed.  ``failed`` lists
    the condition ids that did not hold; ``reports`` holds the premise
    reports when the constructor ran a checker that makes them."""

    def __init__(self, failed: list[str], reports: tuple = ()):
        self.failed = list(failed)
        self.reports = tuple(reports)
        super().__init__("premise check failed: " + ", ".join(self.failed))


class DegenerateMetricError(InvalidInputError):
    """The induced metric is not in Lorentz null-coordinate form
    (g_xy >= 0 or a singular Gram matrix)."""


class DomainError(InvalidInputError):
    """Evaluation point outside the declared domain, too close to a
    singular locus, or a domain that touches one."""
