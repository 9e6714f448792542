"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Malformed input: bad signature, arity, parameter, or spec."""


class SignatureMismatchError(InvalidInputError):
    """Operands carry different pseudo-Euclidean signatures."""


class ConstraintViolationError(InvalidInputError):
    """A curve-family parameter set makes a radicand negative or a
    denominator non-positive.  ``radicand`` names the offending expression
    and ``kind`` says which of the two it is."""

    def __init__(self, radicand: str, value: float, kind: str = "radicand"):
        self.radicand = radicand
        self.value = value
        bound = "negative" if kind == "radicand" else "not positive"
        super().__init__(f"{kind} {radicand} is {bound} (= {value:.6g})")


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
