"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the physically meaningful domain."""


class ConvergenceError(RuntimeError):
    """A numerical procedure failed to converge within its budget."""


class InvariantError(RuntimeError):
    """A state or result violates a structural invariant beyond tolerance."""


class DegenerateKernelError(RuntimeError):
    """The population generator has a multidimensional null space."""


# Errors of a numerical evaluation: a sweep records them as a row marker and
# the command line exits 3 on them.
NUMERICAL_ERRORS = (DomainError, ConvergenceError, InvariantError,
                    DegenerateKernelError)


def each_or_alone(kernel, items) -> list:
    """kernel(items), one result per item; if it raises one of NUMERICAL_ERRORS,
    kernel([item]) for each item alone, an item's error standing as its result."""
    try:
        return kernel(items)
    except NUMERICAL_ERRORS as exc:
        if len(items) == 1:
            return [exc]
        return [each_or_alone(kernel, [item])[0] for item in items]
