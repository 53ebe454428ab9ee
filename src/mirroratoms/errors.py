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
