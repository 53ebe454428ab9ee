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
    each half of the items again the same way, down to items alone, whose
    error stands as their result. k failing items among n cost at most
    1 + 2 k ceil(log2 n) kernel calls (adaptive group testing)."""
    try:
        return kernel(items)
    except NUMERICAL_ERRORS as exc:
        if len(items) == 1:
            return [exc]
        half = len(items) // 2
        return each_or_alone(kernel, items[:half]) + each_or_alone(kernel, items[half:])


def _filled(out, kernel, size: int) -> list:
    """Each point's error, or None, of `kernel` over index lists of the
    points 0..size-1, whose results it writes to out[..., points];
    `each_or_alone` halves a failing batch down to its failing points."""
    def fill(points):
        out[..., points] = kernel(points)
        return [None] * len(points)
    return each_or_alone(fill, list(range(size)))
