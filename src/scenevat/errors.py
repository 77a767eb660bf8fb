"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user-supplied data: malformed files, bad labels, shape mismatches."""


class DistanceOverflow(InputError):
    """Feature distances too large to square: a report skips the subset."""


class NumericError(RuntimeError):
    """A numeric computation could not be completed: a report skips the subset."""


class DegenerateImageError(NumericError):
    """Image whose intensity histogram admits no threshold (single level)."""
