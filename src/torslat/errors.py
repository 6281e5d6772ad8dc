"""Exception hierarchy.

Three resource-style families matter to callers: ResourceError (a budget or
closure bound was exceeded, exit code 2), UsageError (bad input, exit code 3),
PreconditionError (an operation was applied to an object outside its stated
domain, exit code 4).  VerificationError subclasses signal that a verified
structural identity failed to hold, which always indicates a bug (exit code 1).
"""


class TorslatError(Exception):
    """Base class for every error raised by this package."""


class ResourceError(TorslatError):
    """An enumeration budget or closure bound was exceeded."""


class PathBlowup(ResourceError):
    """Path enumeration passed the budget; the algebra is too large or infinite-dimensional."""


class DecomposeBlowup(ResourceError):
    """Endomorphism enumeration needed for a decomposition passed the budget."""


class IsoSearchBlowup(ResourceError):
    """Enumeration of the rays of a Hom space (modrep.hom_rays) passed the budget."""


class SubspaceBlowup(ResourceError):
    """Subspace-tuple enumeration or the scan of Ext^1 classes passed the budget."""


class NotClosed(ResourceError):
    """The indecomposable catalog is not quotient- and extension-closed at the dimension bound."""


class LatticeBlowup(ResourceError):
    """Lattice enumeration passed the node budget."""


class UsageError(TorslatError):
    """Malformed input."""


class SpecParseError(UsageError):
    """An algebra spec file could not be parsed."""


class BadRelation(UsageError):
    """A relation is shorter than two arrows, non-composable, or names an unknown arrow."""


class NotAnInterval(UsageError):
    """The requested bottom and top are not nodes with bottom contained in top."""


class UnknownProperty(UsageError):
    """A verification property id is not registered."""


class PreconditionError(TorslatError):
    """An operation's precondition does not hold for the given arguments."""


class NotWide(PreconditionError):
    """The subcategory is not wide."""


class NotWideInterval(PreconditionError):
    """The interval is not wide."""


class NotSerre(PreconditionError):
    """The subcategory is not Serre inside the expected ambient wide subcategory."""


class VerificationError(TorslatError):
    """A structural identity that is always verified at construction time failed."""


class TheoremViolation(VerificationError):
    """Two routes that must agree disagreed; the message carries a witness."""


class AuditFailed(VerificationError):
    """A morphism-level audit found a kernel, image, or cokernel outside the expected class."""


class LabelNotBrick(VerificationError):
    """No brick generates the interval category of a cover arrow."""


class LabelNotUnique(VerificationError):
    """More than one brick sits in the interval category of a cover arrow."""
