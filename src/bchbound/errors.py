"""Exception types shared across the package."""


class BchboundError(Exception):
    """Base class for all package errors."""


class RejectedModulus(BchboundError):
    """Supplied field modulus is reducible (or otherwise unusable)."""


class NoDefaultPolynomial(BchboundError):
    """No built-in default modulus for the requested (p, m)."""


class OrderUnavailable(BchboundError):
    """Requested root order does not divide the multiplicative group order."""


class InvalidSubfield(BchboundError):
    """Subfield degree does not divide the extension degree."""


class NotCoprime(BchboundError):
    """gcd(n, q) > 1; repeated-root settings are unsupported."""


class ZeroPolynomial(BchboundError):
    """Operation undefined for the zero polynomial."""


class CoefficientLeak(BchboundError):
    """A polynomial expected over a subfield has a coefficient outside it."""


class NotCosetClosed(BchboundError):
    """Index set is not a union of q-cyclotomic cosets."""


class RootMismatch(BchboundError):
    """Two spectra built over different roots were combined, or an n, q or m
    passed beside a root, or a spectrum's length, disagrees with the root."""


class ImproperCode(BchboundError):
    """Defining set is all of Z_n; the zero code is not modeled."""


class NotIrreducible(BchboundError):
    """Polynomial expected to be irreducible is not."""


class NotPrimitiveLength(BchboundError):
    """The primitive family needs q = 2 and n = 2^m - 1 with m >= 2."""


class NotDivisor(BchboundError):
    """Polynomial expected to divide x^n - 1 does not."""


class NotRational(BchboundError):
    """Shifted divisor has spectrum values outside the base field."""


class BudgetExceeded(BchboundError):
    """Divisor search was truncated before completion."""


class UnknownTable(BchboundError):
    """Unrecognized golden-table identifier."""
