"""Exception hierarchy shared across the package."""


class SuperAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class NotAUnit(SuperAlgebraError):
    """Element has no inverse in the (localized) supercommutative ring."""


class ParityMismatch(SuperAlgebraError):
    """An even slot received an odd value or vice versa."""


class InvertibleOddVariable(SuperAlgebraError):
    """Odd variables are nilpotent and can never be declared invertible."""


class NegativePowerOfNonInvertible(SuperAlgebraError):
    """Negative exponent on a variable that was not declared invertible."""


class ExponentOverflow(SuperAlgebraError):
    """An exponent beyond the range a packed monomial key holds."""


class NumberTooLong(SuperAlgebraError):
    """A result holds an integer with more digits than Python writes as
    text (sys.get_int_max_str_digits())."""


class ExprSyntaxError(SuperAlgebraError):
    """Positioned syntax error in the expression grammar."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DuplicateVariable(SuperAlgebraError):
    pass


class UnknownVariable(SuperAlgebraError):
    pass


class ShapeMismatch(SuperAlgebraError):
    pass


class SingularReduction(SuperAlgebraError):
    """Numeric reduction of a matrix block is not invertible (or not numeric)."""


class NonMonicDivisor(SuperAlgebraError):
    pass


class RankOrderViolation(SuperAlgebraError):
    """Raised when q > p (or q < 0); these families have no canonical form here."""


class ChartMismatch(SuperAlgebraError):
    pass


class NotCanonicalizable(SuperAlgebraError):
    """Leading coefficients are not units on this chart: the family leaves it."""


class TooManyUnknowns(SuperAlgebraError):
    """A bounded solve with more than obstruction.MAX_UNKNOWNS unknowns."""


class CertificateError(SuperAlgebraError):
    """A computed result failed the exact identity that certifies it."""


class HigherOrderTerms(NotCanonicalizable):
    """A transition rule carried odd terms beyond its second-order split."""
