"""Exception vocabulary shared by all modules: five categories, each with
the status the CLI gives it (see gpdgalois.cli).

Every error carries a message and, where one helps, a witness: enough
payload to reproduce the offending computation by hand.
"""


class _Error(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ValidationError(_Error):
    """Property: well-formed input that breaks an axiom or a stated
    property (a groupoid, G-set or action axiom, a subgroupoid or
    subalgebra that is not closed)."""

    @classmethod
    def axiom(cls, axiom, witness):
        """A groupoid axiom that fails, with its witness."""
        return cls(f"axiom {axiom} violated (witness: {witness})", witness)


class InvalidInput(ValidationError):
    """Input: malformed or unknown data (a missing key, an unknown label,
    a non-prime characteristic, an element of the wrong length)."""


class SizeBoundExceeded(_Error):
    """Bound: an exhaustive enumeration was asked for beyond its bound."""


class HypothesisFailure(_Error):
    """Hypothesis: the input is well-formed, but a theorem's hypothesis
    fails on it, so the claimed result does not apply.  Never conflated
    with a property failure."""


class OracleMismatch(_Error):
    """Library fault: a structural computation disagreed with its
    brute-force cross-check, or a result failed its own verification.
    Never a verdict on the input."""
