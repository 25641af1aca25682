"""Exception types shared across the package."""


class DomratError(Exception):
    """Base class for all package-specific errors."""


class InputError(DomratError, ValueError):
    """Malformed user input (set literals, DSL text, bad parameters)."""


class CapExceededError(DomratError, RuntimeError):
    """A configurable resource cap was exceeded.

    Carries enough context to tell the user which knob to raise.
    """

    def __init__(self, what, value, cap):
        self.what = what
        self.value = value
        self.cap = cap
        super().__init__(f"{what}={value} exceeds cap {cap}")


class CertificateError(DomratError):
    """A computed certificate failed its own re-verification."""


class ZeroResidueError(InputError):
    """An element of the generator set is divisible by the modulus."""

    def __init__(self, element, modulus):
        self.element = element
        self.modulus = modulus
        super().__init__(f"element {element} is congruent to 0 modulo {modulus}")
