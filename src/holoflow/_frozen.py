"""Immutability helper: slot-frozen value objects."""


class Frozen:
    """Base for slot-only value types: attributes set once, then sealed.

    Subclasses assign fields with object.__setattr__ in __init__; later
    assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
