"""Immutability helper: slot-frozen value objects that still pickle."""


def _all_slots(obj) -> list[str]:
    out = []
    for klass in type(obj).__mro__:
        out.extend(getattr(klass, "__slots__", ()))
    return out


class Frozen:
    """Base for slot-only value types: attributes set once, then sealed.

    Subclasses assign fields with object.__setattr__ in __init__; later
    assignment raises.  State round-trips through pickle, which matters for
    parallel sweeps.  Slots named in _caches hold memo dicts: they are never
    pickled and arrive empty."""

    __slots__ = ()
    _caches: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self):
        return {name: getattr(self, name) for name in _all_slots(self)
                if name not in self._caches}

    def __setstate__(self, state):
        for name in self._caches:
            object.__setattr__(self, name, {})
        for name, value in state.items():
            object.__setattr__(self, name, value)
