"""String-keyed substrate registry.

Third-party substrates plug into a run without touching the runtime:
register a factory under a name, then put the name into
``RuntimeConfig(substrates=[...])`` or pass it to
``repro run --substrate NAME``.  The built-ins (``profiling``,
``tracing``, ``validation``, ``stats``, ``recorder``) are registered
when :mod:`repro.substrates` is imported.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, List

from repro.errors import SubstrateError
from repro.substrates.base import Substrate

_FACTORIES: Dict[str, Callable[..., Substrate]] = {}


def register_substrate(
    name: str, factory: Callable[..., Substrate], *, replace: bool = False
) -> None:
    """Register ``factory`` (class or callable) under ``name``.

    The factory is called with the keyword arguments passed to
    :func:`get_substrate` and must return a :class:`Substrate`.  A second
    registration of the same name raises unless ``replace=True``.
    """
    if not callable(factory):
        raise TypeError(f"substrate factory for {name!r} is not callable: {factory!r}")
    if name in _FACTORIES and not replace:
        raise SubstrateError(
            f"substrate {name!r} is already registered (pass replace=True to override)"
        )
    _FACTORIES[name] = factory


def unregister_substrate(name: str) -> None:
    """Remove a registration (mainly for tests); unknown names are ignored."""
    _FACTORIES.pop(name, None)


def get_substrate(name: str, **kwargs) -> Substrate:
    """Instantiate the substrate registered under ``name``.

    Raises :class:`~repro.errors.SubstrateError` with a did-you-mean
    suggestion for unknown names.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        suggestion = ""
        close = difflib.get_close_matches(name, _FACTORIES, n=1)
        if close:
            suggestion = f" -- did you mean {close[0]!r}?"
        raise SubstrateError(
            f"unknown substrate {name!r}{suggestion} "
            f"(available: {', '.join(available_substrates())})"
        )
    substrate = factory(**kwargs)
    if not isinstance(substrate, Substrate):
        raise SubstrateError(
            f"factory for {name!r} returned {type(substrate).__name__}, "
            "not a Substrate"
        )
    return substrate


def available_substrates() -> List[str]:
    """Sorted names of all registered substrates."""
    return sorted(_FACTORIES)
