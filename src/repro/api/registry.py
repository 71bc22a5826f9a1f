"""A generic name -> implementation registry with decorator registration.

Every pluggable axis of the system — sampling algorithms, execution
algorithms, datasets — is one :class:`Registry` instance (see
:mod:`repro.api.registries`).  Entries carry arbitrary metadata alongside
the registered object, which is how capability gating works: the registry
records *what* an implementation can do and the config layer refuses
combinations the metadata rules out, with an error that names the keys
that would have been accepted.

Usage::

    SAMPLERS = Registry("sampler")

    @SAMPLERS.register("my-sampler", default_conv="sage")
    class MySampler(MatrixSampler):
        ...

    SAMPLERS.get("my-sampler")      # -> MySampler
    SAMPLERS.spec("my-sampler")     # -> RegistryEntry with metadata
    SAMPLERS.names()                # -> sorted names, plugins included
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

__all__ = ["Registry", "RegistryEntry", "RegistryKeyError", "CapabilityError"]


class RegistryKeyError(KeyError):
    """Lookup of a name the registry does not know.

    The message always lists the known keys, so a typo'd ``--sampler`` or a
    config written against a plugin that was never imported is
    self-diagnosing.
    """

    def __init__(self, kind: str, name: str, known: list[str]) -> None:
        self.kind = kind
        self.name = name
        self.known = known
        opts = ", ".join(known) if known else "<none registered>"
        super().__init__(f"unknown {kind} {name!r}; known {kind}s: {opts}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep the sentence.
        return self.args[0]


class CapabilityError(ValueError):
    """A known implementation was asked to do something its registry
    metadata says it cannot (e.g. a sampling-only sampler in the training
    pipeline, or a factory plugin that declares no partitioned support
    under the partitioned execution algorithm)."""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered implementation plus its metadata."""

    name: str
    obj: Any
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def meta(self, key: str, default: Any = None) -> Any:
        return self.metadata.get(key, default)


class Registry:
    """A string-keyed registry of pluggable implementations.

    ``register`` works both as a decorator and as a direct call; either way
    keyword arguments beyond the reserved ``overwrite`` become the entry's
    metadata.  Registering an existing name raises unless ``overwrite=True``
    — silent shadowing of a built-in is never what a plugin author wants.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        obj: Any | None = None,
        *,
        overwrite: bool = False,
        **metadata: Any,
    ) -> Any:
        """Register ``obj`` under ``name``; decorator form when ``obj`` is
        omitted.  Returns the registered object either way."""
        if obj is None:
            def decorator(target: Any) -> Any:
                self.register(name, target, overwrite=overwrite, **metadata)
                return target

            return decorator
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")
        if name in self._entries and not overwrite:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._entries[name] = RegistryEntry(name, obj, dict(metadata))
        return obj

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests and plugin reloads)."""
        if name not in self._entries:
            raise RegistryKeyError(self.kind, name, self.names())
        del self._entries[name]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def spec(self, name: str) -> RegistryEntry:
        """The full entry (object + metadata) for ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryKeyError(self.kind, name, self.names()) from None

    def get(self, name: str) -> Any:
        """The registered object for ``name``."""
        return self.spec(name).obj

    def names(self) -> list[str]:
        """Sorted registered names (built-ins and plugins alike)."""
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"
