"""Engine registry and factory: every engine constructible by name.

The stack grew seven-plus engine classes that were constructed ad hoc
with magic batch sizes at dozens of call sites. This module is the one
construction path:

* :func:`register_engine` — decorator that records a factory under a
  short name together with its parameter schema (derived from the
  factory signature) and option aliases (``bs`` -> ``batch_size``);
* :class:`EngineConfig` — a parsed engine spec;
* :func:`build_engine` — turn a spec string, config, or name plus
  keyword overrides into a live engine.

Spec grammar::

    name[:arg,...][,key=value,...]

    "batch"                          -> BatchSearchExecutor, defaults
    "batch:sha3-256,bs=16384"        -> positional hash, aliased option
    "parallel:sha1,workers=4"        -> full option names work too
    "fleet:host,flaky-apu,hash=sha1" -> device tokens first, like the constructor

Dotted specs bypass the registry and name a factory directly — how the
engines with a single caller are built::

    "repro.runtime.original_batch.BatchOriginalRBCSearch:aes-128,bs=4096"

Values are coerced to the type of the factory parameter's default
(int / float / bool / str); a ``None`` default (``workers=``) falls
back to literal guessing (int, then float, then str).

Built-in engines live in :mod:`repro.engines.builtin`; the module is
imported lazily on first use so the registry itself stays import-light
and free of cycles with :mod:`repro.runtime`.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engines.result import SearchEngine

__all__ = [
    "EngineConfig",
    "EngineEntry",
    "register_engine",
    "build_engine",
    "engine_names",
    "engine_entries",
    "get_entry",
]

#: Option aliases every engine accepts, merged with per-engine aliases.
_COMMON_ALIASES = {
    "bs": "batch_size",
    "hash": "hash_name",
    "it": "iterator",
    "kg": "keygen_name",
}

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class EngineConfig:
    """A parsed engine spec: name, positional args, keyword options."""

    name: str
    args: tuple[str, ...] = ()
    options: tuple[tuple[str, str], ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "EngineConfig":
        """Parse ``name[:arg,...][,key=value,...]`` into a config."""
        spec = spec.strip()
        if not spec:
            raise ValueError("empty engine spec")
        name, _, rest = spec.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"engine spec {spec!r} has no engine name")
        args: list[str] = []
        options: list[tuple[str, str]] = []
        for token in filter(None, (t.strip() for t in rest.split(","))):
            key, eq, value = token.partition("=")
            if eq:
                options.append((key.strip(), value.strip()))
            elif options:
                raise ValueError(
                    f"positional value {token!r} after keyword options "
                    f"in spec {spec!r}"
                )
            else:
                args.append(token)
        return cls(name=name, args=tuple(args), options=tuple(options))

    def spec_string(self) -> str:
        """Render back to the canonical spec string."""
        parts = list(self.args) + [f"{k}={v}" for k, v in self.options]
        return self.name if not parts else f"{self.name}:{','.join(parts)}"


@dataclass(frozen=True)
class EngineEntry:
    """One registry row: factory plus its introspected config schema."""

    name: str
    factory: Callable[..., SearchEngine]
    description: str
    aliases: tuple[tuple[str, str], ...] = ()
    #: (param, default_repr, type_name) rows, in signature order.
    schema: tuple[tuple[str, str, str], ...] = field(default=())

    def alias_map(self) -> dict[str, str]:
        merged = dict(_COMMON_ALIASES)
        merged.update(self.aliases)
        return merged


_REGISTRY: dict[str, EngineEntry] = {}
_builtins_loaded = False


def _schema_rows(signature: inspect.Signature) -> tuple[tuple[str, str, str], ...]:
    rows = []
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        if parameter.default is inspect.Parameter.empty:
            default_repr, type_name = "<required>", "?"
        else:
            default_repr = repr(parameter.default)
            type_name = (
                type(parameter.default).__name__
                if parameter.default is not None
                else "?"
            )
        rows.append((parameter.name, default_repr, type_name))
    return tuple(rows)


def register_engine(
    name: str,
    *,
    description: str,
    aliases: dict[str, str] | None = None,
) -> Callable[[Callable[..., SearchEngine]], Callable[..., SearchEngine]]:
    """Decorator: record ``factory`` under ``name`` in the registry."""

    def _register(factory: Callable[..., SearchEngine]) -> Callable[..., SearchEngine]:
        if name in _REGISTRY:
            raise ValueError(f"engine {name!r} is already registered")
        signature = inspect.signature(factory)
        _REGISTRY[name] = EngineEntry(
            name=name,
            factory=factory,
            description=description,
            aliases=tuple(sorted((aliases or {}).items())),
            schema=_schema_rows(signature),
        )
        return factory

    return _register


def _ensure_builtins() -> None:
    """Load the built-in registrations exactly once, lazily.

    Lazy so that ``repro.runtime`` modules can import this module at
    module scope without creating an import cycle (the builtin module
    imports the runtime engines).
    """
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        importlib.import_module("repro.engines.builtin")


def engine_names() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def engine_entries() -> tuple[EngineEntry, ...]:
    """Every registry row, sorted by name."""
    _ensure_builtins()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_entry(name: str) -> EngineEntry:
    """The registry row for ``name`` (raises ``KeyError`` with choices)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def _coerce(value: str, default: Any) -> Any:
    """Coerce a spec-string value to the type of the parameter default."""
    if isinstance(default, bool):
        lowered = value.lower()
        if lowered in _TRUE_WORDS:
            return True
        if lowered in _FALSE_WORDS:
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    if default is None:
        for caster in (int, float):
            try:
                return caster(value)
            except ValueError:
                continue
    return value


def _dotted_factory(name: str) -> Callable[..., SearchEngine]:
    """Resolve ``pkg.module.Attribute`` to a callable factory."""
    module_name, _, attribute = name.rpartition(".")
    if not module_name:
        raise ValueError(f"dotted engine spec {name!r} has no module part")
    module = importlib.import_module(module_name)
    factory = getattr(module, attribute)
    if not callable(factory):
        raise TypeError(f"dotted engine spec {name!r} is not callable")
    return factory


def _bind_config(
    config: EngineConfig,
    factory: Callable[..., SearchEngine],
    alias_map: dict[str, str],
    overrides: dict[str, Any],
) -> SearchEngine:
    signature = inspect.signature(factory)
    parameters = [
        p
        for p in signature.parameters.values()
        if p.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.KEYWORD_ONLY,
        )
    ]
    var_positional = next(
        (
            p
            for p in signature.parameters.values()
            if p.kind == inspect.Parameter.VAR_POSITIONAL
        ),
        None,
    )
    kwargs: dict[str, Any] = {}

    positional = [
        p for p in parameters if p.kind != inspect.Parameter.KEYWORD_ONLY
    ]
    varargs: tuple[str, ...] = ()
    if len(config.args) > len(positional):
        if var_positional is None:
            raise ValueError(
                f"engine {config.name!r} takes at most {len(positional)} "
                f"positional values, got {len(config.args)}"
            )
        # Factories with a *args parameter (e.g. ``fleet:gpu,flaky-apu``)
        # receive the overflow as raw strings; such factories should make
        # every other parameter keyword-only.
        varargs = config.args[len(positional) :]
    for parameter, value in zip(positional, config.args):
        kwargs[parameter.name] = _coerce(value, parameter.default)

    by_name = {p.name: p for p in parameters}
    for key, value in config.options:
        canonical = alias_map.get(key, key)
        if canonical not in by_name:
            raise ValueError(
                f"engine {config.name!r} has no option {key!r}; "
                f"known: {', '.join(sorted(by_name))}"
            )
        if canonical in kwargs:
            raise ValueError(
                f"option {canonical!r} given twice in spec for {config.name!r}"
            )
        kwargs[canonical] = _coerce(value, by_name[canonical].default)

    for key, value in overrides.items():
        canonical = alias_map.get(key, key)
        if canonical not in by_name:
            raise ValueError(
                f"engine {config.name!r} has no option {key!r}; "
                f"known: {', '.join(sorted(by_name))}"
            )
        kwargs[canonical] = value
    if varargs:
        return factory(*varargs, **kwargs)
    return factory(**kwargs)


def build_engine(spec: str | EngineConfig, **overrides: Any) -> SearchEngine:
    """Construct an engine from a spec string, config, or name.

    ``overrides`` are applied after the spec's own options and accept
    the same aliases, so call sites can say
    ``build_engine("batch", hash_name=name, batch_size=4096)``.
    """
    config = EngineConfig.parse(spec) if isinstance(spec, str) else spec
    if "." in config.name:
        factory = _dotted_factory(config.name)
        alias_map = dict(_COMMON_ALIASES)
    else:
        entry = get_entry(config.name)
        factory = entry.factory
        alias_map = entry.alias_map()
    return _bind_config(config, factory, alias_map, overrides)
