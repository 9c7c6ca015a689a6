"""The :class:`EngineBuilder`: fluent assembly of an engine.

The front door the CLI (both ``run`` and ``serve``), the mp workers and
``benchmarks/core`` use: it accumulates programs, config, cost model
and plugins, and constructs the engine — exactly
``DynamicEngine(programs, config, plugins=[...])``, spelled fluently.
A built engine has no phase grammar: streams may be attached, events
injected, collections requested and ``run()`` called in any order for
as long as the object lives (the one ordering rule, a fault plan goes
in before the first ``run()``, is checked where it applies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.runtime.plugins import EnginePlugin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import DynamicEngine


class EngineBuilder:
    """Fluent assembly of a :class:`DynamicEngine` with plugins.

    Usage::

        engine = (
            EngineBuilder()
            .with_programs([prog])
            .with_config(EngineConfig(n_ranks=4))
            .with_plugin(TracerPlugin())
            .build()
        )

    ``build()`` constructs the engine, which runs every plugin's
    ``setup`` in registration order.
    """

    def __init__(self) -> None:
        self._programs: list[Any] = []
        self._config: Any | None = None
        self._cost_model: Any | None = None
        self._plugins: list[EnginePlugin] = []

    def with_programs(self, programs: Sequence[Any]) -> "EngineBuilder":
        self._programs = list(programs)
        return self

    def with_config(self, config: Any) -> "EngineBuilder":
        self._config = config
        return self

    def with_cost_model(self, cost_model: Any) -> "EngineBuilder":
        self._cost_model = cost_model
        return self

    def with_plugin(self, plugin: EnginePlugin) -> "EngineBuilder":
        self._plugins.append(plugin)
        return self

    def with_plugins(self, plugins: Iterable[EnginePlugin]) -> "EngineBuilder":
        self._plugins.extend(plugins)
        return self

    def build(self) -> "DynamicEngine":
        from repro.runtime.engine import DynamicEngine, EngineConfig

        config = self._config if self._config is not None else EngineConfig()
        kwargs: dict[str, Any] = {"plugins": list(self._plugins)}
        if self._cost_model is not None:
            kwargs["cost_model"] = self._cost_model
        return DynamicEngine(self._programs, config, **kwargs)
