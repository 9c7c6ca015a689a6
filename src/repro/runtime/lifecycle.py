"""The :class:`EngineBuilder`: ``DynamicEngine(programs, config,
cost_model, plugins=)`` spelled fluently.

Nothing in the package builds an engine through it: the CLI and the mp
workers construct :class:`~repro.runtime.engine.DynamicEngine` directly.
It stays only because the frozen ``benchmarks/core/workloads.py``
imports it; ROADMAP item 15-1, which unfreezes that benchmark, deletes
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.runtime.plugins import EnginePlugin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import DynamicEngine


class EngineBuilder:
    """Fluent assembly of a :class:`DynamicEngine`; ``build()`` runs
    every plugin's ``setup`` in list order."""

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
