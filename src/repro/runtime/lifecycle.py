"""Engine lifecycle phases and the :class:`EngineBuilder`.

A :class:`~repro.runtime.engine.DynamicEngine` moves through a fixed
grammar of named phases::

    configure -> setup -> { ingest | drain | collect | harvest }* -> teardown

``configure`` and ``setup`` happen exactly once, inside construction
(plugins attach state and hooks during ``setup``).  The four *steady*
phases interleave freely for the life of the engine: ``ingest``
(streams attached / events injected), ``drain`` (the event loop runs
toward quiescence), ``collect`` (a versioned global collection cuts),
and ``harvest`` (a collection's partials are merged at the coordinator).  ``teardown`` is terminal and idempotent —
re-entering it is a no-op, while advancing anywhere else afterwards
raises :class:`LifecycleError`.

:class:`Lifecycle` is the bookkeeping object: it validates transitions
and records the history of *distinct* phase entries (consecutive
repeats of a steady phase are coalesced, so the history stays bounded
by actual phase changes, not event counts).  The engine consults the
return value of :meth:`Lifecycle.advance` to fire plugin
``on_phase`` callbacks only on genuine transitions.

:class:`EngineBuilder` is the front door the CLI (both ``run`` and
``serve``) and the mp workers use: it accumulates programs, config,
cost model, partitioner, and plugins, and constructs the engine —
exactly ``DynamicEngine(programs, config, plugins=[...])``, spelled
fluently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.runtime.plugins import EnginePlugin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import DynamicEngine

#: The phase grammar, in canonical order.  The middle four are the
#: *steady* phases and may interleave arbitrarily.
PHASES: tuple[str, ...] = (
    "configure",
    "setup",
    "ingest",
    "drain",
    "collect",
    "harvest",
    "teardown",
)

_STEADY: frozenset[str] = frozenset({"ingest", "drain", "collect", "harvest"})


class LifecycleError(RuntimeError):
    """An illegal phase transition (e.g. ingest after teardown)."""


class Lifecycle:
    """Tracks and validates an engine's progress through :data:`PHASES`.

    ``phase`` is the current phase (``None`` before ``configure``);
    ``history`` lists every distinct phase entry in order.
    """

    __slots__ = ("phase", "history")

    def __init__(self) -> None:
        self.phase: str | None = None
        self.history: list[str] = []

    def advance(self, phase: str) -> bool:
        """Move to ``phase``.

        Returns ``True`` when this is a genuine transition, ``False``
        for the two legal no-op repeats (a steady phase re-entering
        itself, and ``teardown`` after ``teardown``).  Raises
        :class:`LifecycleError` for any transition outside the grammar.
        """
        if phase not in PHASES:
            raise LifecycleError(f"unknown lifecycle phase {phase!r}")
        cur = self.phase
        if cur == phase:
            if phase in _STEADY or phase == "teardown":
                return False  # coalesced repeat
            raise LifecycleError(f"phase {phase!r} may only run once")
        if cur == "teardown":
            raise LifecycleError(
                f"engine is torn down; cannot enter phase {phase!r}"
            )
        if phase == "configure":
            ok = cur is None
        elif phase == "setup":
            ok = cur == "configure"
        elif phase in _STEADY:
            ok = cur == "setup" or cur in _STEADY
        else:  # teardown: legal from anywhere after configure
            ok = cur is not None
        if not ok:
            raise LifecycleError(
                f"illegal lifecycle transition {cur!r} -> {phase!r}"
            )
        self.phase = phase
        self.history.append(phase)
        return True

    @property
    def torn_down(self) -> bool:
        return self.phase == "teardown"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Lifecycle(phase={self.phase!r}, history={self.history!r})"


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
    ``setup`` and compiles all registered hooks into per-site flat
    tuples (registration order is setup and hook firing order).
    """

    def __init__(self) -> None:
        self._programs: list[Any] = []
        self._config: Any | None = None
        self._cost_model: Any | None = None
        self._partitioner: Any | None = None
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

    def with_partitioner(self, partitioner: Any) -> "EngineBuilder":
        self._partitioner = partitioner
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
        if self._partitioner is not None:
            kwargs["partitioner"] = self._partitioner
        return DynamicEngine(self._programs, config, **kwargs)
