"""Outside-in tracer: spans around the program's public entry points.

Nothing in ``src/`` knows about this module. The tracer patches entry
points from the outside and restores them on :meth:`Tracer.uninstall`:

- a method is wrapped on the class that defines it (so every instance
  and every subclass that does not override it is covered);
- a module-level function is wrapped at each *import site*, i.e. the
  module global a caller looks it up through (``repro.baselines.lp_all``
  binds ``solve_lp`` at import, so patching ``repro.lp.solver`` alone
  would miss it).

Each wrapped call is a span. Spans nest through a stack, so every span
name reports calls, inclusive time and self time (inclusive minus the
time its child spans cover). A span entered while a ``scope_root`` span
is open is recorded under ``name@<root>`` instead, which keeps, e.g.,
the objective scoring done inside training apart from the scoring done
by the deployment pipeline.

``after`` hooks observe a call's arguments and result (TM counts, ADMM
iteration counts, capacity overshoot before and after). The time a hook
takes is removed from every open span, so hooks shift no layer's
numbers; it still shows in the traced run's end-to-end numbers, which
is part of the tracing overhead the benchmark reports.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    """Aggregate of one span name."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    #: Work units (e.g. traffic matrices) reported by ``units`` callbacks.
    units: float = 0.0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "inclusive_s": self.inclusive_s,
            "self_s": self.self_s,
            "units": self.units,
        }


@dataclass
class _Frame:
    name: str
    scope: str | None
    start: float
    child_s: float = 0.0


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object


@dataclass
class Tracer:
    """Records spans from patched entry points.

    Args:
        scope_roots: Span names that open a scope (see module docstring).
    """

    scope_roots: tuple[str, ...] = ()
    stats: dict[str, SpanStats] = field(default_factory=dict)
    #: Calls per import site / class attribute, for the fired-check.
    site_calls: dict[str, int] = field(default_factory=dict)
    #: Free-form counters filled by hooks.
    counters: dict[str, float] = field(default_factory=dict)
    #: Scratch state hooks carry from one call to the next.
    state: dict = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _patches: list[_Patch] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _enter(self, name: str) -> _Frame:
        scope = self._stack[-1].scope if self._stack else None
        if scope is None and name in self.scope_roots:
            scope = name
        frame = _Frame(name=name, scope=scope, start=0.0)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, units: float) -> None:
        elapsed = time.perf_counter() - frame.start
        self._stack.pop()
        label = frame.name
        # The root span itself is recorded under its plain name.
        if frame.scope is not None and frame.scope != frame.name:
            label = f"{frame.name}@{frame.scope}"
        stats = self.stats.setdefault(label, SpanStats())
        stats.calls += 1
        stats.inclusive_s += elapsed
        stats.self_s += elapsed - frame.child_s
        stats.units += units
        if self._stack:
            self._stack[-1].child_s += elapsed

    def _exclude(self, seconds: float) -> None:
        """Remove ``seconds`` (hook time) from every open span."""
        for frame in self._stack:
            frame.start += seconds

    def in_scope(self) -> str | None:
        """Scope of the innermost open span (None outside every root)."""
        return self._stack[-1].scope if self._stack else None

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, target: str, name: str, units=None, after=None) -> None:
        """Patch one entry point.

        Args:
            target: ``"module:attr"`` for a function at an import site, or
                ``"module:Class.attr"`` for a method on its defining class.
            name: Span name.
            units: Optional ``f(args, kwargs, result) -> float`` giving the
                work units of one call (e.g. its traffic-matrix count).
            after: Optional ``f(tracer, args, kwargs, result)`` hook run
                after the span closes; its time is excluded from spans.

        Raises:
            AttributeError: If the entry point does not exist, so a
                renamed or moved entry point fails loudly.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        if owner_path:
            if attr not in vars(owner):
                raise AttributeError(
                    f"{target}: {owner.__name__} does not define {attr!r}"
                )
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        kind = type(original) if isinstance(
            original, (classmethod, staticmethod)
        ) else None
        function = original.__func__ if kind is not None else original
        tracer = self
        self.site_calls.setdefault(target, 0)

        def wrapper(*args, **kwargs):
            tracer.site_calls[target] += 1
            frame = tracer._enter(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, 0.0)
                raise
            tracer._exit(frame, units(args, kwargs, result) if units else 0.0)
            if after is not None:
                start = time.perf_counter()
                after(tracer, args, kwargs, result)
                tracer._exclude(time.perf_counter() - start)
            return result

        wrapper.__name__ = getattr(function, "__name__", attr)
        wrapper.__doc__ = getattr(function, "__doc__", None)
        wrapper.__wrapped__ = function
        patched = kind(wrapper) if kind is not None else wrapper
        setattr(owner, attr, patched)
        self._patches.append(_Patch(owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched entry point (last patched first)."""
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.attr, patch.original)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def get(self, name: str) -> SpanStats:
        """Stats of a span name (zeros if it never ran)."""
        return self.stats.get(name, SpanStats())

    def per_call_ms(self, name: str) -> float:
        stats = self.get(name)
        return 1000.0 * stats.inclusive_s / stats.calls if stats.calls else 0.0

    def per_unit_ms(self, name: str) -> float:
        stats = self.get(name)
        return 1000.0 * stats.inclusive_s / stats.units if stats.units else 0.0

    def to_dict(self) -> dict:
        return {
            "spans": {k: v.to_dict() for k, v in sorted(self.stats.items())},
            "site_calls": dict(sorted(self.site_calls.items())),
            "counters": dict(sorted(self.counters.items())),
        }
