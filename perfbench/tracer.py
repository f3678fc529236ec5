"""Layer timers installed from outside the program.

A :class:`Tracer` wraps public functions of the ``repro`` layers with a
timer and, where useful, a work counter.  Nothing in ``src/`` changes: the
wrapper replaces the function object on its defining module or class and on
every loaded ``repro`` module that imported it by name.

Times are inclusive (a hook nested in another hook is counted in both), and
a hook re-entered under the same metric counts only its outermost call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, attribute path, time metric, counter metric, counter function)``.
#: The counter function maps ``(args, kwargs, result)`` to an amount.
Hook = Tuple[str, str, Optional[str], Optional[str], Optional[Callable]]


def _source_kb(args, kwargs, result) -> float:
    source = args[0] if args else kwargs.get("source", "")
    return len(source.encode("utf-8")) / 1024.0


def _one(args, kwargs, result) -> int:
    return 1


def _ranked(args, kwargs, result) -> int:
    return len(result)


def _survivors(args, kwargs, result) -> int:
    survivors = getattr(result, "survivors", None)
    return int(survivors.size) if survivors is not None else 0


def _compile_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "auto")
    return f"ir.compile_s.{mode}"


#: Hooks shared by every workload; a layer the workload never calls reads 0.
HOOKS: Tuple[Hook, ...] = (
    ("repro.stencils.library", "load_pattern", "stencils.load_pattern_s", None, None),
    ("repro.frontend.stencil_detect", "parse_stencil", "frontend.parse_s",
     "frontend.source_kb", _source_kb),
    ("repro.tuning.autotuner", "AutoTuner.rank", "tuning.rank_s",
     "tuning.rank_configs", _ranked),
    ("repro.service.hotcache", "HotModelCache._build_entry", "tuning.rank_s",
     "tuning.rank_configs", _survivors),
    ("repro.tuning.autotuner", "AutoTuner.tune_ranked", "tuning.measure_s", None, None),
    ("repro.sim.timing", "TimingSimulator.simulate", None, "tuning.measure_sims", _one),
    ("repro.campaign.store", "ResultStore.put", "campaign.commit_s", None, None),
    ("repro.campaign.store", "ResultStore.commit_records", "campaign.commit_s", None, None),
    ("repro.campaign.scheduler", "CampaignScheduler.plan", "campaign.plan_s", None, None),
    ("repro.core.transform", "an5d_transform", "core.transform_s", None, None),
    ("repro.codegen.package", "generate_cuda", "codegen.emit_s", None, None),
    ("repro.ir.compile", "compile_pattern", _compile_mode, None, None),
    ("repro.ir.compile", "NativeKernel.__init__", "ir.compile_s.native", None, None),
    ("repro.sim.executor", "BlockedStencilExecutor.run", "sim.blocked_run_s", None, None),
    ("repro.stencils.reference", "run_reference", "stencils.reference_s", None, None),
)


class Tracer:
    """Accumulates seconds and counts per metric name."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.missing: List[str] = []
        self._depth: Dict[str, int] = {}

    def add(self, name: str, amount: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + amount

    def span(self, name: str) -> "_Span":
        """Time a block of the benchmark's own code under ``name``."""
        return _Span(self, name)

    def _wrap(self, func: Callable, metric, counter: Optional[str], count) -> Callable:
        @functools.wraps(func)
        def timed(*args, **kwargs):
            name = metric(args, kwargs) if callable(metric) else metric
            if name is None:
                result = func(*args, **kwargs)
            else:
                depth = self._depth.get(name, 0)
                self._depth[name] = depth + 1
                start = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    self._depth[name] = depth
                    if depth == 0:
                        self.add(name, time.perf_counter() - start)
            if counter is not None:
                self.add(counter, count(args, kwargs, result))
            return result

        return timed

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook target; record the ones that no longer exist."""
        for module_name, path, metric, counter, count in hooks:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(raw.__func__, metric, counter, count)))
                continue
            wrapped = self._wrap(raw, metric, counter, count)
            setattr(owner, attr, wrapped)
            if owner is module:
                # Rebind copies made by ``from module import name``.
                for name, loaded in list(sys.modules.items()):
                    if not name.startswith("repro") or loaded is None:
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is raw:
                            setattr(loaded, key, wrapped)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.add(self.name, time.perf_counter() - self.start)
