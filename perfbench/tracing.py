"""Layer tracing for the traced benchmark run.

The program is not edited: this module wraps each layer's public
functions from the outside, records one span per call (name, layer,
start, end, parent) in memory, and restores every original on
uninstall.  A layer's self time is the time its spans cover minus the
time their child spans cover, so self times partition the top-level
spans and their sum can never exceed the traced wall time.

Functions are imported by name across the package (``from ..tensor.svd
import truncated_svd``), so a wrapped function is rebound in every
``repro`` module that holds the same object, not only where it is
defined.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, qualified name) of every wrapped public call.
TRACED_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("simulation", "repro.core.pipeline", "EnsembleStudy.create"),
    ("simulation", "repro.simulation.ensemble", "full_space_tensor"),
    ("sampling", "repro.sampling.sub_ensemble", "select_sub_ensembles"),
    ("sampling", "repro.sampling.base", "Sampler.sample"),
    ("core.stitch", "repro.core.stitch", "join_tensor"),
    ("core.m2td", "repro.core.m2td", "m2td_decompose"),
    ("core.evaluate", "repro.core.m2td", "M2TDResult.accuracy"),
    ("tensor.svd", "repro.tensor.tucker", "hosvd"),
    ("tensor.svd", "repro.tensor.svd", "truncated_svd"),
    ("tensor.reconstruct", "repro.tensor.tucker", "TuckerTensor.reconstruct"),
    ("runtime", "repro.runtime.scheduler", "Runtime.run"),
    ("runtime", "repro.runtime.scheduler", "Runtime.call"),
    ("runtime.cache", "repro.runtime.cache", "ResultCache.get"),
    ("runtime.cache", "repro.runtime.cache", "ResultCache.put"),
    ("campaigns", "repro.campaigns.orchestrator", "CampaignOrchestrator.run"),
    ("storage.write", "repro.storage.store", "BlockTensorStore.put"),
    ("storage.read", "repro.storage.store", "BlockTensorStore.get"),
    ("storage.read", "repro.storage.store", "BlockTensorStore.iter_blocks"),
    ("storage.read", "repro.storage.store", "BlockTensorStore.slice_query"),
    ("serving.point", "repro.serving.engine", "FactorEngine.point_batch"),
    ("serving.slice", "repro.serving.engine", "FactorEngine.slice"),
    ("serving.topk", "repro.serving.engine", "FactorEngine.topk_anomalies"),
    ("distributed", "repro.distributed.dm2td", "distributed_m2td"),
)

#: Small facts kept from a call's return value (spans never hold the
#: value itself, which may be a whole ground-truth tensor).
SUMMARIES: Dict[str, Callable[[Any], Any]] = {
    # Task bodies' wall time, so the runtime's own overhead is the
    # span minus this.
    "Runtime.run": lambda outcome: outcome.report.total_wall_seconds,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    #: Time covered by direct children, filled in when they close.
    child_seconds: float = 0.0
    #: What :data:`SUMMARIES` kept of the call's return value.
    summary: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> int:
        stack = self._stack()
        span = Span(name, layer, time.perf_counter(),
                    parent=stack[-1] if stack else None)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, summary: Any = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.summary = summary
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].child_seconds += span.seconds


def self_seconds_by_layer(spans: List[Span]) -> Dict[str, float]:
    """Total self time of each layer's spans."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + span.self_seconds
    return totals


def _resolve(module: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) for a dotted qualified name."""
    owner: Any = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


def _wrap(fn: Callable, name: str, layer: str, rec: Recorder) -> Callable:
    if inspect.isgeneratorfunction(fn):
        # Time each step of the generator, not its creation: the work
        # of ``iter_blocks`` happens while the caller iterates.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = rec.open(name, layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(index)
                yield item

        return gen_wrapper

    summarise = SUMMARIES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name, layer)
        summary = None
        try:
            result = fn(*args, **kwargs)
            if summarise is not None:
                summary = summarise(result)
            return result
        finally:
            rec.close(index, summary)

    return wrapper


class LayerTracer:
    """Install wrappers around every :data:`TRACED_CALLS` entry."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        #: (owner, attribute, original raw attribute)
        self._patched: List[Tuple[Any, str, Any]] = []
        #: The wrappers themselves, so their ids stay unique.
        self._wrappers: List[Callable] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("layer wrappers already installed")
        # Import every owner first: a module imported after a function
        # is wrapped would bind the wrapper and keep it after uninstall.
        resolved = [(layer, qualname, _resolve(module, qualname))
                    for layer, module, qualname in TRACED_CALLS]
        for layer, qualname, (owner, attr, raw) in resolved:
            if isinstance(raw, classmethod):
                fn = _wrap(raw.__func__, qualname, layer, self.recorder)
                self._set(owner, attr, raw, classmethod(fn), fn)
            elif inspect.isclass(owner):
                fn = _wrap(raw, qualname, layer, self.recorder)
                self._set(owner, attr, raw, fn, fn)
            else:
                fn = _wrap(raw, qualname, layer, self.recorder)
                # Rebind the function wherever it was imported by name.
                for mod in _repro_modules():
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, raw, fn, fn)

    def _set(self, owner: Any, key: str, raw: Any, bound: Any,
             fn: Callable) -> None:
        setattr(owner, key, bound)
        self._patched.append((owner, key, raw))
        self._wrappers.append(fn)

    def uninstall(self) -> None:
        patched, self._patched = self._patched, []
        for owner, key, raw in reversed(patched):
            setattr(owner, key, raw)

    def verify_removed(self) -> bool:
        """True when no wrapper is reachable from any traced owner."""
        if self._patched:
            return False
        wrapper_ids = {id(fn) for fn in self._wrappers}
        for _layer, module, qualname in TRACED_CALLS:
            owner, attr, raw = _resolve(module, qualname)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(fn) in wrapper_ids:
                return False
        for mod in _repro_modules():
            for value in vars(mod).values():
                if id(value) in wrapper_ids:
                    return False
        return True


def _repro_modules() -> List[Any]:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]
