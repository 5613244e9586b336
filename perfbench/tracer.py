"""Per-layer self-time, measured from outside the program.

The benchmark wraps the functions and methods of each layer's modules
(the layer of a function is the module that defines it, with a few
named overrides) in timers.  A call into a layer opens a frame; a call
from a layer into the *same* layer passes straight through, so only
layer boundaries cost anything.  A layer's self time is the time its
frames were open minus the part their child frames covered, so the
self times of all layers add up to the time spent inside any layer;
the rest of a request's wall time is reported as ``unattributed``.

Names bound elsewhere by ``from module import name`` are rebound to
the wrappers too, and modules imported after :meth:`Tracer.install`
are wrapped as they load, so the lazy imports inside the CLI stay
where they are.  Generator functions are timed per step, where their
work happens.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from collections import defaultdict

#: Module -> layer.  A module not listed here is not wrapped: its time
#: counts towards whichever layer called it.
MODULE_LAYERS = {
    "repro.petri.product": "kernel",
    "repro.petri.reachability": "kernel",
    "repro.petri.dfs": "kernel",
    "repro.petri.independence": "kernel",
    "repro.petri.compiled": "compiled",
    "repro.petri.symbolic": "decide.symbolic",
    "repro.petri.structural": "decide.structural",
    "repro.petri.classify": "decide.structural",
    "repro.io.formats": "io.load",
    "repro.io.astg": "io.load",
    "repro.io.json_io": "io.load",
    "repro.io.tina": "io.load",
    "repro.io.pnml": "io.load",
    "repro.algebra.compose": "algebra.compose",
    "repro.algebra.choice": "algebra.compose",
    "repro.algebra.operators": "algebra.compose",
    "repro.algebra.hide": "algebra.hide",
    "repro.algebra.dead": "algebra.hide",
    "repro.algebra.reductions": "algebra.hide",
    "repro.stg.stg": "algebra.compose",
    "repro.verify.receptiveness": "verify",
    "repro.petri.analysis": "verify",
    "repro.cache.store": "cache.hash",
    "repro.cache.content": "cache.hash",
    "repro.cache.verdicts": "cache.hash",
    "repro.cache.derived": "cache.hash",
    "repro.cache.compilecache": "cache.hash",
    "repro.cli": "cli",
}

#: The artifact store read, whose result tells a hit from a miss.
LOAD = "repro.cache.store.ArtifactStore.load"

#: Qualified name -> layer, overriding the module's layer.
OBJECT_LAYERS = {
    # The packed exploration kernel and the per-state operations of a
    # compiled net live beside the lowering.
    "repro.petri.compiled.CompiledNet": "kernel",
    "repro.petri.compiled.CompiledNet.__init__": "compiled",
    "repro.petri.compiled.CompiledSpace": "kernel",
    "repro.petri.compiled.PackedMarkingView": "kernel",
    "repro.petri.compiled._PackedDfsAdapter": "kernel",
    # Hiding through the Stg facade is the hide operator.
    "repro.stg.stg.hide_signals": "algebra.hide",
    "repro.stg.stg.hide_signals_to_epsilon": "algebra.hide",
    # Composition that records the Prop 5.5 obligations is algebra.
    "repro.verify.receptiveness.compose_with_obligations": "algebra.compose",
    "repro.verify.receptiveness._compose_with_obligations": "algebra.compose",
    # The Thm 5.7 marked-graph decision is the structural route.
    "repro.verify.receptiveness._marked_graph_failures": "decide.structural",
    # Writing a net is the save half of the io layer.
    "repro.io.formats.save_stg": "io.save",
    "repro.io.astg.save_astg": "io.save",
    "repro.io.astg.write_astg": "io.save",
    "repro.io.json_io.save": "io.save",
    "repro.io.json_io.dumps": "io.save",
    "repro.io.json_io.stg_to_dict": "io.save",
    "repro.io.json_io.net_to_dict": "io.save",
    "repro.io.tina.save_tina": "io.save",
    "repro.io.tina.write_tina": "io.save",
    "repro.io.pnml.save_pnml": "io.save",
    "repro.io.pnml.write_pnml": "io.save",
    # Artifact store reads and writes.
    LOAD: "cache.get",
    "repro.cache.store.ArtifactStore.store": "cache.put",
}

#: Calls counted by qualified name (every call, nested or not).
COUNTED = {
    "repro.petri.compiled.compile_net": "lowerings",
}

_KEEP_DUNDERS = {"__init__", "__call__", "__iter__", "__next__"}


def _wanted(qualname: str, attr: str) -> bool:
    """Public functions and methods, a few dunders, and any private
    name listed above.  Private helpers are left bare: they run in
    their caller's layer anyway, and wrapping per-state helpers would
    cost more than it tells."""
    if qualname in OBJECT_LAYERS or qualname in COUNTED:
        return True
    if attr.startswith("__"):
        return attr in _KEEP_DUNDERS
    return not attr.startswith("_")


class Tracer:
    """Accumulates layer self-times and counts for one process."""

    def __init__(self, clock=time.perf_counter, probes=None):
        self.clock = clock
        #: Qualified name -> callback receiving each call's result.
        self.probes = {LOAD: self._count_load, **(probes or {})}
        self.stack: list[list] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.cache_hits = 0
        self.cache_misses = 0
        self.covered = 0.0
        self.enabled = False
        self._journal: list[tuple] = []
        self._wrapped_modules: set[str] = set()
        self._finder: _WrapOnLoad | None = None

    # -- accounting ---------------------------------------------------

    def reset(self) -> None:
        self.self_time.clear()
        self.counts.clear()
        self.cache_hits = self.cache_misses = 0
        self.covered = 0.0

    def snapshot(self) -> dict:
        return {
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "covered": self.covered,
        }

    def _count_load(self, result) -> None:
        if result is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1

    def _close(self, frame: list) -> None:
        elapsed = self.clock() - frame[1]
        self.self_time[frame[0]] += elapsed - frame[2]
        if self.stack:
            self.stack[-1][2] += elapsed
        else:
            self.covered += elapsed

    # -- wrapping -----------------------------------------------------

    def _wrap_function(self, fn, layer: str, qualname: str):
        tracer = self
        stack = self.stack
        clock = self.clock
        counted = COUNTED.get(qualname)
        probe = self.probes.get(qualname)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        if not tracer.enabled or (stack and stack[-1][0] == layer):
                            try:
                                item = next(inner)
                            except StopIteration as stop:
                                return stop.value
                        else:
                            frame = [layer, clock(), 0.0]
                            stack.append(frame)
                            try:
                                item = next(inner)
                            except StopIteration as stop:
                                return stop.value
                            finally:
                                stack.pop()
                                tracer._close(frame)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if counted is not None:
                tracer.counts[counted] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    tracer._close(frame)
            if probe is not None:
                probe(result)
            return result

        return wrapper

    def _layer_of(self, qualname: str, module_layer: str) -> str:
        return OBJECT_LAYERS.get(qualname, module_layer)

    def _replace(self, namespace, attr: str, value) -> None:
        """Set ``namespace.attr`` (a module, class or dict), journaled
        so that :meth:`uninstall` can put the original back."""
        if isinstance(namespace, dict):
            self._journal.append((namespace, attr, namespace[attr]))
            namespace[attr] = value
        else:
            self._journal.append((namespace, attr, vars(namespace)[attr]))
            setattr(namespace, attr, value)

    def wrap_module(self, module) -> None:
        """Wrap every function and method ``module`` defines."""
        name = module.__name__
        module_layer = MODULE_LAYERS.get(name)
        if module_layer is None or name in self._wrapped_modules:
            return
        self._wrapped_modules.add(name)
        replaced: dict[int, object] = {}
        for attr, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != name:
                continue
            qualname = f"{name}.{attr}"
            if inspect.isfunction(value) and _wanted(qualname, attr):
                wrapped = self._wrap_function(
                    value, self._layer_of(qualname, module_layer), qualname
                )
                self._replace(module, attr, wrapped)
                replaced[id(value)] = wrapped
            elif inspect.isclass(value) and not issubclass(value, BaseException):
                self._wrap_class(
                    value, qualname, self._layer_of(qualname, module_layer)
                )
        self._rebind(replaced)

    def _wrap_class(self, cls, qualname: str, class_layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            member = f"{qualname}.{attr}"
            if not _wanted(member, attr):
                continue
            layer = self._layer_of(member, class_layer)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    self._wrap_function(raw.__func__, layer, member)
                )
            elif isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap_function(raw.__func__, layer, member)
                )
            elif inspect.isfunction(raw):
                wrapped = self._wrap_function(raw, layer, member)
            else:
                continue
            self._replace(cls, attr, wrapped)

    def _rebind(self, replaced: dict[int, object]) -> None:
        """Point names bound by ``from module import name`` in other
        loaded modules at the wrappers."""
        if not replaced:
            return
        for module_name, other in list(sys.modules.items()):
            if other is None or not module_name.startswith("repro"):
                continue
            namespace = vars(other)
            for attr, value in list(namespace.items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._replace(namespace, attr, wrapped)

    def install(self) -> None:
        """Wrap the layer modules loaded now and any loaded later."""
        if self._finder is None:
            self._finder = _WrapOnLoad(self)
            sys.meta_path.insert(0, self._finder)
        for name in MODULE_LAYERS:
            module = sys.modules.get(name)
            if module is not None:
                self.wrap_module(module)
        self.enabled = True

    def uninstall(self) -> None:
        """Put every original function back."""
        self.enabled = False
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        for namespace, attr, original in reversed(self._journal):
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)
        self._journal.clear()
        self._wrapped_modules.clear()


class _WrapOnLoad(importlib.abc.MetaPathFinder):
    """Wraps a layer module right after it executes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in MODULE_LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            execute(module)
            tracer.wrap_module(module)

        spec.loader.exec_module = exec_module
        return spec
