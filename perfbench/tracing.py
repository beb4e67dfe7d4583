"""Spans around calls into tsgan's public functions, from outside `src/`.

A `Tracer` wraps named functions and methods at every place the package
holds a reference to them (module globals, module-level dicts such as
`cli.COMMANDS`, and class attributes), records one span per call while it
is active, and puts every original back on `restore`. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import namedtuple
from time import perf_counter

import numpy as np

PACKAGE = "tsgan"

# name, start, end, parent span id (-1 for a root), id of the CLI command
Span = namedtuple("Span", "id name start end parent cmd")


def self_times(spans) -> np.ndarray:
    """Self time of each span: its duration minus the durations of its
    direct children. Spans of one thread nest, so children are disjoint
    sub-intervals of their parent and subtracting them removes exactly the
    part of the interval they cover."""
    out = np.array([s.end - s.start for s in spans], dtype=np.float64)
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _resolve(qualname: str):
    """'gan.Generator.forward' -> (owner, attr, function), where owner is
    the class for a method and None for a module function."""
    parts = qualname.split(".")
    module = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    if len(parts) == 2:
        return None, parts[1], getattr(module, parts[1])
    if len(parts) == 3:
        owner = getattr(module, parts[1])
        return owner, parts[2], owner.__dict__[parts[2]]
    raise ValueError(f"cannot resolve {qualname!r}")


class Tracer:
    """Records nested spans; `probes` map a traced name to a function
    (args, kwargs, result) -> {counter: value} summed per name."""

    def __init__(self, probes=None):
        self.probes = probes or {}
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.active = False
        self._stack: list[int] = []
        self._cmd = -1
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(sid, name, perf_counter(), 0.0, parent, self._cmd))
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = self.spans[sid]._replace(end=end)

    @contextlib.contextmanager
    def command(self, name: str):
        """One CLI command: a root span with a fresh command id that every
        span under it carries. Spans are recorded only inside this."""
        self._cmd += 1
        self.active = True
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid)
            self.active = False

    def _wrap(self, name: str, fn):
        tracer = self
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid)
            if probe is not None:
                counts = tracer.counters.setdefault(name, {})
                try:
                    found = probe(args, kwargs, result)
                except Exception:  # noqa: BLE001
                    # a probe that no longer fits the program's signature
                    # must not fail the command it watches
                    found = {"probe_errors": 1}
                for key, value in found.items():
                    counts[key] = counts.get(key, 0.0) + value
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self, qualnames) -> list[str]:
        """Wrap each `module.function` or `module.Class.method` wherever the
        package holds a reference to the original object. Returns the names
        the package no longer has; they are skipped."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        missing = []
        for qualname in qualnames:
            try:
                owner, attr, original = _resolve(qualname)
            except (ImportError, AttributeError, KeyError):
                missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, original)
            if owner is not None:
                self._patches.append((setattr, owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((setattr, module, key, original))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in value.items():
                            if dvalue is original:
                                self._patches.append(
                                    (dict.__setitem__, value, dkey, original))
                                value[dkey] = wrapper
        return missing

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            setter, target, key, original = self._patches.pop()
            setter(target, key, original)

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent, cmd."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
