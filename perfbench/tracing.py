"""Spans around calls into xsteer's public functions, recorded from outside.

`Tracer` replaces every public function of the xsteer modules, in every
module namespace that binds it, with a wrapper that records a span: parent
span, name, start and end in nanoseconds, and the request it belongs to.
Because the wrappers sit in the module namespaces, calls inside a module
(full_report -> conditional_entropy) are spans too. Spans are kept in memory;
`take` hands them over and `write` stores them once measuring is done.

Spans are recorded only while `active` is set, and never in a forked child,
so pool workers run the wrapped functions untraced.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
import types
import weakref
from pathlib import Path

_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def _deactivate_in_child() -> None:
    for tracer in list(_TRACERS):
        tracer.active = False


os.register_at_fork(after_in_child=_deactivate_in_child)

# (parent index or -1, name, start_ns, end_ns, request id)
Span = tuple[int, str, int, int, int]


class Tracer:
    def __init__(self, modules) -> None:
        self.active = False
        self.request = 0
        self._spans: list = []
        self._stack: list[int] = []
        self._saved = []
        wrappers = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or not fn.__module__.startswith("xsteer.")
                ):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
        _TRACERS.add(self)

    def _wrap(self, fn):
        name = fn.__module__.removeprefix("xsteer.") + "." + fn.__name__
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (parent, name, start, end, self.request)

        return traced

    def close(self) -> None:
        """Put the original functions back."""
        self.active = False
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def take(self) -> list[Span]:
        """The spans recorded since the last take; parent indices refer to this list."""
        out = list(self._spans)
        self._spans.clear()
        return out


def layer_stats(spans: list[Span]) -> dict[str, list[int]]:
    """name -> [calls, total ns, self ns]; self time excludes child spans."""
    child_ns = [0] * len(spans)
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, list[int]] = {}
    for i, (_, name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[i]
    return stats


def open_writer(path: Path):
    """A gzip TSV file for spans, one line each, with its header written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = gzip.open(path, "wt", encoding="utf-8", compresslevel=1)
    fh.write("workload\tphase\tid\tparent\tname\tstart_ns\tend_ns\trequest\n")
    return fh


def write(fh, workload: str, phases: list[tuple[str, list[Span]]]) -> None:
    for phase, spans in phases:
        fh.writelines(
            f"{workload}\t{phase}\t{i}\t{p}\t{n}\t{s}\t{e}\t{r}\n"
            for i, (p, n, s, e, r) in enumerate(spans)
        )
