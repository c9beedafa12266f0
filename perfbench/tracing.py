"""Span recording for the traced benchmark run, and self-time arithmetic.

A span is ``[span id, parent id, name, start, end, attrs]``.  Times come
from ``time.monotonic``, which on Linux reads the system-wide
CLOCK_MONOTONIC, so spans recorded in a job process line up with times taken
in the benchmark process that started it.

The library itself is not edited: ``instrument`` replaces the public
functions of the named ``lodayops`` modules, in every module namespace that
holds a reference to them, by wrappers that record one span per call.
"""

import functools
import inspect
import itertools
import sys
import threading
import time

clock = time.monotonic

ROOT_ID = 1


class Recorder:
    """Spans of one job, kept in memory until the job ends.

    Span ``ROOT_ID`` is the job itself; it opens at ``start`` (the moment the
    benchmark spawned the job process) and closes with ``close``.  Spans
    opened on a worker thread whose own stack is empty take the innermost
    open span of the main thread as parent.
    """

    def __init__(self, start):
        self.spans = []
        self._ids = itertools.count(ROOT_ID + 1)
        self._local = threading.local()
        self._main = self._stack()
        self._main.append(ROOT_ID)
        self._root_start = start

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main[-1] if self._main else None

    def add(self, name, start, end, attrs=None):
        """Record a finished span under the current parent."""
        self.spans.append([next(self._ids), self._parent(), name, start, end,
                           attrs or {}])

    def close(self, end):
        self.spans.append([ROOT_ID, None, "job", self._root_start, end, {}])
        self._main.clear()

    def wrap(self, name, fn, counter=None):
        """fn recording one span per call.

        ``counter`` is a pair ``(before, after)``: ``before(arguments)``
        returns the span's attrs, and ``after(attrs, result)`` may add to
        them.  Both run outside the span, and their time is recorded as
        ``trace.count`` spans, so it stays out of every layer's self time.
        """
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            attrs = {}
            if counter:
                t0 = clock()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = counter[0](bound.arguments)
                self.add("trace.count", t0, clock())
            stack = self._stack()
            parent = self._parent()
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append([sid, parent, name, start, end, attrs])
            if counter:
                counter[1](attrs, result)
                self.add("trace.count", end, clock())
            return result

        return traced


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def instrument(recorder, package, module_names, classes=(), counters=None):
    """Trace every public function of ``package.<module>`` for each name.

    ``classes`` names extra ``module.Class`` constructors to trace; a
    constructor span covers ``__init__``.  ``counters`` maps span names to
    counter pairs (see ``Recorder.wrap``).
    """
    counters = counters or {}
    replace = {}
    for mod_name in module_names:
        module = sys.modules["%s.%s" % (package, mod_name)]
        for name, obj in _public_callables(module):
            span = "%s.%s" % (mod_name, name)
            replace[id(obj)] = (obj, recorder.wrap(span, obj,
                                                   counters.get(span)))
    for qualified in classes:
        mod_name, name = qualified.split(".")
        obj = getattr(sys.modules["%s.%s" % (package, mod_name)], name)
        replace[id(obj)] = (obj, recorder.wrap(qualified, obj,
                                               counters.get(qualified)))
    prefix = package + "."
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(prefix):
            continue
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}.

    Children may overlap (spans from worker threads), so their intervals
    are merged before they are subtracted.
    """
    children = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out
