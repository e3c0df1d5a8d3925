"""In-memory spans around dslice functions, and the per-layer figures.

The benchmark wraps named library functions from outside the package:
each wrapper records a span (name, start, end, parent span, attributes)
and every module attribute that was bound to the original function
object is rebound to the wrapper, so names imported with
``from .snf import ...`` are traced too.  Spans stay in memory until the
run ends; ``write_jsonl`` then writes them out, one JSON object a line.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "dslice"


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self):
        # [id, parent id or None, name, start, end, attrs]
        self.spans: list = []
        self._stack: list = []

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, time.perf_counter(), None, attrs]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record):
        record[4] = time.perf_counter()
        self._stack.pop()

    def run(self, name, fn, *args, attrs=None, observe=None, **kwargs):
        """Call ``fn`` inside a span; ``observe(result)`` adds attributes."""
        record = self._open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(record)
        if observe is not None:
            record[5] = {**(record[5] or {}), **observe(result)}
        return result

    def wrap(self, name, fn, before=None, observe=None):
        """A traced stand-in for ``fn``.

        ``before(args)`` returns attributes of the call's span.  It runs
        in a ``trace.before`` span of its own, so its cost counts in
        neither the call's self time nor its caller's.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if before is not None:
                attrs = tracer.run("trace.before", before, args)
            return tracer.run(name, fn, *args, attrs=attrs, observe=observe, **kwargs)

        return traced


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        reach = start
        for cstart, cend in sorted(children.get(sid, ())):
            cstart, cend = max(cstart, reach), min(cend, end)
            if cend > cstart:
                covered += cend - cstart
                reach = cend
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans) -> dict:
    """Span name -> {"calls": n, "self_s": total self time}."""
    selfs = self_times(spans)
    out: dict = {}
    for sid, _, name, _, _, _ in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
    return out


def write_jsonl(spans, path) -> None:
    with open(path, "w") as fh:
        for sid, parent, name, start, end, attrs in spans:
            rec = {"id": sid, "parent": parent, "name": name,
                   "start": start, "end": end}
            if attrs:
                rec["attrs"] = attrs
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def install(tracer: Tracer, targets) -> tuple:
    """Rebind each target to a traced wrapper.

    ``targets`` holds ``(span name, module, attribute path, before,
    observe)`` tuples; an attribute path ``"Class.method"`` wraps a
    method on the class.  Returns ``(restore, missing)``: a function that
    puts every original back, and the span names whose attribute no
    longer exists.
    """
    undo = []
    missing = []
    modules = _package_modules()
    for name, module, path, before, observe in targets:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, before, observe)
        if owner_name:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore, missing
