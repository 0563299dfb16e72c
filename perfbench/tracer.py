"""Outside-in tracer for the garside package.

Wraps every function named in ``garside.__all__`` and the public methods
of ``MonoidContext`` and ``GarsideStructure``.  A wrapped function is
rebound in every ``garside.*`` namespace that imported it by name (for
example ``automaton`` imports ``normalize_all`` and ``covers``, and
``cayley_distance`` is missing from ``automaton.__all__``), so calls
between modules are seen, not only calls made by the benchmark.

Each call becomes a span: name, start, end, parent span and the id of
the operation (query, probe or command) it belongs to.  Self time is a
span's duration minus the time covered by its child spans; it is summed
per name on the fly.  Spans are kept in memory, up to ``span_cap`` of
them, and written out at the end by ``write_spans``.

Counters that the package does not expose yet are derived from the
context's caches before and after each call: a ``class_of`` call whose
word was not cached built a new class, of ``len(result)`` words; a
``cayley_distance`` call whose pair was already cached was a hit.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time

SPAN_CAP = 200_000


class Tracer:
    def __init__(self, span_cap=SPAN_CAP):
        self.span_cap = span_cap
        self.stack = []        # one [child_time, span_id] per open span
        self.stats = {}        # name -> [calls, total_s, self_s]
        self.counters = {
            "class_lookups": 0, "class_builds": 0, "words_enumerated": 0,
            "largest_class": 0, "cap_hits": 0,
            "cayley_lookups": 0, "cayley_hits": 0,
        }
        self.names = []
        self.spans = []        # (name index, start, end, span id, parent, op)
        self.dropped = 0
        self.op = 0
        self.install_s = 0.0
        self._ids = itertools.count()
        self._restore = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        """Span around ``fn``.  ``before(args)`` returns a token handed to
        ``after(token, result)`` once the call returned normally."""
        stack = self.stack
        spans = self.spans
        cap = self.span_cap
        ids = self._ids
        clock = time.perf_counter
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        index = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][1] if stack else -1
            token = before(args) if before is not None else None
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < cap:
                    spans.append((index, t0, t1, sid, parent, tracer.op))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(token, result)
            return result

        return traced

    def install(self):
        """Wrap the package in place; ``uninstall`` undoes it."""
        t0 = time.perf_counter()
        import garside
        from garside.congruence import MonoidContext, ResourceLimitExceeded
        from garside.delta import GarsideStructure

        counters = self.counters

        def class_before(args):
            ctx, word = args[0], args[1]
            key = word if isinstance(word, str) else word.canon
            counters["class_lookups"] += 1
            return key in ctx._classes

        def class_after(hit, cls):
            if not hit:
                counters["class_builds"] += 1
                counters["words_enumerated"] += len(cls)
                if len(cls) > counters["largest_class"]:
                    counters["largest_class"] = len(cls)

        def cayley_before(args):
            ctx, gs, key1, key2 = args[:4]
            if key1 == key2:
                return None
            counters["cayley_lookups"] += 1
            pair = (key1, key2) if key1 <= key2 else (key2, key1)
            if pair in ctx.caches[("cayley", gs.delta)]:
                counters["cayley_hits"] += 1
            return None

        def capped(fn):
            # the congruence layer's caps fire in class_of and ball_level
            def guarded(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except ResourceLimitExceeded:
                    counters["cap_hits"] += 1
                    raise
            return guarded

        hooks = {
            "congruence.class_of": (class_before, class_after),
            "automaton.cayley_distance": (cayley_before, None),
        }
        for cls, prefix in ((MonoidContext, "congruence"),
                            (GarsideStructure, "delta.GarsideStructure")):
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                name = f"{prefix}.{attr}"
                inner = capped(fn) if attr in ("class_of", "ball_level") else fn
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(name, inner, *hooks.get(name, ())))

        wrappers = {}
        for public in garside.__all__:
            fn = getattr(garside, public)
            if inspect.isfunction(fn):
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn,
                                                   *hooks.get(name, ())))
        for modname, mod in list(sys.modules.items()):
            if modname != "garside" and not modname.startswith("garside."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self.install_s = time.perf_counter() - t0
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """Plain-data summary, mergeable with ``merge``."""
        return {"stats": self.stats, "counters": self.counters,
                "install_s": self.install_s, "dropped": self.dropped,
                "names": self.names, "spans": self.spans}

    def merge(self, snap, op):
        """Fold in another tracer's snapshot (a CLI child process); its
        spans are renumbered and assigned to operation ``op``."""
        for name, values in snap["stats"].items():
            rec = self.stats.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                rec[i] += value
        for key, value in snap["counters"].items():
            if key == "largest_class":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        self.dropped += snap["dropped"]
        index = {}
        for i, name in enumerate(snap["names"]):
            if name not in self.names:
                self.names.append(name)
            index[i] = self.names.index(name)
        fresh = {span[3]: next(self._ids) for span in snap["spans"]}
        for name_i, t0, t1, sid, parent, _ in snap["spans"]:
            if len(self.spans) >= self.span_cap:
                self.dropped += 1
                continue
            # a parent past the child's span cap was not kept: -1
            self.spans.append((index[name_i], t0, t1, fresh[sid],
                               fresh.get(parent, -1), op))

    def write_spans(self, path):
        """One JSON object per line: name, start, end, id, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_i, t0, t1, sid, parent, op in self.spans:
                fh.write(json.dumps({"name": self.names[name_i],
                                     "start": t0, "end": t1, "id": sid,
                                     "parent": parent, "op": op}))
                fh.write("\n")

