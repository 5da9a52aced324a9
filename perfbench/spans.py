"""In-memory spans around orderlab's public functions, and what they add up to.

``Tracer.install`` replaces every public function of the traced modules
by a wrapper, both in the module that defines it and in every orderlab
module that imported it by name, so calls between modules are seen too.
``Tracer.restore`` puts every original back.  A span holds a name, start,
end, parent span and the benchmark item it belongs to; spans stay in
flat arrays until the run ends.

A generator function gets one span per resumption, because its work is
done between the consumer's ``next`` calls; the first resumption counts
as the call.  Self time is a span's duration minus the durations of its
child spans (children never overlap: the program is single-threaded and
every span closes before its parent does).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

FAILED = 1
RESUMED = 2


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = bytearray()
        self.stack = [-1]
        self.current_item = -1
        self.counters: Counter = Counter()
        self.distinct_relations: set = set()
        self.reports: dict[int, tuple[int, int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, flags: int = 0) -> int:
        sid = len(self.flags)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.item.append(self.current_item)
        self.flags.append(flags)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int, failed: bool = False) -> None:
        self.end[sid] = self.clock()
        self.stack.pop()
        if failed:
            self.flags[sid] |= FAILED

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        nid = self.name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return tracer._resumptions(fn(*args, **kwargs), nid, hook, args)

            gen_wrapper.__perfbench_traced__ = True
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(sid, failed=True)
                raise
            tracer.close(sid)
            if hook is not None:
                hook(tracer, sid, args, result)
            return result

        wrapper.__perfbench_traced__ = True
        return wrapper

    def _resumptions(self, gen, nid, hook, args):
        flags = 0
        count = 0
        try:
            while True:
                sid = self.open(nid, flags)
                flags = RESUMED
                try:
                    value = next(gen)
                except StopIteration:
                    self.close(sid)
                    return
                except BaseException:
                    self.close(sid, failed=True)
                    raise
                self.close(sid)
                count += 1
                yield value
        finally:
            if hook is not None:
                hook(self, -1, args, count)

    def install(self, modules, hook_for=lambda name: None, scan=None) -> None:
        """Wrap the public functions defined in ``modules``.

        ``hook_for(name)`` gives the callback that sees each call's
        arguments and result, or None.  ``scan`` lists every module whose
        namespace may hold an imported reference; each such reference is
        replaced as well.
        """
        scan = list(scan if scan is not None else modules)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(fn, name, hook_for(name))
                for holder in scan:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapped)

    def restore(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the summed durations of direct children, per span."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[sid]
        return own

    def totals(self, groups: dict[str, set[str]]) -> dict:
        """Per-name calls, self time, failures; inclusive time per group.

        A span adds to a group's time only when no ancestor span is in the
        same group, so a checker that calls another checker is not counted
        twice.
        """
        own = self.self_times()
        group_keys = list(groups)
        gbits_by_name = [
            sum(1 << g for g, key in enumerate(group_keys) if name in groups[key])
            for name in self.names
        ]
        group_time = [0.0] * len(group_keys)
        anc = [0] * len(self.flags)
        calls = Counter()
        self_s = Counter()
        failed = Counter()
        for sid in range(len(self.flags)):
            nid = self.name[sid]
            par = self.parent[sid]
            if par >= 0:
                anc[sid] = anc[par] | gbits_by_name[self.name[par]]
            fl = self.flags[sid]
            if not fl & RESUMED:
                calls[nid] += 1
            if fl & FAILED:
                failed[nid] += 1
            self_s[nid] += own[sid]
            bits = gbits_by_name[nid] & ~anc[sid]
            if bits:
                d = self.end[sid] - self.start[sid]
                for g in range(len(group_keys)):
                    if bits >> g & 1:
                        group_time[g] += d
        report_sids = set(self.reports)
        verdicts = findings = failures = 0
        for sid, (nv, nf, nx) in self.reports.items():
            par = self.parent[sid]
            while par >= 0 and par not in report_sids:
                par = self.parent[par]
            if par < 0:
                verdicts += nv
                findings += nf
                failures += nx
        return {
            "calls": {self.names[k]: v for k, v in calls.items()},
            "self_s": {self.names[k]: v for k, v in self_s.items()},
            "failed": {self.names[k]: v for k, v in failed.items()},
            "group_s": dict(zip(group_keys, group_time)),
            "report": (verdicts, findings, failures),
        }

    def write(self, path) -> None:
        """Spans as one JSON header line, then each column as raw native bytes."""
        columns = [("name", self.name), ("parent", self.parent), ("item", self.item),
                   ("start", self.start), ("end", self.end), ("flags", array("B", self.flags))]
        header = {
            "names": self.names,
            "spans": len(self.flags),
            "byteorder": sys.byteorder,
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)


def is_traced(fn) -> bool:
    return getattr(fn, "__perfbench_traced__", False)


def traced_functions(prefix: str = "orderlab") -> list[str]:
    """Names of module attributes under ``prefix`` that are still wrappers."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, value in vars(mod).items():
            if is_traced(value):
                out.append(f"{modname}.{attr}")
    return out
