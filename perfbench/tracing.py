"""Spans around hatfam's public functions, recorded from outside `src/`.

`Tracer.installed()` replaces each traced function in every hatfam module
that looks it up by name (the CLI, and the module globals that
`substitution`, `geometry`, `render` and `supervectors` call internally)
and puts the originals back on exit.  A span is [name, parent, start_ns,
end_ns, counts]; spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (defining module, function) pairs that get a span
TRACED = (
    ("configfile", "load_text"),
    ("geometry", "tile_from_config"),
    ("geometry", "disjoint_cells"),
    ("geometry", "is_simple"),
    ("geometry", "cells_connected"),
    ("substitution", "layout_from_config"),
    ("substitution", "build"),
    ("substitution", "expand"),
    ("substitution", "search_layout"),
    ("supervectors", "v_closed"),
    ("supervectors", "tan_alpha"),
    ("sequences", "g_closed"),
    ("sequences", "g_recurrence"),
    ("render", "render_supertile"),
)

NAME, PARENT, START, END, COUNTS = range(5)


def _dag_nodes(node) -> int:
    seen, stack = set(), [node]
    while stack:
        cur = stack.pop()
        if id(cur) not in seen:
            seen.add(id(cur))
            stack.extend(child for child, _ in cur.children)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._in_expand = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter_ns(), None, {}])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def count(self, key: str, n: int) -> None:
        counts = self.spans[self._stack[-1]][COUNTS]
        counts[key] = counts.get(key, 0) + n

    def _wrap(self, name: str, fn):
        if name == "substitution.expand":
            return self._wrap_expand(fn)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if name == "substitution.build":
                self.spans[idx][COUNTS]["dag_nodes"] = _dag_nodes(result)
            elif name == "render.render_supertile":
                self.spans[idx][COUNTS]["svg_bytes"] = len(result.encode("utf-8"))
            elif name == "substitution.search_layout":
                self.spans[idx][COUNTS]["accepted"] = len(result)
            return result
        return traced

    def _wrap_expand(self, fn):
        # expand is a recursive generator that calls itself through the
        # module global: only the outermost call gets a span, and the span
        # lasts until the generator is exhausted.
        def spanned(args, kwargs):
            idx = self.open("substitution.expand")
            self._in_expand = True
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self._in_expand = False
                self.spans[idx][COUNTS]["hats"] = n
                self.close(idx)

        def traced(*args, **kwargs):
            if self._in_expand:
                return fn(*args, **kwargs)
            return spanned(args, kwargs)
        return traced

    def _count_cells(self, fn):
        # hat_kite_cells as disjoint_cells looks it up: one call per hat
        def counted(*args, **kwargs):
            cells = fn(*args, **kwargs)
            self.count("hats", 1)
            self.count("kite_cells", len(cells))
            return cells
        return counted

    @contextmanager
    def installed(self):
        for home, _ in TRACED:
            importlib.import_module("hatfam." + home)
        mods = {name: mod for name, mod in sys.modules.items()
                if name.startswith("hatfam.")}
        saved = []
        try:
            for home, fn_name in TRACED:
                orig = getattr(mods["hatfam." + home], fn_name)
                traced = self._wrap(f"{home}.{fn_name}", orig)
                for mod in mods.values():
                    if getattr(mod, fn_name, None) is orig:
                        saved.append((mod, fn_name, orig))
                        setattr(mod, fn_name, traced)
            geometry = mods["hatfam.geometry"]
            orig = geometry.hat_kite_cells
            saved.append((geometry, "hat_kite_cells", orig))
            geometry.hat_kite_cells = self._count_cells(orig)
            yield self
        finally:
            for mod, fn_name, orig in reversed(saved):
                setattr(mod, fn_name, orig)


def self_times(spans: list[list], root: int) -> dict[int, int]:
    """Self time (ns) of `root` and every span below it: its duration
    minus the time its child spans cover."""
    self_ns = {root: spans[root][END] - spans[root][START]}
    for idx in range(root + 1, len(spans)):
        parent = spans[idx][PARENT]
        if parent not in self_ns:
            break
        dur = spans[idx][END] - spans[idx][START]
        self_ns[idx] = dur
        self_ns[parent] -= dur
    return self_ns


def op_summary(spans: list[list], root: int) -> dict:
    """Per-name totals for one traced op rooted at span `root`.

    Time per name is inclusive and counted once where a span of the same
    name is nested inside another (v_closed inside tan_alpha is counted
    under both names).  The self times of the root (the CLI's own time)
    and of every span below it add up to the op's wall time exactly when
    each child lies inside its parent and no two children overlap; raises
    when either fails.
    """
    self_ns = self_times(spans, root)
    wall = spans[root][END] - spans[root][START]
    if min(self_ns.values()) < 0:
        raise RuntimeError("child spans overlap: negative self time")
    out = {"wall_ns": wall, "cli_self_ns": self_ns[root], "names": {}}
    for idx in self_ns:
        if idx == root:
            continue
        name, parent, start, end, counts = spans[idx]
        p = spans[parent]
        if start < p[START] or end > p[END]:
            raise RuntimeError(f"span {name} lies outside its parent {p[NAME]}")
        row = out["names"].setdefault(name, {"ns": 0, "calls": 0, "counts": {}})
        row["calls"] += 1
        for k, v in counts.items():
            row["counts"][k] = row["counts"].get(k, 0) + v
        anc = parent
        while anc != root and spans[anc][NAME] != name:
            anc = spans[anc][PARENT]
        if anc == root:
            row["ns"] += end - start
    return out
