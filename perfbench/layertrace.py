"""Layer tracing from outside ramsat.

`Tracer.install` replaces ramsat's public functions at every site that
imports them with wrappers that record spans (name, start, end, parent
span, command id) or, for the hot `subset_is_clique`, only counts.  Nothing
under src/ is edited; `restore` puts the originals back.  Spans stay in
memory until the run ends.

A layer's self time is its spans' durations minus the time covered by
their direct child spans.  Calls that are only counted are part of their
caller's self time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# The layers' public functions, by defining module.  Each is wrapped at
# every ramsat module that holds it (today cli, search and the package
# itself), so calls are seen whichever module makes them.
SPANNED = {
    "ramsat.cnf": ("encode", "decode", "export_dimacs"),
    "ramsat.dpll": ("solve",),
    "ramsat.coloring": ("is_good",),
    "ramsat.search": ("ramsey_number", "min_deletions", "extend_coloring", "good_coloring"),
}
COUNTED = ("ramsat.graphs", "subset_is_clique")  # too hot for spans
DOCUMENT_PARSE = ("from_json_text", "to_coloring")
DOCUMENT_RENDER = ("from_coloring", "to_json_text", "to_dot")

# Per-layer metric names and units, in report order.
LAYER_METRICS = dict((
    ("dpll.solve.calls", "count"),
    ("dpll.solve_s", "s"),
    ("dpll.decisions", "count"),
    ("dpll.decisions_per_s", "1/s"),
    ("dpll.unsat", "count"),
    ("dpll.budget_exceeded", "count"),
    ("search.good_coloring.calls", "count"),
    ("search.candidates", "count"),
    ("search.sat_ratio", "ratio"),
    ("search.extend.calls", "count"),
    ("search.self_s", "s"),
    ("cnf.encode.calls", "count"),
    ("cnf.encode_s", "s"),
    ("cnf.clauses", "count"),
    ("cnf.vars", "count"),
    ("cnf.decode_s", "s"),
    ("cnf.export_dimacs_s", "s"),
    ("graphs.subset_is_clique.calls", "count"),
    ("graphs.subset_is_clique.deleted_calls", "count"),
    ("coloring.is_good.calls", "count"),
    ("coloring.is_good_s", "s"),
    ("coloring.bad_verdicts", "count"),
    ("document.parse_s", "s"),
    ("document.render_s", "s"),
    ("document.bytes_written", "count"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
))


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    """Spans and counters of one traced pass; `command` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, command]
        self.counts: Counter[str] = Counter()
        self.command = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.sites: list[str] = []  # where wrappers were installed

    def span(self, name, fn, observe=None):
        """Wrap fn so each call records a span; observe(result, parent) sees
        the return value."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.command]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers at every import site of the loaded ramsat."""
        observers = self._observers()
        wrappers = {}  # id of an original function -> its wrapper
        for module_name, names in SPANNED.items():
            layer = module_name.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(sys.modules[module_name], name, None)
                if fn is not None:
                    wrappers[id(fn)] = self.span(f"{layer}.{name}", fn, observers.get(name))
        counted = getattr(sys.modules[COUNTED[0]], COUNTED[1])
        counts = self.counts

        def subset_is_clique(graph, vertices):
            counts["graphs.subset_is_clique.calls"] += 1
            if graph.deleted:
                counts["graphs.subset_is_clique.deleted_calls"] += 1
            return counted(graph, vertices)

        wrappers[id(counted)] = subset_is_clique
        for module_name, module in list(sys.modules.items()):
            if module_name == "ramsat" or module_name.startswith("ramsat."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._patch(module, attr, wrappers[id(value)])
                        self.sites.append(f"{module_name}.{attr}")
        document = sys.modules["ramsat.document"].ColoringDocument
        for attr in DOCUMENT_PARSE + DOCUMENT_RENDER:
            raw = document.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            observe = self._count_bytes if attr in ("to_json_text", "to_dot") else None
            wrapper = self.span(f"document.{attr}", fn, observe)
            self._patch(document, attr, classmethod(wrapper) if is_classmethod else wrapper)
            self.sites.append(f"ramsat.document.ColoringDocument.{attr}")

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_bytes(self, text, parent) -> None:
        self.counts["document.bytes_written"] += len(text.encode("utf-8"))

    def _observers(self):
        counts, spans = self.counts, self.spans

        def solve(result, parent):
            counts["dpll.decisions"] += result.decisions
            counts[f"dpll.status.{result.status.name}"] += 1

        def encode(formula, parent):
            counts["cnf.clauses"] += len(formula.clauses)
            counts["cnf.vars"] += formula.num_vars

        def good_coloring(coloring, parent):
            if parent >= 0 and spans[parent][0] == "search.min_deletions":
                counts["search.candidates"] += 1
                counts["search.sat_candidates"] += coloring is not None

        def is_good(verdict, parent):
            counts["coloring.bad_verdicts"] += not verdict.good

        return {"solve": solve, "encode": encode,
                "good_coloring": good_coloring, "is_good": is_good}

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value, from the spans and counters."""
        calls: Counter[str] = Counter()
        total: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
        own = self.layer_self_times()
        c = self.counts
        solve_s = total["dpll.solve"]
        candidates = c["search.candidates"]
        values = {
            "dpll.solve.calls": calls["dpll.solve"],
            "dpll.solve_s": solve_s,
            "dpll.decisions": c["dpll.decisions"],
            "dpll.decisions_per_s": c["dpll.decisions"] / solve_s if solve_s else 0.0,
            "dpll.unsat": c["dpll.status.UNSAT"],
            "dpll.budget_exceeded": c["dpll.status.BUDGET_EXCEEDED"],
            "search.good_coloring.calls": calls["search.good_coloring"],
            "search.candidates": candidates,
            "search.sat_ratio": c["search.sat_candidates"] / candidates if candidates else 0.0,
            "search.extend.calls": calls["search.extend_coloring"],
            "search.self_s": own.get("search", 0.0),
            "cnf.encode.calls": calls["cnf.encode"],
            "cnf.encode_s": total["cnf.encode"],
            "cnf.clauses": c["cnf.clauses"],
            "cnf.vars": c["cnf.vars"],
            "cnf.decode_s": total["cnf.decode"],
            "cnf.export_dimacs_s": total["cnf.export_dimacs"],
            "graphs.subset_is_clique.calls": c["graphs.subset_is_clique.calls"],
            "graphs.subset_is_clique.deleted_calls": c["graphs.subset_is_clique.deleted_calls"],
            "coloring.is_good.calls": calls["coloring.is_good"],
            "coloring.is_good_s": total["coloring.is_good"],
            "coloring.bad_verdicts": c["coloring.bad_verdicts"],
            "document.parse_s": sum(total[f"document.{a}"] for a in DOCUMENT_PARSE),
            "document.render_s": sum(total[f"document.{a}"] for a in DOCUMENT_RENDER),
            "document.bytes_written": c["document.bytes_written"],
            "cli.commands": calls["cli.main"],
            "cli.self_s": own.get("cli", 0.0),
        }
        return {name: values[name] for name in LAYER_METRICS}

    def layer_self_times(self) -> dict[str, float]:
        own: Counter[str] = Counter()
        for (name, *_), self_s in zip(self.spans, self_times(self.spans)):
            own[_layer(name)] += self_s
        return dict(sorted(own.items()))
