"""Spans recorded around the public functions of ggmlink, from outside.

The tracer replaces every binding of a public ggmlink function in the
namespaces of the five modules (`cli`, `ggm`, `symmat`, `solver`,
`predict`) with a timing wrapper. It patches the name each caller looks
the function up by: `ggm.load_model` as `cli` sees it (a module
attribute) and `read_matrix` as `ggm` sees it (a name imported into
`ggm`). The program itself is not changed.

A span is named after the module that defines the function, so a call
to `symmat.read_matrix` made from `ggm` is a `symmat` span. Spans are
kept in memory and written out by the caller when the run ends.

Every time the benchmark takes, spans included, is CPU time of its own
process (`clock_ns`). On a shared virtual machine the host stops a vCPU
to run other guests (steal) for a share of a run that changes from
minute to minute; wall clock counts that time and CPU time does not
(README.md gives the figures). The workloads run on one thread, so the
process clock is the clock of the thread the spans nest on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import time
import types
from dataclasses import dataclass, field

MODULES = ("cli", "ggm", "symmat", "solver", "predict")

# Span names that open a fit when no fit is open. All
# spans inside share that fit's id.
FIT_ROOTS = frozenset({"cli.cmd_fit", "perfbench.fit"})

# Result fields recorded on a span, read from the wrapped call's return.
RESULT_FIELDS = {"solver.solve": ("iterations", "converged")}

clock_ns = time.process_time_ns


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int | None
    fit_id: int | None
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {"name": self.name, "start_ns": self.start_ns,
                "end_ns": self.end_ns, "id": self.span_id,
                "parent": self.parent_id, "fit": self.fit_id,
                "phase": self.phase, **self.attrs}


class Tracer:
    """Records one span per wrapped call. `phase` labels the spans opened
    while it is set ("setup" or "timed")."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._fit_ids = itertools.count(1)
        self._stack: list = []  # (span id, fit id) of the open spans
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span around the body; yields the dict of its attrs."""
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        fit_id = parent[1] if parent is not None else None
        if fit_id is None and name in FIT_ROOTS:
            fit_id = next(self._fit_ids)
        attrs: dict = {}
        phase = self.phase
        stack.append((span_id, fit_id))
        start = clock_ns()
        try:
            yield attrs
        finally:
            end = clock_ns()
            stack.pop()
            self.spans.append(Span(
                name, start, end, span_id,
                parent[0] if parent is not None else None,
                fit_id, phase, attrs))

    def _wrap(self, func, name: str):
        fields = RESULT_FIELDS.get(name, ())

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = func(*args, **kwargs)
                for f in fields:
                    attrs[f] = getattr(out, f)
                return out

        return traced

    def install(self, package) -> int:
        """Wrap every public ggmlink function at each of its bindings in
        the five modules; returns the number of bindings wrapped."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}")
                   for m in MODULES}
        owners = {mod.__name__: short for short, mod in modules.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in owners
                        or obj.__name__.startswith("_")):
                    continue
                name = f"{owners[obj.__module__]}.{obj.__name__}"
                setattr(mod, attr, self._wrap(obj, name))
                self._patched.append((mod, attr, obj))
        return len(self._patched)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")


def self_times(spans) -> dict:
    """Self time of each span, by id: its duration minus the time its
    children cover. Spans nest on one thread, so children do not
    overlap."""
    out = {s.span_id: s.duration_ns for s in spans}
    for s in spans:
        if s.parent_id in out:
            out[s.parent_id] -= s.duration_ns
    return out


def outermost(spans, names) -> list:
    """Spans named in `names` that have no ancestor named in `names`, so
    summing their durations counts no interval twice."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            out.append(s)
    return out
