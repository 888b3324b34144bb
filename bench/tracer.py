"""Span tracing of topdowndt from outside the package.

The traced run wraps the public callables of every layer, runs one pass of
the workload, and removes the wrappers again; nothing under src/ changes.
Each wrapped call records one span: the callable's name, start and end
(perf_counter_ns) and the index of the enclosing span (-1 at top level).
Spans are kept in compact arrays while the pass runs, written out once at
the end, and the per-layer metrics are derived from them afterwards.

Self time of a span is its duration minus the durations of its direct
child spans; wrappers run on one thread and nest strictly, so the children
of a span never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _public_methods(cls) -> list[str]:
    return [
        name
        for name, raw in vars(cls).items()
        if not name.startswith("_") and (callable(raw) or isinstance(raw, classmethod))
    ]


def targets() -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) of every callable the traced run wraps.

    An owner is a class or a module.  Module functions are also replaced
    wherever another topdowndt module imported them by name.
    """
    from topdowndt import boolfn, cli, grower, hardinstance, impurity, oracle, realvalued, tree

    hard_cursor = type(hardinstance.choose_params(2, 1).root_cursor())
    out = [(f"boolfn.SubcubeView.{m}", boolfn.SubcubeView, m) for m in _public_methods(boolfn.SubcubeView)]
    out += [(f"tree.{f}", tree, f) for f in ("split", "evaluate", "path_of")]
    out += [("impurity.evaluate", impurity, "evaluate")]
    out += [(f"grower.{f}", grower, f) for f in ("grow", "verify_split_inequalities")]
    out += [(f"grower.TableCursor.{m}", grower.TableCursor, m) for m in _public_methods(grower.TableCursor)]
    out += [(f"oracle.OptTable.{m}", oracle.OptTable, m) for m in ("error", "witness")]
    out += [(f"hardinstance.cursor.{m}", hard_cursor, m) for m in _public_methods(hard_cursor)]
    out += [(f"hardinstance.{f}", hardinstance, f) for f in ("evaluate", "lower_bound_experiment")]
    out += [("realvalued.grow_real", realvalued, "grow_real"), ("cli.main", cli, "main")]
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    return {
        "grower.candidates_per_split": "candidates/split",
        "oracle.splits_per_error": "splits/error",
        "cli.bundle_bytes": "B",
    }.get(metric, "count")


class Tracer:
    """Context manager: wraps the targets on entry and restores them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__bench_span__ = name
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        wanted = targets()  # imports every traced module before they are scanned
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "topdowndt" or n.startswith("topdowndt."))
        ]
        try:
            for name, owner, attr in wanted:
                raw = vars(owner)[attr]
                if isinstance(owner, type):
                    if isinstance(raw, classmethod):
                        self._patch(owner, attr, classmethod(self._span(name, raw.__func__)))
                    else:
                        self._patch(owner, attr, self._span(name, raw))
                    continue
                wrapped = self._span(name, raw)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span once, as arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, keyed by the benchmark's metric names."""
        a = self.arrays()
        nid, parent = a["name_id"].astype(np.intp), a["parent"].astype(np.intp)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = (dur - child) / 1e9
        self_by_name = np.bincount(nid, weights=self_s, minlength=len(self.names))

        def ids(pred) -> list[int]:
            return [i for i, name in enumerate(self.names) if pred(name)]

        def count(pred, mask=None) -> int:
            hit = np.isin(nid, ids(pred))
            return int(np.count_nonzero(hit if mask is None else hit & mask))

        def self_time(pred) -> float:
            return float(self_by_name[ids(pred)].sum())

        def exact(name):
            return lambda n: n == name

        def layer(prefix):
            return lambda n: n.startswith(prefix)

        def child_of(pred) -> np.ndarray:
            safe = np.where(nested, parent, 0)
            return nested & np.isin(nid[safe], ids(pred))

        # spans with an oracle span anywhere above them
        is_oracle = np.isin(nid, ids(layer("oracle.")))
        under_oracle = np.zeros(len(nid), dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            under_oracle[live] |= is_oracle[anc[live]]
            anc[live] = parent[anc[live]]

        def is_cursor(method):
            return lambda n: n in (f"grower.TableCursor.{method}", f"hardinstance.cursor.{method}")

        in_grow = child_of(exact("grower.grow"))
        splits = count(is_cursor("split"), in_grow)
        candidates = count(is_cursor("child_expectations"), in_grow)
        errors = count(exact("oracle.OptTable.error"))
        oracle_splits = count(exact("boolfn.SubcubeView.split"), under_oracle)
        return {
            "boolfn.split.calls": count(exact("boolfn.SubcubeView.split")),
            "boolfn.child_ones.calls": count(exact("boolfn.SubcubeView.child_ones")),
            "boolfn.influence.calls": count(exact("boolfn.SubcubeView.influence_numerator")),
            "boolfn.self_s": self_time(layer("boolfn.")),
            "tree.split.calls": count(exact("tree.split")),
            "tree.split.self_s": self_time(exact("tree.split")),
            "tree.path_of.calls": count(exact("tree.path_of")),
            "tree.path_of.self_s": self_time(exact("tree.path_of")),
            "tree.evaluate.calls": count(exact("tree.evaluate")),
            "tree.evaluate.self_s": self_time(exact("tree.evaluate")),
            "impurity.evaluate.calls": count(exact("impurity.evaluate")),
            "impurity.self_s": self_time(layer("impurity.")),
            "grower.grow.calls": count(exact("grower.grow")),
            "grower.grow.self_s": self_time(exact("grower.grow")),
            "grower.splits": splits,
            "grower.candidates_per_split": candidates / splits if splits else 0.0,
            "grower.verify.self_s": self_time(exact("grower.verify_split_inequalities")),
            "oracle.error.calls": errors,
            "oracle.self_s": self_time(layer("oracle.")),
            "oracle.splits_per_error": oracle_splits / errors if errors else 0.0,
            "hardinstance.cursor.calls": count(layer("hardinstance.cursor.")),
            "hardinstance.cursor.self_s": self_time(layer("hardinstance.cursor.")),
            "hardinstance.evaluate.calls": count(exact("hardinstance.evaluate")),
            "hardinstance.evaluate.self_s": self_time(exact("hardinstance.evaluate")),
            "hardinstance.lower_bound_experiment.self_s": self_time(
                exact("hardinstance.lower_bound_experiment")
            ),
            "realvalued.grow_real.calls": count(exact("realvalued.grow_real")),
            "realvalued.grow_real.self_s": self_time(exact("realvalued.grow_real")),
            "cli.self_s": self_time(exact("cli.main")),
        }
