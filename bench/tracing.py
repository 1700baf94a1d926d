"""Spans recorded around luinv's layer functions, installed from outside.

The tracer replaces each named module function or method with a wrapper
that records a span (name, start, end, parent) and per-call counters, and
rebinds every name in the loaded ``luinv`` modules that referred to the
original, so that ``from luinv.molien import ...`` copies are traced too.
A name that no longer exists is listed in ``missing`` instead of raising:
later refactors may delete a traced function.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: The span the benchmark itself opens around each ``luinv.cli.main`` call.
ENTRY = "cli.main"


def _cells(args, kwargs, result) -> int:
    block = getattr(result, "block", result)
    return int(getattr(block, "size", 0))


def _quadrature_points(args, kwargs, result) -> int:
    # The float quadrature averages over an M^3 torus grid, M = 2D + 7 by default.
    degree = args[0] if args else kwargs["max_degree"]
    grid = args[1] if len(args) > 1 else kwargs.get("grid_size")
    m = grid if grid is not None else 2 * degree + 7
    return m ** 3


def _is_exact(value) -> bool:
    exact = getattr(value, "exact", None)
    if exact is not None:
        return bool(exact)
    return getattr(getattr(value, "dtype", None), "kind", "") == "O"


def _split_exact(args) -> str:
    return ".exact" if args and _is_exact(args[0]) else ".float"


#: (span name, module, attribute path, suffix from args, (counter, count fn)).
TARGETS = (
    ("molien.character", "luinv.molien", "CharacterCache.character", None, ("cells", _cells)),
    ("molien.ct", "luinv.molien", "_ct_against_weyl", None, None),
    ("laurent.mul", "luinv.laurent", "LaurentPoly3.mul", None, ("cells", _cells)),
    ("molien.multigraded", "luinv.molien", "poincare_multigraded", None, None),
    ("molien.quadrature", "luinv.molien", "quadrature_coefficients", None,
     ("points", _quadrature_points)),
    ("exact.closed_form", "luinv.molien", "verify_theorem", None, None),
    ("states.decompose", "luinv.states", "decompose_state", _split_exact, None),
    ("invariants.matrix_form", "luinv.invariants", "eval_matrix_form", _split_exact, None),
    ("invariants.basis_form", "luinv.invariants", "eval_basis_form", _split_exact, None),
    ("states.local_unitary", "luinv.states", "random_local_unitary", None, None),
    ("states.local_unitary", "luinv.states", "apply_local_unitary", None, None),
    ("invariants.battery", "luinv.invariants", "invariance_battery", None, None),
)


class Tracer:
    """In-memory spans and counters; summarized once the workload ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn: Callable, suffix, counter) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name + suffix(args) if suffix else name
            with self.span(full):
                result = fn(*args, **kwargs)
            self.counts[full + ".calls"] += 1
            if counter is not None:
                self.counts[f"{full}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for name, module_name, path, suffix, counter in targets:
            where = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(where)
                continue
            traced = self._wrap(name, original, suffix, counter)
            setattr(owner, attr, traced)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "luinv" or mod_name.startswith("luinv.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def summary(self, wall_s: float) -> dict:
        """Self time per span name, counters, coverage of ``wall_s``.

        Coverage counts the outermost layer spans, the ones not nested in
        another layer span; the ``cli.main`` entry span itself does not count,
        and its self time is reported as ``cli.self_s``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            top = parent is None or self.spans[parent][0] == ENTRY
            if name != ENTRY and top:
                covered += end - start
        return {
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "coverage": covered / wall_s if wall_s > 0 else 0.0,
            "missing": list(self.missing),
        }


@contextmanager
def maybe_span(tracer: Optional[Tracer], name: str):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield
