"""Per-layer tracing from outside the package.

A `Tracer` replaces public functions and methods of the package's modules
with timing wrappers for the duration of a `with` block and restores them
afterwards.  Each call is a span; a span's self time is its duration minus
the time of the traced calls made inside it.  Spans are aggregated in memory
(one duration per call) and turned into metrics when the block ends.

A name that a later version of the package no longer has is recorded as
absent and traced as zero calls, so the trace keeps working when functions
are deleted or merged.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

# (metric prefix, bindings, exported fields).  A binding names the module
# and attribute path through which the package calls the function: the
# package often imports a name into another module, and only that binding
# sees the calls.  The benchmark itself calls through module attributes
# (`cli.main`, `experiments.build_ghz_program`, `model.format_program`).
TARGETS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...], Tuple[str, ...]], ...] = (
    ("tableau.apply_t", (("tableau", "SuperStabilizerTableau.apply_t"),),
     ("calls", "p50_us", "p99_us", "total_s")),
    ("tableau.apply_c3", (("tableau", "SuperStabilizerTableau.apply_c3"),),
     ("calls", "p50_us", "p99_us", "total_s")),
    ("tableau.apply_swap", (("tableau", "SuperStabilizerTableau.apply_swap"),),
     ("calls", "p50_us", "p99_us", "total_s")),
    ("tableau.entropy", (("tableau", "SuperStabilizerTableau.entropy"),),
     ("calls", "p50_us", "p99_us", "total_s", "self_s",
      "prefix.p50_us", "region.p50_us")),
    ("gf2.rank", (("tableau", "gf2_rank"),),
     ("calls", "p50_us", "p99_us", "total_s", "rows_mean", "cols_max", "useful_frac")),
    ("tableau.loads", (("tableau", "SuperStabilizerTableau.loads"),), ("total_ms",)),
    ("tableau.dumps", (("tableau", "SuperStabilizerTableau.dumps"),), ("total_ms",)),
    ("tableau.check_invariants", (("tableau", "SuperStabilizerTableau.check_invariants"),),
     ("calls", "total_ms")),
    ("tableau.apply_program", (("tableau", "SuperStabilizerTableau.apply_program"),),
     ("total_s",)),
    ("experiments.random_step", (("experiments", "random_step"),),
     ("calls", "p50_us", "p99_us", "total_s")),
    ("experiments.run_random_ensemble", (("cli", "run_random_ensemble"),), ("total_s",)),
    ("experiments.summarize", (("cli", "summarize"),), ("total_ms",)),
    ("experiments.write_csv", (("cli", "write_csv"),), ("total_ms",)),
    ("experiments.build_ghz_program",
     (("experiments", "build_ghz_program"), ("cli", "build_ghz_program")), ("total_ms",)),
    ("model.parse_program", (("cli", "parse_program"),), ("total_ms",)),
    ("model.format_program", (("model", "format_program"),), ("total_ms",)),
    ("model.localize_c3", (("experiments", "localize_c3"),), ("calls", "total_ms")),
    ("oracle.apply_gate", (("oracle", "OperatorWavefunction.apply_gate"),),
     ("calls", "p50_us", "total_s")),
    ("oracle.entropy", (("oracle", "OperatorWavefunction.entropy"),),
     ("calls", "p50_us", "total_s")),
    ("cli.main", (("cli", "main"),), ("total_s",)),
    ("cli.write_manifest", (("cli", "write_manifest"),), ("total_ms",)),
)

# Spans whose self time is the simulation's hot path on `fig1`; the rest of
# the traced wall time is reported as `trace.remainder_frac`.
HOT_PATH = ("tableau.apply_t", "tableau.apply_c3", "tableau.apply_swap",
            "experiments.random_step", "tableau.entropy", "gf2.rank")

PACKAGE = "super_scrambler"


@dataclass
class Span:
    """All calls of one traced name."""

    durations: array = field(default_factory=lambda: array("d"))
    self_s: float = 0.0
    # entropy: durations split by region shape
    prefix: array = field(default_factory=lambda: array("d"))
    region: array = field(default_factory=lambda: array("d"))
    # rank: matrix shape and result
    rows: int = 0
    cols_max: int = 0
    rank: int = 0


def _resolve(binding: Tuple[str, str]):
    """(owner, attribute, raw value as stored on the owner) or None."""
    module_name, path = binding
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # A class's own dict keeps classmethod/staticmethod objects intact.
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Wraps every binding in `targets` while inside a `with` block.

    Bindings are resolved once; entering again re-installs the same wrappers,
    so spans accumulate over several blocks.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: Dict[str, Span] = {}
        self.absent: List[str] = []
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        for prefix, bindings, _ in targets:
            span = self.spans.setdefault(prefix, Span())
            for binding in bindings:
                found = _resolve(binding)
                if found is None:
                    self.absent.append(f"{prefix} ({binding[0]}.{binding[1]})")
                    continue
                owner, attr, raw = found
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(prefix, span, raw.__func__))
                else:
                    wrapped = self._wrap(prefix, span, raw)
                self._patches.append((owner, attr, raw, wrapped))

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)

    def _wrap(self, prefix: str, span: Span, fn):
        stack = self._stack
        clock = time.perf_counter
        is_entropy = prefix == "tableau.entropy"
        is_rank = prefix == "gf2.rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_rank and args and not isinstance(args[0], list):
                args = (list(args[0]),) + args[1:]
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                span.durations.append(duration)
                span.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if is_entropy and len(args) > 1:
                sites = getattr(args[1], "sites", ())
                prefix_cut = bool(sites) and max(sites) == len(sites)
                (span.prefix if prefix_cut else span.region).append(duration)
            elif is_rank and args:
                rows = args[0]
                span.rows += len(rows)
                span.cols_max = max(span.cols_max, max((r.bit_length() for r in rows), default=0))
                span.rank += int(result)
            return result

        return wrapper

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for prefix, _, fields in self.targets:
            span = self.spans.get(prefix, Span())
            values = _span_values(span)
            for f in fields:
                out[f"{prefix}.{f}"] = values[f]
        main = self.spans.get("cli.main", Span())
        out["cli.self_s"] = main.self_s
        return out

    def hot_path_self_s(self) -> float:
        """Self time of the hot-path spans (see HOT_PATH)."""
        return sum(self.spans[p].self_s for p in HOT_PATH if p in self.spans)


def _p(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.frombuffer(values, dtype=float), q)) * 1e6 if len(values) else 0.0


def _span_values(span: Span) -> Dict[str, float]:
    total = float(sum(span.durations))
    calls = len(span.durations)
    return {
        "calls": calls,
        "p50_us": _p(span.durations, 50),
        "p99_us": _p(span.durations, 99),
        "total_s": total,
        "total_ms": total * 1e3,
        "self_s": span.self_s,
        "prefix.p50_us": _p(span.prefix, 50),
        "region.p50_us": _p(span.region, 50),
        "rows_mean": span.rows / calls if calls else 0.0,
        "cols_max": span.cols_max,
        "useful_frac": span.rank / span.rows if span.rows else 0.0,
    }
