"""Span tracing of mpodyn's layers from outside the package.

Each traced callable is replaced at the attribute its callers look up: a
function in every ``mpodyn`` module namespace that binds it, a method on
its class, ``numpy.linalg.svd`` for the sector SVDs and ``scipy.linalg.svd``
for the gesvd fallback.  A wrapper records one span (name, start, end,
parent, note) per call.  Spans stay in memory until the run ends; then
:func:`layer_stats` turns them into per-layer counts and self times, where
self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (span name, module, class or None, attribute)
LAYERS = (
    ("models.gate_build", "mpodyn.models", None, "bond_gate"),
    ("models.gate_build", "mpodyn.models", None, "super_gate"),
    ("models.band_table", "mpodyn.models", "BondGate", "band_table"),
    ("mps_core.gate_apply", "mpodyn.mps_core", "CanonicalMps", "apply_two_site_gate"),
    ("mps_core.canonicalize", "mpodyn.mps_core", None, "canonicalize"),
    ("mps_core.entropy_profile", "mpodyn.mps_core", "CanonicalMps", "entropy_profile"),
    ("charge_tensor.svd", "numpy.linalg", None, "svd"),
    ("charge_tensor.svd.fallback", "scipy.linalg", None, "svd"),
    ("charge_tensor.truncation", "mpodyn.charge_tensor", None, "global_truncation"),
    ("charge_tensor.scale_axis", "mpodyn.charge_tensor", None, "scale_axis"),
    ("charge_tensor.contract", "mpodyn.charge_tensor", None, "contract"),
    ("operator_space.hs_trace_pair", "mpodyn.operator_space", None, "hs_trace_pair"),
    ("operator_space.expectation_in_state", "mpodyn.operator_space", None, "expectation_in_state"),
    ("operator_space.out_chain_compose", "mpodyn.operator_space", None, "out_chain_compose"),
    ("operator_space.apply_out_chain", "mpodyn.operator_space", None, "apply_out_chain"),
    ("projector.project_operator", "mpodyn.projector", None, "project_operator"),
    ("projector.projector_superstate", "mpodyn.projector", None, "projector_superstate"),
)

ROOT_SPAN = "solve"
GATE_SPAN = "mps_core.gate_apply"
SVD_SPAN = "charge_tensor.svd"


def _bindings(module: str, cls: str | None, attr: str):
    """Every (owner, attribute) through which a caller reaches the callable."""
    mod = importlib.import_module(module)
    if cls is not None:
        return [(getattr(mod, cls), attr)]
    if not module.startswith("mpodyn"):
        return [(mod, attr)]
    original = getattr(mod, attr)
    owners = [
        m for name, m in sorted(sys.modules.items())
        if (name == "mpodyn" or name.startswith("mpodyn.")) and getattr(m, attr, None) is original
    ]
    return [(m, attr) for m in owners]


def _scale_axis_name(args, kwargs) -> str:
    inverse = kwargs.get("inverse", args[3] if len(args) > 3 else False)
    return "charge_tensor.restore" if inverse else "charge_tensor.scale_axis"


def _svd_note(args, kwargs, result):
    return args[0].shape[-2:]


def _truncation_note(args, kwargs, result):
    computed = sum(len(v) for v in args[0].values())
    return (sum(result[0].values()), computed)


NAMERS = {"charge_tensor.scale_axis": _scale_axis_name}
NOTERS = {"charge_tensor.svd": _svd_note, "charge_tensor.truncation": _truncation_note}


def install(make_wrapper, layers=LAYERS) -> None:
    """Replace every binding of each layer's callable by ``make_wrapper(name, fn)``.

    Wrappers stay for the life of the process, which is one measured run.
    """
    for name, module, cls, attr in layers:
        for owner, a in _bindings(module, cls, attr):
            original = owner.__dict__[a] if isinstance(owner, type) else getattr(owner, a)
            setattr(owner, a, make_wrapper(name, original))


class Counter:
    """Call counts only: one dict increment per call, cheap enough to stay
    inside the timed solve."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


class Tracer:
    """Records one span per wrapped call; parent is the innermost open span."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        namer, noter = NAMERS.get(name), NOTERS.get(name)

        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                note = noter(args, kwargs, result) if noter and result is not None else None
                spans[idx] = (span_name, start, end, parent, note)

        return traced

    def run(self, fn):
        """Call ``fn`` inside the root span; returns (result, root duration)."""
        if self.spans:
            raise RuntimeError("a tracer records a single run")
        result = self.wrapper(ROOT_SPAN, fn)()
        _name, start, end, _parent, _note = self.spans[0]
        return result, end - start


def _svd_flops(rows: int, cols: int) -> float:
    """Nominal thin-SVD cost: the R-SVD count 6 M k^2 + 20 k^3 of Golub and
    Van Loan for U, S and V, times 4 for complex arithmetic."""
    k, big = min(rows, cols), max(rows, cols)
    return 4.0 * (6.0 * big * k * k + 20.0 * k**3)


def layer_stats(spans) -> dict[str, float]:
    """Per-layer counts, self times and SVD / truncation figures."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]

    def under_gate(idx: int) -> bool:
        while idx >= 0:
            if spans[idx][0] == GATE_SPAN:
                return True
            idx = spans[idx][3]
        return False

    stats: dict[str, float] = {}
    for name, *_ in LAYERS:
        stats[f"{name}.count"] = 0
        stats[f"{name}.self_s"] = 0.0
    stats["charge_tensor.restore.count"] = 0
    stats["charge_tensor.restore.self_s"] = 0.0
    stats.update({
        "charge_tensor.svd.max_rows": 0,
        "charge_tensor.svd.max_cols": 0,
        "charge_tensor.svd.flops_computed": 0.0,
        "charge_tensor.svd.gate_s": 0.0,
        "charge_tensor.svd.observe_s": 0.0,
    })
    kept = computed = 0
    unattributed = 0.0
    for idx, (name, start, end, parent, note) in enumerate(spans):
        self_s = (end - start) - child_time[idx]
        if name == ROOT_SPAN:
            unattributed += self_s
            continue
        stats[f"{name}.count"] += 1
        stats[f"{name}.self_s"] += self_s
        if name == SVD_SPAN and note is not None:
            rows, cols = note
            stats["charge_tensor.svd.max_rows"] = max(stats["charge_tensor.svd.max_rows"], rows)
            stats["charge_tensor.svd.max_cols"] = max(stats["charge_tensor.svd.max_cols"], cols)
            stats["charge_tensor.svd.flops_computed"] += _svd_flops(rows, cols)
            side = "gate_s" if under_gate(parent) else "observe_s"
            stats[f"charge_tensor.svd.{side}"] += self_s
        elif name == "charge_tensor.truncation" and note is not None:
            kept += note[0]
            computed += note[1]
    stats["charge_tensor.truncation.kept_ratio"] = kept / computed if computed else 0.0
    stats["trace.unattributed_s"] = unattributed
    return stats
