"""Spans around calls into ffpoisson's modules, recorded from outside the
program.

The tracer replaces each target function by a wrapper on its module (or
class), and on every other loaded ``ffpoisson`` module that imported the same
object by name, so calls from inside the program go through the wrapper too.
Each call becomes one span ``[target, start, end, parent, returned_value]``
kept in memory; the spans are summarized and written out when the process ends.
A target that no longer exists is skipped, and its metrics read 0.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import sys
import time

# metric group -> the functions it covers, as "module:qualname"
GROUPS = {
    "scalars.make_field": ["scalars:make_field"],
    "place.expand": ["place:PlaceData.expand"],
    "localfield.fourier": ["localfield:fourier1", "localfield:fourier_multi"],
    "localfield.convert": ["localfield:_to_rep", "localfield:_rep_to_values"],
    "localfield.axis_transform": [
        "localfield:_rep_axis_transform",
        "localfield:_generic_axis_transform",
    ],
    "globalfield.coset_build": ["globalfield:simple_coset_functions"],
    "globalfield.global_fourier": ["globalfield:global_fourier"],
    "globalfield.delta_K": ["globalfield:delta_K"],
    "globalfield.rr_space": ["globalfield:rr_space"],
    "cyclic_algebra.records": ["cyclic_algebra:invariant_records"],
    "cyclic_algebra.charpoly_jet": ["cyclic_algebra:charpoly_jet"],
    "cyclic_algebra.fourier_D_value": ["cyclic_algebra:fourier_D_value"],
    "cyclic_algebra.pairs": ["cyclic_algebra:default_pair_list"],
    "cyclic_algebra.fourier_D": ["cyclic_algebra:fourier_D"],
    "motivic.points": ["motivic:ConstructibleSet.points"],
    "motivic.closed_points": ["motivic:closed_points"],
    "motivic.euler_product": ["motivic:euler_product"],
    "motivic.specialize": ["motivic:MotivicClass.specialize"],
    "cli.emit_report": ["cli:emit_report"],
}

PACKAGE = "ffpoisson"

# the package's modules, whose self time the traced run reports
MODULES = ["scalars", "place", "localfield", "globalfield", "cyclic_algebra", "motivic", "cli"]

# groups that only the output checks run
CHECK_GROUPS = {"cyclic_algebra.fourier_D"}

FAST_AXIS = "localfield:_rep_axis_transform"
FALLBACK_AXIS = "localfield:_generic_axis_transform"

_COUNTED = [
    "place.expand",
    "localfield.fourier",
    "globalfield.delta_K",
    "cyclic_algebra.charpoly_jet",
    "cyclic_algebra.fourier_D_value",
]

# every metric summarize() returns, with its unit
LAYER_METRICS = (
    {f"{g}_s": "s" for g in GROUPS}
    | {f"{g}_calls": "count" for g in _COUNTED}
    | {
        "localfield.fallback_calls": "count",
        "localfield.fast_path_ratio": "ratio",
        "globalfield.jet_at_calls": "count",
        "globalfield.jet_at_hit_ratio": "ratio",
    }
    | {f"{m}.self_s": "s" for m in MODULES}
)

# summarize() count -> the ratio of LAYER_METRICS that finish() makes of it
RATIO_PARTS = {
    "localfield.fast_calls": "localfield.fast_path_ratio",
    "globalfield.jet_at_hits": "globalfield.jet_at_hit_ratio",
}


class Tracer:
    """Installs the wrappers and keeps the spans of one process."""

    def __init__(self):
        self.targets: list[str] = []
        self.spans: list[list] = []
        self._stack = [-1]

    def install(self) -> None:
        for names in GROUPS.values():
            for target in names:
                if self._patch(target):
                    self.targets.append(target)

    def _patch(self, target: str) -> bool:
        mod_name, qualname = target.split(":")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            return False
        wrapper = self._wrap(len(self.targets), original)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            return True
        prefix = PACKAGE + "."
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith(prefix):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        return True

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def open_span():
            span = [index, clock(), 0.0, stack[-1], True]
            stack.append(len(spans))
            spans.append(span)
            return span

        def close_span(span):
            span[2] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so time spent by the consumer between
            # items is not counted
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(span)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_span()
            try:
                result = fn(*args, **kwargs)
                span[4] = result is not None
                return result
            finally:
                close_span(span)

        if hasattr(fn, "cache_parameters"):
            # a memoized function (make_field) is called on every character
            # value: keep its hits in a cache of the same kind, so that only
            # the calls that build something become spans
            return functools.lru_cache(**fn.cache_parameters())(traced)
        return traced


def summarize(targets: list[str], spans: list[list], sections, jet_at: tuple[int, int]) -> dict:
    """Additive per-layer counts from one process's spans: the metrics of
    LAYER_METRICS except the two ratios, whose numerators are kept under
    the keys of RATIO_PARTS so that ``finish`` can form them from the
    counts of several processes.  ``jet_at`` is the (hits, misses) of
    ``globalfield.jet_at`` in the process.

    Only spans of the program's own work count: those that start during
    set-up (before the first timed section) or inside a timed section
    (``sections``, as perf_counter intervals).  The output checks' calls are
    left out, except for the groups in CHECK_GROUPS, which only the checks run.
    A group's ``_s`` and ``_calls`` count only spans with no enclosing span of
    the same group (``fourier1`` calling ``fourier_multi`` is one transform).
    A module's self time is the time in its spans not covered by a directly
    nested span.
    """
    group_of = {t: g for g, names in GROUPS.items() for t in names}
    span_group = [group_of[targets[s[0]]] for s in spans]
    starts = [a for a, _ in sections]

    def in_set_up_or_section(t):
        k = bisect.bisect_right(starts, t) - 1
        return k < 0 or t < sections[k][1]

    in_run = [in_set_up_or_section(s[1]) for s in spans]
    out = {name: 0 for name in LAYER_METRICS if name not in RATIO_PARTS.values()}
    child_time = [0.0] * len(spans)
    fast = fallback = 0
    for i, (ti, start, end, parent, returned) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
        group = span_group[i]
        if in_run[i] == (group in CHECK_GROUPS):
            continue
        outermost = True
        up = parent
        while up >= 0:
            if span_group[up] == group:
                outermost = False
                break
            up = spans[up][3]
        if outermost:
            out[f"{group}_s"] += dur
            if f"{group}_calls" in out:
                out[f"{group}_calls"] += 1
        if targets[ti] == FAST_AXIS and returned:
            fast += 1
        elif targets[ti] == FALLBACK_AXIS:
            fallback += 1
    for i, span in enumerate(spans):
        if in_run[i]:
            module = targets[span[0]].split(":")[0]
            out[f"{module}.self_s"] += span[2] - span[1] - child_time[i]
    out["localfield.fallback_calls"] = fallback
    out["localfield.fast_calls"] = fast
    hits, misses = jet_at
    out["globalfield.jet_at_calls"] = hits + misses
    out["globalfield.jet_at_hits"] = hits
    return out


def finish(totals: dict) -> dict:
    """LAYER_METRICS from the summed counts of ``summarize``."""
    out = {k: v for k, v in totals.items() if k not in RATIO_PARTS}
    fast, fallback = totals["localfield.fast_calls"], totals["localfield.fallback_calls"]
    out["localfield.fast_path_ratio"] = fast / (fast + fallback) if fast + fallback else 0.0
    hits, calls = totals["globalfield.jet_at_hits"], totals["globalfield.jet_at_calls"]
    out["globalfield.jet_at_hit_ratio"] = hits / calls if calls else 0.0
    return out
