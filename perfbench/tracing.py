"""Traced run: timing wrappers around the public functions of each layer.

Run as a script, one CLI call per fresh interpreter::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.npz CLI_ARG...

it imports lorentzkit, wraps every function listed in :data:`TRACED` on each
name it is looked up under, runs ``lorentzkit.cli.main(CLI_ARG...)`` and
exits with its return code.  Spans (name, start, end, parent, work) are kept
in memory and written to ``SPANS.npz`` after ``main`` returns; the seconds
spent writing them go to ``SPANS.npz.json`` so they can be taken off the
traced wall time.

A call made from inside the same layer (``partial_sum`` growing its cache
through ``weight_values``, ``write_json`` calling ``to_json``) is not a call
into that layer and records no span, so counts are calls across layer
boundaries and a layer's self time includes its internal calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional


class Traced(NamedTuple):
    layer: str
    group: str
    module: str
    attr: str  # "function" or "Class.method"
    # work(result, *call_args) -> a size recorded on the span
    work: Optional[Callable] = None


def _file_size(result, report, path, *rest, **kw):
    return os.path.getsize(path)


TRACED: List[Traced] = [
    Traced("weights", "scalar", "lorentzkit.weights", "WeightSequence.weight", lambda r, s, n: n),
    Traced("weights", "scalar", "lorentzkit.weights", "WeightSequence.partial_sum", lambda r, s, k: k),
    Traced("weights", "scalar", "lorentzkit.weights", "WeightSequence.window_sum", lambda r, s, j, k: j + k),
    Traced("weights", "array", "lorentzkit.weights", "WeightSequence.partial_sums", lambda r, s, n: n),
    Traced("weights", "array", "lorentzkit.weights", "WeightSequence.weight_values", lambda r, s, n: n),
    Traced("weights", "array", "lorentzkit.weights", "WeightSequence.averaged_weight_values",
           lambda r, s, n, k: n * k),
    Traced("space", "runlength", "lorentzkit.space", "lorentz_pnorm_pow_runlength"),
    Traced("kernels", "pow_sum", "lorentzkit._kernels", "weighted_pow_sum"),
    Traced("kernels", "batch", "lorentzkit._kernels", "batch_sorted_pow_sums",
           lambda r, mat, *rest: mat.shape[0]),
    Traced("kernels", "search", "lorentzkit._kernels", "ratio_scan", lambda r, cands, *rest: cands.shape[0]),
    Traced("kernels", "search", "lorentzkit._kernels", "ascent"),
    Traced("blocks", "blocks", "lorentzkit.blocks", "corollary_scheme"),
    Traced("blocks", "blocks", "lorentzkit.blocks", "block_vector"),
    Traced("blocks", "blocks", "lorentzkit.blocks", "staggered_family"),
    Traced("blocks", "blocks", "lorentzkit.blocks", "expand"),
    Traced("blocks", "blocks", "lorentzkit.blocks", "expand_runlength"),
    Traced("blocks", "blocks", "lorentzkit.blocks", "BlockScheme.stagger_ratio"),
    Traced("constants", "select", "lorentzkit.constants", "select_block_counts"),
    Traced("constants", "select", "lorentzkit.constants", "section_ratio"),
    Traced("constants", "equiv", "lorentzkit.constants", "domination_constant"),
    Traced("constants", "equiv", "lorentzkit.constants", "equiv_to_lp_exact"),
    Traced("constants", "equiv", "lorentzkit.constants", "NormDescriptor.weight_vector"),
    Traced("constants", "equiv", "lorentzkit.constants", "NormDescriptor.evaluate"),
    Traced("verify", "grid", "lorentzkit.verify", "run_grid", lambda r, *a, **kw: r.instances),
    Traced("verify", "grid", "lorentzkit.verify", "check_theorem_3_5"),
    Traced("verify", "grid", "lorentzkit.verify", "check_lemma_3_4_conditions"),
    Traced("verify", "serialize", "lorentzkit.verify", "VerificationReport.to_json",
           lambda r, *a, **kw: len(r.encode())),
    Traced("verify", "serialize", "lorentzkit.verify", "VerificationReport.write_json", _file_size),
    Traced("cli", "cli", "lorentzkit.cli", "main"),
]


class Recorder:
    """Spans in parallel arrays, plus the open spans' indices and layers."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.stack = [-1]
        self.layers = [None]

    def wrap(self, fn: Callable, name_id: int, layer: str, work: Optional[Callable]) -> Callable:
        names, parents, starts, ends, works = self.name, self.parent, self.start, self.end, self.work
        stack, layers = self.stack, self.layers
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layers[-1] == layer:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            works.append(0.0)
            ends.append(0.0)
            stack.append(i)
            layers.append(layer)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                layers.pop()
            if work is not None:
                works[i] = work(result, *args, **kwargs)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array([t.attr for t in TRACED]),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.float64),
        )


def install(recorder: Recorder) -> Callable:
    """Wrap every TRACED function on every lorentzkit name bound to it.

    A module that imported a function by name (``verify`` imports
    ``lorentz_pnorm_pow_runlength`` from ``space``) looks it up in its own
    globals, so patching only the defining module would miss those calls.
    Returns the wrapped ``lorentzkit.cli.main``.
    """
    for t in TRACED:
        importlib.import_module(t.module)
    package = [m for n, m in sys.modules.items() if n == "lorentzkit" or n.startswith("lorentzkit.")]
    for name_id, t in enumerate(TRACED):
        owner = sys.modules[t.module]
        *cls_path, attr = t.attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = recorder.wrap(original, name_id, t.layer, t.work)
        if cls_path:
            setattr(owner, attr, wrapper)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return sys.modules["lorentzkit.cli"].main


# ---------------------------------------------------------------------------
# Span analysis (benchmark side).
# ---------------------------------------------------------------------------


def call_totals(path: str) -> Dict:
    """Per traced function in one spans file: calls, self, inclusive, work.

    Self time is a span's duration minus the durations of its recorded
    children.  ``select_probes`` and ``equiv_candidates`` count the weights
    scalar calls and ``ratio_scan`` rows made directly from the constants
    layer's two groups.
    """
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name, parent, work = data["name"], data["parent"], data["work"]
        dur = data["end"] - data["start"]
    if names != [t.attr for t in TRACED]:
        raise ValueError(f"{path}: spans were written by another TRACED table")
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    size = len(TRACED)
    group_of = np.array([f"{t.layer}.{t.group}" for t in TRACED])
    parent_group = np.where(has_parent, group_of[name[np.maximum(parent, 0)]], "")
    span_group = group_of[name]
    return {
        "calls": np.bincount(name, minlength=size),
        "self": np.bincount(name, weights=self_time, minlength=size),
        "inclusive": np.bincount(name, weights=dur, minlength=size),
        "work": np.bincount(name, weights=work, minlength=size),
        "max_index": float(work[np.char.startswith(span_group, "weights.")].max(initial=0.0)),
        "select_probes": int(np.sum((span_group == "weights.scalar") & (parent_group == "constants.select"))),
        "equiv_candidates": int(np.sum(work[(span_group == "kernels.search") & (parent_group == "constants.equiv")])),
    }


def layer_metrics(totals: List[Dict], traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's calls.

    Rates divide a count by the time spent on it: run-length norms and
    verified instances per second of their inclusive time, batch rows per
    second of kernel self time.  ``weights.max_index`` is the largest index
    any weights call asked for.  ``trace.overhead_s`` is the traced wall time
    minus that of the untraced repetition run just before; ``trace.unattributed_s`` is the traced wall
    time no span covers (interpreter start, imports, exit).
    """
    import numpy as np

    calls = sum(t["calls"] for t in totals)
    self_s = sum(t["self"] for t in totals)
    inclusive = sum(t["inclusive"] for t in totals)
    work = sum(t["work"] for t in totals)

    def pick(layer, group=None, attr=None):
        return np.array([
            t.layer == layer and group in (None, t.group) and attr in (None, t.attr) for t in TRACED
        ])

    def rate(count, seconds):
        return float(count / seconds) if seconds > 0 else 0.0

    scalar, array_, runlength = pick("weights", "scalar"), pick("weights", "array"), pick("space")
    pow_sum, batch, search = pick("kernels", "pow_sum"), pick("kernels", "batch"), pick("kernels", "search")
    run_grid = pick("verify", attr="run_grid")
    instances = int(work[run_grid].sum())
    return {
        "weights.scalar_calls": int(calls[scalar].sum()),
        "weights.scalar_self_s": float(self_s[scalar].sum()),
        "weights.array_calls": int(calls[array_].sum()),
        "weights.array_self_s": float(self_s[array_].sum()),
        "weights.max_index": int(max(t["max_index"] for t in totals)),
        "space.runlength_calls": int(calls[runlength].sum()),
        "space.runlength_self_s": float(self_s[runlength].sum()),
        "space.runlength_per_s": rate(calls[runlength].sum(), inclusive[runlength].sum()),
        "kernels.pow_sum_calls": int(calls[pow_sum].sum()),
        "kernels.pow_sum_self_s": float(self_s[pow_sum].sum()),
        "kernels.batch_rows": int(work[batch].sum()),
        "kernels.batch_self_s": float(self_s[batch].sum()),
        "kernels.rows_per_s": rate(work[batch].sum(), self_s[batch].sum()),
        "kernels.search_self_s": float(self_s[search].sum()),
        "blocks.self_s": float(self_s[pick("blocks")].sum()),
        "constants.select_self_s": float(self_s[pick("constants", "select")].sum()),
        "constants.select_probes": sum(t["select_probes"] for t in totals),
        "constants.equiv_self_s": float(self_s[pick("constants", "equiv")].sum()),
        "constants.equiv_candidates": sum(t["equiv_candidates"] for t in totals),
        "verify.self_s": float(self_s[pick("verify", "grid")].sum()),
        "verify.instances": instances,
        "verify.instances_per_s": rate(instances, inclusive[run_grid].sum()),
        "verify.serialize_s": float(self_s[pick("verify", "serialize")].sum()),
        "verify.report_bytes": int(work[pick("verify", "serialize")].sum()),
        "cli.self_s": float(self_s[pick("cli")].sum()),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - float(self_s.sum()),
    }


def main(argv: List[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    cli_main = install(recorder)
    code = cli_main(cli_args)
    t0 = time.perf_counter()
    recorder.save(spans_path)
    with open(spans_path + ".json", "w", encoding="utf-8") as fh:
        json.dump({"write_s": time.perf_counter() - t0}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
