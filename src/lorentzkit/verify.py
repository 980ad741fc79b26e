"""Inequality checkers and grid verification with deterministic reports.

:data:`STATEMENTS` is the one description of each statement: an evaluator
and the grid keys it takes, each with its default and the command-line
:class:`~lorentzkit.options.Option` that sets it.  :func:`run_grid` checks a
statement over a grid and each ``check_*`` helper at one point, both through
the statement's one chunk builder.  README.md gives each statement's
inequality ("Statement catalog"), the report format ("Reports and
determinism"), and how a grid streams in blocks, splits into parts that run
on forked workers, and is folded into one report ("Performance notes").
"""

from __future__ import annotations

import json
import math
import os
import pickle
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import _kernels
from .blocks import BlockScheme, _scheme_from_grid, expand_runlength
from .options import (
    COROLLARY_LEVELS,
    COUNTS,
    DEFAULT_TOLERANCE,
    LENGTHS,
    P,
    THETA,
    Option,
    Param,
    _dumps,
    _parse_float_list,
    _parse_grid,
    _plain,
    dump_json,
)
from .space import (
    FiniteVector,
    SpaceParams,
    check_norm_powers,
    disjoint_supports,
    lorentz_pnorm_pow,
    lorentz_pnorm_pow_runlength,
)
from .weights import PREFIX_CACHE_LIMIT, WeightSequence, _check_int, _check_p, _check_theta

# ---------------------------------------------------------------------------
# Report data model.
# ---------------------------------------------------------------------------


@dataclass
class InequalityInstance:
    """One checked grid point: the inequality sides and the final slack.

    ``lhs <= mid <= rhs`` is the general shape; statements without a third
    side leave the unused field as None.  ``slack`` is the smallest margin,
    negative on violation.
    """

    name: str
    params: Dict
    lhs: Optional[float]
    mid: Optional[float]
    rhs: Optional[float]
    slack: float


@dataclass
class VerificationReport:
    """Outcome of a verification run over one statement's grid."""

    statement: str
    grid: Dict
    tolerance: float
    seed: Optional[int]
    instances: int
    violations: List[InequalityInstance]
    min_slack: float
    min_slack_instance: Optional[InequalityInstance]
    runtime_ms: Optional[float] = None
    config: Optional[Dict] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self, include_timing: bool = False) -> Dict:
        doc = asdict(self)
        doc["passed"] = self.passed
        if not include_timing:
            # wall time varies run to run; it is nulled by default so that
            # repeated runs with one config stay byte-identical
            doc["runtime_ms"] = None
        return doc

    def to_json(self, include_timing: bool = False) -> str:
        return _dumps(self.to_dict(include_timing))

    def write_json(self, path, include_timing: bool = False) -> None:
        dump_json(path, self.to_dict(include_timing))

    def write_csv(self, path) -> None:
        """Flat one-row-per-violation table (header always present)."""
        import csv

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["statement", "name", "slack", "lhs", "mid", "rhs", "params"])
            for v in self.violations:
                sides = ["" if x is None else repr(float(x)) for x in (v.lhs, v.mid, v.rhs)]
                writer.writerow([self.statement, v.name, repr(float(v.slack)), *sides,
                                 json.dumps(v.params, sort_keys=True, default=_plain)])


# ---------------------------------------------------------------------------
# Shared numeric helpers.
# ---------------------------------------------------------------------------


def _power_gap(x, e, buffers):
    """``(x+1)**e - x**e`` without cancellation for large ``x``, computed in
    place of the float array ``x >= 0``; its temporaries come from ``buffers``."""
    zero = np.equal(x, 0.0, out=buffers("zero", x.shape, bool))
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 ** e * inf at x = 0
        gap = np.divide(1.0, x, out=buffers("scratch", x.shape))
        np.log1p(gap, out=gap)
        gap *= e
        np.expm1(gap, out=gap)
        x **= e
        x *= gap
    np.copyto(x, 1.0, where=zero)
    return x


def _band_constants(theta: float) -> Tuple[float, float]:
    """Lower/upper factors of the averaged-weight band for ``w_n = n^-theta``."""
    lower = (1.0 - theta) / 2.0
    upper = (2.0 - 2.0 ** theta) / (2.0 ** (1.0 - theta) - 1.0)
    return lower, upper


def theorem_constants(
    theta: float, stagger: Optional[float]
) -> Tuple[float, float]:
    """Two-sided equivalence constants for a scheme with stagger ratio ``M``.

    Returns ``(A, B)`` with ``A = (2 - 2^theta)/(2^(1-theta) - 1)`` and
    ``B = (1-theta)/2 * (M+1)^(-theta)``; ``M`` is clamped to at least 1,
    ``None`` (single-level schemes) is treated as 1, and a NaN or infinite
    ``M`` raises ``ValueError``.  ``theta`` must lie in ``[0.01, 0.99]``, as
    for :class:`~lorentzkit.weights.WeightSequence`.
    """
    theta = _check_theta(theta)
    lower, upper = _band_constants(theta)
    return upper, lower * (_stagger(stagger) + 1.0) ** (-theta)


def _check_tolerance(tolerance) -> float:
    tolerance = float(tolerance)
    if not np.isfinite(tolerance) or tolerance < 0.0:
        raise ValueError(f"tolerance must be a finite nonnegative real: {tolerance}")
    return tolerance


def _stagger(ratio: Optional[float]) -> float:
    """The stagger ratio ``M`` clamped to at least 1 (1 for a single level);
    NaN and the infinities are refused."""
    ratio = 1.0 if ratio is None else float(ratio)
    if not np.isfinite(ratio):
        raise ValueError(f"stagger ratio must be finite: {ratio}")
    return max(1.0, ratio)


def _log_sampled_ints(k_max: int, minimum: int) -> np.ndarray:
    """Deterministic log-spaced integers in ``[1, k_max]``, the first 1 (>= minimum values)."""
    if k_max <= minimum:
        return np.arange(1, k_max + 1, dtype=np.int64)
    num = minimum
    while True:
        raw = np.logspace(0.0, math.log10(k_max), num)
        vals = np.round(raw).astype(np.int64)  # nondecreasing, from 1
        vals = vals[(np.diff(vals, prepend=0) > 0) & (vals <= k_max)]  # each value once
        if vals.size >= minimum:
            return vals
        num = int(math.ceil(num * 1.3)) + 1


# ---------------------------------------------------------------------------
# Chunks and their aggregation.
# ---------------------------------------------------------------------------


class Chunk(NamedTuple):
    """Columns of a block of instances; grid order is the C order of ``slack``.

    Each ``params`` value is a scalar or an array that broadcasts to
    ``slack``'s shape, and so is each side.  A side is None when the
    statement lacks it and NaN where one instance lacks it.  The arrays are
    valid only until the next chunk of their iterable is drawn: an evaluator
    may overwrite them with the next block's.
    """

    name: str
    params: Dict
    lhs: Optional[np.ndarray]
    mid: Optional[np.ndarray]
    rhs: Optional[np.ndarray]
    slack: np.ndarray


def _instance(chunk: Chunk, flat: int) -> InequalityInstance:
    """The instance at C-order position ``flat`` of ``chunk``."""
    shape = np.shape(chunk.slack)
    at = np.unravel_index(flat, shape)

    def value(column):
        if not isinstance(column, np.ndarray):
            return column
        # a column broadcasts against the trailing axes, length 1 to any
        index = at[len(at) - column.ndim:]
        return column[tuple(i if n > 1 else 0 for i, n in zip(index, column.shape))].item()

    def side(column):
        v = value(column)
        return None if v is None or math.isnan(v) else float(v)

    return InequalityInstance(
        name=chunk.name,
        params={key: value(col) for key, col in chunk.params.items()},
        lhs=side(chunk.lhs),
        mid=side(chunk.mid),
        rhs=side(chunk.rhs),
        slack=float(np.asarray(chunk.slack)[at]),
    )


def _aggregate(chunks: Iterable[Chunk], tolerance: float):
    """Instance count, violations (NaN slacks too) in grid order, and the first
    minimum-slack instance (None if no slack is below infinity).

    A later chunk takes over the minimum only on a strictly smaller slack.
    The violations are looked for only in a chunk whose minimum fails.  A
    chunk's arrays need only live until the next chunk is drawn: what is
    kept of it is copied out as Python scalars.
    """
    count, violations = 0, []
    min_slack, min_inst = math.inf, None
    for chunk in chunks:
        slack = chunk.slack
        count += slack.size
        flat = int(np.argmin(slack))  # the first NaN, if there is one
        if not slack.flat[flat] >= -tolerance:  # some slack fails, or is NaN
            violations.extend(
                _instance(chunk, at) for at in np.flatnonzero(~(slack >= -tolerance))
            )
            if math.isnan(slack.flat[flat]) and not np.isnan(slack).all():
                flat = int(np.nanargmin(slack))
        if slack.flat[flat] < min_slack:
            min_slack = float(slack.flat[flat])
            min_inst = _instance(chunk, flat)
        # the evaluator may free this chunk's arrays while it builds the next
        del chunk, slack
    return count, violations, min_inst


def _fold(aggregates):
    """Per-part :func:`_aggregate` results, in part order, folded as one pass
    over all their chunks would: a later part takes over the minimum only on
    a strictly smaller slack."""
    count, violations, min_inst = 0, [], None
    for part_count, part_violations, part_min in aggregates:
        count += part_count
        violations.extend(part_violations)
        if part_min is not None and (min_inst is None or part_min.slack < min_inst.slack):
            min_inst = part_min
    return count, violations, min_inst


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def _aggregate_parts(parts: List[Iterable[Chunk]], tolerance: float, part_entries: int):
    """:func:`_aggregate` of each part, in part order.

    The parts run on :func:`_fan_out`'s forked workers, one per CPU the
    process may use, but no more than there are parts, nor than hold at most
    ``PREFIX_CACHE_LIMIT`` prefix-sum entries together at ``part_entries``
    each.  Each worker runs a fixed share of the parts, so a part after a
    failing one may have run, but the failure of the lowest index is the one
    raised.  Where that is one worker (also wherever the platform has no CPU
    affinity, so cannot pin a process), or while another thread is alive
    (forking a threaded process is unsafe), they run in the calling thread
    instead, and the first failing part raises before a later one starts.
    """
    workers = min(_cpus(), len(parts), PREFIX_CACHE_LIMIT // max(part_entries, 1))
    if workers <= 1 or threading.active_count() > 1:
        return [_aggregate(part, tolerance) for part in parts]
    return _fan_out(parts, tolerance, workers)


def _fan_out(parts: List[Iterable[Chunk]], tolerance: float, workers: int):
    """:func:`_aggregate` of each part on ``workers`` forked processes, each
    pinned to its own share of the process's CPUs (:func:`_worker`): worker n
    to CPUs n, n + workers, n + 2 * workers, ... of the affinity mask, so no
    two workers of a call share a CPU, and a worker with several CPUs may
    still move off one that another process keeps busy.

    Worker n runs parts n, n + workers, n + 2 * workers, ... in order and
    writes each one's aggregate or exception to its own result pipe.  The
    calling process does no part work: it loads the results in part order
    with :func:`pickle.load`, part i from worker ``i % workers``, and raises
    the first exception it loads, which is the failure of the lowest index,
    as in one pass.  A worker blocks only on its own pipe, and the caller
    reads each pipe in the order it is written, so no read waits on a worker
    that waits on the caller.  A worker whose pipe ends before a whole
    pickle (it exited without sending its part's result) fails that part
    with :class:`ChildProcessError`.  A failing ``os.pipe`` or ``os.fork``
    raises once the ends made are closed.  Every worker is killed and reaped
    before this returns or raises, so none outlives a failure or an
    interrupt.
    """
    import signal

    cpus = sorted(os.sched_getaffinity(0))
    pids, readers, outcomes = [], [], []  # readers[n] is worker pids[n]'s result pipe
    try:
        for n in range(workers):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    inherited = [result_r, *(reader.fileno() for reader in readers)]
                    _worker(parts[n::workers], tolerance, cpus[n % len(cpus)::workers], result_w, inherited)
            except BaseException:  # no worker: its read end goes too
                os.close(result_r)
                raise
            finally:
                os.close(result_w)
            pids.append(pid)
            readers.append(open(result_r, "rb"))
        for index in range(len(parts)):
            try:
                outcome = pickle.load(readers[index % workers])
            except (EOFError, pickle.UnpicklingError):  # the worker died
                # reaped here for its status, so the clean-up leaves it out
                _, status = os.waitpid(pids.pop(index % workers), 0)
                raise ChildProcessError(
                    f"the worker of part {index} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} before sending its result") from None
            if isinstance(outcome, BaseException):
                raise outcome
            outcomes.append(outcome)
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # one still busy after a failure or an interrupt
            os.waitpid(pid, 0)
    return outcomes


def _worker(parts, tolerance: float, cpus, results: int, inherited) -> None:
    """The life of a forked worker: close the ``inherited`` descriptors (the
    read ends of its own and of earlier workers' result pipes), pin itself
    to ``cpus``, then aggregate ``parts`` in order and write each one's
    aggregate or exception to ``results``, stopping after the first
    exception.

    It never returns: it leaves through ``os._exit``, so it runs no exit
    handler and flushes none of the caller's stdio buffers.  A result that
    cannot be pickled ends the worker without one.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        os.sched_setaffinity(0, cpus)
        for part in parts:
            try:
                outcome = _aggregate(part, tolerance)
            except Exception as exc:
                outcome = _portable(exc)
            view = memoryview(pickle.dumps(outcome))
            while view:
                view = view[os.write(results, view):]
            if isinstance(outcome, BaseException):
                break
        code = 0
    finally:
        os._exit(code)


def _portable(exc: Exception) -> Exception:
    """``exc``, or where unpickling would not give back its class and message
    (numpy's allocation error is one), an exception of its nearest built-in
    class with the same message."""
    try:
        back = pickle.loads(pickle.dumps(exc))
    except Exception:
        back = None
    if type(back) is type(exc) and str(back) == str(exc):
        return exc
    builtin = next(c for c in type(exc).__mro__ if c.__module__ == "builtins")
    return builtin(str(exc))


def _report(statement: str, tolerance, evaluate: Callable, grid: Dict):
    """Evaluate ``grid`` with the statement's ``evaluate`` and fold the parts
    it returns into the statement's report, timing both."""
    start = time.perf_counter()
    desc, seed, parts, part_entries = evaluate(grid)
    count, violations, min_inst = _fold(_aggregate_parts(parts, tolerance, part_entries))
    return VerificationReport(
        statement=statement,
        grid=desc,
        tolerance=tolerance,
        seed=seed,
        instances=count,
        violations=violations,
        min_slack=math.inf if min_inst is None else min_inst.slack,
        min_slack_instance=min_inst,
        runtime_ms=(time.perf_counter() - start) * 1e3,
        config={"statement": statement, "tolerance": tolerance, **desc},
    )


# ---------------------------------------------------------------------------
# Statements: chunk builders, pointwise checks, and evaluators that check a
# grid and return the report's grid description, its seed, a list of
# independent parts, each an iterable of chunks, and the number of prefix-sum
# entries a part holds (0 for none).
# ---------------------------------------------------------------------------


#: every streamed check works in blocks of about this many entries (grid cells,
#: trial coefficients or trial draws): it bounds memory, and no report depends on it
_GRID_BLOCK_ENTRIES = 1 << 16


def _grid_blocks(first: int, last: int, columns: int):
    """Row ranges ``(lo, hi)``, ``hi`` inclusive, covering ``first..last`` in
    blocks of about :data:`_GRID_BLOCK_ENTRIES` cells of ``columns`` each."""
    rows = max(1, _GRID_BLOCK_ENTRIES // columns)
    for lo in range(first, last + 1, rows):
        yield lo, min(lo + rows - 1, last)


class _Buffers:
    """Named arrays for a streamed check's block temporaries, allocated on
    first use and reused after.

    ``buffers(name, shape, dtype)`` is the leading ``shape`` of the array
    ``name`` (one dtype per name), reallocated only when it is too small.  A
    streamed check makes one for its whole grid, shared by every part a
    process runs, so the process's first, largest block allocates them and no
    later block does; what a call returns is valid until the next call for
    the same name.  A fresh one gives freshly allocated arrays.
    """

    def __init__(self):
        self._arrays: Dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        array = self._arrays.get(name)
        if array is None or array.size < size:
            array = self._arrays[name] = np.empty(size, dtype)
        return array[:size].reshape(shape)


def _window_ratios(ends, starts, terms, w_k, out) -> np.ndarray:
    """``(W_{s+k} - W_s) / W_k`` into ``out`` (which may be ``ends``) from the
    prefix sums at the window ends and starts.  The first column has ``k =
    1``: it is set to the single terms ``terms``, one per row, before the
    division."""
    ratio = np.subtract(ends, starts, out=out)
    ratio[:, 0] = terms
    ratio /= w_k
    return ratio


def _gather(sums, index, out) -> np.ndarray:
    """``sums[index]`` into ``out``, for an ``index`` that grows along its rows
    and its columns.  ``mode="clip"`` writes ``out`` directly (``"raise"``
    goes through a copy), so the last index, the largest, is checked here."""
    if index[-1, -1] >= sums.size:
        raise IndexError(f"index {index[-1, -1]} is past {sums.size} prefix sums")
    return np.take(sums, index, out=out, mode="clip")


def _lemma_3_1_chunk(theta: float, rows, k, ratio, buffers: _Buffers) -> Chunk:
    """Instances at window starts ``j = rows[:-1]`` (``rows`` a column of
    consecutive integers) and lengths ``k`` (a row) from their ratios
    ``(w_{j+1} + ... + w_{j+k}) / W_k``; one power gap over ``rows`` gives
    both sides."""
    e = 1.0 - theta
    x = np.divide(rows, k, out=buffers("gap", (rows.shape[0], k.shape[1])))
    gap = _power_gap(x, e, buffers)
    lhs = gap[1:]
    rhs = np.divide(gap[:-1], 2.0 ** e - 1.0, out=buffers("rhs", lhs.shape))
    params = {"theta": theta, "j": rows[:-1], "k": k}
    slack = np.subtract(ratio, lhs, out=buffers("slack", lhs.shape))
    np.minimum(slack, np.subtract(rhs, ratio, out=buffers("scratch", lhs.shape)), out=slack)
    return Chunk("lemma-3-1", params, lhs, ratio, rhs, slack)


def check_lemma_3_1(theta: float, j: int, k: int) -> InequalityInstance:
    """Check the shifted power-sum ratio sandwich at one ``(theta, j, k)``."""
    j = _check_int("j", j, 0)
    k = np.array([[_check_int("k", k, 1)]])
    w = WeightSequence(theta)
    rows = np.array([[j], [j + 1]])
    return _instance(_lemma_3_1_chunk(w.theta, rows, k, w._averaged(rows[:1], k), _Buffers()), 0)


def _lemma_3_1_chunks(w: WeightSequence, j_max: int, k, n_max: int, buffers: _Buffers):
    """One theta's chunks from its ``n_max = j_max + k_max`` prefix sums, a
    block of rows ``j`` at a time: ``W_{j+k}`` is gathered at ``j + k``."""
    sums = w.partial_sums(n_max)
    terms = w.weight_values(j_max + 1)
    w_k = sums[k]
    j_all = np.arange(j_max + 2, dtype=np.int64)[:, None]
    for lo, hi in _grid_blocks(0, j_max, k.shape[1]):
        rows = j_all[lo : hi + 2]
        shape = (hi + 1 - lo, k.shape[1])
        ends = _gather(sums, np.add(rows[:-1], k, out=buffers("index", shape, np.int64)),
                       buffers("ratio", shape))
        ratio = _window_ratios(ends, sums[lo : hi + 1, None], terms[lo : hi + 1], w_k, ends)
        yield _lemma_3_1_chunk(w.theta, rows, k, ratio, buffers)


def _lemma_3_1(grid: Dict):
    j_max = _check_int("j_max", grid["j_max"], 0)
    k_max = _check_int("k_max", grid["k_max"], 1)
    k = _log_sampled_ints(k_max, _check_int("k_samples", grid["k_samples"], 1))[None, :]
    # every theta is checked before any prefix sum is built
    weights = [WeightSequence(theta) for theta in grid["theta_values"]]
    desc = {"theta_values": [w.theta for w in weights], "j_max": j_max, "k_values": k[0].tolist()}
    buffers = _Buffers()  # allocated by a process's first block, shared by its later thetas
    n_max = j_max + int(k[0, -1])
    return desc, None, [_lemma_3_1_chunks(w, j_max, k, n_max, buffers) for w in weights], n_max


def _lemma_3_2_chunk(theta: float, i, k, averaged, w_i, buffers: _Buffers) -> Chunk:
    """Instances at blocks ``i`` and lengths ``k`` (broadcast together) from
    the averaged weights ``w_i^(k)`` and the weights ``w_i``."""
    lower_c, upper_c = _band_constants(theta)
    lhs = np.multiply(lower_c, w_i, out=buffers("lhs", np.shape(w_i)))
    rhs = np.multiply(upper_c, w_i, out=buffers("rhs", np.shape(w_i)))
    params = {"theta": theta, "i": i, "k": k}
    shape = np.shape(averaged)
    slack = np.subtract(averaged, lhs, out=buffers("slack", shape))
    np.minimum(slack, np.subtract(rhs, averaged, out=buffers("scratch", shape)), out=slack)
    return Chunk("lemma-3-2", params, lhs, averaged, rhs, slack)


def check_lemma_3_2(theta: float, i: int, k: int) -> InequalityInstance:
    """Check the averaged-weight band at one ``(theta, i, k)``."""
    i = _check_int("i", i, 1)
    k = _check_int("k", k, 1)
    w = WeightSequence(theta)
    averaged = w.averaged_weight(i, k)
    return _instance(_lemma_3_2_chunk(w.theta, i, k, averaged, w.weight(i), _Buffers()), 0)


def _lemma_3_2_chunks(w: WeightSequence, i_max: int, k, n_max: int, buffers: _Buffers):
    """One theta's chunks from its ``n_max = i_max * k_max`` prefix sums, a
    block of rows ``i`` at a time."""
    k_max = k.shape[1]
    sums = w.partial_sums(n_max)
    terms = w.weight_values(i_max)
    w_k = sums[1 : k_max + 1]
    i_all = np.arange(i_max + 1, dtype=np.int64)[:, None]
    for lo, hi in _grid_blocks(1, i_max, k_max):
        # the windows of one k tile: W at i*k for i = lo-1..hi, gathered once
        # into the chunk's scratch buffer, which it overwrites only once they are used
        tile = i_all[lo - 1 : hi + 1]
        shape = (tile.shape[0], k_max)
        ends = _gather(sums, np.multiply(tile, k, out=buffers("index", shape, np.int64)),
                       buffers("scratch", shape))
        averaged = _window_ratios(ends[1:], ends[:-1], terms[lo - 1 : hi], w_k,
                                  buffers("ratio", (shape[0] - 1, k_max)))
        # column 0 is w_i
        yield _lemma_3_2_chunk(w.theta, tile[1:], k, averaged, averaged[:, :1], buffers)


def _lemma_3_2(grid: Dict):
    i_max = _check_int("i_max", grid["i_max"], 1)
    k_max = _check_int("k_max", grid["k_max"], 1)
    k = np.arange(1, k_max + 1, dtype=np.int64)[None, :]
    # every theta is checked before any prefix sum is built
    weights = [WeightSequence(theta) for theta in grid["theta_values"]]
    desc = {"theta_values": [w.theta for w in weights], "i_max": i_max, "k_max": k_max}
    buffers = _Buffers()  # allocated by a process's first block, shared by its later thetas
    n_max = i_max * k_max
    return desc, None, [_lemma_3_2_chunks(w, i_max, k, n_max, buffers) for w in weights], n_max


def _remark_3_3_chunk(params: Dict, pow_x, pow_y, pow_union) -> Chunk:
    """Instances from the norm powers ``||x||^p``, ``||y||^p``, ``||x+y||^p``."""
    with np.errstate(over="ignore"):  # a bound beyond float64 is refused below
        bound = np.add(pow_x, pow_y)
    check_norm_powers(bound, bound, params["p"], params["theta"])  # a nonzero bound is normal
    return Chunk("remark-3-3", params, pow_union, None, bound, bound - pow_union)


def check_remark_3_3(
    x: FiniteVector, y: FiniteVector, params: SpaceParams
) -> InequalityInstance:
    """Check ``||x+y||^p <= ||x||^p + ||y||^p`` for disjointly supported x, y."""
    if not disjoint_supports(x, y):
        raise ValueError("x and y must have disjoint supports")
    point = {"p": params.p, "theta": params.weights.theta,
             "support_x": len(x), "support_y": len(y)}
    # disjoint supports: the values of x + y are those of x and of y
    pows = [lorentz_pnorm_pow(v, params) for v in (x, y, np.concatenate([x.values, y.values]))]
    return _instance(_remark_3_3_chunk(point, *pows), 0)


def _support_masks(m: int) -> np.ndarray:
    """A read-only ``(m + 1) x m`` view whose row ``s`` is ``np.arange(m) < s``:
    the windows of one ``2m``-entry ramp, so it holds ``O(m)`` memory.  Index
    it as ``masks[sizes]``: ``np.take`` would first copy all of it."""
    return np.lib.stride_tricks.sliding_window_view(np.arange(2 * m) < m, m)[::-1]


def _remark_3_3(grid: Dict):
    thetas = [float(t) for t in grid["theta_values"]]
    ps = [_check_p(p) for p in grid["p_values"]]
    trials = _check_int("trials", grid["trials"], 1)
    seed = _check_int("seed", grid["seed"], 0)
    m = _check_int("max_support", grid["max_support"], 1)
    masks = _support_masks(m)
    buffers = _Buffers()  # allocated by a process's first block, shared by its later cells

    def cell(ti, theta, w_vals, pi, p):
        """One (theta, p) cell's chunks, a block of trials at a time; row t of
        a block holds trial t's x left and its y right, zero-padded."""
        rng = np.random.default_rng([seed, ti, pi])
        size_x = rng.integers(1, m + 1, size=trials)
        size_y = rng.integers(1, m + 1, size=trials)
        # both halves of a row weighted by one vector: w_m, ..., w_1 twice
        w_halves = np.tile(w_vals[m - 1 :: -1], 2)
        for first, last in _grid_blocks(0, trials - 1, 2 * m):
            sx, sy = size_x[first : last + 1], size_y[first : last + 1]
            sizes = buffers("sizes", (sx.size, 2), np.int64)
            sizes[:, 0], sizes[:, 1] = sx, sy
            used = masks[sizes].reshape(sx.size, 2 * m)
            both = buffers("block", used.shape)
            terms = buffers("terms", used.shape)
            # only the normals the trials use, in trial order, each x's before
            # its y's, drawn into the terms buffer until the halves are weighted
            drawn = rng.standard_normal(out=terms.reshape(-1)[: int(sizes.sum())])
            # a half whose draws are all 0.0 is a zero vector, whose power 0.0 is
            # exact; no power tells it from an underflow, so it is found here,
            # half by half only when some draw is 0.0 (scanning every block made
            # the remark-3-3 blocks about 15% slower)
            nonzero = np.ones(2 * sx.size, bool)
            if not drawn.all():
                counts = sizes.reshape(-1)
                nonzero = np.logical_or.reduceat(drawn != 0.0, np.cumsum(counts) - counts)
            with np.errstate(over="ignore"):  # refused below
                np.power(np.abs(drawn, out=drawn), p, out=drawn)  # once for x, y and x + y
                both.fill(0.0)
                both[used] = drawn
                # each half sorted in place as a row of its own (row 2t is trial t's
                # x, row 2t + 1 its y) and weighted into terms, then every whole
                # row sorted in place for x + y: each row is summed as it was sorted
                both.reshape(-1, m).sort(axis=-1)
                pow_xy = np.multiply(both, w_halves, out=terms).reshape(-1, m).sum(axis=-1)
                both.sort(axis=-1)
                pow_union = _kernels.weighted_sum(both, w_vals[::-1])
            check_norm_powers(pow_xy, nonzero, p, theta)
            check_norm_powers(pow_union, nonzero[0::2] | nonzero[1::2], p, theta)
            trial = np.arange(first, last + 1)
            params = {"theta": theta, "p": p, "trial": trial, "support_x": sx, "support_y": sy}
            yield _remark_3_3_chunk(params, pow_xy[0::2], pow_xy[1::2], pow_union)

    # the weights are built here, in the calling process, once for every cell
    weights = [WeightSequence(theta).weight_values(2 * m) for theta in thetas]
    parts = [
        cell(ti, theta, w_vals, pi, p)
        for ti, (theta, w_vals) in enumerate(zip(thetas, weights))
        for pi, p in enumerate(ps)
    ]
    desc = {"theta_values": thetas, "p_values": ps, "trials": trials, "max_support": m}
    return desc, seed, parts, 0


def _scheme_grid(grid: Dict, own_keys: Callable[[], object] = lambda: None):
    """The set-up of a scheme statement's resolved grid: its scheme, weights,
    checked level count, bounds ``(A, B)`` (:func:`theorem_constants` where
    the grid's ``A`` or ``B`` is None or absent) and the grid description
    they share, then what ``own_keys()`` returns.  The inputs are checked in
    the order scheme, theta, ``own_keys()`` (the statement's own keys),
    levels, bounds."""
    scheme = _scheme_from_grid(grid)
    weights = WeightSequence(float(grid["theta"]))
    own = own_keys()
    levels = _check_int("levels", scheme.levels if grid["levels"] is None else grid["levels"], 1)
    if levels > scheme.levels:
        raise ValueError(f"levels={levels} exceeds the scheme's {scheme.levels}")
    stagger = _stagger(scheme.stagger_ratio())
    default_a, default_b = theorem_constants(weights.theta, stagger)
    a = float(default_a if grid.get("A") is None else grid["A"])
    b = float(default_b if grid.get("B") is None else grid["B"])
    if not (np.isfinite(a) and np.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise ValueError("bounds must be finite and positive")
    desc = {"theta": weights.theta, "levels": levels, "lengths": list(scheme.lengths),
            "counts": list(scheme.counts), "stagger_ratio": stagger, "A": a, "B": b}
    return scheme, weights, levels, (a, b), desc, own


_CONDITIONS = np.array(["averaged-upper", "staggered-lower"])


def _lemma_3_4_chunks(scheme, weights, a: float, b: float, levels: int):
    """One chunk per level: rows are blocks ``i``, columns the two conditions."""
    for k in range(1, levels + 1):
        j_k = scheme.lengths[k - 1]
        base = scheme.offsets[k - 1]
        c_k = scheme.counts[k - 1]
        i = np.arange(1, c_k + 1, dtype=np.int64)
        w_i = weights.weight_values(c_k)
        avg_plain = weights._averaged((i - 1) * j_k, j_k)
        avg_shifted = weights._averaged(base + (i - 1) * j_k, j_k)
        absent = np.full(c_k, np.nan)
        yield Chunk(
            "lemma-3-4",
            {"k": k, "i": i[:, None], "condition": _CONDITIONS},
            np.stack([absent, b * w_i], axis=1),
            np.stack([avg_plain, avg_shifted], axis=1),
            np.stack([a * w_i, absent], axis=1),
            np.stack([a * w_i - avg_plain, avg_shifted - b * w_i], axis=1),
        )


def check_lemma_3_4_conditions(
    scheme: BlockScheme,
    weights: WeightSequence,
    bound_upper: Optional[float] = None,
    bound_lower: Optional[float] = None,
    levels: Optional[int] = None,
) -> List[InequalityInstance]:
    """Check the block-scheme conditions for all ``k <= levels``, ``i <= counts_k``.

    Produces one instance per (level, block, condition); the upper condition
    compares the plain averaged weight against ``bound_upper * w_i``, the
    lower one compares the offset-window average against ``bound_lower * w_i``.
    Omitted bounds default to the scheme's own band constants (see
    :func:`theorem_constants`).
    """
    grid = {"lengths": scheme.lengths, "counts": scheme.counts, "theta": weights.theta,
            "A": bound_upper, "B": bound_lower, "levels": levels}
    _, _, (chunks,), _ = _lemma_3_4(grid)
    return [_instance(chunk, flat) for chunk in chunks for flat in range(chunk.slack.size)]


def _lemma_3_4(grid: Dict):
    scheme, weights, levels, (a, b), desc, _ = _scheme_grid(grid)
    return desc, None, [_lemma_3_4_chunks(scheme, weights, a, b, levels)], 0


_TRIAL_DISTRIBUTIONS = ("uniform", "geometric", "spike")


def _draw_trial_coefficients(rngs, counts, first: int, stop: int) -> np.ndarray:
    """Coefficients of trials ``first, ..., stop - 1``: one row per trial,
    level blocks side by side.

    Trial ``t`` follows ``_TRIAL_DISTRIBUTIONS[t % 3]``: uniform draws,
    a geometric decay ``amp * r**i`` per level, or ``1e-3``-scale noise with a
    single unit spike.  Each of the three generators ``rngs`` is read in trial
    order: the first gives every row's uniforms (a geometric row's are
    overwritten), the second a spike's level and index as ``floor(u * n)`` of
    two uniforms, the third ``r`` then ``amp`` per level of a geometric trial.
    So a seed pins every coefficient, and chunks drawn from the same three
    generators give the rows of one call.
    """
    uniform, spike, geometric = rngs
    levels = len(counts)
    starts = np.cumsum((0,) + tuple(counts[:-1]))
    coeffs = uniform.random((stop - first, sum(counts)))
    # the spike and the geometric rows, as views that write into coeffs
    spikes, geo = coeffs[(2 - first) % 3 :: 3], coeffs[(1 - first) % 3 :: 3]
    u = spike.random((len(spikes), 2))
    k_star = (u[:, 0] * levels).astype(np.int64)  # floor(u * n) <= n - 1 for u < 1, n < 2**53
    i_star = (u[:, 1] * np.array(counts)[k_star]).astype(np.int64)
    spikes *= 1e-3
    spikes[np.arange(len(spikes)), starts[k_star] + i_star] = 1.0
    draws = geometric.random((len(geo), 2 * levels))
    level_of = np.repeat(np.arange(levels), counts)
    position = np.arange(coeffs.shape[1]) - starts[level_of]
    ratio, amplitude = 0.3 + 0.6 * draws[:, 0::2], 0.5 + draws[:, 1::2]
    geo[:] = amplitude[:, level_of] * ratio[:, level_of] ** position
    return coeffs


def _theorem_3_5(grid: Dict):
    scheme, weights, levels, (a, b), shared, (p, trials, seed) = _scheme_grid(grid, lambda: (
        _check_p(grid["p"]), _check_int("trials", grid["trials"], 1), _check_int("seed", grid["seed"], 0)))
    counts = scheme.counts[:levels]

    def trial_chunks():
        space = SpaceParams(p=p, weights=weights)
        edges = np.cumsum((0,) + counts)
        w_vals = weights.weight_values(max(counts))  # each level's kernel call reads its prefix
        with np.errstate(over="ignore"):
            a_pow = np.float64(a) ** p  # inf on overflow, refused with the bound
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence([seed]).spawn(3)]
        for first, last in _grid_blocks(0, trials - 1, int(edges[-1])):
            coeffs = _draw_trial_coefficients(rngs, counts, first, last + 1)
            with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN
                y_pow = sum(
                    _kernels.batch_sorted_pow_sums(block, w_vals, p)
                    for block in np.split(coeffs, edges[1:-1], axis=1)
                )
                rhs = a_pow * y_pow
            # the bound first: an overflow of y or of A^p leaves it non-finite,
            # and is named before any underflow
            check_norm_powers(rhs, coeffs, p, weights.theta)
            check_norm_powers(y_pow, coeffs, p, weights.theta)
            x_pow = lorentz_pnorm_pow_runlength(*expand_runlength(coeffs, scheme, weights, p), space)
            lhs = b * y_pow
            trial = np.arange(first, last + 1)
            params = {
                "trial": trial,
                "distribution": np.array(_TRIAL_DISTRIBUTIONS)[trial % 3],
            }
            yield Chunk("theorem-3-5", params, lhs, x_pow, rhs,
                        np.minimum(x_pow - lhs, rhs - x_pow))

    def chunks():
        yield from _lemma_3_4_chunks(scheme, weights, a, b, levels)
        yield from trial_chunks()

    desc = {**shared, "p": p, "lengths": list(scheme.lengths[:levels]), "counts": list(counts),
            "trials": trials, "distributions": list(_TRIAL_DISTRIBUTIONS)}
    return desc, seed, [chunks()], 0


def check_theorem_3_5(
    scheme: BlockScheme,
    weights: WeightSequence,
    p: float,
    trials: int = 1000,
    seed: int = 42,
    levels: Optional[int] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Full staggered-equivalence check on one scheme.

    Computes the stagger ratio ``M``, derives the constants ``(A, B)``, checks
    the lemma-3-4 conditions, and then stress-tests the two-sided norm bound
    ``B * ||y||^p <= ||expand(y)||^p <= A^p * ||y||^p`` on ``trials`` random
    coefficient rows ``y`` over the first ``levels`` levels (cycling uniform,
    geometric-decay and single-spike shapes, drawn from three generators
    spawned from ``SeedSequence([seed])``).  A chunk of trials at a time,
    the rows go through :func:`~lorentzkit.blocks.expand_runlength` and the
    run-length norm path, so factorial schemes stay cheap and memory does not
    grow with ``trials``.

    The arguments make a theorem-3-5 grid that the statement's grid
    evaluator checks, so the report equals :func:`run_grid`'s on that grid;
    the tolerance is checked first, as :func:`run_grid` checks it (a finite
    nonnegative real, reported as a float), and unlike there, None for
    ``p``, ``trials`` or ``seed`` is refused, not a default.
    """
    tolerance = _check_tolerance(tolerance)
    grid = {"lengths": scheme.lengths, "counts": scheme.counts, "theta": weights.theta,
            "p": p, "trials": trials, "seed": seed, "levels": levels}
    return _report("theorem-3-5", tolerance, _theorem_3_5, grid)


# ---------------------------------------------------------------------------
# The statement table.
# ---------------------------------------------------------------------------


class Statement(NamedTuple):
    """How to evaluate a statement, and the grid keys it takes."""

    evaluate: Callable[[Dict], Tuple[Dict, Optional[int], List[Iterable[Chunk]], int]]
    params: Tuple[Param, ...]


TRIALS = Option(("--trials",), int)
SEED = Option(("--seed",), int)
_K_MAX = Option(("--k-max",), int)
_LEVELS = Option(("--levels",), int)

_DEFAULT_THETAS = [round(0.05 * i, 2) for i in range(1, 20)]


def _theta_values(default) -> Param:
    return Param("theta_values", default, Option(("--theta-grid",), _parse_grid), point=THETA)


def _scheme_params(*rest: Param) -> Tuple[Param, ...]:
    return (
        Param("corollary_levels", 8, COROLLARY_LEVELS),
        Param("lengths", None, LENGTHS),
        Param("counts", None, COUNTS),
        Param("theta", 0.5, THETA),
        *rest,
    )


STATEMENTS = {
    "lemma-3-1": Statement(_lemma_3_1, (
        _theta_values(_DEFAULT_THETAS),
        Param("j_max", 1000, Option(("--j-max",), int)),
        Param("k_max", 1000, _K_MAX),
        Param("k_samples", 60, Option(("--k-samples",), int)),
    )),
    "lemma-3-2": Statement(_lemma_3_2, (
        _theta_values(_DEFAULT_THETAS),
        Param("i_max", 1000, Option(("--i-max",), int)),
        Param("k_max", 1000, _K_MAX),
    )),
    "remark-3-3": Statement(_remark_3_3, (
        _theta_values([0.25, 0.5, 0.75]),
        Param("p_values", [1.0, 1.5, 2.0, 3.0], Option(("--p-grid",), _parse_float_list)),
        Param("trials", 10000, TRIALS),
        Param("seed", 42, SEED),
        Param("max_support", 40, Option(("--max-support",), int)),
    )),
    "lemma-3-4": Statement(_lemma_3_4, _scheme_params(
        Param("A", None, Option(("--bound-upper",), float,
                                help="override the upper band constant")),
        Param("B", None, Option(("--bound-lower",), float,
                                help="override the lower band constant")),
        Param("levels", None, _LEVELS),
    )),
    "theorem-3-5": Statement(_theorem_3_5, _scheme_params(
        Param("p", 1.0, P),
        Param("trials", 1000, TRIALS),
        Param("seed", 42, SEED),
        Param("levels", None, _LEVELS),
    )),
}

STATEMENT_IDS = tuple(STATEMENTS)


def run_grid(
    statement: str,
    grid: Optional[Dict] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Verify one statement over a parameter grid and report the outcome.

    ``grid`` overrides the statement's default grid key by key; unknown keys
    are rejected.  Aggregation follows grid order, so reports are
    deterministic (byte-identical JSON for equal inputs and seeds).
    """
    if statement not in STATEMENTS:
        raise ValueError(
            f"unknown statement {statement!r}; expected one of {', '.join(STATEMENT_IDS)}"
        )
    tolerance = _check_tolerance(tolerance)
    spec = STATEMENTS[statement]
    resolved = {param.key: param.default for param in spec.params}
    for key, value in (grid or {}).items():
        if key not in resolved:
            raise ValueError(f"unknown grid key {key!r} for {statement}")
        if key in ("theta_values", "p_values") and value is not None and not len(value):
            raise ValueError(f"{key} must not be empty")
        if value is not None:
            resolved[key] = value
    return _report(statement, tolerance, spec.evaluate, resolved)
