import csv
import errno
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from lorentzkit.blocks import BlockScheme, corollary_scheme
from lorentzkit.space import (
    FiniteVector,
    SpaceParams,
    lorentz_pnorm_pow,
    lorentz_pnorm_pow_runlength,
)
from lorentzkit.verify import (
    _cpus,
    _draw_trial_coefficients,
    _gather,
    DEFAULT_TOLERANCE,
    STATEMENT_IDS,
    check_lemma_3_1,
    check_lemma_3_2,
    check_lemma_3_4_conditions,
    check_remark_3_3,
    check_theorem_3_5,
    run_grid,
    theorem_constants,
)
from lorentzkit.weights import PREFIX_CACHE_LIMIT, WeightSequence

import _oracles as oracle


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _append_line(path, *fields):
    """Append one line to ``path`` from whichever process calls it, a forked
    worker too, whose memory the test cannot see (short ``O_APPEND`` writes
    do not interleave)."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, (" ".join(map(str, fields)) + "\n").encode())
    finally:
        os.close(fd)


def _lines(path):
    """The lines :func:`_append_line` wrote, each split into its fields."""
    return [line.split() for line in path.read_text().splitlines()] if path.exists() else []


def _log_parts(monkeypatch, log):
    """Make every part's aggregation append ``pid peak_bytes`` to ``log``, its
    pid and the peak of the traced memory it adds to what its process held
    before it, measured in the process that runs it (a worker forked while
    the caller traces memory goes on tracing)."""
    import tracemalloc

    import lorentzkit.verify as verify

    aggregate = verify._aggregate

    def spy(chunks, tolerance):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            result = aggregate(chunks, tolerance)
            _append_line(log, os.getpid(), tracemalloc.get_traced_memory()[1] - before)
        finally:
            if not tracing:
                tracemalloc.stop()
        return result

    monkeypatch.setattr(verify, "_aggregate", spy)


class TestLemma31Pointwise:
    def test_oracle_point(self):
        inst = check_lemma_3_1(0.5, 4, 4)
        assert inst.lhs == pytest.approx(0.3819660112501051, rel=1e-13)
        assert inst.mid == pytest.approx(0.5699422619400522, rel=1e-13)
        assert inst.rhs == pytest.approx(1.0, rel=1e-13)
        assert inst.slack > 0

    def test_j_zero_ratio_is_one(self):
        # the first window is the partial sum itself; the upper bound is
        # attained there, slack exactly zero on that side
        inst = check_lemma_3_1(0.3, 0, 3)
        assert inst.mid == pytest.approx(1.0, rel=1e-14)
        assert inst.lhs == pytest.approx(0.7596232827512324, rel=1e-13)
        assert inst.rhs == pytest.approx(1.6012687359157087, rel=1e-13)

    def test_k_one_window_exact(self):
        inst = check_lemma_3_1(0.5, 9, 1)
        # single-term window: mid = w_10 / W_1 = 10^{-1/2}
        assert inst.mid == 10.0**-0.5

    def test_exact_beyond_former_cache(self):
        j = PREFIX_CACHE_LIMIT + 5
        k = 2_000_000
        inst = check_lemma_3_1(0.5, j, k)
        assert "ratio_bracket" not in inst.params
        with mpmath.workdps(40):
            want = (mpmath.zeta(0.5, j + 1) - mpmath.zeta(0.5, j + k + 1)) / (
                mpmath.zeta(0.5, 1) - mpmath.zeta(0.5, k + 1)
            )
        assert inst.mid == pytest.approx(float(want), rel=1e-14)
        assert inst.slack > 0

    @pytest.mark.parametrize("theta", [0.05, 0.37, 0.95])
    @pytest.mark.parametrize("j,k", [(0, 1), (1, 1), (7, 3), (100, 41)])
    def test_sandwich_against_oracle(self, theta, j, k):
        inst = check_lemma_3_1(theta, j, k)
        want_l = oracle.sandwich_lower(j, k, theta)
        want_r = oracle.window_sum(j, k, theta) / oracle.partial_sum(k, theta)
        want_u = oracle.sandwich_upper(j, k, theta)
        assert inst.lhs == pytest.approx(want_l, rel=1e-12)
        assert inst.mid == pytest.approx(want_r, rel=1e-12)
        assert inst.rhs == pytest.approx(want_u, rel=1e-12)
        assert want_l <= want_r <= want_u + 1e-15


class TestLemma32Grid:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the default grid's prefix-difference mid at theta=0.05, i=852, k=598 "
        "is 3.83e-12 off mpmath, 3.8x the 1e-12 report tolerance; the pointwise "
        "Euler-Maclaurin value there is exact, and the default report's min slack "
        "(1.9e-4) keeps the verdict",
    )
    def test_default_grid_mid_matches_pointwise(self):
        import lorentzkit.verify as verify

        defaults = {"theta_values": [0.05], "i_max": 1000, "k_max": 1000}
        (part,) = verify._lemma_3_2(defaults)[2]
        chunk = next(c for c in part if c.params["i"][-1, 0] >= 852)  # the row block of i = 852
        row = 852 - chunk.params["i"][0, 0]
        mid = chunk.mid[row, 597]
        assert chunk.params["i"][row, 0] == 852 and chunk.params["k"][0, 597] == 598
        assert mid == pytest.approx(check_lemma_3_2(0.05, 852, 598).mid, abs=DEFAULT_TOLERANCE)


class TestGather:
    def test_index_past_the_sums_raises(self):
        sums = np.arange(5.0)
        out = np.empty((2, 2))
        got = _gather(sums, np.array([[0, 1], [3, 4]]), out)
        np.testing.assert_array_equal(got, [[0.0, 1.0], [3.0, 4.0]])
        # mode="clip" would quietly read index 5 as the last sum, 4.0
        with pytest.raises(IndexError, match="^index 5 is past 5 prefix sums$"):
            _gather(sums, np.array([[0, 1], [3, 5]]), out)


class TestDenseGrids:
    """The grids' row blocks, stacked theta by theta, against the two-pass,
    two-gather construction of one whole grid per theta, bit for bit."""

    thetas = [0.05, 0.5, 0.95]

    @staticmethod
    def assert_parts_equal(parts, thetas, want):
        """Check a grid's parts, one per theta, against ``want(theta)`` theta by
        theta, and return the number of chunks of each theta."""
        sides = ("lhs", "mid", "rhs", "slack")
        by_theta = {}
        assert len(parts) == len(thetas)
        for n, part in enumerate(parts):
            for chunk in part:
                # a chunk's arrays are valid only until the next chunk is drawn
                columns = [np.array(getattr(chunk, side)) for side in sides]
                assert chunk.params["theta"] == thetas[n]  # part n holds theta n's blocks alone
                by_theta.setdefault(chunk.params["theta"], []).append(columns)
        assert list(by_theta) == thetas  # every theta's blocks, in theta order
        for theta, chunks in by_theta.items():
            for n, expected in enumerate(want(theta)):
                stacked = np.concatenate([columns[n] for columns in chunks])
                np.testing.assert_array_equal(stacked, expected, strict=True)
        return [len(chunks) for chunks in by_theta.values()]

    def test_lemma_3_1_matches_two_pass_grid(self, monkeypatch):
        import lorentzkit.verify as verify

        grid = {"theta_values": self.thetas, "j_max": 70, "k_max": 300, "k_samples": 12}
        default = verify._GRID_BLOCK_ENTRIES
        for rows in (1, 7, None):  # one row per block, seven (odd), the default
            desc, _, parts, _ = verify._lemma_3_1(grid)  # the parts read the block size when run
            k_values = np.array(desc["k_values"])
            assert k_values[0] == 1 and k_values.size >= 12
            entries = default if rows is None else rows * k_values.size + 1
            monkeypatch.setattr(verify, "_GRID_BLOCK_ENTRIES", entries)
            counts = self.assert_parts_equal(
                parts, self.thetas, lambda theta: oracle.lemma_3_1_grid(theta, 70, 300, k_values))
            assert counts == [-(-71 // (rows or 71))] * len(self.thetas)

    def test_lemma_3_2_matches_two_gather_grid(self, monkeypatch):
        import lorentzkit.verify as verify

        grid = {"theta_values": self.thetas, "i_max": 40, "k_max": 90}
        default = verify._GRID_BLOCK_ENTRIES
        for rows in (1, 7, None):
            entries = default if rows is None else rows * 90 + 1
            monkeypatch.setattr(verify, "_GRID_BLOCK_ENTRIES", entries)
            parts = verify._lemma_3_2(grid)[2]
            counts = self.assert_parts_equal(
                parts, self.thetas, lambda theta: oracle.lemma_3_2_grid(theta, 40, 90))
            assert counts == [-(-40 // (rows or 40))] * len(self.thetas)

    @pytest.mark.parametrize("i_max, k_max", [
        (2000, 40), (300, 3), (60, 1),  # tall
        (3, 300), (5, 20000), (1, 60),  # wide
        (40, 40), (1, 1),  # square
    ])
    def test_lemma_3_2_windows_on_every_shape(self, monkeypatch, i_max, k_max):
        # a block's windows start at W_0 on the first block and at W_{(lo-1)k} after
        import lorentzkit.verify as verify

        grid = {"theta_values": self.thetas, "i_max": i_max, "k_max": k_max}
        default = verify._GRID_BLOCK_ENTRIES
        for rows in (1, 7, None):  # one row per block, seven (odd), the default
            entries = default if rows is None else rows * k_max
            monkeypatch.setattr(verify, "_GRID_BLOCK_ENTRIES", entries)
            parts = verify._lemma_3_2(grid)[2]
            counts = self.assert_parts_equal(
                parts, self.thetas, lambda theta: oracle.lemma_3_2_grid(theta, i_max, k_max))
            rows = rows or max(1, default // k_max)
            assert counts == [-(-i_max // rows)] * len(self.thetas)

    @pytest.mark.parametrize("statement, grid", [
        ("lemma-3-1", {"theta_values": [0.05, 0.5, 0.95], "j_max": 40, "k_max": 50,
                       "k_samples": 9}),
        ("lemma-3-2", {"theta_values": [0.05, 0.5, 0.95], "i_max": 30, "k_max": 20}),
    ])
    def test_blocks_and_workers_do_not_change_the_report(self, monkeypatch, statement, grid):
        import lorentzkit.verify as verify

        def reports(cpus, entries):
            monkeypatch.setattr(verify, "_cpus", lambda: cpus)
            monkeypatch.setattr(verify, "_GRID_BLOCK_ENTRIES", entries)
            # a tolerance of -1e300 lists every instance as a violation, so the
            # second report pins each instance's place and values
            evaluate = verify.STATEMENTS[statement].evaluate
            every = verify._report(statement, -1e300, 0.0, *evaluate(grid))
            assert len(every.violations) == every.instances
            return run_grid(statement, grid).to_json(), every.to_json()

        default = verify._GRID_BLOCK_ENTRIES
        serial = reports(1, default)
        for cpus in (1, 2, 4):  # 4: more workers than a two-CPU host has CPUs
            for entries in (1, 7 * 20 + 3, default):  # one row, an odd count, the default
                assert reports(cpus, entries) == serial, (cpus, entries)

    def test_weights_are_built_in_the_calling_thread(self, monkeypatch, tmp_path):
        # the benchmark's tracer keeps one span stack per process, so no thread
        # may make a traced call: none is started and every process builds its
        # weights in its one thread; the caller builds each theta's sequence
        # (with its head weights) and remark-3-3's weights, while a lemma
        # part's prefix sums, weights and aggregate come from its worker
        import lorentzkit.verify as verify

        log = tmp_path / "calls"
        started = []
        for name in ("partial_sums", "weight_values"):
            method = getattr(WeightSequence, name)

            def spy(self, *args, _method=method, _name=name):
                main = threading.current_thread() is threading.main_thread()
                _append_line(log, "weights", _name, os.getpid(), main)
                return _method(self, *args)

            monkeypatch.setattr(WeightSequence, name, spy)
        aggregate = verify._aggregate

        def aggregate_spy(chunks, tolerance):
            main = threading.current_thread() is threading.main_thread()
            _append_line(log, "aggregate", "-", os.getpid(), main)
            return aggregate(chunks, tolerance)

        start = threading.Thread.start

        def start_spy(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(verify, "_aggregate", aggregate_spy)
        monkeypatch.setattr(threading.Thread, "start", start_spy)
        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        caller = str(os.getpid())
        thetas = [0.25, 0.5, 0.75]
        run_grid("lemma-3-1", {"theta_values": thetas, "j_max": 30, "k_max": 40})
        run_grid("lemma-3-2", {"theta_values": thetas, "i_max": 20, "k_max": 30})
        lemma = _lines(log)
        assert started == [] and len(lemma) == 6 + 6 * 3
        assert [name for _, name, pid, _ in lemma if pid == caller] == ["weight_values"] * 6
        run_grid("remark-3-3", {"theta_values": thetas, "p_values": [1.0], "trials": 10})
        remark = _lines(log)[len(lemma):]
        assert started == []
        assert [(name, pid) for kind, name, pid, _ in remark if kind == "weights"] == [
            ("weight_values", caller)] * 6
        calls = lemma + remark
        assert {name for kind, name, *_ in calls if kind == "weights"} == {
            "partial_sums", "weight_values"}
        assert {main for *_, main in calls} == {"True"}
        aggregates = [pid for kind, _, pid, _ in calls if kind == "aggregate"]
        assert len(aggregates) == 9 and caller not in aggregates

    @pytest.mark.parametrize("statement, grid", [
        ("lemma-3-1", {"j_max": 10, "k_max": 10}),
        ("lemma-3-2", {"i_max": 10, "k_max": 10}),
    ])
    def test_every_theta_is_checked_before_any_prefix_sum(self, monkeypatch, statement, grid):
        calls = []
        partial_sums = WeightSequence.partial_sums

        def spy(self, *args):
            calls.append(self.theta)
            return partial_sums(self, *args)

        monkeypatch.setattr(WeightSequence, "partial_sums", spy)
        with pytest.raises(ValueError, match=r"^theta must lie in .*, got 1\.5$"):
            run_grid(statement, {**grid, "theta_values": [0.5, 0.6, 1.5]})
        assert calls == []

    def test_memory_with_one_theta_in_flight(self, monkeypatch, tmp_path):
        # one 1000 x 1000 theta held its whole grid and several full-size
        # temporaries (46 MiB traced); each process holds one theta's prefix
        # sums (7.6 MiB) and blocks at a time, so a serial run stays within
        # 12 MiB, and the call on two workers within twice that, in total
        import tracemalloc

        import lorentzkit.verify as verify

        log = tmp_path / "parts"
        _log_parts(monkeypatch, log)
        grid = {"theta_values": [0.25, 0.5], "i_max": 1000, "k_max": 1000}
        totals = {}
        for cpus in (1, 2):
            monkeypatch.setattr(verify, "_cpus", lambda: cpus)
            log.unlink(missing_ok=True)
            tracemalloc.start()
            try:
                assert run_grid("lemma-3-2", grid).instances == 2_000_000
                caller = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks = {}  # pid -> the largest peak of its parts
            for pid, peak in _lines(log):
                peaks[pid] = max(peaks.get(pid, 0), int(peak))
            assert len(peaks) == cpus and (str(os.getpid()) in peaks) == (cpus == 1)
            assert max(peaks.values()) <= 12 * 2**20
            # a worker's peak comes on top of the caller's; serially it is in it
            totals[cpus] = caller + sum(peaks.values()) if cpus > 1 else caller
        assert totals[1] <= 12 * 2**20 and totals[2] <= 2 * 12 * 2**20

    @pytest.mark.parametrize("statement, grid", [
        ("lemma-3-1", lambda blocks: {"j_max": 65 * blocks - 1, "k_max": 1000, "k_samples": 1000}),
        ("lemma-3-2", lambda blocks: {"i_max": 65 * blocks, "k_max": 1000}),
        ("remark-3-3", lambda blocks: {"trials": 819 * blocks, "p_values": [1.5], "seed": 42,
                                       "max_support": 40}),
    ], ids=["lemma-3-1", "lemma-3-2", "remark-3-3"])
    def test_blocks_after_the_first_allocate_no_block(self, statement, grid):
        # the block arrays are allocated by the grid's first block and shared by
        # every later block and theta (remark-3-3: every later (theta, p) cell);
        # a draw that allocated them afresh would take several 512 KiB blocks
        # (numpy's ufunc loops still take 64 KiB buffers for broadcast
        # operands, and remark-3-3 gathers a 64 KiB support mask, call by call)
        import tracemalloc

        import lorentzkit.verify as verify

        block_bytes = verify._GRID_BLOCK_ENTRIES * 8
        # 65 rows of 1000 columns, or 819 trials of 2 x 40 entries, make one block
        for blocks in (2, 40):
            evaluate = verify.STATEMENTS[statement].evaluate
            # the parts of one process, one theta or cell each, in turn
            part = itertools.chain.from_iterable(
                evaluate({**grid(blocks), "theta_values": [0.25, 0.75]})[2])
            allocated = []
            tracemalloc.start()
            try:
                while True:
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    if next(part, None) is None:
                        break
                    allocated.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert len(allocated) == 2 * blocks
            # the second theta's first draw builds its prefix sums (the second
            # cell's, its generator and support sizes), which are small here
            assert max(allocated[1:]) < block_bytes // 2, (blocks, allocated)

    def test_remark_3_3_cells_share_their_block_arrays(self):
        # measured part by part, the draw that ends a cell is left out, so what
        # the first cell frees at its end cannot net out what the second cell's
        # first draw allocates: per-cell block arrays pass the chained form
        # above, but not this one.  A cell of 2 blocks holds 26 KB of its own
        # (its generator and support sizes)
        import tracemalloc

        import lorentzkit.verify as verify

        block_bytes = verify._GRID_BLOCK_ENTRIES * 8
        grid = {"trials": 819 * 2, "p_values": [1.5], "seed": 42, "max_support": 40,
                "theta_values": [0.25, 0.75]}
        allocated = []  # per cell, what each of its draws allocated
        tracemalloc.start()
        try:
            for part in verify.STATEMENTS["remark-3-3"].evaluate(grid)[2]:
                allocated.append([])
                while True:
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    if next(part, None) is None:
                        break
                    allocated[-1].append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert [len(draws) for draws in allocated] == [2, 2]
        assert allocated[0][0] >= 2 * block_bytes, allocated  # the block arrays
        assert max(allocated[0][1:] + allocated[1]) < block_bytes // 2, allocated

    def test_pointwise_sides_match_grid(self):
        import lorentzkit.verify as verify

        (part,) = verify._lemma_3_1({"theta_values": [0.3], "j_max": 9, "k_max": 7,
                                     "k_samples": 7})[2]
        chunk = next(part)
        for j, k in [(0, 1), (4, 3), (9, 7)]:
            inst = check_lemma_3_1(0.3, j, k)
            assert (inst.lhs, inst.rhs) == (chunk.lhs[j, k - 1], chunk.rhs[j, k - 1])

    def test_k_samples_start_at_one(self):
        # the builder takes the k = 1 column to be the first
        import lorentzkit.verify as verify

        for k_max in range(1, 301):
            for k_samples in range(1, 81):
                assert verify._log_sampled_ints(k_max, k_samples)[0] == 1

    @pytest.mark.parametrize("k_samples", [0, 60.7, "60"])
    def test_k_samples_validated(self, k_samples):
        grid = {"theta_values": [0.5], "j_max": 2, "k_max": 3, "k_samples": k_samples}
        with pytest.raises((TypeError, ValueError), match="k_samples must be"):
            run_grid("lemma-3-1", grid)


class TestLemma32Pointwise:
    def test_oracle_point(self):
        inst = check_lemma_3_2(0.5, 2, 2)
        lo, hi = oracle.band_constants(0.5)
        w2 = oracle.weight(2, 0.5)
        assert inst.lhs == pytest.approx(lo * w2, rel=1e-13)
        assert inst.mid == pytest.approx(0.631097176264978, rel=1e-13)
        assert inst.rhs == pytest.approx(hi * w2, rel=1e-13)
        assert inst.slack > 0

    def test_boundary_rows_hold(self):
        for theta in [0.05, 0.5, 0.95]:
            for i, k in [(1, 1), (1, 7), (7, 1)]:
                inst = check_lemma_3_2(theta, i, k)
                assert inst.slack > 0, (theta, i, k)

    def test_averaged_weight_is_mid(self):
        inst = check_lemma_3_2(0.25, 3, 4)
        assert inst.mid == pytest.approx(
            oracle.averaged_weight(3, 4, 0.25), rel=1e-13
        )


class TestRemark33Pointwise:
    def test_disjoint_required(self):
        params = SpaceParams(p=1.0, weights=WeightSequence(0.5))
        x = FiniteVector.from_pairs([(1, 1.0)])
        with pytest.raises(ValueError):
            check_remark_3_3(x, x, params)

    def test_slack_matches_oracle(self):
        params = SpaceParams(p=2.0, weights=WeightSequence(0.5))
        x = FiniteVector.from_pairs([(1, 3.0), (4, 1.0)])
        y = FiniteVector.from_pairs([(2, 2.0), (7, 5.0)])
        inst = check_remark_3_3(x, y, params)
        px = oracle.lorentz_norm([3, 1], 0.5, 2.0) ** 2
        py = oracle.lorentz_norm([2, 5], 0.5, 2.0) ** 2
        pu = oracle.lorentz_norm([3, 1, 2, 5], 0.5, 2.0) ** 2
        assert inst.slack == pytest.approx(px + py - pu, rel=1e-12)
        assert inst.slack > 0

    def test_union_power_is_the_power_of_the_sum(self):
        # the union side powers the concatenated values, which must give the
        # bits of powering x + y itself
        rng = np.random.default_rng(33)
        for _ in range(200):
            params = SpaceParams(p=float(rng.choice([1.0, 1.5, 2.0, 3.0, 7.3])),
                                 weights=WeightSequence(float(rng.uniform(0.01, 0.99))))
            support = rng.permutation(np.arange(1, 200))[: rng.integers(0, 60)]
            cut = rng.integers(0, support.size + 1)
            x = FiniteVector(support[:cut], rng.standard_normal(cut))
            scale = 10.0 ** rng.uniform(-3, 3)
            y = FiniteVector(support[cut:], scale * rng.standard_normal(support.size - cut))
            assert check_remark_3_3(x, y, params).lhs == lorentz_pnorm_pow(oracle.vector_sum(x, y), params)

    def test_p1_interleaving_tight(self):
        # at p = 1 with nested supports the inequality can be near-tight
        params = SpaceParams(p=1.0, weights=WeightSequence(0.5))
        x = FiniteVector.from_pairs([(1, 1.0)])
        y = FiniteVector.from_pairs([(2, 1.0)])
        inst = check_remark_3_3(x, y, params)
        # ||x+y||_1 = 1 + w_2, ||x||+||y|| = 2 => slack = 1 - w_2
        assert inst.slack == pytest.approx(1.0 - oracle.weight(2, 0.5), rel=1e-14)


class TestRemark33Blocks:
    @pytest.mark.parametrize("max_support", [1, 7, 40])
    def test_trials_match_dense_oracle(self, monkeypatch, max_support):
        import lorentzkit.verify as verify

        thetas, ps, trials, seed = [0.3, 0.75], [1.0, 1.5, 3.0], 50, 5
        grid = {"theta_values": thetas, "p_values": ps, "trials": trials, "seed": seed,
                "max_support": max_support}
        # one block per cell, then blocks of 4 trials: a block that draws more
        # or fewer normals than its trials use shifts every later trial
        for entries in (verify._GRID_BLOCK_ENTRIES, 4 * 2 * max_support):
            monkeypatch.setattr(verify, "_GRID_BLOCK_ENTRIES", entries)
            _, _, parts, _ = verify._remark_3_3(grid)
            assert len(parts) == len(thetas) * len(ps)  # one part per cell, in grid order
            got = [verify._instance(c, f) for part in parts for c in part
                   for f in range(c.slack.size)]
            assert len(got) == len(thetas) * len(ps) * trials
            for ti, theta in enumerate(thetas):
                for pi, p in enumerate(ps):
                    params = SpaceParams(p, WeightSequence(theta))
                    cell = got[(ti * len(ps) + pi) * trials :][:trials]
                    want = oracle.remark_3_3_trials(seed, ti, pi, trials, max_support)
                    for t in [*range(0, trials, 3), trials - 1]:  # sampled trials and the last
                        size_x, size_y, x, y = want[t]
                        inst = cell[t]
                        assert inst.params == {"theta": theta, "p": p, "trial": t,
                                               "support_x": size_x, "support_y": size_y}
                        px, py = lorentz_pnorm_pow(x, params), lorentz_pnorm_pow(y, params)
                        union = lorentz_pnorm_pow(x + y, params)
                        assert inst.lhs == pytest.approx(union, rel=1e-14)
                        assert inst.rhs == pytest.approx(px + py, rel=1e-14)

    def test_blocks_do_not_change_the_report(self, monkeypatch):
        import lorentzkit.verify as verify

        grid = {"theta_values": [0.25], "p_values": [1.0, 3.0], "trials": 4100, "seed": 9,
                "max_support": 6}

        def reports(cpus, block):
            monkeypatch.setattr(verify, "_cpus", lambda: cpus)
            # blocks of `block` trials: a block holds 2 * max_support entries per trial
            monkeypatch.setattr(verify, "_GRID_BLOCK_ENTRIES", block * 2 * 6)
            # a tolerance of -1e300 lists every instance as a violation, so the
            # second report pins each trial's number and values
            every = verify._report("remark-3-3", -1e300, 0.0, *verify._remark_3_3(grid))
            assert len(every.violations) == every.instances == 8200
            return run_grid("remark-3-3", grid).to_json(), every.to_json()

        default = verify._GRID_BLOCK_ENTRIES // (2 * 6)
        serial = reports(1, default)
        for cpus in (1, 2):  # the two cells in the calling thread, or on two workers
            for block in (1, 7, default):
                assert reports(cpus, block) == serial, (cpus, block)

    def test_one_part_or_one_cpu_runs_in_the_calling_thread(self, monkeypatch, tmp_path):
        import lorentzkit.verify as verify

        log, forks = tmp_path / "parts", []
        fork = os.fork

        def fork_spy():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        _log_parts(monkeypatch, log)
        monkeypatch.setattr(os, "fork", fork_spy)
        caller = str(os.getpid())
        remark = {"theta_values": [0.25], "p_values": [1.0, 3.0], "trials": 10}
        lemma = {"theta_values": [0.25], "i_max": 3, "k_max": 3}  # one theta, one part
        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        run_grid("remark-3-3", {**remark, "p_values": [1.0]})
        run_grid("lemma-3-2", lemma)
        run_grid("theorem-3-5", {"corollary_levels": 3, "trials": 3})
        run_grid("lemma-3-4", {"corollary_levels": 3})
        monkeypatch.setattr(verify, "_cpus", lambda: 1)
        run_grid("remark-3-3", remark)
        run_grid("lemma-3-2", {**lemma, "theta_values": [0.25, 0.5]})
        assert forks == [] and [pid for pid, _ in _lines(log)] == [caller] * 8
        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        run_grid("remark-3-3", remark)
        parts = _lines(log)[8:]
        assert len(forks) == 2 and len(parts) == 2 and caller not in {pid for pid, _ in parts}

    def test_first_overflowing_cell_names_the_error(self, monkeypatch):
        import lorentzkit.verify as verify

        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        # any |z| > 1.16 overflows at either p, so both cells overflow whatever the draw
        grid = {"theta_values": [0.5], "p_values": [1.0, 5000.0, 6000.0], "trials": 20}
        with pytest.raises(ValueError, match=r"at p=5000\.0, theta=0\.5$"):
            run_grid("remark-3-3", grid)

    def test_memory_with_two_cells_in_flight(self, monkeypatch, tmp_path):
        # the two workers that run the cells and the caller together stay
        # within the bound that two cells on two threads kept
        import tracemalloc

        import lorentzkit.verify as verify

        log = tmp_path / "parts"
        _log_parts(monkeypatch, log)
        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        grid = {"theta_values": [0.25, 0.5], "p_values": [1.5], "trials": 80_000}
        tracemalloc.start()
        try:
            assert run_grid("remark-3-3", grid).instances == 160_000
            caller = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        parts = _lines(log)
        assert len({pid for pid, _ in parts}) == 2 and str(os.getpid()) not in parts[0]
        assert caller + sum(int(peak) for _, peak in parts) <= 16 * 2**20

    def test_memory_does_not_grow_with_trials(self):
        import tracemalloc

        def peak(trials):
            tracemalloc.start()
            try:
                run_grid("remark-3-3", {"theta_values": [0.5], "p_values": [1.5], "trials": trials})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10_000), peak(80_000)
        assert large <= 16 * 2**20
        assert large - small <= 2 * 2**20

    @pytest.mark.parametrize("m", [1, 7, 40, 300])
    def test_support_mask_rows(self, m):
        import lorentzkit.verify as verify

        masks = verify._support_masks(m)
        assert masks.shape == (m + 1, m) and not masks.flags.writeable
        for s in range(m + 1):
            assert np.array_equal(masks[s], np.arange(m) < s), s
        # a block gathers its rows by fancy indexing, one per half of a trial
        sizes = np.array([[0, m], [m, 0], [m // 2, 1]])
        assert np.array_equal(masks[sizes], np.arange(m) < sizes[..., None])

    def test_support_masks_hold_o_of_m_memory(self, monkeypatch):
        # the masks are windows of one 2m ramp: a dense (m + 1) x m table, or
        # np.take on the view (which copies all of it first), would take 400 MB
        # at m = 20000, where the whole call stays within 3 MiB
        import tracemalloc

        import lorentzkit.verify as verify

        monkeypatch.setattr(verify, "_cpus", lambda: 1)  # traced in this process
        tracemalloc.start()
        try:
            report = run_grid("remark-3-3", {"max_support": 20_000, "trials": 3, "p_values": [1.0]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.instances == 9 and report.passed
        assert peak <= 8 * 2**20

    def test_overflowing_norm_powers_are_rejected(self):
        params = SpaceParams(p=2.0, weights=WeightSequence(0.5))
        x = FiniteVector.from_pairs([(1, 1e200)])
        y = FiniteVector.from_pairs([(2, 1.0)])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="p=2.0, theta=0.5"):
            check_remark_3_3(x, y, params)

    def test_overflowing_bound_is_rejected(self):
        # both powers and the union's are finite, but their sum is not: unrefused,
        # the check reported rhs inf and slack inf as a pass
        params = SpaceParams(p=2.0, weights=WeightSequence(0.5))
        x, y = FiniteVector([1], [1e154]), FiniteVector([2], [1e154])
        with pytest.raises(ValueError, match=r"^Lorentz norm power overflows float64 at p=2\.0, theta=0\.5$"):
            check_remark_3_3(x, y, params)

    def test_overflowing_bound_refuses_its_cell(self, monkeypatch):
        # every draw 1e154: at p = 2 each half's power is finite, their sum is not
        import lorentzkit.verify as verify

        class Draws:
            def __init__(self, seed):
                self.rng = np.random.Generator(np.random.PCG64(seed))

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def standard_normal(self, out):
                out.fill(1e154)
                return out

        monkeypatch.setattr(verify.np.random, "default_rng", Draws)
        grid = {"theta_values": [0.5], "p_values": [2.0], "trials": 5, "max_support": 1}
        with pytest.raises(ValueError, match=r"^Lorentz norm power overflows float64 at p=2\.0, theta=0\.5$"):
            run_grid("remark-3-3", grid)

    def test_underflowing_norm_powers_are_rejected(self):
        # unrefused, every power was 0.0 and the check reported slack 0.0
        params = SpaceParams(p=2.0, weights=WeightSequence(0.5))
        x = FiniteVector.from_dense([1e-200])
        y = FiniteVector([2], [1e-200])
        with pytest.raises(ValueError, match="underflows float64 at p=2.0, theta=0.5"):
            check_remark_3_3(x, y, params)

    def test_underflowing_trial_is_refused_as_its_cell_is(self):
        # at p=300 the x power of trial 409 falls below the normal range; the
        # grid's refusal of this cell is pinned in tests/test_verdicts.py
        message = r"^Lorentz norm power underflows float64 at p=300\.0, theta=0\.5$"
        _, _, x, y = oracle.remark_3_3_trials(42, 0, 0, 2000, 40)[409]
        params = SpaceParams(p=300.0, weights=WeightSequence(0.5))
        with pytest.raises(ValueError, match=message):
            check_remark_3_3(FiniteVector.from_dense(x), FiniteVector.from_dense(y), params)

    @pytest.mark.parametrize("draw,tiny_at", [(0.0, None), (1e-200, None), (0.0, 0), (0.0, -1)])
    def test_only_nonzero_halves_underflow(self, monkeypatch, draw, tiny_at):
        # at p = 2 draws of 0.0 and of 1e-200 both give powers of 0.0; only a
        # half whose draws are all 0.0 is a zero vector, whose 0.0 is exact (one
        # 1e-200 as the first or the last draw of a block makes its half nonzero)
        import lorentzkit.verify as verify

        class Draws:
            def __init__(self, seed):
                self.rng = np.random.Generator(np.random.PCG64(seed))

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def standard_normal(self, out):
                out.fill(draw)
                if tiny_at is not None:
                    out[tiny_at] = 1e-200
                return out

        monkeypatch.setattr(verify.np.random, "default_rng", Draws)
        grid = {"theta_values": [0.5], "p_values": [2.0], "trials": 5}
        if draw or tiny_at is not None:
            with pytest.raises(ValueError, match=r"^Lorentz norm power underflows float64 at p=2\.0, theta=0\.5$"):
                run_grid("remark-3-3", grid)
        else:
            report = run_grid("remark-3-3", grid)
            assert report.instances == 5 and report.min_slack == 0.0


class TestLemma34AndTheorem35:
    def test_subnormal_norm_powers_are_refused(self):
        # at p=300 trial 3 has the subnormal sides lhs 2.7e-309 and mid 1.5e-308:
        # its y power is refused, while the bound A^p * ||y||^p is still normal
        with pytest.raises(ValueError, match=r"^Lorentz norm power underflows float64 at p=300\.0, theta=0\.5$"):
            check_theorem_3_5(corollary_scheme(1), WeightSequence(0.5), 300.0, trials=20, seed=42)

    @pytest.mark.parametrize("a,scale,side", [
        # the bound A^p * ||y||^p: A^p overflows, or underflows to 0.0, while x
        # and y are normal (the theorem's own A is at least 1)
        (1e200, 1.0, "overflows"),
        (1e-200, 1.0, "underflows"),
        # the x rows, scaled in the expansion, while y and the bound are normal
        (None, 1e200, "overflows"),
        (None, 1e-200, "underflows"),
    ])
    def test_trial_norm_powers_out_of_range_are_refused(self, monkeypatch, a, scale, side):
        import lorentzkit.verify as verify

        constants, expand = verify.theorem_constants, verify.expand_runlength

        def scaled(*args):
            values, lengths = expand(*args)
            return values * scale, lengths

        monkeypatch.setattr(verify, "theorem_constants",
                            lambda *args: (a or constants(*args)[0], constants(*args)[1]))
        monkeypatch.setattr(verify, "expand_runlength", scaled)
        grid = {"corollary_levels": 3, "p": 2.0, "trials": 10}
        with pytest.raises(ValueError, match=rf"^Lorentz norm power {side} float64 at p=2\.0, theta=0\.5$"):
            run_grid("theorem-3-5", grid)

    def test_conditions_on_corollary_scheme(self):
        w = WeightSequence(0.5)
        scheme = corollary_scheme(6)
        insts = check_lemma_3_4_conditions(scheme, w)
        # one upper and one lower instance for every block
        assert len(insts) == 2 * sum(scheme.counts)
        assert min(i.slack for i in insts) > 0

    def test_condition_instances_tagged(self):
        w = WeightSequence(0.5)
        insts = check_lemma_3_4_conditions(corollary_scheme(3), w)
        names = {i.params["condition"] for i in insts}
        assert names == {"averaged-upper", "staggered-lower"}
        # each condition has one bound side; the other stays empty
        for inst in insts:
            upper = inst.params["condition"] == "averaged-upper"
            assert (inst.lhs is None, inst.rhs is None) == (upper, not upper)

    def test_unit_length_scheme_upper_is_tight(self):
        # lengths all 1 with A = 1: averaged window = the weight itself
        w = WeightSequence(0.5)
        scheme = BlockScheme((1, 1), (1, 1))
        insts = check_lemma_3_4_conditions(scheme, w, bound_upper=1.0)
        uppers = [i for i in insts if i.params["condition"] == "averaged-upper"]
        for inst in uppers:
            assert inst.slack == pytest.approx(0.0, abs=1e-15)

    def test_explicit_bounds_respected(self):
        w = WeightSequence(0.5)
        insts = check_lemma_3_4_conditions(
            corollary_scheme(3), w, bound_upper=1e-9, bound_lower=0.9
        )
        # absurd bounds must produce negative slack (honest failure)
        assert min(i.slack for i in insts) < 0

    def test_theorem_constants_match_oracle(self):
        _, hi = oracle.band_constants(0.5)
        a, b = theorem_constants(0.5, 1.0)
        assert a == pytest.approx(hi, rel=1e-15)
        assert b == pytest.approx(0.25 * 2.0**-0.5, rel=1e-15)
        # sub-unit stagger clamps to one; None means a single level
        assert theorem_constants(0.5, 0.3) == theorem_constants(0.5, None)

    @pytest.mark.parametrize("theta", [1.0, 1.5, math.nan])
    def test_theorem_constants_refuse_theta_outside_the_range(self, theta):
        # 1.0 divided by zero, 1.5 gave B < 0 and NaN gave (nan, nan)
        with pytest.raises(ValueError, match=r"^theta must lie in \[0\.01, 0\.99\], got "):
            theorem_constants(theta, 1.0)

    @pytest.mark.parametrize("stagger", [math.nan, math.inf, -math.inf])
    def test_theorem_constants_refuse_non_finite_stagger(self, stagger):
        # NaN gave the M = 1 constants and inf gave B = 0.0
        with pytest.raises(ValueError, match=r"^stagger ratio must be finite: "):
            theorem_constants(0.5, stagger)

    def test_report_passes_on_corollary_scheme(self):
        w = WeightSequence(0.5)
        rep = check_theorem_3_5(corollary_scheme(6), w, 1.0, trials=200, seed=9)
        assert rep.passed
        assert rep.config["stagger_ratio"] == 1.0
        assert rep.instances == 2 * 21 + 200
        assert rep.min_slack > 0

    def test_single_unit_coefficient_bounds(self):
        w = WeightSequence(0.5)
        scheme = corollary_scheme(4)
        a, b = theorem_constants(0.5, scheme.stagger_ratio())
        # expanding one normalized block: ||x||^p = 1, ||y||^p = 1
        assert b <= 1.0 <= a

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
    def test_theorem_refuses_the_tolerances_run_grid_refuses(self, tolerance):
        # a NaN tolerance listed every instance as a violation, -1.0 false ones
        with pytest.raises(ValueError) as grid_error:
            run_grid("theorem-3-5", {"corollary_levels": 4, "trials": 30}, tolerance)
        with pytest.raises(ValueError) as point_error:
            check_theorem_3_5(corollary_scheme(4), WeightSequence(0.5), 2.0, trials=30,
                              tolerance=tolerance)
        assert str(point_error.value) == str(grid_error.value)
        assert str(point_error.value).startswith("tolerance must be a finite nonnegative real: ")

    def test_theorem_report_is_run_grids(self):
        scheme = BlockScheme((1, 3, 5), (2, 1, 4))
        point = check_theorem_3_5(scheme, WeightSequence(0.5), 2.5, trials=50, seed=1, levels=2)
        grid = run_grid("theorem-3-5", {"lengths": [1, 3, 5], "counts": [2, 1, 4], "theta": 0.5,
                                        "p": 2.5, "trials": 50, "seed": 1, "levels": 2})
        assert point.to_json() == grid.to_json()

    @pytest.mark.parametrize("key", ["p", "trials", "seed"])
    def test_theorem_refuses_none_where_run_grid_takes_the_default(self, key):
        args = {"p": 2.0, "trials": 5, "seed": 1, key: None}
        with pytest.raises(TypeError):
            check_theorem_3_5(corollary_scheme(3), WeightSequence(0.5), **args)

    @pytest.mark.parametrize("grid, error", [
        ({"theta": 2.0, "p": 0.5}, "theta must lie in"),
        ({"p": 0.5, "trials": 0, "levels": 99}, "p must be"),
        ({"trials": 0, "seed": -1, "levels": 99}, "trials must be"),
        ({"seed": -1, "levels": 99}, "seed must be"),
    ])
    def test_theorem_checks_theta_p_trials_seed_levels_in_order(self, grid, error):
        with pytest.raises(ValueError, match=f"^{error}"):
            run_grid("theorem-3-5", {"corollary_levels": 3, **grid})

    def test_trial_reproducibility(self):
        w = WeightSequence(0.25)
        r1 = check_theorem_3_5(corollary_scheme(5), w, 2.0, trials=64, seed=5)
        r2 = check_theorem_3_5(corollary_scheme(5), w, 2.0, trials=64, seed=5)
        assert r1.min_slack == r2.min_slack
        assert r1.to_json() == r2.to_json()


class TestRunGrid:
    def test_unknown_statement(self):
        with pytest.raises(ValueError):
            run_grid("lemma-9-9", {})

    def test_unknown_grid_key(self):
        with pytest.raises(ValueError):
            run_grid("lemma-3-1", {"bogus": 1})

    @pytest.mark.parametrize("statement,key", [
        ("lemma-3-1", "theta_values"),
        ("lemma-3-2", "theta_values"),
        ("remark-3-3", "theta_values"),
        ("remark-3-3", "p_values"),
    ])
    def test_empty_value_list_names_the_key(self, statement, key):
        # an empty grid would report 0 instances and an infinite min slack
        with pytest.raises(ValueError, match=f"^{key} must not be empty$"):
            run_grid(statement, {key: []})

    def test_statement_ids_registered(self):
        assert STATEMENT_IDS == (
            "lemma-3-1",
            "lemma-3-2",
            "remark-3-3",
            "lemma-3-4",
            "theorem-3-5",
        )

    def test_instance_cardinality_contract(self):
        rep = run_grid(
            "lemma-3-1",
            {
                "theta_values": [round(0.1 * t, 1) for t in range(1, 10)],
                "j_max": 100,
                "k_max": 100,
                "k_samples": 100,
            },
        )
        assert rep.instances == 9 * 101 * 100
        assert rep.passed

    def test_single_point_lemma_3_2(self):
        rep = run_grid(
            "lemma-3-2", {"theta_values": [0.5], "i_max": 1, "k_max": 1}
        )
        assert rep.instances == 1
        assert rep.passed

    def test_remark_grid_deterministic(self):
        grid = {
            "theta_values": [0.5],
            "p_values": [1.0],
            "trials": 300,
            "seed": 42,
            "max_support": 10,
        }
        a = run_grid("remark-3-3", grid)
        b = run_grid("remark-3-3", grid)
        assert a.min_slack == b.min_slack
        assert a.to_json() == b.to_json()
        assert a.seed == 42

    def test_none_overrides_fall_back_to_defaults(self):
        rep = run_grid(
            "lemma-3-2",
            {"theta_values": [0.5], "i_max": 3, "k_max": None},
        )
        assert rep.instances == 3 * 1000  # k_max keeps its default

    def test_tolerance_respected(self):
        # giant tolerance turns genuine negative slack into a pass
        w_insts = run_grid(
            "lemma-3-4",
            {"corollary_levels": 3, "theta": 0.5, "A": 1e-9, "B": 0.9},
            tolerance=1e9,
        )
        assert w_insts.passed
        strict = run_grid(
            "lemma-3-4",
            {"corollary_levels": 3, "theta": 0.5, "A": 1e-9, "B": 0.9},
        )
        assert not strict.passed
        assert strict.violations


class TestAggregate:
    def test_minimum_ties_go_to_the_first_instance(self):
        import lorentzkit.verify as verify

        # both chunks reach -1.0, twice in the first; grid order is n
        chunks = [
            verify.Chunk("t", {"n": np.arange(3)}, None, None, None, np.array([2.0, -1.0, -1.0])),
            verify.Chunk("t", {"n": np.arange(3, 6)}, None, None, None, np.array([-1.0, 3.0, -2e-12])),
        ]
        count, violations, first = verify._aggregate(iter(chunks), DEFAULT_TOLERANCE)
        assert count == 6
        assert [v.params["n"] for v in violations] == [1, 2, 3, 5]
        assert first.params == {"n": 1} and first.slack == -1.0

    @staticmethod
    def full_scan(chunks, tolerance):
        """Instance count, violations and first minimum-slack instance, from
        every instance of every chunk in turn."""
        import lorentzkit.verify as verify

        count, violations, first = 0, [], None
        for chunk in chunks:
            for flat in range(chunk.slack.size):
                inst = verify._instance(chunk, flat)
                count += 1
                if not inst.slack >= -tolerance:
                    violations.append(inst)
                if inst.slack < (math.inf if first is None else first.slack):
                    first = inst
        return count, violations, first

    @pytest.mark.parametrize("slacks, violating", [
        # the minimum exactly at -tolerance passes, just below it fails
        ([[1.0, -DEFAULT_TOLERANCE, 0.5]], []),
        ([[1.0, np.nextafter(-DEFAULT_TOLERANCE, -1.0), 0.5]], [1]),
        # a NaN first: argmin stops there, so every violation is looked for
        ([[np.nan, -1.0, 2.0, np.nan]], [0, 1, 3]),
        ([[np.nan, 3.0, 2.0]], [0]),
        # a violating chunk after passing ones, which hold the minimum at first
        ([[1.0, 2.0], [0.5, 3.0], [4.0, -1.0, -2.0, 5.0]], [5, 6]),
        ([[1.0, 2.0], [0.5, np.inf], [np.inf, 7.0]], []),
    ])
    def test_matches_full_scan(self, slacks, violating):
        import lorentzkit.verify as verify

        chunks, first = [], 0
        for slack in slacks:
            n = np.arange(first, first + len(slack))
            chunks.append(verify.Chunk("t", {"n": n}, None, None, None, np.array(slack)))
            first += len(slack)
        result = verify._aggregate(iter(chunks), DEFAULT_TOLERANCE)
        assert [v.params["n"] for v in result[1]] == violating
        assert repr(result) == repr(self.full_scan(chunks, DEFAULT_TOLERANCE))

    def test_instance_reads_broadcast_columns(self):
        import lorentzkit.verify as verify

        # columns of every shape that broadcasts to (2, 3): 0-d, trailing
        # axis only, length-1 axes, full; NaN sides become None
        shape = (2, 3)
        cols = {"s": 7, "z": np.array(0.5), "k": np.arange(3.0), "i": np.arange(2)[:, None],
                "one": np.array([[9.0]]), "full": np.arange(6.0).reshape(shape)}
        mid = np.array([[1.0, np.nan, 2.0]])
        chunk = verify.Chunk("t", cols, cols["full"], mid, None, np.arange(6.0).reshape(shape) - 3)
        for flat in range(6):
            at = np.unravel_index(flat, shape)
            want = {key: np.broadcast_to(col, shape)[at].item() if isinstance(col, np.ndarray)
                    else col for key, col in cols.items()}
            inst = verify._instance(chunk, flat)
            assert inst.params == want
            assert type(inst.params["i"]) is int and type(inst.params["k"]) is float
            assert (inst.lhs, inst.rhs, inst.slack) == (float(flat), None, flat - 3.0)
            assert inst.mid == (None if at[1] == 1 else float(mid[0, at[1]]))

    def test_nan_slack_is_a_violation(self):
        import lorentzkit.verify as verify

        chunk = verify.Chunk("t", {"n": np.arange(3)}, None, None, None, np.array([1.0, np.nan, 2.0]))
        count, violations, first = verify._aggregate(iter([chunk]), DEFAULT_TOLERANCE)
        assert count == 3
        assert [v.params["n"] for v in violations] == [1]
        assert first.slack == 1.0

    def test_parts_fold_as_one_pass(self, monkeypatch):
        import lorentzkit.verify as verify

        def chunk(first, slack):
            n = np.arange(first, first + len(slack))
            return verify.Chunk("t", {"n": n}, None, None, None, np.array(slack))

        parts = [
            [chunk(0, [2.0, -1.0]), chunk(2, [np.nan, 3.0])],
            [chunk(4, [np.nan, np.nan])],  # only NaN slacks: violations, never the minimum
            [chunk(6, [-1.0, 5.0])],  # ties the first part's minimum, which it keeps
            [chunk(8, [0.5, -3e-12])],
        ]
        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        count, violations, first = verify._fold(verify._aggregate_parts(parts, DEFAULT_TOLERANCE, 0))
        assert count == 10
        assert [v.params["n"] for v in violations] == [1, 2, 4, 5, 6, 9]
        assert first.params == {"n": 1} and first.slack == -1.0
        one_pass = verify._aggregate([c for part in parts for c in part], DEFAULT_TOLERANCE)
        assert repr((count, violations, first)) == repr(one_pass)

    def test_failing_part_cancels_the_parts_not_yet_started(self, monkeypatch, tmp_path):
        import lorentzkit.verify as verify

        log = tmp_path / "started"

        def part(n):
            _append_line(log, n)  # from the worker that starts the part
            if n == 0:
                raise ValueError("part 0 fails")
            time.sleep(0.3)
            yield from ()

        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        with pytest.raises(ValueError, match="part 0 fails"):
            verify._aggregate_parts([part(n) for n in range(12)], DEFAULT_TOLERANCE, 0)
        # besides part 0, each of the two workers starts at most one part before
        # the failure is read; the other parts never start
        started = [int(n) for n, in _lines(log)]
        assert 0 in started and len(started) <= 3

    def test_nan_only_part_never_holds_the_minimum(self):
        import lorentzkit.verify as verify

        def part(first, slack):
            n = np.arange(first, first + len(slack))
            return [verify.Chunk("t", {"n": n}, None, None, None, np.array(slack))]

        nan_only = verify._aggregate(part(0, [np.nan]), DEFAULT_TOLERANCE)
        assert verify._fold([nan_only])[2] is None
        later = verify._aggregate(part(1, [np.nan, 2.0]), DEFAULT_TOLERANCE)
        count, violations, first = verify._fold([nan_only, later])
        assert count == 3 and [v.params["n"] for v in violations] == [0, 1]
        assert first.params == {"n": 2} and first.slack == 2.0


class ShapedMemoryError(MemoryError):
    """Like numpy's allocation error: unpickling gives back another message."""

    def __init__(self, shape):
        super().__init__(f"cannot allocate an array of shape {shape}")


class TestWorkers:
    """When parts stay in the calling thread, and how a failing part or an
    interrupt ends the forked workers."""

    grid = {"theta_values": [0.25, 0.5, 0.75], "i_max": 30, "k_max": 20}  # 600 prefix sums a part

    @pytest.fixture()
    def forks(self, monkeypatch):
        """The pids :func:`os.fork` returns to the caller, on two CPUs; the test
        must leave no more descriptors open than it found."""
        import lorentzkit.verify as verify

        pids, fork = [], os.fork

        def spy():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        yield pids
        assert sorted(os.listdir("/proc/self/fd")) == descriptors

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_parts_stay_serial_where_forking_is_unsafe_or_too_large(self, monkeypatch, forks):
        import lorentzkit.verify as verify

        fanned = run_grid("lemma-3-2", self.grid).to_json()
        assert len(forks) == 2
        # two workers may hold 2 * 600 prefix sums together, but not one fewer
        monkeypatch.setattr(verify, "PREFIX_CACHE_LIMIT", 2 * 600)
        assert run_grid("lemma-3-2", self.grid).to_json() == fanned and len(forks) == 4
        monkeypatch.setattr(verify, "PREFIX_CACHE_LIMIT", 2 * 600 - 1)
        assert run_grid("lemma-3-2", self.grid).to_json() == fanned
        monkeypatch.setattr(verify, "PREFIX_CACHE_LIMIT", PREFIX_CACHE_LIMIT)
        reports = []
        thread = threading.Thread(target=lambda: reports.append(run_grid("lemma-3-2", self.grid)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and reports[0].to_json() == fanned
        # a platform without CPU affinity counts one CPU, and cannot pin either
        monkeypatch.setattr(verify, "_cpus", _cpus)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert verify._cpus() == 1
        assert run_grid("lemma-3-2", self.grid).to_json() == fanned
        assert len(forks) == 4

    def test_workers_pin_to_disjoint_shares_of_the_mask(self, monkeypatch, forks, tmp_path):
        # worker n takes CPUs n, n + workers, ... of the sorted mask, so the
        # workers of one call never share a CPU and all of the mask is used
        import lorentzkit.verify as verify

        log = tmp_path / "pins"
        monkeypatch.setattr(verify, "_cpus", _cpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {9, 0, 7, 2, 5})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: _append_line(log, *cpus))
        run_grid("lemma-3-2", self.grid)  # three parts, so three of the five CPUs' workers
        assert len(forks) == 3
        assert sorted(_lines(log)) == [["0", "7"], ["2", "9"], ["5"]]

    @pytest.mark.parametrize("death, status", [("killed", -signal.SIGKILL), ("unpicklable", 1)])
    def test_worker_that_dies_fails_its_part(self, forks, death, status):
        import lorentzkit.verify as verify

        caller = os.getpid()

        def part(n):
            if n == 1:
                assert os.getpid() != caller  # never kill the test's own process
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                # the aggregate keeps the params, which cannot be pickled
                yield verify.Chunk("t", {"hook": lambda: None}, None, None, None, np.zeros(1))
            yield verify.Chunk("t", {"n": n}, None, None, None, np.zeros(1))

        message = f"^the worker of part 1 exited with status {status} before sending its result$"
        with pytest.raises(ChildProcessError, match=message):
            verify._aggregate_parts([part(n) for n in range(4)], DEFAULT_TOLERANCE, 0)
        assert len(forks) == 2
        self.assert_no_child_left()

    def test_part_errors_keep_their_class_and_message(self, forks):
        import lorentzkit.verify as verify

        unpicklable = ValueError("a hook that cannot be pickled")
        unpicklable.hook = lambda: None
        cases = [
            (ValueError("partial-sum arrays are limited to 33554432 entries"), ValueError),
            (ShapedMemoryError((1 << 40,)), MemoryError),
            (unpicklable, ValueError),
        ]
        for error, want in cases:
            def part(n, error=error):
                if n == 2:
                    raise error
                yield from ()

            with pytest.raises(want) as raised:
                verify._aggregate_parts([part(n) for n in range(4)], DEFAULT_TOLERANCE, 0)
            assert type(raised.value) is want and str(raised.value) == str(error)
            self.assert_no_child_left()
        assert len(forks) == 2 * len(cases)

    def test_results_larger_than_a_pipe_arrive_in_part_order(self, forks):
        # each aggregate overflows a 64 KiB pipe buffer, and part 1 is slow, so
        # worker 0 blocks on writing part 2 while the caller waits on part 1
        import pickle

        import lorentzkit.verify as verify

        size = 4000

        def part(n):
            if n == 1:
                time.sleep(0.5)
            index = np.arange(n * size, (n + 1) * size)
            yield verify.Chunk("t", {"n": index}, None, None, None, -1.0 - index / size)

        assert len(pickle.dumps(verify._aggregate(part(0), DEFAULT_TOLERANCE))) > 1 << 16

        def deadlocked(*args):
            raise TimeoutError("the results did not arrive within 60 s")

        previous = signal.signal(signal.SIGALRM, deadlocked)
        signal.alarm(60)
        try:
            fanned = verify._aggregate_parts([part(n) for n in range(4)], DEFAULT_TOLERANCE, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 2
        assert [v.params["n"] for _, violations, _ in fanned for v in violations] == list(range(4 * size))
        serial = [verify._aggregate(part(n), DEFAULT_TOLERANCE) for n in range(4)]
        assert repr(verify._fold(fanned)) == repr(verify._fold(serial))
        self.assert_no_child_left()

    def test_the_lowest_failing_part_raises(self, forks):
        # part 1 fails at once and part 0 a second later: part 0's error is
        # raised, as one pass over the parts would raise it
        import lorentzkit.verify as verify

        def part(n):
            if n == 0:
                time.sleep(1)
            if n < 2:
                raise ValueError(f"part {n} fails")
            yield from ()

        with pytest.raises(ValueError, match="^part 0 fails$"):
            verify._aggregate_parts([part(n) for n in range(4)], DEFAULT_TOLERANCE, 0)
        assert len(forks) == 2
        self.assert_no_child_left()

    def test_interrupted_caller_kills_and_reaps_the_busy_workers(self, monkeypatch, forks):
        import pickle

        import lorentzkit.verify as verify

        def part():
            time.sleep(60)
            yield from ()

        def interrupted(*args):
            raise KeyboardInterrupt

        # the interrupt lands where the caller blocks: on its read of a result
        monkeypatch.setattr(pickle, "load", interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            verify._aggregate_parts([part(), part()], DEFAULT_TOLERANCE, 0)
        assert time.perf_counter() - start < 30 and len(forks) == 2
        self.assert_no_child_left()

    @pytest.mark.parametrize("call, failing", [("pipe", 1), ("pipe", 2), ("fork", 1), ("fork", 2)])
    def test_failing_start_up_closes_what_it_made(self, monkeypatch, forks, call, failing):
        # the first or the second worker's result pipe, the first or the
        # second worker's fork: each failure leaves no descriptor open (the
        # fixture checks) and no child behind
        import lorentzkit.verify as verify

        calls, real = [], getattr(os, call)

        def flaky():
            calls.append(call)
            if len(calls) == failing:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return real()

        monkeypatch.setattr(os, call, flaky)
        with pytest.raises(OSError) as raised:
            verify._aggregate_parts([iter(()), iter(())], DEFAULT_TOLERANCE, 0)
        assert raised.value.errno == errno.EMFILE and len(calls) == failing
        self.assert_no_child_left()

    def test_killed_caller_leaves_no_worker(self):
        # each worker closes the pipe ends it inherits, so once the caller is
        # gone a worker's write of its result fails and the worker exits
        import lorentzkit

        script = textwrap.dedent("""
            import os, time
            import lorentzkit.verify as verify

            def part():
                os.write(1, b"%d\\n" % os.getpid())
                time.sleep(2)
                yield from ()

            verify._cpus = lambda: 2
            verify._aggregate_parts([part(), part()], 0.0, 0)
        """)
        src = Path(lorentzkit.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=env) as caller:
            workers = [int(caller.stdout.readline()) for _ in range(2)]
            caller.kill()
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if _running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)  # no orphan outlives a failure
        assert not left


class TestReportSerialization:
    @pytest.fixture()
    def report(self):
        return run_grid(
            "lemma-3-2", {"theta_values": [0.5], "i_max": 4, "k_max": 4}
        )

    def test_json_schema_fields(self, report, tmp_path):
        # exact key sets, so that no field comes back unnoticed
        doc = json.loads(report.to_json())
        assert set(doc) == {
            "statement", "grid", "tolerance", "seed", "instances", "violations",
            "min_slack", "min_slack_instance", "runtime_ms", "config", "passed",
        }
        assert set(doc["min_slack_instance"]) == {"name", "params", "lhs", "mid", "rhs", "slack"}
        assert doc["runtime_ms"] is None  # only emitted with include_timing
        assert doc["statement"] == "lemma-3-2"
        report.write_csv(tmp_path / "violations.csv")
        with open(tmp_path / "violations.csv", newline="") as fh:
            assert next(csv.reader(fh)) == [
                "statement", "name", "slack", "lhs", "mid", "rhs", "params"]
        from lorentzkit import cli

        out = tmp_path / "equiv.json"
        assert cli.main(["equiv", "--pair", "d-vs-lp", "--theta", "0.5", "--N", "4",
                         "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {
            "command", "pair", "config", "estimate", "lower", "witness", "exact",
            "abs_difference",
        }

    def test_non_finite_values_are_not_serialized(self, report):
        report.min_slack = float("inf")
        with pytest.raises(ValueError):
            report.to_json()

    def test_runtime_opt_in(self, report):
        doc = json.loads(report.to_json(include_timing=True))
        assert doc["runtime_ms"] > 0

    def test_write_json(self, report, tmp_path):
        path = tmp_path / "report.json"
        report.write_json(path)
        assert json.loads(path.read_text())["passed"] is True

    def test_csv_lists_violations(self, tmp_path):
        rep = run_grid(
            "lemma-3-4",
            {"corollary_levels": 3, "theta": 0.5, "A": 1e-9, "B": 0.9},
        )
        path = tmp_path / "violations.csv"
        rep.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(rep.violations)
        assert rows[0]["statement"] == "lemma-3-4"
        assert float(rows[0]["slack"]) < 0

    def test_numpy_values_serialize_as_python_values(self, tmp_path):
        from lorentzkit.verify import InequalityInstance, VerificationReport

        def written(params, grid, number):
            inst = InequalityInstance("t", params, number(0.5), None, number(1.5), number(-0.25))
            rep = VerificationReport("t", grid, 0.0, None, 1, [inst], number(-0.25), inst,
                                     config=grid)
            rep.write_csv(tmp_path / "violations.csv")
            return rep.to_json(), (tmp_path / "violations.csv").read_bytes()

        as_numpy = written(
            {"i": np.int64(3), "theta": np.float64(0.25), "k": np.array([[1, 2]]),
             "w": np.float32(0.5), "upper": np.bool_(True), "condition": np.str_("a")},
            {"theta_values": np.array([0.25, 0.5]), "k_max": np.int64(4)},
            np.float64,
        )
        as_python = written(
            {"i": 3, "theta": 0.25, "k": [[1, 2]], "w": 0.5, "upper": True, "condition": "a"},
            {"theta_values": [0.25, 0.5], "k_max": 4},
            float,
        )
        assert as_numpy == as_python
        assert json.loads(as_python[0])["violations"][0]["params"]["k"] == [[1, 2]]


class TestTheorem35Batched:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_trial_norms_match_dense_oracle(self, p):
        theta, trials, seed = 0.5, 30, 11
        scheme = corollary_scheme(6)
        counts, lengths = scheme.counts, np.array(scheme.lengths)
        coeffs = _draw_trial_coefficients(np.random.default_rng([seed]), counts, 0, trials)
        scales = [oracle.partial_sum(int(j), theta) ** (-1.0 / p) for j in lengths]
        values = coeffs * np.repeat(scales, counts)
        block_lengths = np.repeat(lengths, counts)
        mids = lorentz_pnorm_pow_runlength(
            values, block_lengths, SpaceParams(p, WeightSequence(theta))
        )
        a, b = theorem_constants(theta, scheme.stagger_ratio())
        edges = np.cumsum((0,) + counts)
        slacks = []
        for t in range(trials):
            dense = np.repeat(values[t], block_lengths)
            assert dense.size == scheme.total_support == 2520
            want = oracle.lorentz_norm(dense, theta, p) ** p
            assert mids[t] == pytest.approx(want, rel=1e-12)
            y_pow = sum(
                oracle.lorentz_norm(coeffs[t, lo:hi], theta, p) ** p
                for lo, hi in zip(edges[:-1], edges[1:])
            )
            slacks.append(min(want - b * y_pow, a**p * y_pow - want))
        report = check_theorem_3_5(scheme, WeightSequence(theta), p, trials, seed)
        assert report.passed
        assert report.instances == 2 * sum(counts) + trials
        assert report.min_slack <= min(slacks) + 1e-12

    @pytest.mark.parametrize(
        "counts",
        [(1,), (1, 2), (1, 1, 1), corollary_scheme(6).counts, (40, 3)],
    )
    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 30])
    def test_chunked_draw_keeps_level_by_level_order(self, counts, chunk):
        # geometric trials draw 2 numbers per level, more than sum(counts)
        # when levels are short; chunks of 2 and 4 start at every residue mod 3
        trials, seed = 30, 3
        rng = np.random.default_rng([seed])
        coeffs = np.vstack(
            [
                _draw_trial_coefficients(rng, counts, first, min(first + chunk, trials))
                for first in range(0, trials, chunk)
            ]
        )
        want, state = oracle.theorem_3_5_trial_coefficients(counts, trials, seed)
        assert np.array_equal(coeffs, want)
        # the generator stops where the oracle's does, so a next chunk stays aligned
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "scheme,levels",
        [
            (corollary_scheme(1), None),
            (corollary_scheme(2), None),
            (corollary_scheme(5), 1),
            (corollary_scheme(5), 2),
            (BlockScheme((1, 2, 4), (1, 1, 1)), None),
        ],
    )
    def test_short_levels_pass(self, scheme, levels):
        rep = check_theorem_3_5(scheme, WeightSequence(0.5), 2.0, trials=7, levels=levels)
        assert rep.passed
        used = scheme.counts[: levels or scheme.levels]
        assert rep.instances == 2 * sum(used) + 7

    def test_chunks_do_not_change_the_report(self, monkeypatch):
        import lorentzkit.verify as verify

        # a tolerance of -1e300 lists every instance as a violation, so the
        # report pins each trial's number and values
        grid = {"corollary_levels": 3, "theta": 0.25, "p": 4.0, "trials": 60, "seed": 4,
                "levels": None}
        whole = verify._report("theorem-3-5", -1e300, 0.0, *verify._theorem_3_5(grid))
        assert len(whole.violations) == whole.instances
        assert whole.min_slack_instance.params == {"trial": 54, "distribution": "uniform"}
        monkeypatch.setattr(verify, "_GRID_BLOCK_ENTRIES", 1)  # one trial per chunk
        chunked = verify._report("theorem-3-5", -1e300, 0.0, *verify._theorem_3_5(grid))
        for rep in (whole, chunked):
            slacks = [inst.slack for inst in rep.violations]
            assert rep.min_slack == min(slacks)
            assert rep.min_slack_instance == rep.violations[slacks.index(min(slacks))]
        assert chunked.instances == whole.instances
        assert chunked.min_slack == whole.min_slack
        for got, want in zip(chunked.violations, whole.violations, strict=True):
            assert (got.name, got.params) == (want.name, want.params)
            for field in ("lhs", "mid", "rhs", "slack"):
                assert getattr(got, field) == getattr(want, field)

    def test_memory_at_corollary_K_10(self):
        # 5000 trials at K = 10 peaked at 30.8 MiB traced in chunks of 2^18
        # coefficients and at 11.2 MiB in chunks of 2^16; run-length norms
        # in row blocks of 2^12 entries bound it near 2.7 MiB
        import tracemalloc

        tracemalloc.start()
        try:
            report = check_theorem_3_5(corollary_scheme(10), WeightSequence(0.5), 2.0, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.instances == 2 * 55 + 5000
        assert peak <= 3 * 2**20

    def test_lemma_3_4_mid_matches_hurwitz_zeta(self):
        theta = 0.5
        scheme = corollary_scheme(10)
        j_k, base = scheme.lengths[9], scheme.offsets[9]
        mids = {
            inst.params["condition"]: inst.mid
            for inst in check_lemma_3_4_conditions(scheme, WeightSequence(theta))
            if inst.params["k"] == 10 and inst.params["i"] == 10
        }
        with mpmath.workdps(50):
            zeta = lambda n: mpmath.zeta(theta, n)  # noqa: E731
            w_jk = zeta(1) - zeta(j_k + 1)
            plain = (zeta(9 * j_k + 1) - zeta(10 * j_k + 1)) / w_jk
            shifted = (zeta(base + 9 * j_k + 1) - zeta(base + 10 * j_k + 1)) / w_jk
        assert mids["averaged-upper"] == pytest.approx(float(plain), rel=1e-14)
        assert mids["staggered-lower"] == pytest.approx(float(shifted), rel=1e-14)
