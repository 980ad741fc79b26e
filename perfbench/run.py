"""End-to-end and per-layer benchmark of the lorentzkit command line.

Usage, from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed list of ``lorentzkit`` CLI calls.  One closed-loop
client runs them one process at a time, each in a fresh interpreter the way
a user pays for it, and repeats the list until ``--seconds`` have passed.
Every call writes its report through ``--out``; outside the timed region the
first repetition's reports are checked against independent oracles
(``oracle.py``) and every later repetition must write the same bytes.

Each repetition starts with a run of ``reference.py`` and one set-up
sample, a fresh interpreter importing ``lorentzkit.cli``.  ``--trace 0``
prints the end-to-end metrics: ``wall_s`` (the summed wall time of the
workload's calls), ``setup_s`` (the set-up sample) and ``peak_rss_mb``
(the largest child ``ru_maxrss``), each the median over repetitions.  The
two times are in seconds at the reference speed: every sample is divided by
the reference run just before it and multiplied by :data:`REFERENCE_S`.
The host's speed drifts by 20-30% over minutes and moves both programs
alike, so the scaled times hold still where raw seconds cannot; the raw
medians are printed next to them and kept in the run record.

``--trace 1`` follows every untraced repetition with a traced pass over the
same calls (``tracing.py``) and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Once per invocation, untimed, the benchmark also runs the known defects
that the ROADMAP reproduces and prints how many still fail; they stay out of
every workload, so fixing one never reads as a slowdown.  Scratch files and a
full record of each run go to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPS = 3
# seconds reference.py takes at the host speed that times are reported at:
# about its median on the 2-vCPU Xeon VM the benchmark was written on
REFERENCE_S = 0.25
# a call is killed, and counted as failed, after this long; the slowest call
# takes about 3 s, and the limit keeps a run under the 180 s a run may take
CALL_TIMEOUT_S = 20.0
# Children run BLAS on one thread.  With a second thread, numpy's import and
# every BLAS call wait on the other vCPU, which co-tenants of a shared host
# keep busy at random: the import then takes 0.06 s or 0.15 s by turns.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Call(NamedTuple):
    label: str
    args: Tuple[str, ...]
    seeded: bool
    check: Callable[[Dict], List[str]]  # problems in the call's --out document


DEFAULT_THETAS = [round(0.05 * i, 2) for i in range(1, 20)]
STAGGERED_TRIALS = 5000
SUPERADDITIVITY_TRIALS = 40000


def _verify(statement: str, seed: Optional[int], **expect) -> Callable[[Dict], List[str]]:
    return functools.partial(oracle.verify_report, statement=statement, seed=seed, expect=expect)


def _grid_sweep(seed: int) -> List[Call]:
    return [
        Call("lemma-3-1", ("verify", "lemma-3-1", "--j-max", "4000", "--k-max", "4000"), False,
             _verify("lemma-3-1", None, j_max=4000, theta_values=DEFAULT_THETAS)),
        Call("lemma-3-2", ("verify", "lemma-3-2"), False,
             _verify("lemma-3-2", None, i_max=1000, k_max=1000, theta_values=DEFAULT_THETAS)),
    ]


def _staggered(seed: int) -> List[Call]:
    args = ("verify", "theorem-3-5", "--corollary-K", "10", "--p", "2",
            "--trials", str(STAGGERED_TRIALS), "--seed", str(seed))
    return [
        Call("theorem-3-5", args, True,
             _verify("theorem-3-5", seed, levels=10, p=2.0, theta=0.5, trials=STAGGERED_TRIALS,
                     lengths=oracle.corollary_lengths(10), counts=list(range(1, 11)))),
    ]


def _superadditivity(seed: int) -> List[Call]:
    args = ("verify", "remark-3-3", "--trials", str(SUPERADDITIVITY_TRIALS), "--seed", str(seed))
    return [
        Call("remark-3-3", args, True,
             _verify("remark-3-3", seed, trials=SUPERADDITIVITY_TRIALS, max_support=40,
                     theta_values=[0.25, 0.5, 0.75], p_values=[1.0, 1.5, 2.0, 3.0])),
    ]


def _sections(seed: int) -> List[Call]:
    return [
        Call("select-counts", ("construct", "--select-counts-K", "5", "--theta", "0.25", "--p", "2"),
             False, functools.partial(oracle.select_counts_report, theta=0.25, p=2.0, levels=5)),
        Call("equiv", ("equiv", "--pair", "dk-vs-d", "--theta", "0.5", "--k", "2", "--p", "1",
                       "--N", "2000", "--seed", str(seed)), True,
             functools.partial(oracle.equiv_report, theta=0.5, k=2, p=1.0, dimension=2000, seed=seed)),
    ]


# workload name -> seed -> call list; BENCHMARK.json says why each was chosen
WORKLOADS: Dict[str, Callable[[int], List[Call]]] = {
    "grid-sweep": _grid_sweep,
    "staggered": _staggered,
    "superadditivity": _superadditivity,
    "sections": _sections,
}

# (label, CLI arguments, predicate on the finished call that is true while the defect persists)
KNOWN_LIMITS = [
    ("theorem-3-5 K=11 partial-sum limit", ("verify", "theorem-3-5", "--corollary-K", "11", "--trials", "1"),
     lambda c: c.code == 2),
    ("lemma-3-2 6000x6000 partial-sum limit", ("verify", "lemma-3-2", "--i-max", "6000", "--k-max", "6000"),
     lambda c: c.code == 2),
    ("select-counts K=6 growth cutoff", ("construct", "--select-counts-K", "6", "--theta", "0.25", "--p", "2"),
     lambda c: c.code == 2),
    ("norm of 1e200,1e200 overflows to inf", ("norm", "--theta", "0.5", "--p", "2", "--dense", "1e200,1e200"),
     lambda c: c.code == 0 and not _printed_finite(c.stdout, "lorentz norm")),
]


def _printed_finite(stdout: str, key: str) -> bool:
    for line in stdout.splitlines():
        if line.startswith(key):
            try:
                return math.isfinite(float(line[len(key):].split()[0]))
            except (IndexError, ValueError):
                return False
    return False


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


class Child(NamedTuple):
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _child_env() -> Dict[str, str]:
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: Sequence[str]) -> Child:
    """Run one child to completion; wall time from spawn to reap, own ru_maxrss."""
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "lorentzkit.cli", *args]


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


class Outcome(NamedTuple):
    child: Child
    report: Optional[bytes]


def run_calls(calls: List[Call], out_dir: Path, argv_for: Callable[[Call, Path], List[str]]) -> List[Outcome]:
    rep = []
    for call in calls:
        out = out_dir / f"{call.label}.json"
        if out.exists():
            out.unlink()
        child = spawn(argv_for(call, out))
        rep.append(Outcome(child, out.read_bytes() if out.exists() else None))
    return rep


def untraced_argv(call: Call, out: Path) -> List[str]:
    return cli(*call.args, "--out", str(out))


def reference_time() -> float:
    child = spawn([sys.executable, str(HERE / "reference.py")])
    if child.code != 0:
        raise RuntimeError(f"reference program failed: {child.stderr.strip()}")
    return child.wall_s


def oracle_problems(calls: List[Call], first: List[Outcome]) -> List[List[str]]:
    """Oracle problems of each call's first-repetition report."""
    problems = []
    for call, outcome in zip(calls, first):
        if outcome.report is None:
            problems.append(["no report written"])
            continue
        try:
            doc = json.loads(outcome.report)
        except ValueError as exc:
            problems.append([f"report is not JSON: {exc}"])
            continue
        problems.append(call.check(doc))
    return problems


def judge(calls: List[Call], first: List[Outcome], reps: List[List[Outcome]]) -> List[str]:
    """One line per failed call: non-zero exit, wrong output, or changed bytes."""
    first_problems = oracle_problems(calls, first)
    failures = []
    for r, rep in enumerate(reps):
        for call, outcome, first_outcome, problems in zip(calls, rep, first, first_problems):
            why = []
            if outcome.child.code != 0:
                why.append(f"exit {outcome.child.code}: {outcome.child.stderr.strip()[-200:]}")
            why.extend(problems)
            if outcome.report != first_outcome.report:
                why.append("report bytes differ from the first repetition")
            if why:
                failures.append(f"repetition {r} {call.label}: {'; '.join(why)}")
    return failures


def setup_time() -> float:
    return spawn([sys.executable, "-c", "import lorentzkit.cli"]).wall_s


def traced_pass(calls: List[Call], out_dir: Path, spans_dir: Path) -> Tuple[List[Outcome], List[Dict], float]:
    """One traced repetition: outcomes, span totals per call, traced wall time."""
    spans_dir.mkdir(parents=True, exist_ok=True)

    def argv_for(call: Call, out: Path) -> List[str]:
        spans = spans_dir / f"{call.label}.npz"
        for stale in (spans, Path(f"{spans}.json")):
            if stale.exists():
                stale.unlink()
        return [sys.executable, str(HERE / "tracing.py"), str(spans), *call.args, "--out", str(out)]

    rep = run_calls(calls, out_dir, argv_for)
    totals, wall = [], 0.0
    for call, outcome in zip(calls, rep):
        spans = spans_dir / f"{call.label}.npz"
        write_s = json.loads(Path(f"{spans}.json").read_text())["write_s"] if spans.exists() else 0.0
        wall += outcome.child.wall_s - write_s
        if spans.exists():
            totals.append(tracing.call_totals(str(spans)))
    return rep, totals, wall


def combine_passes(passes: List[Dict]) -> Tuple[Dict, List[str]]:
    """Counts from the first pass (they must repeat exactly), medians of the rest."""
    merged, problems = {}, []
    for key in passes[0]:
        values = [p[key] for p in passes]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                problems.append(f"{key} differs between traced passes: {values}")
            merged[key] = values[0]
        else:
            merged[key] = statistics.median(values)
    return merged, problems


# ---------------------------------------------------------------------------
# Provenance and known limits.
# ---------------------------------------------------------------------------

_PROVENANCE_CODE = """
import json, sys, numpy, lorentzkit, lorentzkit.cli, lorentzkit._kernels as k
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except Exception:
    blas = None
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "numpy_blas": blas, "lorentzkit": lorentzkit.__version__,
                  "using_numba": bool(k.USING_NUMBA)}))
"""


def provenance() -> Optional[Dict]:
    """Versions and host facts; None when the package cannot be imported."""
    child = spawn([sys.executable, "-c", _PROVENANCE_CODE])
    if child.code != 0:
        sys.stderr.write(child.stderr)
        return None
    info = json.loads(child.stdout.strip().splitlines()[-1])
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lorentzkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info.update(
        commit=commit,
        source_sha256=digest.hexdigest(),
        nproc=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        blas_env=BLAS_ENV,
    )
    return info


def known_limits() -> List[Dict]:
    results = []
    for label, args, still_fails in KNOWN_LIMITS:
        child = spawn(cli(*args))
        results.append({"limit": label, "still_fails": bool(still_fails(child)), "exit": child.code})
    return results


# ---------------------------------------------------------------------------
# One workload.
# ---------------------------------------------------------------------------

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Closed loop over the workload's calls until ``seconds`` have passed.

    Each repetition follows a run of the reference program and a set-up
    sample; with ``trace`` it is also followed by a traced pass, so the two
    see the same host speed and their difference is the tracing overhead.
    """
    calls = WORKLOADS[name](seed)
    spans_dir = WORK / "spans" / name
    out_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        untraced: List[List[Outcome]] = []
        refs: List[float] = []
        setup: List[float] = []
        traced: List[List[Outcome]] = []
        passes: List[Dict] = []
        deadline = time.perf_counter() + seconds
        while len(untraced) < MIN_REPS or time.perf_counter() < deadline:
            refs.append(reference_time())
            setup.append(setup_time())
            untraced.append(run_calls(calls, out_dir, untraced_argv))
            if trace:
                rep, totals, traced_wall = traced_pass(calls, out_dir, spans_dir)
                traced.append(rep)
                if len(totals) == len(calls):
                    untraced_wall = sum(o.child.wall_s for o in untraced[-1])
                    passes.append(tracing.layer_metrics(totals, traced_wall, untraced_wall))
        walls = [sum(o.child.wall_s for o in rep) for rep in untraced]
        rss = [max(o.child.rss_mb for o in rep) for rep in untraced]
        layers, trace_problems = combine_passes(passes) if passes else ({}, [])
        failures = judge(calls, untraced[0], untraced + traced)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    attempted = (len(untraced) + len(traced)) * len(calls)
    failed = len(failures)
    if trace:
        metrics = layers
    else:
        metrics = {
            "wall_s": REFERENCE_S * statistics.median(w / r for w, r in zip(walls, refs)),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": REFERENCE_S * statistics.median(t / r for t, r in zip(setup, refs)),
        }
    return {
        "workload": name,
        "seed": seed,
        "seed_passed_to": [c.label for c in calls if c.seeded],
        "unseeded_calls": [c.label for c in calls if not c.seeded],
        "repetitions": len(untraced),
        "traced_passes": len(traced),
        "raw_wall_s": statistics.median(walls),
        "raw_setup_s": statistics.median(setup),
        "reference_s": statistics.median(refs),
        "wall_samples_s": walls,
        "reference_samples_s": refs,
        "rss_samples_mb": rss,
        "setup_samples_s": setup,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "trace_problems": trace_problems,
        "metrics": metrics,
    }


def print_workload(result: Dict, trace: bool) -> None:
    seeded = ", ".join(result["seed_passed_to"]) or "none"
    unseeded = ", ".join(result["unseeded_calls"]) or "none"
    print(f"{result['workload']}: seed {result['seed']} passed to {seeded}; takes no seed: {unseeded}")
    n = result["repetitions"]
    raw = {"wall_s": result["raw_wall_s"], "setup_s": result["raw_setup_s"]}
    for name, value in result["metrics"].items():
        unit = layer_unit(name) if trace else E2E_UNITS[name]
        note = "" if trace else f"median of {n} repetitions"
        if name in raw and not trace:
            note += f"; raw {raw[name]:.4f} s at reference {result['reference_s']:.4f} s"
        print(f"  {name:28s} {value!r} {unit}  {note}".rstrip())
    if trace:
        print(f"  ({result['traced_passes']} traced passes, {n} untraced repetitions)")
    print(f"  {'failed_ratio':28s} {result['failed_ratio']!r}  ({result['failed']} of {result['attempted']} calls)")
    for line in result["failures"] + result["trace_problems"]:
        print(f"  FAILED {line}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "lorentzkit" / "cli.py").is_file():
        print(f"error: no lorentzkit sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    info = provenance()
    if info is None:
        print("error: lorentzkit.cli cannot be imported", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print(f"lorentzkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"provenance: {json.dumps(info, sort_keys=True)}")

    limits = known_limits()
    print(f"known limits: {sum(r['still_fails'] for r in limits)} of {len(limits)} still fail")
    for r in limits:
        print(f"  {'still fails' if r['still_fails'] else 'fixed      '}  {r['limit']} (exit {r['exit']})")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace)
        print_workload(result, trace)
        results.append(result)

    record = {"args": vars(args), "provenance": info, "known_limits": limits, "workloads": results}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    line = {
        "correct": failed == 0 and not any(r["trace_problems"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": layer_unit(k) if trace else E2E_UNITS[k.rsplit(".", 1)[-1]]}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
