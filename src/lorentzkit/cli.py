"""Command-line interface.

Four subcommands:

* ``norm`` — evaluate the Lorentz and plain ``l_p`` norms of one vector.
* ``verify`` — run a statement's verification grid and report violations.
* ``construct`` — print block schemes or selected per-level section sizes.
* ``equiv`` — the exact norm-domination constant between two norms.

Every option is one :class:`~lorentzkit.options.Option` record; ``verify``
takes its statements' records from :data:`lorentzkit.verify.STATEMENTS`.
The parser is generated from the records, and each value resolves as:
command-line flag, then ``key=value`` line in the ``--config`` file, then
built-in default.  An option, given as a flag or as a config key, that does
not apply to the chosen statement, ``construct`` mode or ``equiv`` pair is
a usage error.  ``LORENTZKIT_OUT_DIR`` supplies a directory for bare output
filenames (that is the only environment knob).  Exit codes: 0 on
success/pass, 1 when a verification found violations, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterable, List, Optional

from .constants import (
    GrowthCutoffError,
    averaged_norm_descriptor,
    domination_constant,
    equiv_to_lp_exact,
    lorentz_norm_descriptor,
    lp_norm_descriptor,
    select_block_counts,
)
from .blocks import BlockScheme, SchemeOverflowError, corollary_scheme
from .options import (
    Option,
    Resolver,
    UsageError,
    _parse_bool,
    _parse_dense,
    _parse_sparse,
    add_options,
)
from .space import SpaceParams, lorentz_norm, lp_norm
from .verify import (
    COROLLARY_LEVELS,
    COUNTS,
    DEFAULT_TOLERANCE,
    LENGTHS,
    P,
    STATEMENT_IDS,
    STATEMENTS,
    THETA,
    run_grid,
    _py,
)
from .weights import WeightSequence

OUT_DIR_ENV_VAR = "LORENTZKIT_OUT_DIR"

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2

OUT = Option(("--out",), str)


def _resolve_out_path(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    out_dir = os.environ.get(OUT_DIR_ENV_VAR, "")
    if out_dir and not os.path.dirname(path):
        return os.path.join(out_dir, path)
    return path


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _echo(res: Resolver, options: Iterable[Option]) -> Dict:
    """A report's ``config``: the set options' values by config key."""
    values = {opt.dest: res.get(opt) for opt in options}
    return {key: _py(value) for key, value in values.items() if value is not None}


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------

_DENSE = Option(("--dense",), _parse_dense, metavar="V1,V2,...")
_SPARSE = Option(("--sparse",), _parse_sparse, metavar="IDX:VAL,...")
_NORM_OPTIONS = (THETA, P, _DENSE, _SPARSE, OUT)


def _cmd_norm(args: argparse.Namespace) -> int:
    res = Resolver(args, _NORM_OPTIONS)
    theta = res.get(THETA)
    if theta is None:
        raise UsageError("norm requires --theta")
    p = res.get(P, 1.0)
    dense = res.get(_DENSE)
    sparse = res.get(_SPARSE)
    if (dense is None) == (sparse is None):
        raise UsageError("provide exactly one of --dense or --sparse")
    vector = dense if dense is not None else sparse
    params = SpaceParams(p=p, weights=WeightSequence(theta))
    value = lorentz_norm(vector, params)
    plain = lp_norm(vector, p)
    ratio = plain / value if value > 0 else float("nan")
    print(f"support size      {len(vector)}")
    print(f"lorentz norm      {value!r}  (theta={theta}, p={p})")
    print(f"lp norm           {plain!r}  (p={p})")
    print(f"ratio lp/lorentz  {ratio!r}")
    out = _resolve_out_path(res.get(OUT))
    if out:
        _write_json(
            out,
            {
                "command": "norm",
                "config": _echo(res, (THETA, P)),
                "support": len(vector),
                "lorentz_norm": value,
                "lp_norm": plain,
                # undefined for the zero vector, and JSON has no NaN
                "ratio": ratio if value > 0 else None,
            },
        )
    return EXIT_PASS


_TOL = Option(("--tol",), float)
_CSV = Option(("--csv",), str)
_TIMING = Option(("--timing",), _parse_bool)
#: every statement's options once, in table order
_STATEMENT_OPTIONS = tuple(
    dict.fromkeys(
        opt
        for spec in STATEMENTS.values()
        for param in spec.params
        for opt in param.options
    )
)
_VERIFY_OPTIONS = _STATEMENT_OPTIONS + (_TOL, OUT, _CSV, _TIMING)


def _cmd_verify(args: argparse.Namespace) -> int:
    statement = args.statement
    spec = STATEMENTS[statement]
    res = Resolver(args, _VERIFY_OPTIONS)
    applies = {opt for param in spec.params for opt in param.options}
    res.reject((opt for opt in _STATEMENT_OPTIONS if opt not in applies), statement)
    grid = {}
    for param in spec.params:
        option, value = res.lookup(*param.options)
        if value is not None:
            grid[param.key] = [value] if option is param.point else value
    tolerance = res.get(_TOL, DEFAULT_TOLERANCE)
    timing = bool(res.get(_TIMING, False))
    out = _resolve_out_path(res.get(OUT))
    csv_path = _resolve_out_path(res.get(_CSV))
    report = run_grid(statement, grid, tolerance)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"statement     {report.statement}")
    print(f"instances     {report.instances}")
    print(f"violations    {len(report.violations)}")
    print(f"min slack     {report.min_slack:.6e}")
    if report.min_slack_instance is not None:
        print(f"at            {_py(report.min_slack_instance.params)}")
    if timing:
        print(f"runtime_ms    {report.runtime_ms:.1f}")
    print(f"result        {verdict}")
    if out:
        report.write_json(out, include_timing=timing)
    if csv_path:
        report.write_csv(csv_path)
    return EXIT_PASS if report.passed else EXIT_VIOLATIONS


_SELECT_COUNTS = Option(("--select-counts", "--select-counts-K"), int, metavar="LEVELS")
#: the modes, each named by its first option, which selects it, and listing
#: every option it takes
_CONSTRUCT_MODES = (
    (COROLLARY_LEVELS,),
    (LENGTHS, COUNTS),
    (_SELECT_COUNTS, THETA, P),
)
_CONSTRUCT_OPTIONS = sum(_CONSTRUCT_MODES, ()) + (OUT,)


def _cmd_construct(args: argparse.Namespace) -> int:
    res = Resolver(args, _CONSTRUCT_OPTIONS)
    chosen = [mode for mode in _CONSTRUCT_MODES if res.get(mode[0]) is not None]
    if len(chosen) != 1:
        names = ", ".join(mode[0].flags[0] for mode in _CONSTRUCT_MODES)
        raise UsageError(f"choose exactly one of {names}")
    mode = chosen[0]
    res.reject((opt for opt in _CONSTRUCT_OPTIONS if opt not in mode + (OUT,)),
               f"construct {mode[0].flags[0]}")
    out = _resolve_out_path(res.get(OUT))
    if mode[0] is _SELECT_COUNTS:
        theta = res.get(THETA)
        if theta is None:
            raise UsageError("--select-counts requires --theta")
        p = res.get(P, 1.0)
        selection = select_block_counts(WeightSequence(theta), p, res.get(_SELECT_COUNTS))
        print(f"{'k':>4}  {'N_k':>10}  {'ratio':>18}")
        for k, (n, ratio) in enumerate(zip(selection.counts, selection.ratios), 1):
            print(f"{k:>4}  {n:>10}  {ratio:>18.12f}")
        if selection.proxy:
            print(
                "note: p > 1 counts use the norm-ratio proxy "
                "(the exact escape criterion is specific to p = 1)"
            )
        if out:
            _write_json(
                out,
                {
                    "command": "construct",
                    "mode": "select-counts",
                    "config": _echo(res, mode),
                    "counts": list(selection.counts),
                    "ratios": list(selection.ratios),
                    "proxy": selection.proxy,
                },
            )
        return EXIT_PASS
    if mode[0] is COROLLARY_LEVELS:
        scheme = corollary_scheme(res.get(COROLLARY_LEVELS))
    else:
        scheme = BlockScheme(res.get(LENGTHS), res.get(COUNTS))
    print(f"{'level':>6}  {'length':>14}  {'count':>6}  {'offset_end':>16}")
    for k in range(1, scheme.levels + 1):
        print(
            f"{k:>6}  {scheme.lengths[k - 1]:>14}  {scheme.counts[k - 1]:>6}  "
            f"{scheme.offsets[k]:>16}"
        )
    stagger = scheme.stagger_ratio()
    print(f"total support   {scheme.total_support}")
    print(f"stagger ratio   {'n/a' if stagger is None else repr(stagger)}")
    if out:
        _write_json(
            out,
            {
                "command": "construct",
                "mode": "scheme",
                "config": _echo(res, mode),
                "lengths": list(scheme.lengths),
                "counts": list(scheme.counts),
                "offsets": list(scheme.offsets),
                "stagger_ratio": stagger,
            },
        )
    return EXIT_PASS


_EQUIV_PAIRS = ("d-vs-lp", "d-vs-d", "dk-vs-d")
_PAIR = Option(("--pair",), str, choices=_EQUIV_PAIRS)
_DIMENSION = Option(("--dimension", "-N", "--N"), int)
_K = Option(("--k",), int, help="averaging window for dk-vs-d")
_EQUIV_SEED = Option(("--seed",), int, help="echoed in the report; changes nothing")
_EQUIV_OPTIONS = (_PAIR, THETA, P, _DIMENSION, _K, _EQUIV_SEED, OUT)


def _cmd_equiv(args: argparse.Namespace) -> int:
    res = Resolver(args, _EQUIV_OPTIONS)
    pair = res.get(_PAIR)
    theta = res.get(THETA)
    dimension = res.get(_DIMENSION)
    if pair is None or theta is None or dimension is None:
        raise UsageError("equiv requires --pair, --theta and --dimension")
    if pair != "dk-vs-d":
        res.reject((_K,), pair)
    p = res.get(P, 1.0)
    weights = WeightSequence(theta)
    if pair == "d-vs-lp":
        norm_a = lp_norm_descriptor(p)
        norm_b = lorentz_norm_descriptor(weights, p)
    elif pair == "d-vs-d":
        norm_a = lorentz_norm_descriptor(weights, p)
        norm_b = lorentz_norm_descriptor(weights, p)
    else:
        k = res.get(_K)
        if k is None:
            raise UsageError("dk-vs-d requires --k (averaging window)")
        norm_a = averaged_norm_descriptor(weights, p, k)
        norm_b = lorentz_norm_descriptor(weights, p)
    estimate = domination_constant(norm_a, norm_b, dimension)
    print(f"pair          {pair}  (A={norm_a.label}, B={norm_b.label})")
    print(f"dimension     {dimension}")
    print(f"estimate      {estimate.estimate!r}")
    print(f"lower bound   {estimate.lower!r}")
    print(f"iterations    {estimate.iterations}")
    head = ", ".join(f"{v:.6g}" for v in estimate.witness[:8])
    more = ", ..." if estimate.witness.shape[0] > 8 else ""
    print(f"witness       [{head}{more}]")
    payload = {
        "command": "equiv",
        "pair": pair,
        "config": {
            "theta": theta,
            "p": p,
            "dimension": dimension,
            "k": res.get(_K),
            # accepted and echoed for old scripts; the closed form draws nothing
            "seed": res.get(_EQUIV_SEED),
        },
        "estimate": estimate.estimate,
        "lower": estimate.lower,
        "iterations": estimate.iterations,
        "witness": [float(v) for v in estimate.witness],
    }
    if pair == "d-vs-lp":
        exact = equiv_to_lp_exact(weights, p, dimension)
        print(f"exact         {exact!r}")
        print(f"difference    {abs(exact - estimate.estimate)!r}")
        payload["exact"] = exact
        payload["abs_difference"] = abs(exact - estimate.estimate)
    out = _resolve_out_path(res.get(OUT))
    if out:
        _write_json(out, payload)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------

_COMMANDS = (
    ("norm", "evaluate norms of one vector", _NORM_OPTIONS, _cmd_norm),
    ("verify", "run a statement's verification grid", _VERIFY_OPTIONS, _cmd_verify),
    ("construct", "print a block scheme or selected section sizes",
     _CONSTRUCT_OPTIONS, _cmd_construct),
    ("equiv", "exact norm-domination constant: the best of the N step vectors",
     _EQUIV_OPTIONS, _cmd_equiv),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzkit",
        description="Lorentz sequence space norms, block constructions and "
        "inequality verification grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, func in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        if func is _cmd_verify:
            command.add_argument("statement", choices=STATEMENT_IDS)
        add_options(command, options)
        command.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, GrowthCutoffError, SchemeOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
