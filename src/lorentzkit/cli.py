"""Command-line interface.

Four subcommands:

* ``norm`` — evaluate the Lorentz and plain ``l_p`` norms of one vector.
* ``verify`` — run a statement's verification grid and report violations.
* ``construct`` — print block schemes or selected per-level section sizes.
* ``equiv`` — the exact norm-domination constant between two norms.

Option values resolve as: command-line flag, then ``key=value`` line in the
``--config`` file, then built-in default.  ``LORENTZKIT_OUT_DIR`` supplies a
directory for bare output filenames (that is the only environment knob).
Exit codes: 0 on success/pass, 1 when a verification found violations, 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

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
from .space import FiniteVector, SpaceParams, lorentz_norm, lp_norm
from .verify import DEFAULT_TOLERANCE, STATEMENT_IDS, run_grid, _py
from .weights import WeightSequence

OUT_DIR_ENV_VAR = "LORENTZKIT_OUT_DIR"

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad flag/config input; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Literal parsers (shared by flags and config files).
# ---------------------------------------------------------------------------


def _parse_float_list(text: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad float list {text!r}: {exc}") from None
    if not values:
        raise UsageError(f"empty float list {text!r}")
    return values


def _parse_grid(text: str) -> List[float]:
    """``start:stop:step`` or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid literal must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"bad grid literal {text!r}: {exc}") from None
        if step <= 0 or stop < start:
            raise UsageError(f"grid literal {text!r} must ascend with positive step")
        count = int(round((stop - start) / step)) + 1
        if abs(start + step * (count - 1) - stop) > 1e-9:
            raise UsageError(f"grid literal {text!r}: step does not divide the range")
        return [float(v) for v in np.linspace(start, stop, count)]
    return _parse_float_list(text)


def _parse_int_list(text: str) -> List[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}: {exc}") from None
    if not values:
        raise UsageError(f"empty integer list {text!r}")
    return values


def _parse_dense(text: str) -> FiniteVector:
    return FiniteVector.from_dense(_parse_float_list(text))


def _parse_sparse(text: str) -> FiniteVector:
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise UsageError(f"sparse entries are index:value, got {tok!r}")
        idx_s, val_s = tok.split(":", 1)
        try:
            pairs.append((int(idx_s), float(val_s)))
        except ValueError as exc:
            raise UsageError(f"bad sparse entry {tok!r}: {exc}") from None
    if not pairs:
        raise UsageError(f"empty sparse vector literal {text!r}")
    try:
        return FiniteVector.from_pairs(pairs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_bool(text: str) -> bool:
    norm = text.strip().lower()
    if norm in {"1", "true", "yes", "on"}:
        return True
    if norm in {"0", "false", "no", "off"}:
        return False
    raise UsageError(f"bad boolean {text!r}")


# ---------------------------------------------------------------------------
# Config file + option resolution.
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> Dict[str, str]:
    entries: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return entries


class _Resolver:
    """flag > config file > default, with per-key string converters."""

    def __init__(self, args: argparse.Namespace, converters: Dict[str, Callable]):
        self.args = args
        self.converters = converters
        self.file_entries: Dict[str, str] = {}
        if getattr(args, "config", None):
            self.file_entries = _load_config_file(args.config)
        unknown = set(self.file_entries) - set(converters)
        if unknown:
            raise UsageError(
                f"unknown config keys: {', '.join(sorted(unknown))}"
            )

    def get(self, key: str, default=None):
        flag_value = getattr(self.args, key, None)
        if flag_value is not None:
            return flag_value
        if key in self.file_entries:
            return self.converters[key](self.file_entries[key])
        return default

    def effective(self, keys: List[str]) -> Dict:
        return {k: _py(self.get(k)) for k in keys if self.get(k) is not None}


def _resolve_out_path(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    out_dir = os.environ.get(OUT_DIR_ENV_VAR, "")
    if out_dir and not os.path.dirname(path):
        return os.path.join(out_dir, path)
    return path


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------

_NORM_CONVERTERS = {
    "theta": float,
    "p": float,
    "dense": _parse_dense,
    "sparse": _parse_sparse,
    "out": str,
}


def _cmd_norm(args: argparse.Namespace) -> int:
    res = _Resolver(args, _NORM_CONVERTERS)
    theta = res.get("theta")
    if theta is None:
        raise UsageError("norm requires --theta")
    p = res.get("p", 1.0)
    dense = res.get("dense")
    sparse = res.get("sparse")
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
    out = _resolve_out_path(res.get("out"))
    if out:
        _write_json(
            out,
            {
                "command": "norm",
                "config": res.effective(["theta", "p"]),
                "support": len(vector),
                "lorentz_norm": value,
                "lp_norm": plain,
                "ratio": ratio,
            },
        )
    return EXIT_PASS


_VERIFY_CONVERTERS = {
    "theta_grid": _parse_grid,
    "p_grid": _parse_float_list,
    "j_max": int,
    "k_max": int,
    "k_samples": int,
    "i_max": int,
    "trials": int,
    "seed": int,
    "max_support": int,
    "corollary_levels": int,
    "lengths": _parse_int_list,
    "counts": _parse_int_list,
    "theta": float,
    "p": float,
    "bound_upper": float,
    "bound_lower": float,
    "levels": int,
    "tol": float,
    "out": str,
    "csv": str,
    "timing": _parse_bool,
}

#: flag dest -> grid key, per statement
_VERIFY_GRID_KEYS = {
    "lemma-3-1": {
        "theta_grid": "theta_values",
        "j_max": "j_max",
        "k_max": "k_max",
        "k_samples": "k_samples",
    },
    "lemma-3-2": {
        "theta_grid": "theta_values",
        "i_max": "i_max",
        "k_max": "k_max",
    },
    "remark-3-3": {
        "theta_grid": "theta_values",
        "p_grid": "p_values",
        "trials": "trials",
        "seed": "seed",
        "max_support": "max_support",
    },
    "lemma-3-4": {
        "corollary_levels": "corollary_levels",
        "lengths": "lengths",
        "counts": "counts",
        "theta": "theta",
        "bound_upper": "A",
        "bound_lower": "B",
        "levels": "levels",
    },
    "theorem-3-5": {
        "corollary_levels": "corollary_levels",
        "lengths": "lengths",
        "counts": "counts",
        "theta": "theta",
        "p": "p",
        "trials": "trials",
        "seed": "seed",
        "levels": "levels",
    },
}

_VERIFY_COMMON = {"tol", "out", "csv", "timing", "config"}

#: statements whose grids take a theta list; --theta is accepted there as
#: shorthand for a single-point grid
_THETA_GRID_STATEMENTS = {"lemma-3-1", "lemma-3-2", "remark-3-3"}


def _cmd_verify(args: argparse.Namespace) -> int:
    statement = args.statement
    if statement not in STATEMENT_IDS:
        raise UsageError(
            f"unknown statement {statement!r}; choose from {', '.join(STATEMENT_IDS)}"
        )
    res = _Resolver(args, _VERIFY_CONVERTERS)
    mapping = _VERIFY_GRID_KEYS[statement]
    single_theta = statement in _THETA_GRID_STATEMENTS
    # flags or config keys that belong to other statements are a usage
    # error, not noise
    for dest in _VERIFY_CONVERTERS:
        if dest in _VERIFY_COMMON or dest in mapping:
            continue
        if dest == "theta" and single_theta:
            continue
        if getattr(args, dest, None) is not None or dest in res.file_entries:
            raise UsageError(f"--{dest.replace('_', '-')} does not apply to {statement}")
    grid = {}
    for dest, key in mapping.items():
        value = res.get(dest)
        if value is not None:
            grid[key] = value
    if single_theta:
        theta = res.get("theta")
        if theta is not None:
            if "theta_values" in grid:
                raise UsageError("give either --theta or --theta-grid, not both")
            grid["theta_values"] = [theta]
    tolerance = res.get("tol", DEFAULT_TOLERANCE)
    report = run_grid(statement, grid, tolerance)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"statement     {report.statement}")
    print(f"instances     {report.instances}")
    print(f"violations    {len(report.violations)}")
    print(f"min slack     {report.min_slack:.6e}")
    if report.min_slack_instance is not None:
        print(f"at            {_py(report.min_slack_instance.params)}")
    if res.get("timing", False):
        print(f"runtime_ms    {report.runtime_ms:.1f}")
    print(f"result        {verdict}")
    out = _resolve_out_path(res.get("out"))
    if out:
        report.write_json(out, include_timing=bool(res.get("timing", False)))
    csv_path = _resolve_out_path(res.get("csv"))
    if csv_path:
        report.write_csv(csv_path)
    return EXIT_PASS if report.passed else EXIT_VIOLATIONS


_CONSTRUCT_CONVERTERS = {
    "corollary_levels": int,
    "lengths": _parse_int_list,
    "counts": _parse_int_list,
    "select_counts": int,
    "theta": float,
    "p": float,
    "growth_cutoff": int,
    "out": str,
}


def _cmd_construct(args: argparse.Namespace) -> int:
    res = _Resolver(args, _CONSTRUCT_CONVERTERS)
    levels = res.get("corollary_levels")
    lengths = res.get("lengths")
    select_levels = res.get("select_counts")
    modes = sum(x is not None for x in (levels, lengths, select_levels))
    if modes != 1:
        raise UsageError(
            "choose exactly one of --corollary-levels, --lengths, --select-counts"
        )
    out = _resolve_out_path(res.get("out"))
    if select_levels is not None:
        theta = res.get("theta")
        if theta is None:
            raise UsageError("--select-counts requires --theta")
        p = res.get("p", 1.0)
        selection = select_block_counts(
            WeightSequence(theta), p, select_levels,
            growth_cutoff=res.get("growth_cutoff"),
        )
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
                    "config": res.effective(
                        ["select_counts", "theta", "p", "growth_cutoff"]
                    ),
                    "counts": list(selection.counts),
                    "ratios": list(selection.ratios),
                    "proxy": selection.proxy,
                },
            )
        return EXIT_PASS
    if levels is not None:
        scheme = corollary_scheme(levels)
    else:
        scheme = BlockScheme(lengths, res.get("counts"))
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
                "config": res.effective(["corollary_levels", "lengths", "counts"]),
                "lengths": list(scheme.lengths),
                "counts": list(scheme.counts),
                "offsets": list(scheme.offsets),
                "stagger_ratio": stagger,
            },
        )
    return EXIT_PASS


_EQUIV_CONVERTERS = {
    "pair": str,
    "theta": float,
    "p": float,
    "dimension": int,
    "k": int,
    "seed": int,
    "out": str,
}

_EQUIV_PAIRS = ("d-vs-lp", "d-vs-d", "dk-vs-d")


def _cmd_equiv(args: argparse.Namespace) -> int:
    res = _Resolver(args, _EQUIV_CONVERTERS)
    pair = res.get("pair")
    theta = res.get("theta")
    dimension = res.get("dimension")
    if pair is None or theta is None or dimension is None:
        raise UsageError("equiv requires --pair, --theta and --dimension")
    if pair not in _EQUIV_PAIRS:
        raise UsageError(f"unknown pair {pair!r}; choose from {', '.join(_EQUIV_PAIRS)}")
    p = res.get("p", 1.0)
    weights = WeightSequence(theta)
    if pair == "d-vs-lp":
        norm_a = lp_norm_descriptor(p)
        norm_b = lorentz_norm_descriptor(weights, p)
    elif pair == "d-vs-d":
        norm_a = lorentz_norm_descriptor(weights, p)
        norm_b = lorentz_norm_descriptor(weights, p)
    else:
        k = res.get("k")
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
            "k": res.get("k"),
            # accepted and echoed for old scripts; the closed form draws nothing
            "seed": res.get("seed"),
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
    out = _resolve_out_path(res.get("out"))
    if out:
        _write_json(out, payload)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzkit",
        description="Lorentz sequence space norms, block constructions and "
        "inequality verification grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="evaluate norms of one vector")
    p_norm.add_argument("--theta", type=float)
    p_norm.add_argument("--p", type=float)
    p_norm.add_argument("--dense", type=_parse_dense, metavar="V1,V2,...")
    p_norm.add_argument("--sparse", type=_parse_sparse, metavar="IDX:VAL,...")
    p_norm.add_argument("--out", type=str)
    p_norm.add_argument("--config", type=str)
    p_norm.set_defaults(func=_cmd_norm)

    p_verify = sub.add_parser("verify", help="run a statement's verification grid")
    p_verify.add_argument("statement", choices=STATEMENT_IDS)
    p_verify.add_argument("--theta-grid", dest="theta_grid", type=_parse_grid)
    p_verify.add_argument("--p-grid", dest="p_grid", type=_parse_float_list)
    p_verify.add_argument("--j-max", dest="j_max", type=int)
    p_verify.add_argument("--k-max", dest="k_max", type=int)
    p_verify.add_argument("--k-samples", dest="k_samples", type=int)
    p_verify.add_argument("--i-max", dest="i_max", type=int)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--max-support", dest="max_support", type=int)
    p_verify.add_argument(
        "--corollary-levels", "--corollary-K", dest="corollary_levels", type=int,
        help="use the inductive scheme with this many levels",
    )
    p_verify.add_argument("--lengths", type=_parse_int_list)
    p_verify.add_argument("--counts", type=_parse_int_list)
    p_verify.add_argument("--theta", type=float)
    p_verify.add_argument("--p", type=float)
    p_verify.add_argument(
        "--bound-upper", dest="bound_upper", type=float,
        help="override the upper band constant",
    )
    p_verify.add_argument(
        "--bound-lower", dest="bound_lower", type=float,
        help="override the lower band constant",
    )
    p_verify.add_argument("--levels", type=int)
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--out", type=str)
    p_verify.add_argument("--csv", type=str)
    p_verify.add_argument("--timing", action="store_const", const=True, default=None)
    p_verify.add_argument("--config", type=str)
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = sub.add_parser(
        "construct", help="print a block scheme or selected section sizes"
    )
    p_construct.add_argument(
        "--corollary-levels", "--corollary-K", dest="corollary_levels", type=int
    )
    p_construct.add_argument("--lengths", type=_parse_int_list)
    p_construct.add_argument("--counts", type=_parse_int_list)
    p_construct.add_argument(
        "--select-counts", "--select-counts-K", dest="select_counts",
        type=int, metavar="LEVELS",
    )
    p_construct.add_argument("--theta", type=float)
    p_construct.add_argument("--p", type=float)
    p_construct.add_argument("--growth-cutoff", dest="growth_cutoff", type=int)
    p_construct.add_argument("--out", type=str)
    p_construct.add_argument("--config", type=str)
    p_construct.set_defaults(func=_cmd_construct)

    p_equiv = sub.add_parser(
        "equiv",
        help="exact norm-domination constant: the best of the N step vectors",
    )
    p_equiv.add_argument("--pair", choices=_EQUIV_PAIRS)
    p_equiv.add_argument("--theta", type=float)
    p_equiv.add_argument("--p", type=float)
    p_equiv.add_argument("--dimension", "-N", "--N", dest="dimension", type=int)
    p_equiv.add_argument("--k", type=int, help="averaging window for dk-vs-d")
    p_equiv.add_argument(
        "--seed", type=int, help="echoed in the report; changes nothing"
    )
    p_equiv.add_argument("--out", type=str)
    p_equiv.add_argument("--config", type=str)
    p_equiv.set_defaults(func=_cmd_equiv)

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
