"""Command-line interface: ``norm``, ``verify``, ``construct`` and ``equiv``.

Each subcommand is a tuple of :class:`Mode` records, each naming the
:class:`~lorentzkit.options.Param` keys it takes: ``verify`` has one mode
per statement of :data:`lorentzkit.verify.STATEMENTS`, ``equiv`` one per
``--pair``, ``construct`` one per selecting option and ``norm`` just one.
The parser is generated from the records, and one rule resolves every
mode's keys (:meth:`lorentzkit.options.Resolver.resolve`): flag, then
``key = value`` line in the ``--config`` file, then default, where a flag
for one of two alternatives wins over the file's value for the other.  An
option of another mode is refused (``X does not apply to <mode>``), and so
is a missing required key (``<mode> requires <flag>``).
``LORENTZKIT_OUT_DIR`` supplies a directory for bare output filenames (the
only environment knob).  Exit codes: 0 on success/pass, 1 when a
verification found violations, 2 on usage or configuration errors and when
memory runs out.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .constants import (
    GrowthCutoffError,
    averaged_norm_descriptor,
    domination_constant,
    equiv_to_lp_exact,
    lorentz_norm_descriptor,
    lp_norm_descriptor,
    select_block_counts,
)
from .blocks import SchemeOverflowError
from .options import (
    REQUIRED,
    Option,
    Param,
    Resolver,
    UsageError,
    _parse_bool,
    _parse_dense,
    _parse_path,
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
    dump_json,
    run_grid,
    _scheme_from_grid,
)
from .weights import WeightSequence

OUT_DIR_ENV_VAR = "LORENTZKIT_OUT_DIR"

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2

_OUT = Param("out", None, Option(("--out",), _parse_path))

#: a mode's exit code and the writer of its ``--out`` document
Outcome = Tuple[int, Callable[[str], None]]


class Mode(NamedTuple):
    """One way to run a subcommand; ``run(values, given)`` prints the result
    (``given``: the keys a flag or the config file set)."""

    name: str
    params: Tuple[Param, ...]
    run: Callable[[Dict, Dict], Outcome]


def _resolve_out_path(path: str) -> str:
    if os.path.dirname(path):
        return path
    return os.path.join(os.environ.get(OUT_DIR_ENV_VAR, ""), path)


def _norm(values: Dict, given: Dict) -> Outcome:
    theta, p, vector = values["theta"], values["p"], values["vector"]
    value = lorentz_norm(vector, SpaceParams(p=p, weights=WeightSequence(theta)))
    plain = lp_norm(vector, p)
    ratio = plain / value if value > 0 else float("nan")
    print(f"support size      {len(vector)}")
    print(f"lorentz norm      {value!r}  (theta={theta}, p={p})")
    print(f"lp norm           {plain!r}  (p={p})")
    print(f"ratio lp/lorentz  {ratio!r}")
    return EXIT_PASS, partial(dump_json, doc={
        "command": "norm",
        "config": {key: given[key] for key in ("theta", "p") if key in given},
        "support": len(vector),
        "lorentz_norm": value,
        "lp_norm": plain,
        # undefined for the zero vector, and JSON has no NaN
        "ratio": ratio if value > 0 else None,
    })


_NORM_MODES = (Mode("norm", (
    Param("theta", REQUIRED, THETA),
    Param("p", 1.0, P),
    Param("vector", REQUIRED, Option(("--dense",), _parse_dense, metavar="V1,V2,..."),
          alternative=Option(("--sparse",), _parse_sparse, metavar="IDX:VAL,...")),
), _norm),)


def _verify(statement: str, values: Dict, given: Dict) -> Outcome:
    report = run_grid(statement, given, values["tol"])
    print(f"statement     {report.statement}")
    print(f"instances     {report.instances}")
    print(f"violations    {len(report.violations)}")
    print(f"min slack     {report.min_slack:.6e}")
    if report.min_slack_instance is not None:
        print(f"at            {report.min_slack_instance.params}")
    if values["timing"]:
        print(f"runtime_ms    {report.runtime_ms:.1f}")
    print(f"result        {'PASS' if report.passed else 'FAIL'}")
    if values["csv"] is not None:
        report.write_csv(_resolve_out_path(values["csv"]))
    code = EXIT_PASS if report.passed else EXIT_VIOLATIONS
    return code, partial(report.write_json, include_timing=values["timing"])


_VERIFY_MODES = tuple(
    Mode(statement, spec.params, partial(_verify, statement))
    for statement, spec in STATEMENTS.items()
)


def _scheme(values: Dict, given: Dict) -> Outcome:
    scheme = _scheme_from_grid(values)
    print(f"{'level':>6}  {'length':>14}  {'count':>6}  {'offset_end':>16}")
    for k in range(1, scheme.levels + 1):
        print(
            f"{k:>6}  {scheme.lengths[k - 1]:>14}  {scheme.counts[k - 1]:>6}  "
            f"{scheme.offsets[k]:>16}"
        )
    stagger = scheme.stagger_ratio()
    print(f"total support   {scheme.total_support}")
    print(f"stagger ratio   {'n/a' if stagger is None else repr(stagger)}")
    return EXIT_PASS, partial(dump_json, doc={
        "command": "construct",
        "mode": "scheme",
        "config": given,
        "lengths": list(scheme.lengths),
        "counts": list(scheme.counts),
        "offsets": list(scheme.offsets),
        "stagger_ratio": stagger,
    })


def _select_counts(values: Dict, given: Dict) -> Outcome:
    weights = WeightSequence(values["theta"])
    selection = select_block_counts(weights, values["p"], values["select_counts"])
    print(f"{'k':>4}  {'N_k':>10}  {'ratio':>18}")
    for k, (n, ratio) in enumerate(zip(selection.counts, selection.ratios), 1):
        print(f"{k:>4}  {n:>10}  {ratio:>18.12f}")
    if selection.proxy:
        print(
            "note: p > 1 counts use the norm-ratio proxy "
            "(the exact escape criterion is specific to p = 1)"
        )
    return EXIT_PASS, partial(dump_json, doc={
        "command": "construct",
        "mode": "select-counts",
        "config": given,
        "counts": list(selection.counts),
        "ratios": list(selection.ratios),
        "proxy": selection.proxy,
    })


#: each mode is named by its first option, which selects it
_CONSTRUCT_MODES = (
    Mode("construct --corollary-levels", (Param("corollary_levels", REQUIRED, COROLLARY_LEVELS),),
         _scheme),
    Mode("construct --lengths",
         (Param("lengths", REQUIRED, LENGTHS), Param("counts", None, COUNTS)), _scheme),
    Mode("construct --select-counts", (
        Param("select_counts", REQUIRED,
              Option(("--select-counts", "--select-counts-K"), int, metavar="LEVELS")),
        Param("theta", REQUIRED, THETA),
        Param("p", 1.0, P),
    ), _select_counts),
)


def _construct_mode(res: Resolver) -> str:
    """The first mode whose selecting option is set; resolving it rejects the others'."""
    for mode in _CONSTRUCT_MODES:
        if res.lookup(mode.params[0].option)[0]:
            return mode.name
    names = ", ".join(mode.params[0].option.flags[0] for mode in _CONSTRUCT_MODES)
    raise UsageError(f"choose exactly one of {names}")


def _equiv(pair: str, make_a, exact, values: Dict, given: Dict) -> Outcome:
    theta, p, dimension = values["theta"], values["p"], values["dimension"]
    weights = WeightSequence(theta)
    norm_a = make_a(weights, p, values)
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
    doc = {
        "command": "equiv",
        "pair": pair,
        "config": {
            "theta": theta,
            "p": p,
            "dimension": dimension,
            "k": values.get("k"),
            # accepted and echoed for old scripts; the closed form draws nothing
            "seed": values["seed"],
        },
        "estimate": estimate.estimate,
        "lower": estimate.lower,
        "iterations": estimate.iterations,
        "witness": [float(v) for v in estimate.witness],
    }
    if exact is not None:
        exact = exact(weights, p, dimension)
        print(f"exact         {exact!r}")
        print(f"difference    {abs(exact - estimate.estimate)!r}")
        doc.update(exact=exact, abs_difference=abs(exact - estimate.estimate))
    return EXIT_PASS, partial(dump_json, doc=doc)


_EQUIV_PARAMS = (
    Param("theta", REQUIRED, THETA),
    Param("p", 1.0, P),
    Param("dimension", REQUIRED, Option(("--dimension", "-N", "--N"), int)),
    Param("seed", None, Option(("--seed",), int, help="echoed in the report; changes nothing")),
)
#: each pair: norm A of ``(weights, p, values)`` against the Lorentz norm B,
#: the closed form printed next to the constant, and the pair's own keys
_EQUIV_MODES = tuple(
    Mode(pair, _EQUIV_PARAMS + extra, partial(_equiv, pair, make_a, exact))
    for pair, make_a, exact, extra in (
        ("d-vs-lp", lambda weights, p, values: lp_norm_descriptor(p), equiv_to_lp_exact, ()),
        ("d-vs-d", lambda weights, p, values: lorentz_norm_descriptor(weights, p), None, ()),
        ("dk-vs-d", lambda weights, p, values: averaged_norm_descriptor(weights, p, values["k"]),
         None, (Param("k", REQUIRED, Option(("--k",), int, help="averaging window for dk-vs-d")),)),
    )
)
_PAIR = Param("pair", REQUIRED, Option(("--pair",), str,
                                       choices=tuple(m.name for m in _EQUIV_MODES)))


# ---------------------------------------------------------------------------
# The subcommands.
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """A subcommand: its modes, the name of the one to run, and the keys all take."""

    name: str
    help: str
    modes: Tuple[Mode, ...]
    choose: Callable[[Resolver], str]
    shared: Tuple[Param, ...] = (_OUT,)

    def options(self, *extra: Param) -> Tuple[Option, ...]:
        """The options of every mode's keys and of ``extra``, once each."""
        params = [param for mode in self.modes for param in mode.params] + list(extra)
        return tuple(dict.fromkeys(opt for param in params for opt in param.options))

    def run(self, args: argparse.Namespace) -> int:
        res = Resolver(args, self.options(*self.shared))
        shared = res.resolve(self.shared, (), self.name)[0]
        mode = {mode.name: mode for mode in self.modes}[self.choose(res)]
        values, given = res.resolve(mode.params, self.options(), mode.name)
        code, write = mode.run({**shared, **values}, given)
        if shared["out"] is not None:
            write(_resolve_out_path(shared["out"]))
        return code


_COMMANDS = (
    Command("norm", "evaluate norms of one vector", _NORM_MODES, lambda res: "norm"),
    Command("verify", "run a statement's verification grid", _VERIFY_MODES,
            lambda res: res.args.statement, (
                Param("tol", DEFAULT_TOLERANCE, Option(("--tol",), float)),
                Param("csv", None, Option(("--csv",), _parse_path)),
                Param("timing", False, Option(("--timing",), _parse_bool)),
                _OUT,
            )),
    Command("construct", "print a block scheme or selected section sizes",
            _CONSTRUCT_MODES, _construct_mode),
    Command("equiv", "exact norm-domination constant: the best of the N step vectors",
            _EQUIV_MODES, lambda res: res.lookup(_PAIR.option)[1], (_PAIR, _OUT)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzkit",
        description="Lorentz sequence space norms, block constructions and "
        "inequality verification grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub_parser = sub.add_parser(command.name, help=command.help)
        if command.modes is _VERIFY_MODES:
            sub_parser.add_argument("statement", choices=STATEMENT_IDS)
        add_options(sub_parser, command.options(*command.shared))
        sub_parser.set_defaults(run=command.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ValueError, TypeError, GrowthCutoffError, SchemeOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
