"""Command-line interface: ``norm``, ``verify``, ``construct`` and ``equiv``.

Each subcommand is a tuple of :class:`Mode` records, each naming the
:class:`~lorentzkit.options.Param` keys it takes: ``verify`` has one mode
per statement of :data:`lorentzkit.verify.STATEMENTS`, ``equiv`` one per
``--pair``, ``construct`` one per selecting option and ``norm`` just one.
The parser is generated from the records of the subcommand run alone, and
each runner imports the library module it calls, so a call loads only the
modules it runs (``verify``'s records load :mod:`lorentzkit.verify`).  One
rule resolves every mode's keys (:meth:`lorentzkit.options.Resolver.resolve`):
flag, then ``key = value`` line in the ``--config`` file, then default, where
a flag for one of two alternatives wins over the file's value for the other.
An option of another mode is refused (``X does not apply to <mode>``), and so
is a missing required key (``<mode> requires <flag>``).  A flag's value that
starts with ``-`` is read in ``--flag value`` as in ``--flag=value``
(:func:`lorentzkit.options.attach_dashed_values`).
``LORENTZKIT_OUT_DIR`` supplies a directory for bare output filenames (the
only environment knob).  Exit codes: 0 on success/pass, 1 when a
verification found violations, 2 on usage or configuration errors, on every
library refusal (every refusal is a ``ValueError``) and when memory runs out.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
import threading
from functools import cache, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .options import (
    COROLLARY_LEVELS,
    COUNTS,
    DEFAULT_TOLERANCE,
    LENGTHS,
    P,
    REQUIRED,
    THETA,
    Option,
    Param,
    Resolver,
    UsageError,
    _parse_bool,
    _parse_dense,
    _parse_path,
    _parse_sparse,
    add_options,
    attach_dashed_values,
    dump_json,
)

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
    from .space import SpaceParams, lorentz_norm, lp_norm
    from .weights import WeightSequence

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
    from .verify import run_grid

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


@cache
def _verify_modes() -> Tuple[Mode, ...]:
    """One mode per statement of :data:`lorentzkit.verify.STATEMENTS`."""
    from .verify import STATEMENTS

    return tuple(
        Mode(statement, spec.params, partial(_verify, statement))
        for statement, spec in STATEMENTS.items()
    )


def _scheme(values: Dict, given: Dict) -> Outcome:
    from .blocks import _scheme_from_grid

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
    from .constants import select_block_counts
    from .weights import WeightSequence

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
    from . import constants
    from .weights import WeightSequence

    theta, p, dimension = values["theta"], values["p"], values["dimension"]
    weights = WeightSequence(theta)
    norm_a = make_a(constants, weights, p, values)
    norm_b = constants.lorentz_norm_descriptor(weights, p)
    estimate = constants.domination_constant(norm_a, norm_b, dimension)
    print(f"pair          {pair}  (A={norm_a.label}, B={norm_b.label})")
    print(f"dimension     {dimension}")
    print(f"estimate      {estimate.estimate!r}")
    print(f"lower bound   {estimate.lower!r}")
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
        "witness": [float(v) for v in estimate.witness],
    }
    if exact is not None:
        exact = exact(constants, weights, p, dimension)
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
#: each pair: norm A of ``(constants, weights, p, values)`` against the
#: Lorentz norm B, the closed form of ``(constants, weights, p, dimension)``
#: printed next to the constant, and the pair's own keys; ``constants`` is
#: the module :mod:`lorentzkit.constants`, imported by the call
_EQUIV_MODES = tuple(
    Mode(pair, _EQUIV_PARAMS + extra, partial(_equiv, pair, make_a, exact))
    for pair, make_a, exact, extra in (
        ("d-vs-lp", lambda c, weights, p, values: c.lp_norm_descriptor(p),
         lambda c, weights, p, dimension: c.equiv_to_lp_exact(weights, p, dimension), ()),
        ("d-vs-d", lambda c, weights, p, values: c.lorentz_norm_descriptor(weights, p), None, ()),
        ("dk-vs-d", lambda c, weights, p, values: c.averaged_norm_descriptor(weights, p, values["k"]),
         None, (Param("k", REQUIRED, Option(("--k",), int, help="averaging window for dk-vs-d")),)),
    )
)
_PAIRS = tuple(mode.name for mode in _EQUIV_MODES)


def _parse_pair(text: str) -> str:
    """A name in :data:`_PAIRS`; any other is refused in argparse's wording."""
    if text not in _PAIRS:
        raise UsageError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, _PAIRS))})")
    return text


_PAIR = Param("pair", REQUIRED, Option(("--pair",), _parse_pair, metavar="{%s}" % ",".join(_PAIRS)))


# ---------------------------------------------------------------------------
# The subcommands.
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """A subcommand: its modes (``load()`` returns them, importing the module
    that declares them), the name of the one to run, and the keys all take."""

    name: str
    help: str
    load: Callable[[], Tuple[Mode, ...]]
    choose: Callable[[Resolver], str]
    shared: Tuple[Param, ...] = (_OUT,)

    @property
    def modes(self) -> Tuple[Mode, ...]:
        return self.load()

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
    Command("norm", "evaluate norms of one vector", lambda: _NORM_MODES, lambda res: "norm"),
    Command("verify", "run a statement's verification grid", _verify_modes,
            lambda res: res.args.statement, (
                Param("tol", DEFAULT_TOLERANCE, Option(("--tol",), float)),
                Param("csv", None, Option(("--csv",), _parse_path)),
                Param("timing", False, Option(("--timing",), _parse_bool)),
                _OUT,
            )),
    Command("construct", "print a block scheme or selected section sizes",
            lambda: _CONSTRUCT_MODES, _construct_mode),
    Command("equiv", "exact norm-domination constant: the best of the N step vectors",
            lambda: _EQUIV_MODES, lambda res: res.lookup(_PAIR.option)[1], (_PAIR, _OUT)),
)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, but the arguments of ``command``'s
    alone (of every subcommand's when it is None), so that only its modes
    are loaded."""
    parser = argparse.ArgumentParser(
        prog="lorentzkit",
        description="Lorentz sequence space norms, block constructions and "
        "inequality verification grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        sub_parser = sub.add_parser(cmd.name, help=cmd.help)
        if command in (None, cmd.name):
            if cmd.name == "verify":
                sub_parser.add_argument("statement", choices=[mode.name for mode in cmd.modes])
            add_options(sub_parser, cmd.options(*cmd.shared))
            sub_parser.set_defaults(run=cmd.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the top-level parser takes no option but -h, so argparse runs the
    # subcommand that the first argument naming one names
    commands = {cmd.name: cmd for cmd in _COMMANDS}
    name = next((arg for arg in argv if arg in commands), "")
    parser = _build_parser(name)
    if name:
        argv = attach_dashed_values(argv, commands[name].options(*commands[name].shared))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
    return EXIT_USAGE


def entry() -> int:
    """:func:`main` as a process, which ends without interpreter teardown.

    After ``main`` it runs the atexit handlers, flushes stdout and stderr and
    leaves through ``os._exit``, so the OS reclaims the objects numpy and
    lorentzkit created instead of finalization freeing them one by one.
    It returns the exit code instead, for a plain exit, when a flush fails
    (a reader closed the pipe: the exit then reports it as before) or while
    another thread is alive (a plain exit joins it first).
    """
    code = main()
    if threading.active_count() > 1:
        return code
    atexit._run_exitfuncs()  # runs each handler once: it also unregisters them
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(entry())
