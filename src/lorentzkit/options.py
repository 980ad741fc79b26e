"""Command-line options: literal parsers, option records and their resolution.

An :class:`Option` is the one description of a setting: its flag and
aliases, the parser that reads its value, and its config key (the flag's
name with underscores).  The argparse flags are generated from the records
and a ``key = value`` config line goes through the same parser, so a flag
and its config key cannot disagree.  A :class:`Param` is a key with its
default and the options that set it, and :meth:`Resolver.resolve` looks
every key up by one rule: flag, then config file, then default.
:func:`dump_json` writes every ``--out`` document, the CLI's and
:mod:`lorentzkit.verify`'s reports alike, as canonical JSON.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .space import FiniteVector


class UsageError(ValueError, argparse.ArgumentTypeError):
    """Bad flag/config input; reported on stderr with exit code 2.

    As an ``ArgumentTypeError`` it makes argparse print a flag parser's own
    reason (``argument --theta-grid: grid literal must be ...``), the same
    reason a config line gets.
    """


# ---------------------------------------------------------------------------
# Literal parsers.  Each reports bad input as a UsageError; any other
# ValueError shows as argparse's "invalid <parser name> value", so these
# names are part of the command line's output.
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
        if not np.isfinite([start, stop, step]).all():
            raise UsageError(f"grid literal {text!r} must have a finite start, stop and step")
        if step <= 0 or stop < start:
            raise UsageError(f"grid literal {text!r} must ascend with positive step")
        steps = (stop - start) / step  # inf where the step is too small for float64
        if np.isfinite(steps) and abs(start + step * round(steps) - stop) > 1e-9:
            raise UsageError(f"grid literal {text!r}: step does not divide the range")
        try:
            return [float(v) for v in np.linspace(start, stop, round(steps) + 1)]
        except (OverflowError, ValueError, IndexError, MemoryError):  # numpy refuses the count
            raise UsageError(f"grid literal {text!r}: too many points ({steps + 1:.3g})") from None
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
    values = _parse_float_list(text)
    try:
        return FiniteVector.from_dense(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


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


def _parse_path(text: str) -> str:
    """A file path.  An empty one is refused rather than taken for an absent
    option, which would silently write or read nothing."""
    if not text:
        raise UsageError("empty path")
    return text


def _parse_bool(text: str) -> bool:
    norm = text.strip().lower()
    if norm in {"1", "true", "yes", "on"}:
        return True
    if norm in {"0", "false", "no", "off"}:
        return False
    raise UsageError(f"bad boolean {text!r}")


# ---------------------------------------------------------------------------
# Option and key records.
# ---------------------------------------------------------------------------


class Option(NamedTuple):
    """A flag with its aliases, the parser of its value, and its config key.

    A boolean option (``parse=_parse_bool``) is a switch on the command line
    that takes no value; its config line takes one.
    """

    flags: Tuple[str, ...]
    parse: Callable[[str], Any]
    help: Optional[str] = None
    metavar: Optional[str] = None

    @property
    def dest(self) -> str:
        """The argparse destination, which is also the config key."""
        return self.flags[0].lstrip("-").replace("-", "_")


#: the options that both ``verify``'s statements and the other subcommands take
THETA = Option(("--theta",), float)
P = Option(("--p",), float)
COROLLARY_LEVELS = Option(
    ("--corollary-levels", "--corollary-K"), int,
    help="use the inductive scheme with this many levels",
)
LENGTHS = Option(("--lengths",), _parse_int_list)
COUNTS = Option(("--counts",), _parse_int_list)

#: the default of ``--tol``, the slack below zero a verification forgives
DEFAULT_TOLERANCE = 1e-12

#: the default of a key that must be given
REQUIRED = object()


class Param(NamedTuple):
    """A key, its default (or :data:`REQUIRED`) and the options that set it.

    ``point``, if given, is a second option that sets the key to a
    one-element list (``--theta`` for ``theta_values``), ``alternative`` one
    that sets it as it is (``--sparse`` next to ``--dense``).
    """

    key: str
    default: object
    option: Option
    point: Optional[Option] = None
    alternative: Optional[Option] = None

    @property
    def options(self) -> Tuple[Option, ...]:
        return tuple(filter(None, (self.point, self.option, self.alternative)))


def add_options(parser: argparse.ArgumentParser, options: Iterable[Option]) -> None:
    """Add one argparse argument per option, then ``--config``."""
    for opt in options:
        if opt.parse is _parse_bool:
            parser.add_argument(
                *opt.flags, dest=opt.dest, action="store_const", const=True,
                default=None, help=opt.help,
            )
        else:
            parser.add_argument(
                *opt.flags, dest=opt.dest, type=opt.parse, help=opt.help,
                metavar=opt.metavar,
            )
    parser.add_argument("--config", type=_parse_path)


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


class Resolver:
    """Values of one subcommand's options: flag > config file > default."""

    def __init__(self, args: argparse.Namespace, options: Sequence[Option]):
        self.args = args
        self.file_entries: Dict[str, str] = {}
        if getattr(args, "config", None) is not None:
            self.file_entries = _load_config_file(args.config)
        unknown = set(self.file_entries) - {opt.dest for opt in options}
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def _flag(self, opt: Option):
        return getattr(self.args, opt.dest, None)

    def _file(self, opt: Option):
        text = self.file_entries.get(opt.dest)
        if text is None:
            return None
        try:
            return opt.parse(text)
        except UsageError as exc:
            reason = str(exc)
        except ValueError:
            reason = f"invalid {opt.parse.__name__} value: {text!r}"
        raise UsageError(f"{opt.flags[0]} (config key {opt.dest}): {reason}")

    def lookup(self, *options: Option) -> Tuple[Optional[Option], Any]:
        """The one of ``options`` that is set, and its value; ``(None, None)`` if none is.

        The options set one value, so giving two of them on the command line,
        or two in the config file, is an error; a flag wins over the file.
        """
        for source in (self._flag, self._file):
            found = [(opt, value) for opt in options if (value := source(opt)) is not None]
            if len(found) > 1:
                raise UsageError(
                    f"give either {found[0][0].flags[0]} or {found[1][0].flags[0]}, not both"
                )
            if found:
                return found[0]
        return None, None

    def resolve(
        self, params: Sequence[Param], others: Iterable[Option], context: str
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """``(values, given)`` of ``params``, ``given`` the keys a flag or the file set.

        Any of ``others`` set but taken by no param does not apply to ``context``
        (the mode's name), and a :data:`REQUIRED` key left unset is an error.
        """
        applies = {opt for param in params for opt in param.options}
        for opt in [opt for opt in others if opt not in applies]:
            if self._flag(opt) is not None or opt.dest in self.file_entries:
                raise UsageError(f"{opt.flags[0]} does not apply to {context}")
        given: Dict[str, Any] = {}
        for param in params:
            option, value = self.lookup(*param.options)
            if option is not None:
                given[param.key] = [value] if option is param.point else value
            elif param.default is REQUIRED:
                flags = " or ".join(opt.flags[0] for opt in param.options)
                raise UsageError(f"{context} requires {flags}")
        return {**{param.key: param.default for param in params}, **given}, given


# ---------------------------------------------------------------------------
# Canonical JSON, the form of every ``--out`` document.
# ---------------------------------------------------------------------------


def _plain(value):
    """``json``'s ``default`` hook: a numpy scalar or array as the Python
    value or nested list it holds."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(doc: Dict) -> str:
    """Canonical JSON: keys sorted, no NaN or infinity."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"


def dump_json(path, doc: Dict) -> None:
    """Write ``doc`` to ``path`` as canonical JSON, serialized before the file
    is opened, so a document that cannot be serialized leaves no file."""
    text = _dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
