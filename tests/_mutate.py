"""A mutation probe: does a test selection notice when an operator changes?

Each mutant swaps one arithmetic or comparison operator (``+`` and ``-``,
``*`` and ``/``, ``<`` and ``<=``, ...) inside the named functions of one
module.  The probe copies ``src/`` to a temporary directory once, writes each
mutant over the copy of the module, and runs the pytest selection against
the copy in a subprocess; the working tree is never written.  A mutant is
*killed* when the selection fails, *survives* when it passes and *timed out*
when it runs past ``_TIMEOUT`` seconds.  The selection must pass on the
unmutated copy first, or no count means anything.

    python tests/_mutate.py lorentzkit/weights.py WeightSequence._em_derivatives \\
        tests/test_weights.py::TestEulerMaclaurin::test_bernoulli_terms_match_mpmath

prints the three counts and each survivor's line.  ``EQUIVALENT`` lists the
survivors known to compute the same values as the original, each with its
reason; any other survivor is a blind spot of the selection.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: seconds a mutant's selection may run: a swap can turn a loop endless
_TIMEOUT = 60.0

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Pow: ast.Mult, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}

#: (function, stripped source line, swap) -> why the mutant cannot change a result
EQUIVALENT: Dict[Tuple[str, str, str], str] = {
    ("WeightSequence._em", "total = np.where(growth > 1.0, far, near) / e - 0.5 * f_a * drop",
     "Gt -> GtE"): "at growth == 1.0 both branches are accurate forms of one integral",
    ("WeightSequence.window_sums", "tail = np.flatnonzero((count > 0) & ~single.ravel())",
     "Gt -> GtE"): "it adds only windows with count == 0, and _em(a, 0.0) is exactly +0.0",
    ("lorentz_pnorm_pow_runlength", "step = max(1, _EM_BLOCK // max(1, rows.shape[1]))",
     "FloorDiv -> Mult"): "row blocks bound the temporaries only; every step is row-local",
    ("lorentz_pnorm_pow_runlength",
     "tied = ((block[:, 1:] == block[:, :-1]) & (block[:, 1:] > 0.0)",
     "Gt -> GtE"): "the stable order is always right; the test only spares rows whose ties "
                   "are zero blocks, which take no length in either order",
}


class Mutant(NamedTuple):
    function: str
    lineno: int
    line: str
    swap: str
    status: str  # "killed", "survived" or "timed out"

    @property
    def explained(self) -> bool:
        return (self.function, self.line, self.swap) in EQUIVALENT


def _functions(tree: ast.Module, names: Sequence[str]) -> List[Tuple[str, ast.AST]]:
    """The named function nodes, by qualified name (``Class.method``)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and name in names:
                    found[name] = child
                visit(child, name + ".")

    visit(tree, "")
    missing = [n for n in names if n not in found]
    if missing:
        raise ValueError(f"no function {', '.join(missing)} in the module")
    return [(n, found[n]) for n in names]


def _sites(function: ast.AST) -> List[Tuple[ast.AST, int]]:
    """Every swappable operator in ``function``: ``(node, i)``, where ``i``
    picks the comparison of a chained ``Compare`` (0 otherwise)."""
    sites = []
    for node in ast.walk(function):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            sites.append((node, 0))
        elif isinstance(node, ast.Compare):
            sites.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
    return sites


def _swap(node: ast.AST, i: int) -> str:
    """Swap the operator in place; return ``"Old -> New"``."""
    if isinstance(node, ast.Compare):
        old = node.ops[i]
        node.ops[i] = SWAPS[type(old)]()
        new = node.ops[i]
    else:
        old = node.op
        node.op = new = SWAPS[type(old)]()
    return f"{type(old).__name__} -> {type(new).__name__}"


def _run(selection: Sequence[str], src: Path) -> str:
    # no bytecode: a mutant of the same size and second as the last would
    # otherwise load the last one's cached code; hypothesis's pytest plugin
    # (reporting only, @given runs without it) costs a second per start
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-p", "no:hypothesispytest", *selection],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if child.returncode == 0 else "killed"


def probe(module: str, functions: Sequence[str], selection: Sequence[str]) -> List[Mutant]:
    """One mutant per operator of ``functions`` in ``src/<module>``, each run
    against ``selection``; raises ``RuntimeError`` if the selection does not
    pass on the unmutated copy."""
    source = (ROOT / "src" / module).read_text()
    lines = source.splitlines()
    count = sum(len(_sites(f)) for _, f in _functions(ast.parse(source), functions))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / module
        if _run(selection, src) != "survived":
            raise RuntimeError(f"the selection does not pass on the unmutated {module}")
        mutants = []
        for k in range(count):
            tree = ast.parse(source)  # a fresh tree: one swap per mutant
            sites = [(name, site) for name, f in _functions(tree, functions) for site in _sites(f)]
            name, (node, i) = sites[k]
            swap = _swap(node, i)
            target.write_text(ast.unparse(tree))
            line = lines[node.lineno - 1].strip()
            mutants.append(Mutant(name, node.lineno, line, swap, _run(selection, src)))
    return mutants


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module path under src/, e.g. lorentzkit/weights.py")
    parser.add_argument("functions", help="comma-separated qualified names, e.g. WeightSequence._em")
    parser.add_argument("selection", nargs="+", help="pytest node ids or paths")
    args = parser.parse_args(argv)
    mutants = probe(args.module, args.functions.split(","), args.selection)
    counts = {s: sum(m.status == s for m in mutants) for s in ("killed", "survived", "timed out")}
    print(f"{len(mutants)} mutants: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    for m in mutants:
        if m.status == "survived":
            note = f"  (equivalent: {EQUIVALENT[m.function, m.line, m.swap]})" if m.explained else ""
            print(f"  survived  {args.module}:{m.lineno} {m.function}: {m.swap}: {m.line}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
