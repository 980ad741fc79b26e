"""The CLI as a process, ``python -W error -m lorentzkit.cli``, against
``cli.main`` in process: the same ``--out`` and ``--csv`` bytes, stdout and
exit code, and nothing on stderr but a usage message.  The process entry
runs the atexit handlers, flushes stdout and stderr and leaves through
``os._exit``, skipping interpreter teardown, except when a flush fails or
another thread is alive; ``cli.main`` only returns its code."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lorentzkit import cli

SRC = Path(cli.__file__).resolve().parents[1]

CALLS = [
    ("verify remark-3-3 --trials 200 --out r.json --csv r.csv", 0),
    ("verify lemma-3-4 --bound-upper 0.9 --bound-lower 0.9 --out r.json --csv r.csv", 1),
    ("verify remark-3-3 --trials 200 --bogus 1 --out r.json", 2),
]


def _python(*args, cwd, stdout=subprocess.PIPE):
    """Run a fresh interpreter on ``args`` with warnings as errors, with this
    ``lorentzkit`` importable, no output directory set, and stdout and
    stderr block-buffered as on a shell's pipes."""
    env = {k: v for k, v in os.environ.items()
           if k not in (cli.OUT_DIR_ENV_VAR, "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def _outputs(directory):
    return {name: (directory / name).read_bytes()
            for name in ("r.json", "r.csv") if (directory / name).exists()}


@pytest.mark.parametrize("args, code", CALLS, ids=[args for args, _ in CALLS])
def test_process_matches_main(args, code, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUT_DIR_ENV_VAR, raising=False)
    inproc, proc = tmp_path / "main", tmp_path / "process"
    inproc.mkdir()
    proc.mkdir()
    monkeypatch.chdir(inproc)
    assert cli.main(args.split()) == code
    want = capsys.readouterr()
    child = _python("-m", "lorentzkit.cli", *args.split(), cwd=proc)
    assert child.returncode == code
    assert (child.stdout, child.stderr) == (want.out, want.err)
    assert _outputs(proc) == _outputs(inproc)
    assert len(_outputs(proc)) == (0 if code == 2 else 2)
    if code == 2:
        assert child.stderr.startswith("usage: lorentzkit")
    else:
        assert child.stderr == ""


#: a child that runs a process entry on ``sys.argv[2:]``: an atexit handler
#: registered before the call writes to stdout and stderr, a module-level
#: object's ``__del__`` writes to stderr when teardown destroys it, and with
#: ``sys.argv[1] == "thread"`` a second thread is alive when ``main`` returns
PROBE = """
import atexit, sys, threading, time

class Witness:
    def __del__(self):
        print("teardown", file=sys.stderr)

witness = Witness()
atexit.register(lambda: [print("atexit", file=out) for out in (sys.stdout, sys.stderr)])
if sys.argv[1] == "thread":
    threading.Thread(target=time.sleep, args=(0.2,)).start()
sys.argv = ["lorentzkit", *sys.argv[2:]]
{entry}
"""

ENTRIES = {
    "python -m": 'import runpy; runpy.run_module("lorentzkit.cli", run_name="__main__")',
    # what the [project.scripts] wrapper runs
    "script": "from lorentzkit.cli import entry; sys.exit(entry())",
}

#: one call per exit code, the last two with a message on stderr
EXITS = ["construct --corollary-K 3",
         "verify lemma-3-4 --bound-upper 0.9 --bound-lower 0.9",
         "construct --theta 1"]


def _probe(entry, mode, args, cwd, **kw):
    return _python("-c", PROBE.format(entry=ENTRIES[entry]), mode, *args.split(), cwd=cwd, **kw)


@pytest.mark.parametrize("entry", ENTRIES)
def test_process_entry_runs_exit_handlers_and_skips_teardown(entry, tmp_path, capsys):
    for code, args in enumerate(EXITS):
        assert cli.main(args.split()) == code
        want = capsys.readouterr()
        child = _probe(entry, "-", args, tmp_path)
        assert child.returncode == code
        assert child.stdout == want.out + "atexit\n"
        assert child.stderr == want.err + "atexit\n"
        assert bool(want.err) == (code == 2)


@pytest.mark.parametrize("entry", ENTRIES)
def test_process_entry_exits_plainly_when_a_thread_is_alive(entry, tmp_path, capsys):
    assert cli.main(EXITS[1].split()) == 1
    want = capsys.readouterr()
    child = _probe(entry, "thread", EXITS[1], tmp_path)
    assert child.returncode == 1
    assert child.stdout == want.out + "atexit\n"
    assert child.stderr == "atexit\nteardown\n"


@pytest.mark.parametrize("entry", ENTRIES)
def test_process_entry_exits_plainly_when_stdout_is_closed(entry, tmp_path):
    # the reader is gone before the child writes: stdout's flush at exit
    # fails, and a plain exit reports it as it always has, with code 120
    read, write = os.pipe()
    os.close(read)
    try:
        child = _probe(entry, "-", EXITS[0], tmp_path, stdout=write)
    finally:
        os.close(write)
    assert child.returncode == 120
    assert child.stderr == (
        "atexit\nException ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
        "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\nteardown\n"
    )


def test_script_target_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("lorentzkit is not running from its source tree")
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"lorentzkit": "lorentzkit.cli:entry"}


def test_main_in_process_leaves_the_collector_alone(capsys):
    assert cli.main(["construct", "--corollary-K", "3"]) == 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


#: a child that runs ``cli.main`` on its arguments, then prints the
#: lorentzkit modules loaded, and numpy.ma if it was
LOADED = """
import sys
from lorentzkit import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules
                    if name.startswith("lorentzkit.") or name == "numpy.ma"))
"""

#: what every call loads: the CLI, its options and the norms they parse into
BASE = {"lorentzkit._kernels", "lorentzkit.cli", "lorentzkit.options", "lorentzkit.space",
        "lorentzkit.weights"}

LOADS = {
    "norm --theta 0.5 --dense 3,1,2": BASE,
    "construct --select-counts-K 5 --theta 0.25 --p 2": BASE | {"lorentzkit.constants"},
    "construct --corollary-K 3": BASE | {"lorentzkit.blocks"},
    "equiv --pair dk-vs-d --theta 0.5 --k 2 --N 20": BASE | {"lorentzkit.constants"},
    "verify lemma-3-4": BASE | {"lorentzkit.blocks", "lorentzkit.verify"},
}

#: the other calls of perfbench/run.py's workloads at seed 42 (its
#: select-counts call is above); no call may load numpy.ma, which the first
#: ``np.unique`` imports at a cost in start-up time and memory
LOADS.update({
    "verify lemma-3-1 --j-max 4000 --k-max 4000": LOADS["verify lemma-3-4"],
    "verify lemma-3-2": LOADS["verify lemma-3-4"],
    "verify theorem-3-5 --corollary-K 10 --p 2 --trials 5000 --seed 42": LOADS["verify lemma-3-4"],
    "verify remark-3-3 --trials 40000 --seed 42": LOADS["verify lemma-3-4"],
    "equiv --pair dk-vs-d --theta 0.5 --k 2 --p 1 --N 2000 --seed 42": BASE | {"lorentzkit.constants"},
})


@pytest.mark.parametrize("args", LOADS)
def test_call_loads_only_the_modules_it_runs(args, tmp_path):
    child = _python("-c", LOADED, *args.split(), cwd=tmp_path)
    assert child.stderr == ""
    code, *loaded = child.stdout.splitlines()[-1].split()
    assert (code, set(loaded)) == ("0", LOADS[args])


def test_package_import_loads_no_module(tmp_path):
    probe = "import sys, lorentzkit; print(*sorted(n for n in sys.modules if 'lorentzkit' in n))"
    child = _python("-c", probe, cwd=tmp_path)
    assert (child.returncode, child.stderr, child.stdout) == (0, "", "lorentzkit\n")


#: usage errors that argparse (the first two) or the construct mode choice reports
USAGE_ERRORS = ["bogus", "verify bogus", "construct --theta 1"]


@pytest.mark.parametrize("args", USAGE_ERRORS)
def test_usage_error_matches_main(args, tmp_path, capsys):
    assert cli.main(args.split()) == 2
    want = capsys.readouterr()
    child = _python("-m", "lorentzkit.cli", *args.split(), cwd=tmp_path)
    assert (child.returncode, child.stdout, child.stderr) == (2, want.out, want.err)
    assert child.stderr
