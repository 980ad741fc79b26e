"""Golden bytes: small CLI calls whose ``--out`` JSON and stdout are pinned.

Each case runs ``cli.main`` in process and compares the SHA-256 of the
report file and of everything printed to stdout with the digests recorded
below, along with the exit code.  A refactor that is meant to leave the
reports alone must keep every digest; a change that moves a report on
purpose updates its digests and says so in CHANGES.md.  The digests were
recorded with numpy 2.4.6; another numpy may round a last bit differently.

They were also recorded on a CPU that runs every one of numpy's dispatch
targets (``numpy._core._multiarray_umath.__cpu_dispatch__``: X86_V3,
X86_V4, AVX512_ICL and AVX512_SPR).  numpy's AVX-512 loops for ``power``,
``exp``, ``log1p`` and ``expm1`` round differently from its fallback loops,
so another CPU may move a digest: with
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` the
theorem-3-5 and the ``--select-counts-K 5`` cases move, 2 of the 10.
"""

import hashlib

import numpy as np
import pytest

from lorentzkit import cli

PINNED_NUMPY = "2.4.6"

# (arguments, exit code, sha256 of the --out bytes, sha256 of stdout)
GOLDEN = [
    ("verify lemma-3-1 --j-max 200 --k-max 200", 0,
     "d636ae719ea2c24d0b2e7b29336f5579cb965cc8121202fa16c61e84fd015a54",
     "9a2fa914f591622547c32de320500c9a79321d535d28330755a06588b1ec25a7"),
    ("verify lemma-3-2 --i-max 200 --k-max 200", 0,
     "c8ecff5a2bb2e1c1421ee4baf68a9d8166635f90b8c9bc2fdac98a86e9c11ad2",
     "6c365796eaccbf40900de35184b2ca971a0cf0edc1374e8b32b1168340ada66f"),
    ("verify remark-3-3 --trials 200", 0,
     "0633adc1e7b242d8fff119f5f0fa9ee8af31f5231c90f575bbf160aac5a22677",
     "71881161f0e2a4157904fcb91307f14cdc4a2707be6a68a189f43484c0f30e7b"),
    ("verify lemma-3-4 --corollary-K 9", 0,
     "eba24420e4c3b740dbe1fcd399c4c07ca8aaa664f656188dbab4459aa1597b83",
     "849544dac447b9244f41982f9fedd6276accac73c65ce54ec6dc297341cfb5ae"),
    ("verify theorem-3-5 --corollary-K 10 --p 2 --trials 300", 0,
     "be6680642e60fe93cf0c91002f321745b5df5cc39a8461bf5b99b45ebcff02b7",
     "06e9e1c54c5ac1b671ad9bd640655c683f724de78a07c2b5af5a9ef6fbd93015"),
    ("construct --corollary-K 6", 0,
     "653162593b4cce8bc83eb122bb33f68ce09387a49cee132bd76010ddc638952e",
     "888395a7f688af1b2d549584a33cf89909b074b5efb260861f563fa59f6c2d48"),
    ("construct --select-counts-K 5 --theta 0.5 --p 1.5", 0,
     "b9cb6249d1c4cda78b43b756310639b14a259d2253e3acac9548d8c1b499756b",
     "a9dde57f6406342e35cb53fc55515b9e3fa1b4c65aec366b78f3e11166d1e15c"),
    ("equiv --pair dk-vs-d --theta 0.3 --p 2 --dimension 200 --k 3", 0,
     "9ad96c190a845adf1b90f950d6e7fb377dd36c892384188d9e89aac0800362dd",
     "ffd54ce1ae3a662a23721d58487d0b95441e2a215da287c42cb235e3400783c1"),
    ("equiv --pair d-vs-lp --theta 0.5 --p 1.5 --dimension 64", 0,
     "d37ed989b4e74564921fbad381c40e1a07eb454783ef46d4cfc72a7bc066749d",
     "5220a11c4364a154eb4c3ad595e302b99f95a82873de4e95d1e8b280ef8d824a"),
    ("norm --theta 0.5 --p 1.5 --dense 3,-1,2,0.5,0,-2", 0,
     "2896b15d731d0d965b4987c8e4ff419fc2ca26f210904bb79e0fcacf94937ac8",
     "b442314b957f4a5d72e7cdf995789d636c00fc9c50f6e7c8a5f938d83300f252"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args, code, out_sha, stdout_sha", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_report_and_stdout_bytes_are_pinned(args, code, out_sha, stdout_sha,
                                            tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(args.split() + ["--out", str(out)]) == code
    stdout = capsys.readouterr().out
    where = (f"`lorentzkit {args}` (digests recorded with numpy {PINNED_NUMPY}, "
             f"running numpy {np.__version__})")
    assert _sha256(out.read_bytes()) == out_sha, f"--out bytes changed for {where}"
    assert _sha256(stdout.encode()) == stdout_sha, f"stdout changed for {where}:\n{stdout}"
