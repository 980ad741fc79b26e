import json
import tracemalloc

import pytest

import lorentzkit
from lorentzkit import cli
from lorentzkit.cli import OUT_DIR_ENV_VAR, main
from lorentzkit.options import REQUIRED


def run(*argv):
    return main(list(argv))


class TestNormCommand:
    def test_dense(self, capsys):
        assert run("norm", "--theta", "0.5", "--p", "1", "--dense", "3,1,2") == 0
        out = capsys.readouterr().out
        assert "4.99156383156272" in out
        assert "lp norm" in out

    def test_sparse(self, capsys):
        assert run("norm", "--theta", "0.5", "--sparse", "1:3,4:1.5") == 0
        assert "4.060660171779821" in capsys.readouterr().out

    def test_requires_exactly_one_vector(self, capsys):
        assert run("norm", "--theta", "0.5") == 2
        assert (
            run("norm", "--theta", "0.5", "--dense", "1", "--sparse", "1:1") == 2
        )

    def test_requires_theta(self):
        assert run("norm", "--dense", "1,2") == 2

    def test_extreme_magnitudes_stay_finite(self, tmp_path):
        big = tmp_path / "big.json"
        assert run("norm", "--theta", "0.5", "--p", "2", "--dense", "1e200,1e200",
                   "--out", str(big)) == 0
        doc = json.loads(big.read_text())
        assert doc["lorentz_norm"] == pytest.approx(1e200 * (1 + 0.5**0.5) ** 0.5, rel=1e-15)
        assert doc["lp_norm"] == pytest.approx(1e200 * 2**0.5, rel=1e-15)
        small = tmp_path / "small.json"
        assert run("norm", "--theta", "0.5", "--p", "3", "--dense", "1e-120,1e-120",
                   "--out", str(small)) == 0
        doc = json.loads(small.read_text())
        assert doc["lorentz_norm"] == pytest.approx(1e-120 * (1 + 0.5**0.5) ** (1 / 3), rel=1e-15)
        assert doc["lp_norm"] == pytest.approx(1e-120 * 2 ** (1 / 3), rel=1e-15)

    def test_bad_literal(self, capsys):
        assert run("norm", "--theta", "0.5", "--dense", "1,x") == 2

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_non_finite_dense_gives_reason(self, tmp_path, capsys, form):
        args = ("norm", "--theta", "0.5")
        if form == "flag":
            assert run(*args, "--dense", "inf") == 2
            want = "error: argument --dense: coefficients must be finite\n"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("dense = 1,inf\n")
            assert run(*args, "--config", str(cfg)) == 2
            want = "error: --dense (config key dense): coefficients must be finite\n"
        assert capsys.readouterr().err.endswith(want)

    def test_zero_vector_writes_strict_json(self, tmp_path, capsys):
        out = tmp_path / "zero.json"
        assert run("norm", "--theta", "0.5", "--dense", "0,0", "--out", str(out)) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["lorentz_norm"] == 0.0
        assert doc["ratio"] is None

    def test_refused_payload_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        args = ("norm", "--theta", "0.5", "--p", "1", "--dense", "1e308,1e308")
        assert run(*args, "--out", str(out)) == 2  # the l_p norm is out of float64 range
        assert capsys.readouterr().err == "error: lp norm overflows float64 at p=1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_overflowing_norm_gives_reason(self, tmp_path, capsys, form):
        # 2e308 is finite input's l_p norm, beyond float64: refused before any line
        # is printed, and with no overflow warning (warnings fail the suite)
        if form == "flag":
            code = run("norm", "--theta", "0.5", "--p", "1", "--dense", "1e308,1e308")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("theta = 0.5\np = 1\ndense = 1e308,1e308\n")
            code = run("norm", "--config", str(cfg))
        assert code == 2
        assert capsys.readouterr() == ("", "error: lp norm overflows float64 at p=1.0\n")

    @pytest.mark.parametrize(
        "flags,lines,code,support",
        [
            (["--dense", "3,1,2"], "sparse = 1:3\n", 0, 3),  # the flag wins
            (["--sparse", "1:3,4:1.5"], "dense = 1\n", 0, 2),
            (["--dense", "1", "--sparse", "1:1"], "", 2, None),
            ([], "dense = 1\nsparse = 1:1\n", 2, None),
        ],
    )
    def test_dense_flag_beats_sparse_in_file(self, tmp_path, capsys, flags, lines, code, support):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        assert run("norm", "--theta", "0.5", *flags, "--config", str(cfg)) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert f"support size      {support}\n" in out
        else:
            assert err == "error: give either --dense or --sparse, not both\n"

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "norm.json"
        assert (
            run("norm", "--theta", "0.5", "--p", "2", "--dense", "1,1", "--out", str(out))
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["command"] == "norm"
        assert doc["config"]["theta"] == 0.5
        assert doc["lorentz_norm"] == pytest.approx(1.7071067811865475**0.5)


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code = run(
            "verify", "lemma-3-2", "--theta", "0.5", "--i-max", "1", "--k-max", "1"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "instances     1" in out
        assert "result        PASS" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        csv_path = tmp_path / "v.csv"
        code = run(
            "verify", "lemma-3-4",
            "--corollary-levels", "3", "--theta", "0.5",
            "--bound-upper", "1e-9", "--bound-lower", "0.9",
            "--csv", str(csv_path),
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        assert csv_path.read_text().count("\n") > 1

    def test_theorem_3_5_up_to_index_limit(self, capsys):
        # J_17 = 18!/2 < 2**53 still evaluates; J_18 = 19!/2 does not
        assert run("verify", "theorem-3-5", "--corollary-K", "17", "--trials", "3") == 0
        assert "result        PASS" in capsys.readouterr().out
        assert run("verify", "theorem-3-5", "--corollary-K", "18", "--trials", "3") == 2
        assert "2**53 = 9007199254740992" in capsys.readouterr().err

    def test_theorem_3_5_reports_theta_before_p(self, capsys):
        assert run("verify", "theorem-3-5", "--theta", "2", "--p", "0.5") == 2
        assert capsys.readouterr().err == "error: theta must lie in [0.01, 0.99], got 2.0\n"

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_theorem_3_5_short_corollary(self, k, capsys):
        assert run("verify", "theorem-3-5", "--corollary-K", k, "--trials", "6") == 0
        assert "result        PASS" in capsys.readouterr().out

    def test_unknown_statement_exit_two(self, capsys):
        assert run("verify", "lemma-0-0") == 2

    def test_flag_for_wrong_statement_exit_two(self, capsys):
        assert run("verify", "remark-3-3", "--j-max", "5") == 2

    def test_config_key_for_wrong_statement_like_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("j_max = 5\n")
        flag_code = run("verify", "lemma-3-2", "--j-max", "5")
        flag_err = capsys.readouterr().err
        file_code = run("verify", "lemma-3-2", "--config", str(cfg))
        file_err = capsys.readouterr().err
        assert flag_code == file_code == 2
        assert flag_err == file_err == "error: --j-max does not apply to lemma-3-2\n"

    def test_theta_and_grid_conflict(self, capsys):
        assert (
            run("verify", "lemma-3-2", "--theta", "0.5", "--theta-grid", "0.5,0.6")
            == 2
        )

    @pytest.mark.parametrize(
        "flags,lines,code,instances",
        [
            (["--theta", "0.5"], "theta_grid = 0.4,0.5\n", 0, 4),  # the flag wins
            (["--theta-grid", "0.4,0.5"], "theta = 0.5\n", 0, 8),
            (["--theta", "0.5", "--theta-grid", "0.4,0.5"], "", 2, None),
            ([], "theta = 0.5\ntheta_grid = 0.4,0.5\n", 2, None),
        ],
    )
    def test_theta_shorthand_flag_beats_file(self, tmp_path, capsys, flags, lines, code, instances):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        args = ["verify", "lemma-3-2", "--i-max", "2", "--k-max", "2", *flags]
        assert run(*args, "--config", str(cfg)) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert f"instances     {instances}\n" in out
        else:
            assert err == "error: give either --theta or --theta-grid, not both\n"

    @pytest.mark.parametrize(
        "statement,line,flag",
        [
            ("lemma-3-2", "i_max = x", "--i-max"),  # int
            ("lemma-3-2", "theta = x", "--theta"),  # float
            ("lemma-3-4", "lengths = 1,x", "--lengths"),  # int list
            ("remark-3-3", "p_grid = 1,x", "--p-grid"),  # float list
            ("lemma-3-1", "theta_grid = 0.1:0.9", "--theta-grid"),  # grid
            ("lemma-3-2", "timing = maybe", "--timing"),  # bool
        ],
    )
    def test_config_parse_error_names_option(self, tmp_path, capsys, statement, line, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("verify", statement, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} (config key ")
        reason = err.split("): ", 1)[1]
        key, value = (part.strip() for part in line.split("="))
        if flag != "--timing":  # a switch on the command line
            assert run("verify", statement, flag, value) == 2
            flag_err = capsys.readouterr().err
            if flag in ("--i-max", "--theta"):  # argparse's own int and float
                assert f"argument {flag}: invalid" in flag_err
            else:  # a custom parser gives the config form's reason
                assert flag_err.endswith(f"error: argument {flag}: {reason}")

    def test_byte_identical_reports(self, tmp_path):
        args = [
            "verify", "remark-3-3",
            "--trials", "300", "--seed", "7",
            "--theta-grid", "0.5", "--p-grid", "1,2",
            "--max-support", "10",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overflowing_norm_powers_exit_2(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        # any |z| > 1.152 overflows at p = 5000, so the overflow does not hinge on one tail draw
        args = ("verify", "remark-3-3", "--trials", "20", "--p-grid", "5000", "--theta-grid", "0.5")
        assert run(*args, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: Lorentz norm power overflows float64 at p=5000.0, theta=0.5\n"
        )
        assert not out.exists()

    def test_theorem_3_5_overflowing_norm_powers_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        args = ("verify", "theorem-3-5", "--corollary-K", "3", "--p", "2000", "--trials", "10")
        assert run(*args, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Lorentz norm power overflows float64 at p=2000.0, theta=0.5\n"
        assert "result" not in captured.out
        assert not out.exists()

    def test_theorem_3_5_underflowing_norm_powers_exit_2(self, tmp_path, capsys):
        # trial 3 at p = 300 has subnormal norm powers (lhs 2.7e-309)
        out = tmp_path / "t.json"
        args = ("verify", "theorem-3-5", "--corollary-K", "1", "--p", "300", "--trials", "20")
        assert run(*args, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Lorentz norm power underflows float64 at p=300.0, theta=0.5\n"
        assert "result" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("value,shown", [("0.5", "0.5"), ("nan", "nan"),
                                             ("inf", "inf"), ("-1", "-1.0")])
    def test_remark_3_3_p_below_one_exit_2(self, tmp_path, capsys, form, value, shown):
        out = tmp_path / "r.json"
        args = ("verify", "remark-3-3", "--trials", "5", "--out", str(out))
        if form == "flag":
            assert run(*args, f"--p-grid={value}") == 2
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"p_grid = 1,{value}\n")
            assert run(*args, "--config", str(cfg)) == 2
        assert capsys.readouterr().err == f"error: p must be a finite real >= 1, got {shown}\n"
        assert not out.exists()

    def test_k_samples_below_one_exit_2(self, capsys):
        assert run("verify", "lemma-3-1", "--j-max", "2", "--k-max", "3", "--k-samples", "0") == 2
        assert capsys.readouterr().err == "error: k_samples must be >= 1, got 0\n"

    def test_timing_flag_adds_runtime(self, tmp_path):
        out = tmp_path / "t.json"
        run(
            "verify", "lemma-3-2", "--theta", "0.5", "--i-max", "2",
            "--k-max", "2", "--out", str(out), "--timing",
        )
        assert json.loads(out.read_text())["runtime_ms"] > 0

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ni_max = 2\nk-max = 3\ntheta = 0.5\n")
        assert run("verify", "lemma-3-2", "--config", str(cfg)) == 0
        assert "instances     6" in capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("i_max = 2\nk_max = 3\ntheta = 0.5\n")
        assert run("verify", "lemma-3-2", "--config", str(cfg), "--k-max", "1") == 0
        assert "instances     2" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run("verify", "lemma-3-2", "--config", str(cfg)) == 2

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("i_max 2\n")
        assert run("verify", "lemma-3-2", "--config", str(cfg)) == 2

    def test_missing_config_file(self, tmp_path):
        assert run("verify", "lemma-3-2", "--config", str(tmp_path / "nope")) == 2


class TestConstructCommand:
    def test_corollary_table(self, capsys):
        assert run("construct", "--corollary-levels", "5") == 0
        out = capsys.readouterr().out
        assert "60" in out and "360" in out
        assert "stagger ratio   1.0" in out

    def test_spec_alias_flag(self, capsys):
        assert run("construct", "--corollary-K", "1") == 0
        assert "total support   1" in capsys.readouterr().out

    def test_explicit_lengths(self, capsys):
        assert run("construct", "--lengths", "1,2,4", "--counts", "1,1,1") == 0
        assert "total support   7" in capsys.readouterr().out

    def test_select_counts(self, capsys, tmp_path):
        out = tmp_path / "sel.json"
        code = run(
            "construct", "--select-counts", "3", "--theta", "0.5", "--p", "1",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["counts"][0] == 2
        assert doc["proxy"] is False
        assert all(r > k for k, r in enumerate(doc["ratios"], start=1))

    def test_select_counts_default_cutoff(self, capsys):
        # N_6 = 2526568 needs a cutoff above 10**6
        assert run("construct", "--select-counts-K", "6", "--theta", "0.25", "--p", "2") == 0
        assert "   6     2526568" in capsys.readouterr().out
        # at theta = 0.01 level 2 escapes only near N = 2**100, past 2**53 // 2
        assert run("construct", "--select-counts-K", "2", "--theta", "0.01", "--p", "1") == 2
        assert "level 2: no section below the growth cutoff 4503599627370496" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "args,flag,mode",
        [
            (("--corollary-levels", "3", "--p", "2", "--theta", "0.3"),
             "--theta", "--corollary-levels"),
            (("--corollary-K", "3", "--counts", "1,1,1"), "--counts", "--corollary-levels"),
            (("--lengths", "1,2", "--theta", "0.5"), "--theta", "--lengths"),
            (("--select-counts-K", "2", "--theta", "0.5", "--counts", "1,2"),
             "--counts", "--select-counts"),
        ],
    )
    def test_options_of_other_modes_rejected(self, tmp_path, capsys, args, flag, mode):
        message = f"error: {flag} does not apply to construct {mode}\n"
        assert run("construct", *args) == 2
        assert capsys.readouterr().err == message
        # the same option from the config file
        at = args.index(flag)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {args[at + 1]}\n")
        assert run("construct", *args[:at], *args[at + 2 :], "--config", str(cfg)) == 2
        assert capsys.readouterr().err == message

    def test_benchmark_select_counts_call_accepted(self, capsys):
        assert run("construct", "--select-counts-K", "5", "--theta", "0.25", "--p", "2") == 0

    def test_select_counts_proxy_note(self, capsys):
        assert run("construct", "--select-counts-K", "2", "--theta", "0.5", "--p", "2") == 0
        assert "proxy" in capsys.readouterr().out

    def test_overflow_is_clean_diagnostic(self, capsys):
        assert run("construct", "--corollary-levels", "25") == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_modes_mutually_exclusive(self):
        assert run("construct", "--corollary-levels", "3", "--select-counts", "2") == 2
        assert run("construct") == 2


class TestEquivCommand:
    def test_lp_pair_prints_exact(self, capsys):
        code = run(
            "equiv", "--pair", "d-vs-lp", "--theta", "0.5", "--p", "1", "--N", "2"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1.17157287525381" in out
        assert "difference" in out

    def test_same_norm_pair(self, capsys):
        assert run("equiv", "--pair", "d-vs-d", "--theta", "0.5", "--N", "5") == 0
        assert "estimate      1.0" in capsys.readouterr().out

    def test_dk_pair_requires_k(self, capsys):
        assert run("equiv", "--pair", "dk-vs-d", "--theta", "0.5", "--N", "4") == 2
        assert (
            run("equiv", "--pair", "dk-vs-d", "--theta", "0.5", "--N", "4", "--k", "2")
            == 0
        )

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_unknown_pair_lists_choices(self, tmp_path, capsys, form):
        args = ("equiv", "--theta", "0.5", "--N", "3")
        if form == "flag":
            assert run(*args, "--pair", "bogus") == 2
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("pair = bogus\n")
            assert run(*args, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.endswith(
            "invalid choice: 'bogus' (choose from 'd-vs-lp', 'd-vs-d', 'dk-vs-d')\n"
        )

    @pytest.mark.parametrize("pair", ["d-vs-lp", "d-vs-d"])
    def test_k_rejected_for_pairs_without_window(self, tmp_path, capsys, pair):
        message = f"error: --k does not apply to {pair}\n"
        args = ("equiv", "--pair", pair, "--theta", "0.5", "--N", "3")
        assert run(*args, "--k", "7") == 2
        assert capsys.readouterr().err == message
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 7\n")
        assert run(*args, "--config", str(cfg)) == 2
        assert capsys.readouterr().err == message

    def test_byte_identical_reports(self, tmp_path):
        args = [
            "equiv", "--pair", "dk-vs-d", "--theta", "0.5", "--N", "6",
            "--k", "3", "--seed", "21",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_accepted_and_echoed(self, tmp_path):
        docs = []
        for seed in ("21", "22"):
            out = tmp_path / f"seed{seed}.json"
            assert run("equiv", "--pair", "dk-vs-d", "--theta", "0.5", "--N", "6",
                       "--k", "3", "--seed", seed, "--out", str(out)) == 0
            docs.append(json.loads(out.read_text()))
        assert [d["config"]["seed"] for d in docs] == [21, 22]
        for doc in docs:
            del doc["config"]["seed"]
        assert docs[0] == docs[1]
        assert set(docs[0]["config"]) == {"theta", "p", "dimension", "k"}
        assert len(docs[0]["witness"]) == 6

    def test_search_flags_removed(self):
        for flag in ("--samples", "--sweeps", "--grid-points"):
            assert run("equiv", "--pair", "d-vs-d", "--theta", "0.5", "--N", "3",
                       flag, "10") == 2

    def test_required_flags(self):
        assert run("equiv", "--pair", "d-vs-lp", "--theta", "0.5") == 2
        assert run("equiv", "--theta", "0.5", "--N", "3") == 2


class TestOutputDirEnvVar:
    def test_bare_filename_redirected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV_VAR, str(tmp_path))
        assert (
            run("norm", "--theta", "0.5", "--dense", "1,2", "--out", "bare.json") == 0
        )
        assert (tmp_path / "bare.json").exists()

    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        other = tmp_path / "elsewhere"
        other.mkdir()
        monkeypatch.setenv(OUT_DIR_ENV_VAR, str(tmp_path))
        target = other / "told.json"
        assert (
            run("norm", "--theta", "0.5", "--dense", "1", "--out", str(target)) == 0
        )
        assert target.exists()
        assert not (tmp_path / "told.json").exists()

    def test_unwritable_path_is_config_error(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.json"
        assert (
            run("norm", "--theta", "0.5", "--dense", "1", "--out", str(missing)) == 2
        )


class TestEmptyOutputPath:
    # an explicit empty path was taken for an absent option: exit 0, nothing
    # written (or, for --config, nothing read)
    @pytest.mark.parametrize("args, flag", [
        (("norm", "--theta", "0.5", "--dense", "1"), "--out"),
        (("verify", "lemma-3-2", "--i-max", "2", "--k-max", "2"), "--out"),
        (("verify", "lemma-3-2", "--i-max", "2", "--k-max", "2"), "--csv"),
        (("construct", "--corollary-levels", "2"), "--out"),
        (("equiv", "--pair", "d-vs-lp", "--theta", "0.5", "--N", "3"), "--out"),
    ])
    def test_is_a_usage_error(self, tmp_path, capsys, args, flag):
        assert run(*args, flag, "") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: empty path\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} =\n")
        assert run(*args, "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} (config key {flag[2:]}): empty path\n"

    def test_empty_config_path_is_a_usage_error(self, capsys):
        assert run("norm", "--theta", "0.5", "--dense", "1", "--config", "") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --config: empty path\n")


#: (argv, flag, config key, value, message): literals refused while parsing
PARSE_ERRORS = [
    (("verify", "lemma-3-2"), "--theta-grid", "theta_grid", "a:b:c",
     "bad grid literal 'a:b:c': could not convert string to float: 'a'"),
    (("verify", "lemma-3-2"), "--theta-grid", "theta_grid", "0.9:0.1:0.1",
     "grid literal '0.9:0.1:0.1' must ascend with positive step"),
    (("verify", "lemma-3-2"), "--theta-grid", "theta_grid", "0.1:0.95:0.1",
     "grid literal '0.1:0.95:0.1': step does not divide the range"),
    (("verify", "remark-3-3"), "--p-grid", "p_grid", ",", "empty float list ','"),
    (("construct",), "--lengths", "lengths", ",", "empty integer list ','"),
    (("norm", "--theta", "0.5"), "--sparse", "sparse", "1:x",
     "bad sparse entry '1:x': could not convert string to float: 'x'"),
    (("norm", "--theta", "0.5"), "--sparse", "sparse", ",", "empty sparse vector literal ','"),
    (("norm", "--theta", "0.5"), "--sparse", "sparse", "1:1,1:2",
     "duplicate indices are not allowed"),
    (("verify", "lemma-3-2"), "--theta-grid", "theta_grid", "0.01:inf:0.1",
     "grid literal '0.01:inf:0.1' must have a finite start, stop and step"),
    (("verify", "lemma-3-2"), "--theta-grid", "theta_grid", "0.01:0.99:nan",
     "grid literal '0.01:0.99:nan' must have a finite start, stop and step"),
    (("verify", "lemma-3-2"), "--theta-grid", "theta_grid", "0.01:0.99:1e-12",
     "grid literal '0.01:0.99:1e-12': too many points (9.8e+11)"),
    (("verify", "lemma-3-2"), "--theta-grid", "theta_grid", "0.01:0.99:1e-300",
     "grid literal '0.01:0.99:1e-300': too many points (9.8e+299)"),
    # values that start with "-", which argparse would take for an option
    (("verify", "lemma-3-1"), "--theta-grid", "theta_grid", "-1e308:1e308:1",
     "grid literal '-1e308:1e308:1': too many points (inf)"),
    (("norm", "--theta", "0.5"), "--dense", "dense", "-3,x",
     "bad float list '-3,x': could not convert string to float: 'x'"),
]

#: (argv, ((flag, config key, value), ...), message): values the library refuses
LIBRARY_ERRORS = [
    (("verify", "theorem-3-5", "--corollary-K", "3"), (("--levels", "levels", "4"),),
     "levels=4 exceeds the scheme's 3"),
    (("verify", "lemma-3-4"), (("--bound-upper", "bound_upper", "-1"),),
     "bounds must be finite and positive"),
    (("verify", "lemma-3-2"), (("--i-max", "i_max", "6000"), ("--k-max", "k_max", "6000")),
     "partial-sum arrays are limited to 33554432 entries"),
    (("verify", "lemma-3-1"), (("--j-max", "j_max", "5000000000000000000"),),
     "j_max is too large to index safely: 5000000000000000000"),
]


class TestInputChecks:
    @pytest.mark.parametrize("argv,flag,key,value,message", PARSE_ERRORS)
    def test_bad_literal(self, tmp_path, capsys, argv, flag, key, value, message):
        for flags in ((flag, value), (f"{flag}={value}",)):
            assert run(*argv, *flags) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"error: argument {flag}: {message}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run(*argv, "--config", str(cfg)) == 2
        assert capsys.readouterr() == ("", f"error: {flag} (config key {key}): {message}\n")

    @pytest.mark.parametrize("argv,options,message", LIBRARY_ERRORS)
    def test_refused_value(self, tmp_path, capsys, argv, options, message):
        flags = [arg for flag, _, value in options for arg in (flag, value)]
        tracemalloc.start()
        try:
            assert run(*argv, *flags) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20  # refused before a large array is allocated
        assert capsys.readouterr() == ("", f"error: {message}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for _, key, value in options))
        assert run(*argv, "--config", str(cfg)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("value,shown", [("no", False), ("yes", True)])
    def test_timing_in_config(self, tmp_path, capsys, value, shown):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"timing = {value}\n")
        out = tmp_path / "t.json"
        args = ("verify", "lemma-3-2", "--i-max", "2", "--k-max", "2", "--out", str(out))
        assert run(*args, "--config", str(cfg)) == 0
        assert ("runtime_ms" in capsys.readouterr().out) is shown
        assert (json.loads(out.read_text())["runtime_ms"] is not None) is shown


class TestDashedValues:
    """A flag's value that starts with ``-`` is read in each form alike:
    ``--flag value``, ``--flag=value`` and the config line (the grid and
    float-list literals are in :data:`PARSE_ERRORS`)."""

    @staticmethod
    def forms(tmp_path, argv, flag, key, value):
        """The outcome of each form: exit code, stdout, stderr and --out bytes."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        outcomes = []
        for flags in ((flag, value), (f"{flag}={value}",), ("--config", str(cfg))):
            out = tmp_path / "r.json"
            out.unlink(missing_ok=True)
            code = run(*argv, *flags, "--out", str(out))
            outcomes.append((code, out.read_bytes() if out.exists() else None))
        return outcomes

    def test_negative_theta_is_refused_by_its_reason(self, tmp_path, capsys):
        message = "error: theta must lie in [0.01, 0.99], got -0.001\n"
        assert self.forms(tmp_path, ("norm", "--dense", "1"), "--theta", "theta", "-1e-3") == [
            (2, None)] * 3
        assert capsys.readouterr() == ("", message * 3)
        # an abbreviated flag takes its value as the flag does
        assert run("norm", "--dense", "1", "--thet", "-1e-3") == 2
        assert capsys.readouterr() == ("", message)

    def test_negative_dense_entries_compute(self, tmp_path, capsys):
        outcomes = self.forms(tmp_path, ("norm", "--theta", "0.5"), "--dense", "dense", "-3,1")
        printed = capsys.readouterr()
        assert outcomes[0][0] == 0 and outcomes[0][1] is not None and outcomes == [outcomes[0]] * 3
        assert printed.err == "" and printed.out == printed.out[: len(printed.out) // 3] * 3
        assert "support size      2" in printed.out

    @pytest.mark.parametrize("argv", [
        ("norm", "--dense", "--theta", "0.5"),
        ("norm", "--theta", "0.5", "--dense", "--sparse=1:1"),
        ("norm", "--theta", "0.5", "--dense", "--th", "0.5"),
        ("equiv", "--pair", "d-vs-lp", "--theta", "0.5", "--dimension", "-N5"),
    ])
    def test_an_option_is_not_taken_for_a_value(self, capsys, argv):
        assert run(*argv) == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_nothing_after_a_double_dash_is_joined(self, capsys):
        assert run("norm", "--theta", "0.5", "--", "--dense", "-3,1") == 2
        assert "unrecognized arguments: -- --dense -3,1" in capsys.readouterr().err


class TestLibraryRefusals:
    """Every input the library cannot evaluate raises a ``ValueError``, which
    the CLI reports on one line with exit 2."""

    def test_exported_exceptions_are_value_errors(self):
        exported = [getattr(lorentzkit, name) for name in lorentzkit.__all__]
        errors = {obj for obj in exported if isinstance(obj, type)
                  and issubclass(obj, BaseException)}
        assert errors == {lorentzkit.GrowthCutoffError, lorentzkit.SchemeOverflowError}
        assert all(issubclass(error, ValueError) for error in errors)
        assert issubclass(lorentzkit.GrowthCutoffError, RuntimeError)
        assert issubclass(lorentzkit.SchemeOverflowError, OverflowError)

    @pytest.mark.parametrize("argv,message", [
        (("norm", "--theta", "0.5", "--p", "1075", "--dense", "1,1"),
         "Lorentz norm cannot be evaluated in float64 at p=1075.0: "
         "its scaled power sum underflows"),
        (("norm", "--theta", "0.5", "--p", "1074", "--dense", "1,1"),
         "Lorentz norm cannot be evaluated in float64 at p=1074.0: "
         "its scaled power sum underflows"),
        (("equiv", "--pair", "d-vs-d", "--theta", "0.5", "--p", "2000", "--N", "5"),
         "lorentz(theta=0.5, p=2000.0) norm cannot be evaluated in float64 at p=2000.0: "
         "its scaled power sum underflows"),
        (("equiv", "--pair", "dk-vs-d", "--theta", "0.5", "--k", "2", "--p", "1500", "--N", "4"),
         "averaged(theta=0.5, p=1500.0, k=2) norm cannot be evaluated in float64 at "
         "p=1500.0: its scaled power sum underflows"),
        (("construct", "--select-counts-K", "2", "--theta", "0.5", "--p", "1e6"),
         "level 2: k**p = 2**1000000.0 overflows float64, so no section below the "
         "growth cutoff 4503599627370496 escapes"),
    ])
    def test_exit_2_with_one_line(self, tmp_path, capsys, argv, message):
        # at p = 1074 the norm printed lost bits, and from 1075 on it printed 0.0;
        # the equiv and construct calls raised out of main
        out = tmp_path / "r.json"
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "name,args",
        [
            ("run_grid", ("verify", "remark-3-3", "--trials", "1", "--theta", "0.5")),
            ("domination_constant", ("equiv", "--pair", "d-vs-d", "--theta", "0.5", "--N", "9")),
        ],
    )
    def test_exit_2_and_no_file(self, tmp_path, capsys, monkeypatch, name, args):
        reason = "Unable to allocate 7.45 GiB for an array with shape (1000000000,)"

        def allocate(*_args, **_kwargs):
            raise MemoryError(reason)

        # each runner imports the function from its module when it runs
        owner = {"run_grid": "lorentzkit.verify", "domination_constant": "lorentzkit.constants"}
        monkeypatch.setattr(f"{owner[name]}.{name}", allocate)
        out = tmp_path / "o.json"
        assert run(*args, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: out of memory: {reason}\n")
        assert not out.exists()


#: a value each option parser accepts, by parser name
SAMPLE = {
    "int": "2", "float": "0.5", "str": "x", "_parse_int_list": "1,2", "_parse_float_list": "1",
    "_parse_grid": "0.5", "_parse_dense": "1", "_parse_sparse": "1:1",
}


def _selecting(command, mode):
    """The arguments that choose ``mode`` of ``command``; none for the command itself."""
    if mode is None or command.name == "norm":
        return []
    if command.name == "verify":
        return [mode.name]
    if command.name == "equiv":
        return ["--pair", mode.name]
    option = mode.params[0].option  # a construct mode's selecting option
    return [option.flags[0], SAMPLE[option.parse.__name__]]


def _both_forms(tmp_path, capsys, argv, options):
    """Exit codes and stderr with ``options`` given as flags, then as config lines."""
    codes, errors = [], []
    for form in ("flag", "config"):
        cfg = tmp_path / "run.cfg"
        lines = [f"{opt.dest} = {SAMPLE[opt.parse.__name__]}\n" for opt in options]
        cfg.write_text("".join(lines) if form == "config" else "")
        flags = [arg for opt in options for arg in (opt.flags[0], SAMPLE[opt.parse.__name__])]
        codes.append(main([*argv, *(flags if form == "flag" else []), "--config", str(cfg)]))
        errors.append(capsys.readouterr().err)
    return codes, errors


def _takes(params):
    return {opt for param in params for opt in param.options}


MODES = [(command, mode) for command in cli._COMMANDS for mode in command.modes]
#: (command, mode, an option only other modes take); a second construct
#: selecting option is left out, since it chooses a second mode
FOREIGN = [
    (command, mode, opt)
    for command, mode in MODES
    for opt in command.options()
    if opt not in _takes(mode.params)
    and not any(opt is other.params[0].option for other in cli._CONSTRUCT_MODES)
]
#: (command, mode or None for a key every mode takes, a required key that
#: does not choose the mode)
MISSING = [
    (command, mode, param)
    for command in cli._COMMANDS
    for mode, params in [(None, command.shared)] + [(mode, mode.params) for mode in command.modes]
    for param in params
    if param.default is REQUIRED and param.option.flags[0] not in _selecting(command, mode)
]


class TestModeTables:
    """Every mode of every subcommand, from the tables that declare them."""

    @pytest.mark.parametrize(
        "command,mode,opt", FOREIGN,
        ids=[f"{command.name}:{mode.name}:{opt.flags[0]}" for command, mode, opt in FOREIGN],
    )
    def test_option_of_another_mode(self, tmp_path, capsys, command, mode, opt):
        argv = [command.name, *_selecting(command, mode)]
        codes, errors = _both_forms(tmp_path, capsys, argv, [opt])
        assert codes == [2, 2]
        assert errors[0] == errors[1] == f"error: {opt.flags[0]} does not apply to {mode.name}\n"

    @pytest.mark.parametrize(
        "command,mode,param", MISSING,
        ids=[f"{command.name}:{getattr(mode, 'name', '*')}:{param.key}"
             for command, mode, param in MISSING],
    )
    def test_missing_required_key(self, tmp_path, capsys, command, mode, param):
        params = command.shared + (() if mode is None else mode.params)
        given = [
            other.option for other in params
            if other.default is REQUIRED and other is not param
            and other.option.flags[0] not in _selecting(command, mode)
        ]
        argv = [command.name, *_selecting(command, mode)]
        codes, errors = _both_forms(tmp_path, capsys, argv, given)
        context = command.name if mode is None else mode.name
        flags = " or ".join(opt.flags[0] for opt in param.options)
        assert codes == [2, 2]
        assert errors[0] == errors[1] == f"error: {context} requires {flags}\n"


class TestUsage:
    def test_no_command(self):
        assert run() == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_unknown_flag(self):
        assert run("norm", "--bogus", "1") == 2


#: every subcommand's flags (with aliases) and config keys, as they were
#: when the parser was written by hand; the generated parser must match
SURFACE = {
    "norm": (
        {("--theta",), ("--p",), ("--dense",), ("--sparse",), ("--out",), ("--config",)},
        {"dense", "out", "p", "sparse", "theta"},
    ),
    "verify": (
        {
            ("--theta-grid",), ("--p-grid",), ("--j-max",), ("--k-max",), ("--k-samples",),
            ("--i-max",), ("--trials",), ("--seed",), ("--max-support",),
            ("--corollary-levels", "--corollary-K"), ("--lengths",), ("--counts",),
            ("--theta",), ("--p",), ("--bound-upper",), ("--bound-lower",), ("--levels",),
            ("--tol",), ("--out",), ("--csv",), ("--timing",), ("--config",),
        },
        {
            "bound_lower", "bound_upper", "corollary_levels", "counts", "csv", "i_max",
            "j_max", "k_max", "k_samples", "lengths", "levels", "max_support", "out", "p",
            "p_grid", "seed", "theta", "theta_grid", "timing", "tol", "trials",
        },
    ),
    "construct": (
        {
            ("--corollary-levels", "--corollary-K"), ("--lengths",), ("--counts",),
            ("--select-counts", "--select-counts-K"), ("--theta",), ("--p",),
            ("--out",), ("--config",),
        },
        {"corollary_levels", "counts", "lengths", "out", "p", "select_counts", "theta"},
    ),
    "equiv": (
        {
            ("--pair",), ("--theta",), ("--p",), ("--dimension", "-N", "--N"), ("--k",),
            ("--seed",), ("--out",), ("--config",),
        },
        {"dimension", "k", "out", "p", "pair", "seed", "theta"},
    ),
}


class TestCliSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_flags_and_aliases(self, command):
        from lorentzkit.cli import _build_parser

        subparsers = _build_parser()._subparsers._group_actions[0].choices
        actions = subparsers[command]._actions
        flags = {tuple(a.option_strings) for a in actions if a.option_strings}
        assert flags - {("-h", "--help")} == SURFACE[command][0]
        positional = [a.dest for a in actions if not a.option_strings]
        assert positional == (["statement"] if command == "verify" else [])

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_one_subcommand_parser_matches_the_full_one(self, command):
        # main builds only the arguments of the subcommand it runs
        from lorentzkit.cli import _build_parser

        full, one = _build_parser(), _build_parser(command)
        assert one.format_help() == full.format_help()
        subparsers = [p._subparsers._group_actions[0].choices for p in (full, one)]
        assert subparsers[1][command].format_help() == subparsers[0][command].format_help()

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_config_keys(self, tmp_path, capsys, command):
        argv = [command] + (["lemma-3-2"] if command == "verify" else [])
        keys = SURFACE[command][1]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = 1\n" for key in sorted(keys)))
        run(*argv, "--config", str(cfg))
        assert "unknown config keys" not in capsys.readouterr().err
        others = set().union(*(k for _, k in SURFACE.values())) - keys
        for key in sorted(others | {"config", "statement", "command"}):
            cfg.write_text(f"{key} = 1\n")
            assert run(*argv, "--config", str(cfg)) == 2
            assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"
