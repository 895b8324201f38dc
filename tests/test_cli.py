"""Command-line driver: reports, exit codes, determinism, config diagnostics."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from dcvortex import cli
from dcvortex.config import ConfigError, build_field, parse_config
from dcvortex.report import Report, make_check

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL_SOLVE = """
[grid]
n = 16

[bundles]
degrees1 = 0
degrees2 = 0

[constants]
sigma = 2

[fields]
psi = constant 1

[solver]
target_residual = 1e-7
"""


class TestCommands:
    def test_deg_p1_command(self, tmp_path, capsys):
        rc = cli.main(["deg-p1", "2", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS deg_p1(2)" in out
        report = json.loads((tmp_path / "deg_p1_report.json").read_text())
        assert report["verification"]["value"] == pytest.approx(2.0, abs=1e-6)

    def test_deg_p1_impossible_tolerance_exit_2(self, tmp_path):
        # the measured error is exactly zero here, so force a failing check
        rc = cli.main(["deg-p1", "2", "--out", str(tmp_path), "--tol", "-1"])
        assert rc == 2

    def test_tolerances_section_parsed(self, tmp_path, capsys):
        text = SMALL_SOLVE + "\n[tolerances]\ncheck = 1e-5\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.check_tol == 1e-5
        bad = SMALL_SOLVE + "\n[tolerances]\ncheck = -1\n"
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad, name="bad.ini"))
        # the quadruplet constraints are exact, so there is no constraint tolerance to set
        removed = write_config(tmp_path, SMALL_SOLVE + "\n[tolerances]\nconstraint = 1e-8\ncheck = 1e-5\n", "old.ini")
        rc = cli.main(["solve", "--config", str(removed), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "[tolerances] constraint" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_solve_command_stable(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SOLVE)
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["solver"]["converged"]
        assert report["constants"]["tau"] == "1/1"
        csv_text = (tmp_path / "out" / "history.csv").read_text()
        assert csv_text.splitlines()[0] == "iteration,sup_R1,sup_R2"

    def test_solve_command_unstable_exit_2(self, tmp_path):
        text = SMALL_SOLVE.replace("psi = constant 1", "psi = zero\nphi = constant 1")
        text = text.replace("target_residual = 1e-7", "target_residual = 1e-7\nmax_iter = 8000")
        cfg = write_config(tmp_path, text)
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert not report["solver"]["converged"]

    def test_stability_command_phi_entry(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SOLVE.replace("psi = constant 1", "phi = constant 1"))
        rc = cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "stability_report.json").read_text())
        verdict = report["stability"]["tau_verdict"]
        assert verdict["verdict"] == "unstable"
        assert verdict["witnesses"][0]["invariants"] == [0, 1, 0, 0]
        assert report["stability"]["sigma_verdict"]["verdict"] == "unstable"

    def test_stability_command_with_catalog_file(self, tmp_path):
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("ambient 1 1 0 0\nentry 1 0 0 0 user-supplied\n")
        text = SMALL_SOLVE + f"\n[stability]\ncatalog = {catalog}\n"
        cfg = write_config(tmp_path, text)
        rc = cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "stability_report.json").read_text())
        assert report["stability"]["tau_verdict"]["verdict"] == "stable"

    def test_stability_catalog_of_another_quadruplet_exit_1(self, tmp_path, capsys):
        # a verdict over a catalog of some other ambient object says nothing about this one:
        # with this file the phi entry would read "stable"
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("ambient 2 2 0 0\nentry 1 0 0 0\n")
        text = SMALL_SOLVE.replace("psi = constant 1", "phi = constant 1") + f"\n[stability]\ncatalog = {catalog}\n"
        cfg = write_config(tmp_path, text)
        rc = cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "ambient" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stability_command_with_user_subobjects(self, tmp_path):
        text = SMALL_SOLVE + "\n[stability]\nsubobjects = 0 1 0 0\n"
        cfg = write_config(tmp_path, text)
        rc = cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "stability_report.json").read_text())
        provs = {e["provenance"] for e in report["stability"]["catalog"]}
        assert "user-supplied" in provs
        # the added (0, E2) invariant destabilizes the psi entry's catalog
        assert report["stability"]["tau_verdict"]["verdict"] == "unstable"

    def test_tiny_psi_is_stable(self, tmp_path):
        # psi = 1e-10 is a nonzero psi: E2 alone is not a sub-object, E1 is
        cfg = write_config(tmp_path, SMALL_SOLVE.replace("psi = constant 1", "psi = constant 1e-10"))
        rc = cli.main(["stability", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "stability_report.json").read_text())
        for kind in ("tau_verdict", "sigma_verdict"):
            verdict = report["stability"][kind]
            assert verdict["verdict"] == "stable"
            assert [w["invariants"] for w in verdict["witnesses"]] == [[1, 0, 0, 0]]

    @pytest.mark.parametrize("command", ["solve", "stability"])
    def test_near_miss_twist_exit_1(self, tmp_path, capsys, command):
        # theta1 psi - psi theta2 = -1e-12: not a Higgs quadruplet, however small the defect
        fields = "theta1 = constant 1\ntheta2 = constant 1.000000000001\npsi = constant 1"
        cfg = write_config(tmp_path, SMALL_SOLVE.replace("psi = constant 1", fields))
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "theta1 psi != psi theta2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rational_entry_solves(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SOLVE.replace("psi = constant 1", 'psi = matrix [["1/3"]]'))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["solver"]["converged"]

    def test_verify_hk_command(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[grid]\nn = 32\n[bundles]\ndegrees1 = 0\ndegrees2 = 0\n[constants]\ntau = 1\n[hk]\ndraws = 5\n",
        )
        rc = cli.main(["verify-hk", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "1"])
        assert rc == 0

    def test_verify_reduction_command(self, tmp_path, monkeypatch):
        from dcvortex import reduction

        seen = {}

        def record(name, original):
            def wrapped(*args):
                seen[name] = args[-1]
                return original(*args)

            monkeypatch.setattr(reduction, name, wrapped)

        record("assemble_F", reduction.assemble_F)
        record("integrability_residual", reduction.integrability_residual)
        text = SMALL_SOLVE + "\n[reduction]\nn_points = 40\n"
        cfg = write_config(tmp_path, text)
        rc = cli.main(["verify-reduction", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "3"])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "verify_reduction_report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert {"he_product_residual", "he_offdiagonal", "integrability", "fs_contraction_constant"} <= names
        # both product checks read one sample set of the configured size
        assert report["verification"]["n_product_points"] == 40
        assert seen["assemble_F"] is seen["integrability_residual"]
        assert len(seen["assemble_F"].zeta) == 40


class TestConfigHandling:
    def test_malformed_config_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[constants]\nsigma = 2\ntau = 1\n")
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "constants" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path):
        rc = cli.main(["solve", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("token, re, im", [
        ("1", 1, 0),
        ("1/3", Fraction(1, 3), 0),
        ("-0.25", Fraction(-1, 4), 0),
        ("1e-10", Fraction(1, 10**10), 0),
        ("2j", 0, 2),
        ("-j", 0, -1),
        ("1/3+2/5j", Fraction(1, 3), Fraction(2, 5)),
        ("1e-3-2.5E+1J", Fraction(1, 1000), -25),
        ("1 - j", 1, -1),
    ])
    def test_entry_grammar(self, token, re, im):
        m = build_field("psi", f"matrix [[{json.dumps(token)}]]", 1, 1)
        assert (m.re[0, 0], m.im[0, 0]) == (re, im)
        assert m.values()[0, 0] == complex(float(re), float(im))

    @pytest.mark.parametrize("token", ["1/0", "1//3", "(1+2j)", "1+", "1.5/2", "0x10"])
    def test_entry_grammar_rejects(self, token):
        with pytest.raises(ConfigError, match=r"\[fields\] psi.*cannot parse complex"):
            build_field("psi", f"constant {token}", 1, 1)

    def test_bad_field_spec_names_key(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SOLVE.replace("psi = constant 1", "psi = constant what"))
        with pytest.raises(ConfigError, match="complex"):
            parse_config(cfg).quadruplet()

    def test_nonzero_subnormal_entry_accepted(self, tmp_path):
        # 5e-324 rounds to the smallest subnormal, not to 0.0, so psi stays nonzero
        cfg = write_config(tmp_path, SMALL_SOLVE.replace("psi = constant 1", "psi = constant 5e-324"))
        assert parse_config(cfg).quadruplet().psi[0, 0, 0, 0] == 5e-324

    @pytest.mark.parametrize("spec, message", [
        ("constant nan", "non-finite"),
        ("constant inf", "non-finite"),
        ("matrix [[\"nan\"]]", "non-finite"),
        # finite rationals whose float64 values overflow
        ("constant 1e400", "non-finite"),
        ("constant 1-1e400j", "non-finite"),
        ("matrix [[\"1e400\"]]", "non-finite"),
        # nonzero rationals whose float64 values underflow to 0.0: stability would read
        # a nonzero psi and solve a zero one
        ("constant 1e-400", "underflows"),
        ("constant 1e-400j", "underflows"),
        ("matrix [[\"1e-400\"]]", "underflows"),
        # finite, but |psi|^2 overflows float64, and with it the residual at h = Id
        ("constant 1e200", "[fields] psi is too large"),
        # malformed matrix literals: not a list of rows
        ("matrix 5", "[fields] psi"),
        ("matrix [1]", "[fields] psi"),
        ("matrix [[\"1\"], [\"0\"]]", "[fields] psi"),
        # a field is one constant matrix; there is no sampled-mode kind
        ("mode 8 0 1", "unknown field kind"),
    ])
    def test_invalid_field_exit_1(self, tmp_path, capsys, spec, message):
        cfg = write_config(tmp_path, SMALL_SOLVE.replace("psi = constant 1", f"psi = {spec}"))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, section", [
        ("verify-reduction", "[reduction]\nn_points = 0"),
        ("verify-hk", "[hk]\ndraws = 0"),
        ("verify-reduction", "[grid]\nn = 16\nn_radial = 0"),
        ("verify-reduction", "[grid]\nn = 16\nn_angular = 7"),
        ("verify-hk", "[grid]\nn = 5"),
        ("solve", "[grid]\nn = 2"),
        ("stability", "[solver]\nstep = nan"),
        ("solve", "[solver]\nstep = -1"),
        ("stability", "[solver]\ntarget_residual = nan"),
        ("solve", "[solver]\nmax_iter = 0"),
        ("solve", "[solver]\npatience = -3"),
        ("solve", "[tolerances]\nconstraint = nan"),
        ("solve", "[tolerances]\ncheck = inf"),
        ("solve", "[solver]\nstep = abc"),
        ("solve", "[solver]\nmax_iter = 1.5"),
        ("solve", "[grid]\nn = 16.0"),
        ("verify-reduction", "[reduction]\nn_points = 4k"),
        ("verify-hk", "[hk]\ndraws = ten"),
        ("solve", "[tolerances]\nconstraint = tiny"),
        ("solve", "[fields]\npsi = mode 1.5 0 1"),
        ("solve", "[fields]\npsi = constant 1\ntheta1 = mode 0 x 1"),
        ("stability", "[stability]\nsubobjects = 0 1 0 x"),
        # a misspelled name would run at the default, or with psi = 0 and a wrong "unstable?" diagnosis
        ("solve", "[solver]\ntarget_residul = 1e-12"),
        ("solve", "[fields]\npis = constant 1"),
        ("solve", "[solvr]"),
        ("solve", "[DEFAULT]\ntarget_residual = 1e-12"),
    ])
    def test_empty_sample_exit_1(self, tmp_path, capsys, command, section):
        # an empty sample would pass its checks vacuously; a bad n fails inside the numerics;
        # a bad solver setting or tolerance would run the solver or judge its checks wrongly;
        # an unparseable number must end in a config error naming its key, not a traceback
        base = SMALL_SOLVE.replace("[grid]\nn = 16", "").replace("[solver]\ntarget_residual = 1e-7", "")
        base = base.replace("[fields]\npsi = constant 1", "")
        text = base + "\n" + section + "\n"
        cfg = write_config(tmp_path, text)
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert section.split("\n")[-1].split()[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_option_exit_1(self, tmp_path, capsys):
        # argparse's own usage-error code 2 would read as "a check failed";
        # deg-p1 draws nothing at random, so it takes no --seed
        for argv, flag in (
            (["solve", "--out", str(tmp_path / "out")], "--config"),
            (["deg-p1", "2", "--seed", "1", "--out", str(tmp_path / "out")], "--seed"),
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 1
            assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "0"), ("--tol", "nan"), ("--seed", "-1")], ids=["0", "nan", "seed-1"]
    )
    def test_bad_tol_exit_1(self, tmp_path, capsys, flag, value):
        # --tol 0 would read as "unset" and nan would fail every check it overrides;
        # a negative --seed is no seed of numpy's generator
        cfg = write_config(tmp_path, SMALL_SOLVE)
        for command in ("solve", "stability", "verify-reduction", "verify-hk"):
            rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), flag, value])
            assert rc == 1
            assert f"usage error: {flag}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_shipped_configs_parse(self):
        # every shipped config uses only the sections and keys parse_config reads
        for directory in (CONFIGS, CONFIGS.parent / "bench" / "configs"):
            paths = sorted(directory.glob("*.ini"))
            assert paths, directory
            for path in paths:
                assert parse_config(path).constants() is not None


class TestReports:
    def test_report_round_trip(self):
        # exact rationals are written as "p/q", complex numbers as [re, im]
        from fractions import Fraction

        rep = Report(
            command="solve",
            seed=7,
            constants={"tau": Fraction(1, 3), "lambda_he": -2j * 3.14},
            provenance={"config_sha256": "x", "package_version": "0", "numpy_version": "0"},
        )
        rep.checks.append(make_check("a", 1e-9, 1e-8))
        rep.solver = {"converged": True, "iterations": 3, "final_sup_r1": 0.0,
                      "final_sup_r2": 0.0, "message": "converged", "history_csv": "h.csv"}
        doc = json.loads(rep.to_json())
        assert doc["constants"] == {"tau": "1/3", "lambda_he": [0.0, -6.28]}
        assert doc["checks"] == [{"name": "a", "value": 1e-9, "tolerance": 1e-8, "passed": True}]
        assert doc["solver"] == rep.solver and doc["seed"] == 7 and doc["schema_version"] == 1

    def test_report_json_is_strict(self, tmp_path):
        rep = Report(command="solve")
        rep.checks.append(make_check("a", float("nan"), 1e-8))
        with pytest.raises(ValueError):
            rep.to_json()
        cfg = write_config(tmp_path, SMALL_SOLVE)
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        json.loads((tmp_path / "solve_report.json").read_text(), parse_constant=reject)

    def test_csv_determinism(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SOLVE)
        for run in ("a", "b"):
            rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / run), "--seed", "5"])
            assert rc == 0
        assert (tmp_path / "a" / "history.csv").read_bytes() == (tmp_path / "b" / "history.csv").read_bytes()
