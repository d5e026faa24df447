import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpodyn import cli, oracle
from mpodyn.charge_tensor import TruncationPolicy
from mpodyn.cli import METHODS, RUN_KEYS, RunConfig, build_parser, main
from mpodyn.evolution import evolve, make_schedule
from mpodyn.models import ModelSpec
from mpodyn.observables import build_observable_superstate


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestSimulate:
    def test_itac_run_and_sidecar(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "simulate", "--model", "xxz", "--delta", "0.8", "--length", "6",
                "--method", "grand-canonical", "--observable", "itac", "--site", "3",
                "--chi", "256", "--dt", "0.125", "--order", "4", "--tmax", "0.5",
                "--budget", "1e-2", "--output", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["t", "re", "im", "accumulated_cutoff", "max_osee", "chi_max_used"]
        assert float(rows[0][0]) == 0.0
        assert abs(float(rows[0][1]) - 1.0) < 1e-12  # G(0) = 1
        sidecar = json.loads((tmp_path / "run.csv.json").read_text())
        assert sidecar["termination_reason"] in ("t_max", "budget")
        assert sidecar["config"]["length"] == 6
        assert "version" in sidecar

    def test_determinism(self, tmp_path):
        args = [
            "simulate", "--model", "xxz", "--delta", "0.5", "--length", "4",
            "--method", "canonical", "--n", "2", "--observable", "itac", "--site", "2",
            "--dt", "0.25", "--order", "2", "--tmax", "0.5", "--budget", "1",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_density_run(self, tmp_path):
        out = tmp_path / "dens.csv"
        rc = main(
            [
                "simulate", "--model", "bose-hubbard", "--d", "3", "--interaction", "4",
                "--length", "4", "--method", "canonical", "--observable", "density",
                "--site", "2", "--psi0", "0101", "--dt", "0.125", "--order", "2",
                "--tmax", "0.25", "--budget", "1", "--output", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert abs(float(rows[0][1]) - 1.0) < 1e-10  # site 2 starts occupied

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "²"])
    def test_bad_thread_setting_exit_code(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("MPODYN_THREADS", threads)
        rc = main(
            [
                "simulate", "--model", "xxz", "--length", "4", "--method", "grand-canonical",
                "--observable", "itac", "--site", "2", "--dt", "0.1", "--tmax", "0.2",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        assert f"MPODYN_THREADS must be a positive integer, got '{threads}'" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--model", "xxz", "--length", "4", "--method", "canonical",
                "--observable", "itac", "--site", "2", "--dt", "0.1", "--tmax", "0.2",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        assert "requires --n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("site", [0, 5])
    def test_site_out_of_range_exit_code(self, tmp_path, capsys, command, site):
        out = tmp_path / "x.csv"
        run = ["--method", "grand-canonical"] if command == "simulate" else ["--run", "method=brute"]
        rc = main(
            [
                command, "--model", "xxz", "--length", "4", "--observable", "itac",
                "--site", str(site), "--dt", "0.25", "--tmax", "0.25", "--output", str(out),
            ]
            + run
        )
        assert rc == 2
        assert "site out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_particle_number_checked_against_model_dimension(self, tmp_path, capsys, command):
        # xxz sites are spin-1/2 whatever --d says, so N = 3 on two sites is infeasible
        out = tmp_path / "x.csv"
        run = ["--method", "canonical", "--n", "3"]
        if command == "compare":
            run = ["--run", "method=canonical,n=3"]
        rc = main(
            [
                command, "--model", "xxz", "--d", "3", "--length", "2", "--site", "1",
                "--dt", "0.25", "--tmax", "0.25", "--output", str(out),
            ]
            + run
        )
        assert rc == 2
        assert "infeasible particle number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_tmax_exit_code(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        run = ["--method", "grand-canonical"] if command == "simulate" else ["--run", "method=brute"]
        rc = main(
            [
                command, "--model", "xxz", "--length", "4", "--site", "2",
                "--dt", "0.25", "--tmax", "-1", "--output", str(out),
            ]
            + run
        )
        assert rc == 2
        assert "tmax" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize(
        "flag,value,other",
        [
            ("--tmax", "inf", ["--dt", "0.25"]),
            ("--tmax", "nan", ["--dt", "0.25"]),
            ("--dt", "nan", ["--tmax", "1"]),
            ("--dt", "inf", ["--tmax", "1"]),
        ],
    )
    def test_non_finite_time_exit_code(self, tmp_path, capsys, command, flag, value, other):
        out = tmp_path / "x.csv"
        run = ["--method", "grand-canonical"] if command == "simulate" else ["--run", "method=brute"]
        rc = main(
            [command, "--length", "4", "--site", "2", flag, value, "--output", str(out)]
            + other
            + run
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{flag} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize(
        "model,flag,value",
        [
            ("xxz", "--delta", "nan"),
            ("xxz", "--delta", "-inf"),
            ("bose-hubbard", "--interaction", "inf"),
            ("bose-hubbard", "--hopping", "nan"),
        ],
    )
    def test_non_finite_coupling_names_the_field(
        self, tmp_path, capsys, monkeypatch, command, model, flag, value
    ):
        calls = []
        monkeypatch.setattr(cli, "_run_series", lambda cfg: calls.append(cfg))
        out = tmp_path / "x.csv"
        run = ["--method", "grand-canonical"] if command == "simulate" else ["--run", "method=brute"]
        rc = main(
            [
                command, "--model", model, "--d", "3", "--length", "4", "--site", "2",
                "--observable", "density", "--psi0", "0101", "--dt", "0.25", "--tmax", "0.25",
                f"{flag}={value}", "--output", str(out),
            ]
            + run
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{flag[2:]} must be finite" in err and "Traceback" not in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_density_particle_number_must_match_psi0(self, tmp_path, capsys, command):
        # psi0 = 0101 holds two bosons; --n 3 would be recorded but not run
        out = tmp_path / "x.csv"
        run = ["--method", "canonical", "--n", "3"]
        if command == "compare":
            run = ["--run", "method=canonical,n=3"]
        rc = main(
            [
                command, "--model", "bose-hubbard", "--d", "3", "--length", "4",
                "--site", "2", "--observable", "density", "--psi0", "0101",
                "--dt", "0.25", "--tmax", "0.25", "--output", str(out),
            ]
            + run
        )
        assert rc == 2
        assert "--n differs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("method", ["grand-canonical", "brute"])
    @pytest.mark.parametrize("observable", ["itac", "osee"])
    def test_particle_number_needs_canonical_method(
        self, tmp_path, capsys, command, method, observable
    ):
        # only canonical labels fix N for itac and osee; elsewhere --n would be recorded, not run
        out = tmp_path / "x.csv"
        run = ["--method", method, "--n", "2"]
        if command == "compare":
            run = ["--run", "method=canonical,n=2", "--run", f"method={method},n=2"]
        rc = main(
            [
                command, "--model", "xxz", "--length", "4", "--site", "2",
                "--observable", observable, "--dt", "0.25", "--tmax", "0.25",
                "--output", str(out),
            ]
            + run
        )
        assert rc == 2
        assert "--n needs --method canonical" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_psi0_needs_the_density_observable(self, tmp_path, capsys, command):
        # an itac run never reads psi0; it would be recorded in the sidecar only
        out = tmp_path / "x.csv"
        run = ["--method", "grand-canonical"] if command == "simulate" else ["--run", "method=brute"]
        rc = main(
            [
                command, "--length", "4", "--site", "2", "--tmax", "0.25", "--psi0", "0101",
                "--output", str(out),
            ]
            + run
        )
        assert rc == 2
        assert "--psi0 is read only by the density observable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("psi0", ["01a1", "0 1", "", "-101"])
    def test_psi0_must_be_digits(self, tmp_path, capsys, command, psi0):
        out = tmp_path / "x.csv"
        run = ["--method", "grand-canonical"] if command == "simulate" else ["--run", "method=brute"]
        rc = main(
            [
                command, "--length", "4", "--site", "2", "--observable", "density",
                f"--psi0={psi0}", "--tmax", "0.25", "--output", str(out),
            ]
            + run
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--psi0 takes digits" in err and repr(psi0) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_missing_output_directory_rejected_before_the_run(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_run(cfg):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "_run_series", no_run)
        run = ["--method", "grand-canonical"] if command == "simulate" else ["--run", "method=brute"]
        out = tmp_path / "no" / "such" / "run.csv"
        rc = main([command, "--length", "4", "--site", "2", "--output", str(out)] + run)
        assert rc == 2
        assert "no directory for --output" in capsys.readouterr().err

    def test_budget_termination_reported(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(
            [
                "simulate", "--model", "xxz", "--delta", "0.8", "--length", "8",
                "--method", "grand-canonical", "--observable", "itac", "--site", "4",
                "--chi", "4", "--dt", "0.125", "--order", "4", "--tmax", "20",
                "--budget", "1e-2", "--output", str(out),
            ]
        )
        assert rc == 0
        sidecar = json.loads((out.parent / "b.csv.json").read_text())
        assert sidecar["termination_reason"] == "budget"
        _, rows = read_csv(out)
        assert float(rows[-1][3]) >= 1e-2  # accumulated cutoff column

    @pytest.mark.parametrize("method,n", [("grand-canonical", None), ("canonical", 3)])
    def test_osee_run_matches_hand_evolution(self, tmp_path, method, n):
        L, site, dt, tmax = 6, 3, 0.125, 0.5
        args = [
            "simulate", "--model", "xxz", "--delta", "0.8", "--length", str(L),
            "--method", method, "--observable", "osee", "--site", str(site),
            "--chi", "64", "--dt", str(dt), "--order", "4", "--tmax", str(tmax),
            "--budget", "1",
        ] + (["--n", str(n)] if n is not None else [])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]

        _, rows = read_csv(a)
        n_steps = round(tmax / dt)
        assert [float(r[0]) for r in rows] == [k * dt for k in range(n_steps + 1)]

        spec = ModelSpec.xxz(L, 0.8)
        target = build_observable_superstate(spec, site, METHODS[method], n)
        expected = []
        evolve(
            target, spec, make_schedule(4, dt), tmax, TruncationPolicy(64, 0.0), 1.0,
            observer=lambda t, s, lg: expected.append(s.osee_profile()[site - 1]),  # bond = site
        )
        assert len(expected) == len(rows)
        for row, val in zip(rows, expected):
            assert abs(float(row[1]) - val) <= 1e-12
            assert float(row[2]) == 0.0


class TestProjectorOsee:
    def test_sweep(self, tmp_path):
        out = tmp_path / "osee.csv"
        rc = main(
            [
                "projector-osee", "--d", "2", "--length", "40",
                "--n-range", "1:20", "--bond", "20", "--output", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["n", "osee"]
        assert len(rows) == 20
        vals = [float(r[1]) for r in rows]
        for n, s in zip(range(1, 21), vals):
            assert s <= np.log2(n + 1) + 1e-12
        assert all(b > a for a, b in zip(vals, vals[1:]))  # monotone up to L/2

    def test_infeasible_particle_number_exit_code(self, tmp_path, capsys):
        out = tmp_path / "osee.csv"
        rc = main(
            [
                "projector-osee", "--d", "2", "--length", "4",
                "--n-range", "0:6", "--bond", "2", "--output", str(out),
            ]
        )
        assert rc == 2
        assert "infeasible particle number" in capsys.readouterr().err
        assert not out.exists()


    def test_sidecar_records_only_its_options(self, tmp_path):
        out = tmp_path / "osee.csv"
        args = ["--d", "2", "--length", "6", "--n-range", "1:3", "--bond", "3", "--output", str(out)]
        assert main(["projector-osee"] + args) == 0
        sidecar = json.loads((tmp_path / "osee.csv.json").read_text())
        assert sidecar["config"] == {
            "d": 2, "length": 6, "n_range": "1:3", "bond": 3, "output": str(out),
        }

    @pytest.mark.parametrize("n_range", ["3:1", "5", "1:2:3", "a:2", ""])
    def test_bad_n_range_exit_code(self, tmp_path, capsys, n_range):
        out = tmp_path / "osee.csv"
        rc = main(
            [
                "projector-osee", "--d", "2", "--length", "6",
                "--n-range", n_range, "--bond", "3", "--output", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--n-range" in err and "Traceback" not in err
        assert not out.exists()


class TestOracleCheck:
    def test_itac_suite_passes(self, capsys):
        rc = main(
            [
                "oracle-check", "--suite", "itac", "--length", "4", "--delta", "0.8",
                "--site", "2", "--dt", "0.125", "--tmax", "0.5", "--tol", "1e-6",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "itac_grand_canonical" in out
        assert "FAIL" not in out

    def test_density_suite_passes(self, capsys):
        rc = main(
            [
                "oracle-check", "--suite", "density", "--model", "bose-hubbard", "--d", "3",
                "--length", "4", "--site", "2", "--psi0", "1010", "--tmax", "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "density_canonical" in out and "density_grand_canonical" in out
        assert "FAIL" not in out

    def test_density_suite_default_psi0_odd_length(self, capsys):
        rc = main(
            [
                "oracle-check", "--suite", "density", "--model", "bose-hubbard", "--length", "5",
                "--d", "3", "--tmax", "0.25",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "density_canonical" in out and "FAIL" not in out


    @pytest.mark.parametrize("suite", ["density", "itac"])
    @pytest.mark.parametrize("site", [0, 3])
    def test_site_out_of_range_exit_code(self, capsys, suite, site):
        rc = main(
            [
                "oracle-check", "--suite", suite, "--length", "2", "--site", str(site),
                "--tmax", "0.25",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "site out of range" in err and "Traceback" not in err

    def test_density_occupation_beyond_local_dimension(self, capsys):
        rc = main(
            [
                "oracle-check", "--suite", "density", "--length", "2", "--psi0", "22",
                "--site", "1", "--tmax", "0.25",
            ]
        )
        assert rc == 2
        assert "outside 0..1" in capsys.readouterr().err

    def test_psi0_must_be_digits(self, capsys):
        rc = main(["oracle-check", "--suite", "density", "--length", "4", "--psi0", "01a1"])
        assert rc == 2
        assert "--psi0 takes digits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,field",
        [
            (["--delta", "nan"], "delta"),
            (
                ["--suite", "density", "--model", "bose-hubbard", "--d", "3", "--interaction", "inf"],
                "interaction",
            ),
        ],
    )
    def test_non_finite_coupling_names_the_field(self, capsys, args, field):
        rc = main(["oracle-check", "--length", "4", "--tmax", "0.25"] + args)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err and "Traceback" not in err

    def test_default_site_beyond_short_chain(self, capsys):
        # the default --site 3 does not exist on two sites
        rc = main(["oracle-check", "--suite", "density", "--length", "2", "--tmax", "0.25"])
        assert rc == 2
        assert "site out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
    def test_bad_tolerance_exit_code(self, capsys, tol):
        rc = main(["oracle-check", "--length", "4", "--tmax", "0.25", f"--tol={tol}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--tol" in err and "Traceback" not in err

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        # one comparison decides both the printed status and the exit code
        monkeypatch.setattr(oracle, "dense_itac", lambda *args: float("nan"))
        monkeypatch.setattr(oracle, "dense_sector_itac", lambda *args: float("nan"))
        rc = main(["oracle-check", "--length", "4", "--tmax", "0.25"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[ok]" not in out and out.count("[FAIL]") == 4

    def test_runs_as_module(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mpodyn", "oracle-check", "--length", "4", "--tmax", "0.25"],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "itac_grand_canonical" in proc.stdout and "FAIL" not in proc.stdout


class TestCompare:
    def test_joint_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main(
            [
                "compare", "--model", "xxz", "--delta", "0.8", "--length", "4",
                "--observable", "itac", "--site", "2", "--dt", "0.25", "--order", "2",
                "--tmax", "0.5", "--budget", "1", "--output", str(out),
                "--run", "method=grand-canonical,chi=64",
                "--run", "method=canonical,n=2,chi=64",
                "--run", "method=brute,chi=64",
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0] == "t"
        assert len(header) == 7
        sidecar = json.loads((tmp_path / "cmp.csv.json").read_text())
        assert sidecar["last_common_time"] == 0.5
        # grand-canonical and brute compute the same quantity; at exact
        # bond dimensions they agree, while canonical tracks one sector
        for row in rows:
            assert abs(float(row[1]) - float(row[5])) < 1e-8


    @pytest.mark.parametrize("item", ["chi=abc", "n=2.5", "method=exact", "method=canonical,chi="])
    def test_bad_run_value_names_the_item(self, tmp_path, capsys, item):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--length", "4", "--site", "2", "--output", str(out), "--run", item])
        assert rc == 2
        err = capsys.readouterr().err
        bad = item.split(",")[-1]
        assert f"--run item {bad!r}" in err and "is not a valid" in err
        assert not out.exists()

    @pytest.mark.parametrize("chi", ["0", "-2"])
    def test_bad_chi_in_a_later_run_stops_before_any_run(self, tmp_path, capsys, monkeypatch, chi):
        calls = []
        monkeypatch.setattr(cli, "_run_series", lambda cfg: calls.append(cfg))
        out = tmp_path / "cmp.csv"
        rc = main(
            [
                "compare", "--length", "8", "--site", "4", "--tmax", "3", "--dt", "0.25",
                "--output", str(out), "--run", "chi=32", "--run", f"chi={chi}",
            ]
        )
        assert rc == 2
        assert f"chi_max must be None or an integer >= 1, got {chi}" in capsys.readouterr().err
        assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_xxz_sidecar_records_model_local_dim(tmp_path, command):
    # XXZ sites are spin-1/2 whatever --d says; the sidecar must say what ran
    out = tmp_path / "run.csv"
    args = [
        command, "--model", "xxz", "--d", "3", "--length", "4", "--site", "2",
        "--dt", "0.25", "--tmax", "0.25", "--output", str(out),
    ]
    if command == "simulate":
        args += ["--method", "canonical", "--n", "2"]
    else:
        args += ["--run", "method=canonical,n=2"]
    assert main(args) == 0
    sidecar = json.loads((tmp_path / "run.csv.json").read_text())
    assert sidecar["config"]["local_dim"] == 2


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "model, flags, recorded, unread",
    [
        (
            "bose-hubbard",
            ["--d", "3", "--hopping", "0.5", "--interaction", "2", "--delta", "nan"],
            {"hopping": 0.5, "interaction": 2.0},
            ["delta"],
        ),
        (
            "xxz",
            ["--delta", "0.8", "--hopping", "5", "--interaction", "7"],
            {"delta": 0.8},
            ["hopping", "interaction"],
        ),
    ],
    ids=["bose-hubbard", "xxz"],
)
def test_sidecar_records_only_the_couplings_the_model_reads(
    tmp_path, command, model, flags, recorded, unread
):
    # a coupling the model never reads must not look as if it reached H
    out = tmp_path / "run.csv"
    args = [
        command, "--model", model, *flags, "--length", "4", "--site", "2",
        "--dt", "0.25", "--tmax", "0.25", "--output", str(out),
    ]
    run = ["--method", "canonical", "--n", "2"] if command == "simulate" else ["--run", "method=canonical,n=2"]
    assert main(args + run) == 0
    config = json.loads((tmp_path / "run.csv.json").read_text())["config"]
    assert {name: config[name] for name in recorded} == recorded
    assert not set(unread) & config.keys()


class TestFitCommand:
    def test_fit_round_trip(self, tmp_path, capsys):
        t = np.linspace(1.0, 9.0, 80)
        vals = t**-0.62 * 1.3
        path = tmp_path / "series.csv"
        with open(path, "w") as fh:
            fh.write("t,re,im,accumulated_cutoff,max_osee,chi_max_used\n")
            for ti, vi in zip(t, vals):
                fh.write(f"{ti},{vi},0,0,0,1\n")
        rc = main(["fit", "--input", str(path), "--t-lo", "1.0", "--t-hi", "9.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["kappa"] + 0.62) < 1e-6
        assert abs(payload["A"] - 1.3) < 1e-6

    @pytest.mark.parametrize("header, missing", [("time,re,im", "'t'"), ("t,real", "'re'"), ("x", "'t' or 're'")])
    def test_missing_column_names_column_and_file(self, tmp_path, capsys, header, missing):
        path = tmp_path / "series.csv"
        path.write_text(header + "\n1,2,3\n")
        rc = main(["fit", "--input", str(path), "--t-lo", "1", "--t-hi", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path} has no column {missing}\n"

    def test_missing_input_exit_code(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "missing.csv"), "--t-lo", "1", "--t-hi", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRunOptionsSpelledOnce:
    """Each simulate/compare option is one RunConfig field: a field without its
    flag, or a flag without its field, fails here."""

    FIELDS = {f.name for f in dataclasses.fields(RunConfig)}

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_parsed_options_are_the_config_fields(self, command):
        argv = [command, "--length", "4", "--site", "2"]
        if command == "compare":
            argv += ["--run", "method=brute"]
        options = set(vars(build_parser().parse_args(argv))) - {"command", "func", "run"}
        assert options == self.FIELDS

    def test_run_keys_name_config_fields(self):
        assert {field for field, _parse, _label in RUN_KEYS.values()} <= self.FIELDS
