"""CLI surface: subcommands, their options, formats, exit codes."""

import csv
import io
import json

import click
import numpy as np
import pytest
from click.testing import CliRunner

import ktheta.theta as theta_module
from ktheta import TailNotConverged
from ktheta.cli import main
from ktheta.manifold import KTPoint, reduce_point


@pytest.fixture()
def runner():
    return CliRunner()


class TestCheckCommand:
    def test_single_check_json(self, runner):
        result = runner.invoke(main, ["check", "--only", "zero_locus"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert len(rows) == 1
        assert rows[0]["check"] == "zero_locus"
        assert rows[0]["pass"] is True
        assert rows[0]["max_residual"] <= rows[0]["threshold"]

    def test_csv_format(self, runner):
        result = runner.invoke(main, ["check", "--only", "zero_locus", "--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert rows[0]["check"] == "zero_locus"
        assert rows[0]["pass"] == "True"

    def test_unknown_check_usage_error(self, runner):
        result = runner.invoke(main, ["check", "--only", "not_a_check"])
        assert result.exit_code == 2

    def test_failing_check_exits_one(self, runner):
        # a sloppy series tolerance breaks the 1e-10 quasi-periodicity gate
        result = runner.invoke(
            main, ["check", "--only", "quasi_periodicity", "--eps", "1e-2", "--samples", "20"]
        )
        assert result.exit_code == 1
        rows = json.loads(result.output)
        assert rows[0]["pass"] is False

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["check", "--only", "zero_locus", "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())[0]["check"] == "zero_locus"

    def test_injectivity_is_not_a_command(self, runner):
        # its scan is ``check --only injectivity``
        result = runner.invoke(main, ["injectivity", "--samples", "60"])
        assert result.exit_code == 2
        assert "No such command 'injectivity'" in result.output

    @pytest.mark.parametrize("command, message", [
        (["embed", "--eps", "5e-324", "0.1", "0.3", "0.2", "0.4"], "epsilon must be finite"),
        (["check", "--only", "injectivity", "--samples", "1"], "samples must be 0"),
        (["check", "--only", "zero_locus", "--seed", "-1"], "seed must be non-negative"),
    ])
    def test_unusable_option_value_usage_error(self, runner, command, message):
        result = runner.invoke(main, command)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # handled, no traceback
        assert message in result.stderr

    def test_fd_step_is_not_an_option(self, runner):
        # the closedness stencil's step is the constant symplectic.FD_STEP
        result = runner.invoke(main, ["check", "--only", "zero_locus", "--fd-step", "1e-4"])
        assert result.exit_code == 2


# the flags of each command besides --format and --out: those of the
# RunConfig fields it reads, and its own
COMMAND_OPTIONS = {
    "check": {"--k", "--eps", "--samples", "--seed", "--only"},
    "embed": {"--k", "--eps"},
    "rank": {"--k", "--eps"},
    "pullback": {"--k", "--eps", "--map"},
    "integrate": {"--k", "--eps", "--map", "--torus"},
    "chern": {"--torus"},
}


class TestOptions:
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_each_command_declares_what_it_reads(self, command):
        assert set(main.commands) == set(COMMAND_OPTIONS)
        names = {name for param in main.commands[command].params
                 if isinstance(param, click.Option) for name in param.opts}
        assert names == COMMAND_OPTIONS[command] | {"--format", "--out"}

    @pytest.mark.parametrize("command", [["check", "--only", "zero_locus"],
                                         ["integrate", "--torus", "T_ca"]])
    def test_config_is_not_an_option(self, runner, tmp_path, command):
        # every setting is a flag: an unknown key, a bad value, the constants
        # theta.MAX_TERMS and symplectic.FD_STEP have no other way in
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\nsamples=many\nmax_terms=2\nfd_step=1e-4\n")
        result = runner.invoke(main, command + ["--config", str(cfg)])
        assert result.exit_code == 2
        assert "No such option '--config'" in result.stderr

    # and the torus quadrature grid, which is symplectic.torus_grid(k)
    @pytest.mark.parametrize("command", [["chern", "--k", "5"], ["integrate", "--samples", "4"],
                                         ["check", "--grid", "64"], ["integrate", "--grid", "64"]])
    def test_unread_field_is_not_an_option(self, runner, command):
        result = runner.invoke(main, command)
        assert result.exit_code == 2
        assert f"No such option '{command[1]}'" in result.stderr

    @pytest.mark.parametrize("command", ["embed", "rank", "pullback"])
    def test_negative_coordinates(self, runner, command):
        coords = ["-0.5", "0.1", "0.2", "0.3"]
        got, want = (runner.invoke(main, [command, "--k", "3"] + sep + coords)
                     for sep in ([], ["--"]))
        assert got.exit_code == want.exit_code == 0
        assert got.output == want.output

    def test_unknown_option_is_a_bad_coordinate(self, runner):
        result = runner.invoke(main, ["embed", "--bogus", "0.1", "0.2", "0.3"])
        assert result.exit_code == 2
        assert "'--bogus' is not a valid float" in result.stderr


class TestEmbedCommand:
    def test_json_output(self, runner):
        result = runner.invoke(main, ["embed", "--k", "2", "0.1", "0.2", "0.3", "0.4"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert len(rows) == 4  # k^2 coordinates
        vec = np.array([complex(r["re"], r["im"]) for r in rows])
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_display_normalization_deterministic(self, runner):
        a = runner.invoke(main, ["embed", "0.1", "0.2", "0.3", "0.4"]).output
        b = runner.invoke(main, ["embed", "0.1", "0.2", "0.3", "0.4"]).output
        assert a == b

    def test_csv_output(self, runner):
        result = runner.invoke(
            main, ["embed", "--k", "2", "--format", "csv", "0.1", "0.2", "0.3", "0.4"]
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 4
        assert set(rows[0]) == {"index", "re", "im"}


class TestRankCommand:
    def test_rank_four(self, runner):
        result = runner.invoke(main, ["rank", "0.1", "0.2", "0.3", "0.4"])
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["rank"] == 4

    def test_rank_zero_for_k1(self, runner):
        result = runner.invoke(main, ["rank", "--k", "1", "0.1", "0.2", "0.3", "0.4"])
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["rank"] == 0


class TestInjectivityCheck:
    def test_small_scan(self, runner):
        result = runner.invoke(
            main, ["check", "--only", "injectivity", "--samples", "60", "--seed", "3"]
        )
        assert result.exit_code == 0
        (row,) = json.loads(result.output)
        assert row["check"] == "injectivity" and row["samples"] == 60
        assert row["pass"] is True
        assert row["witness"]["min_image_distance"] > 1e-6


class TestPullbackCommand:
    def test_components(self, runner):
        result = runner.invoke(main, ["pullback", "0.1", "0.2", "0.3", "0.4"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert len(rows) == 6
        comps = {r["component"]: r["value"] for r in rows}
        assert "dx^dz" in comps

    def test_omega_map(self, runner):
        result = runner.invoke(
            main, ["pullback", "--map", "omega_kt", "0.5", "0.2", "0.3", "0.4"]
        )
        comps = {r["component"]: r["value"] for r in json.loads(result.output)}
        assert abs(comps["dx^dz"] + 1.0) < 1e-12
        assert abs(comps["dx^dy"] - 0.5) < 1e-12


class TestChernCommand:
    def test_all_tori(self, runner):
        result = runner.invoke(main, ["chern"])
        assert result.exit_code == 0
        got = {r["torus"]: r["c1"] for r in json.loads(result.output)}
        assert got == {"T_ca": 1, "T_bd": 1, "T_cb": 0, "T_ad": 0}

    def test_single_torus(self, runner):
        result = runner.invoke(main, ["chern", "--torus", "T_bd"])
        assert json.loads(result.output)[0]["c1"] == 1


class TestIntegrateCommand:
    def test_omega_kt(self, runner):
        result = runner.invoke(
            main, ["integrate", "--map", "omega_kt", "--torus", "T_bd"]
        )
        assert result.exit_code == 0
        assert abs(json.loads(result.output)[0]["integral"] - 1.0) < 1e-12

    def test_phi_k_integrals_are_k_times_chern(self, runner):
        chern = runner.invoke(main, ["chern"])
        result = runner.invoke(main, ["integrate", "--map", "phi_k", "--k", "3"])
        assert chern.exit_code == result.exit_code == 0
        c1 = {r["torus"]: r["c1"] for r in json.loads(chern.output)}
        rows = json.loads(result.output)
        assert sorted(r["torus"] for r in rows) == sorted(c1)
        for row in rows:
            assert row["k"] == 3
            assert abs(row["integral"] - 3 * c1[row["torus"]]) < 1e-3


# The raw k = 16 lift overflows at both points: at the first the series
# does, at the second the Segre product of two finite factors.
OFF_DOMAIN_POINTS = [["8", "0.2", "0.1", "0.4"], ["4", "0.2", "0.1", "4"]]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow, not even a warning
@pytest.mark.parametrize("coords", OFF_DOMAIN_POINTS, ids=" ".join)
@pytest.mark.parametrize("command", ["embed", "rank", "pullback"])
def test_point_commands_print_the_reduced_point(runner, command, coords):
    u0, w = reduce_point(KTPoint(*map(float, coords)))
    reduced = [repr(v) for v in (u0.x, u0.y, u0.z, u0.t)]
    got, want = (runner.invoke(main, [command, "--k", "16"] + c) for c in (coords, reduced))
    assert got.exit_code == want.exit_code == 0 and not got.stderr
    got, want = json.loads(got.output), json.loads(want.output)
    if command != "pullback":
        assert got == want
        return
    # the pullback at u = act(w, u0) is J^T Omega(u0) J, J = I - w.m e_z e_y^T
    got, want = ([row["value"] for row in rows] for rows in (got, want))
    omega = np.zeros((4, 4))
    omega[np.triu_indices(4, 1)] = want
    omega -= omega.T
    jac = np.eye(4)
    jac[2, 1] = -w.m
    assert w.m and np.allclose(got, (jac.T @ omega @ jac)[np.triu_indices(4, 1)],
                               rtol=0.0, atol=1e-12 * np.abs(got).max())


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the error line is the only output
@pytest.mark.parametrize("command, max_terms, error", [
    # TailNotConverged from the series window, at a cap of 2 terms
    (["embed", "0.1", "0.3", "0.2", "0.4"], 2, "error: "),
    (["rank", "0.1", "0.3", "0.2", "0.4"], 2, "error: "),
    (["pullback", "0.1", "0.3", "0.2", "0.4"], 2, "error: "),
    (["check", "--only", "zero_locus"], 2, "error in zero_locus: "),
    (["integrate", "--torus", "T_ca"], 2, "error: "),
    (["check", "--only", "injectivity", "--samples", "10"], 2, "error in injectivity: "),
])
def test_library_error_exits_one(runner, monkeypatch, command, max_terms, error):
    # No CLI input reaches the window cap (theta.MAX_TERMS), so the kernel's
    # window raises as if it had
    def no_window(*args):
        raise TailNotConverged(f"tail bound not reached within |m| <= {max_terms}")

    monkeypatch.setattr(theta_module, "_kernel_window", no_window)
    result = runner.invoke(main, command)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "Traceback" not in result.output
    assert any(line.startswith(error) for line in result.stderr.splitlines())


@pytest.mark.parametrize("command", [
    ["embed", "nan", "0", "0", "0"],
    ["rank", "--k", "3", "inf", "0", "0", "0"],
    ["pullback", "0", "0", "0", "nan"],
])
def test_non_finite_coordinate_usage_error(runner, command):
    result = runner.invoke(main, command)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "coordinates must be finite" in result.stderr
