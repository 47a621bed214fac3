import ast
import importlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import typical_clt
from typical_clt import cli
from typical_clt import distributions as di
from typical_clt import experiments as ex
from typical_clt.errors import DomainError, NumericKernelError


def run(argv):
    return cli.main(argv)


class TestVerifyCommand:
    def test_tail_suite_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "verify.csv")
        code = run(["verify", "--suite", "tail", "--budget-scale", "0.05",
                    "--seed", "42", "--output", out])
        assert code == cli.EXIT_OK
        assert os.path.exists(out)
        assert "checks passed" in capsys.readouterr().out

    def test_unknown_suite_exit_two(self):
        assert run(["verify", "--suite", "bogus"]) == cli.EXIT_CONFIG_ERROR

    def test_threads_below_one_exit_two(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = run(["verify", "--suite", "tail", "--threads", "0", "--output", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_budget_scale_exit_two(self, tmp_path, scale):
        out = tmp_path / "verify.csv"
        code = run(["verify", "--suite", "tail", "--budget-scale", scale,
                    "--output", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        assert not out.exists()


class TestSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        out = tmp_path / "sweep.csv"
        cfg.write_text(f"""
[system]
name = trigonometric

[sweep]
n_list = 16, 32, 64
target = phi
seed = 5
output = {out}

[budgets]
theta = 6
per_theta = 3000
radial = 2000
""")
        code = run(["sweep", "--config", str(cfg)])
        assert code == cli.EXIT_OK
        assert out.exists()
        assert "rate fit" in capsys.readouterr().out

    def test_bad_config_exit_two(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[system]\nname = nonexistent_system\n\n[sweep]\nn_list = 16, 32\n")
        assert run(["sweep", "--config", str(cfg)]) == cli.EXIT_CONFIG_ERROR

    def test_unknown_key_exit_two(self, tmp_path):
        cfg = tmp_path / "bad2.ini"
        cfg.write_text("[system]\nname = uniform\ncolor = blue\n\n[sweep]\nn_list = 16, 32\n")
        assert run(["sweep", "--config", str(cfg)]) == cli.EXIT_CONFIG_ERROR

    # a config that runs in well under a second; {out} is its output path
    SMALL_SWEEP = (b"[system]\nname = trig\n[sweep]\nn_list = 8, 16, 32\n"
                   b"output = {out}\n[budgets]\ntheta = 2\nper_theta = 200\nradial = 200\n")

    # each case spoils one thing of the config or of its output path; a
    # sweep's config sets its output, the other commands take --output
    @pytest.mark.parametrize("command, config, output", [
        ("sweep", b"seed = 5\n" + SMALL_SWEEP, "sweep.csv"),
        ("sweep", SMALL_SWEEP + b"theta = 3\n", "sweep.csv"),
        ("sweep", SMALL_SWEEP + b"radial\n", "sweep.csv"),
        ("sweep", b"# \xe9\n" + SMALL_SWEEP, "sweep.csv"),
        ("sweep", SMALL_SWEEP, "a_directory"),
        ("sweep", SMALL_SWEEP, "a_file/sweep.csv"),
        ("verify", None, "a_directory"),
        ("verify", None, "a_file/new/verify.csv"),
        ("distance", None, "a_directory"),
        ("distance", None, "a_file/dist.csv"),
    ], ids=["no_section_header", "duplicate_key", "unparsable_line", "not_utf8",
            "output_is_directory", "output_under_file",
            "verify_output_is_directory", "verify_output_under_file",
            "distance_output_is_directory", "distance_output_under_file"])
    def test_unreadable_config_or_unwritable_output_exit_two(
            self, tmp_path, monkeypatch, command, config, output):
        def cell(*args, **kwargs):
            raise AssertionError("a cell ran before the output was checked")

        # every sweep and distance cell, and the verify suite below, fail
        monkeypatch.setattr(di, "mean_theta_distance", cell)
        monkeypatch.setattr(di, "mean_theta_distances", cell)
        monkeypatch.setitem(ex.SUITES, "tail", lambda scale, seed: [cell])
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "a_file").write_text("")
        out = str(tmp_path / output)
        if command == "sweep":
            cfg = tmp_path / "cfg.ini"
            cfg.write_bytes(config.replace(b"{out}", out.encode()))
            argv = ["sweep", "--config", str(cfg)]
        elif command == "verify":
            argv = ["verify", "--suite", "tail", "--output", out]
        else:
            argv = ["distance", "--spec", "trig", "--n", "8", "--target", "phi",
                    "--output", out]
        assert run(argv) == cli.EXIT_CONFIG_ERROR
        assert (tmp_path / "a_file").read_text() == ""

    @pytest.mark.parametrize("error, code", [
        (NumericKernelError, cli.EXIT_NUMERIC_ERROR),
        (DomainError, cli.EXIT_CONFIG_ERROR),
    ], ids=["numeric", "domain"])
    def test_failed_build_ends_the_sweep(self, tmp_path, monkeypatch, error, code):
        original = di.build_target

        def build_target(spec, *args):
            if spec.n == 32:
                raise error(f"no target at n={spec.n}")
            return original(spec, *args)

        monkeypatch.setattr(di, "build_target", build_target)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[system]\nname = uniform\n[sweep]\nn_list = 16, 32, 64\n"
                       f"target = F\noutput = {tmp_path / 'sweep.csv'}\n"
                       f"[budgets]\ntheta = 8\nper_theta = 2000\nradial = 2000\n")
        exit_codes = []
        runner = threading.Thread(target=lambda: exit_codes.append(
            run(["sweep", "--config", str(cfg), "--threads", "2"])))
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive()
        assert exit_codes == [code]
        assert not (tmp_path / "sweep.csv").exists()

    def test_fit_unavailable_is_not_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        out = tmp_path / "normal.csv"
        cfg.write_text(f"""
[system]
name = normal

[sweep]
n_list = 16, 32, 64
target = phi
seed = 5
output = {out}

[budgets]
theta = 6
per_theta = 3000
radial = 2000
""")
        code = run(["sweep", "--config", str(cfg)])
        assert code == cli.EXIT_OK
        assert "fit unavailable" in capsys.readouterr().out
        assert out.exists()


class TestOtherCommands:
    def test_functionals(self, tmp_path, capsys):
        out = str(tmp_path / "fn.csv")
        code = run(["functionals", "--spec", "uniform", "--n", "16",
                    "--p", "2", "--budget", "2000", "--seed", "3",
                    "--output", out])
        assert code == cli.EXIT_OK
        assert os.path.exists(out)
        assert "M_p" in capsys.readouterr().out

    def test_distance(self, tmp_path, capsys):
        out = str(tmp_path / "dist.csv")
        code = run(["distance", "--spec", "trigonometric", "--n", "16",
                    "--target", "phi", "--theta-budget", "4",
                    "--per-theta", "2000", "--radial", "1000",
                    "--seed", "3", "--output", out])
        assert code == cli.EXIT_OK
        assert "mean rho" in capsys.readouterr().out
        assert os.path.exists(out)

    def test_charfn(self, tmp_path):
        out = str(tmp_path / "cf.csv")
        code = run(["charfn", "--spec", "walsh", "--n", "15", "--tmax", "4.0",
                    "--points", "32", "--radial", "1000", "--seed", "3",
                    "--output", out])
        assert code == cli.EXIT_OK
        lines = open(out).read().splitlines()
        assert lines[0] == "# typical-clt v1"
        assert lines[1] == "t,re,im,se"
        assert len(lines) == 2 + 32

    def test_charfn_small_n(self, tmp_path):
        out = str(tmp_path / "cf.csv")
        code = run(["charfn", "--spec", "uniform", "--n", "8", "--tmax", "5",
                    "--output", out])
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("orders", ["x", "2,", "2,,3", "nan", "inf", "2,-inf"])
    def test_bad_moment_orders_exit_two(self, orders):
        assert run(["functionals", "--spec", "uniform", "--n", "16",
                    "--p", orders, "--budget", "200"]) == cli.EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("spec", ["normal", "uniform"])
    def test_overflowing_moment_exit_three(self, spec, capsys):
        # E|<X, Y>|^400 and, for the normal system, E|Z|^400 exceed a float
        code = run(["functionals", "--spec", spec, "--n", "16",
                    "--p", "400", "--budget", "200"])
        assert code == cli.EXIT_NUMERIC_ERROR
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("tmax", ["nan", "inf"])
    def test_charfn_non_finite_tmax_exit_two(self, tmp_path, tmax):
        out = tmp_path / "cf.csv"
        code = run(["charfn", "--spec", "uniform", "--n", "8", "--tmax", tmax,
                    "--output", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_charfn_too_few_points_exit_two(self, tmp_path, points):
        out = tmp_path / "cf.csv"
        code = run(["charfn", "--spec", "uniform", "--n", "8", "--tmax", "5",
                    "--points", points, "--output", str(out)])
        assert code == cli.EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_bad_arguments_exit_two(self):
        assert run(["distance", "--spec", "uniform", "--n", "16",
                    "--target", "Z"]) == cli.EXIT_CONFIG_ERROR

    def test_missing_command_exit_two(self):
        assert run([]) == cli.EXIT_CONFIG_ERROR


def _loaded_scipy(code):
    """Run `code` in a fresh interpreter; its last line of output, then
    the scipy modules it left loaded."""
    code = (f"import sys, typical_clt.cli; {code}; "
            f"print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return out[-2] if len(out) > 1 else None, ast.literal_eval(out[-1])


def test_import_leaves_scipy_out():
    # no module of the package imports scipy, so startup loads none
    assert _loaded_scipy("pass") == (None, [])


@pytest.mark.parametrize("target", ["F", "phi", "G"])
def test_sweep_leaves_scipy_out(tmp_path, target):
    # both kernels are Hermite tables in numpy: the sphere CDF's for F, the
    # normal CDF's for phi and G; 5000 x 5000 points and atoms read G's and
    # F's lookup tables
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[system]\nname = uniform\n[sweep]\nn_list = 8, 16, 32\n"
                   f"target = {target}\noutput = {tmp_path / 'sweep.csv'}\n"
                   f"[budgets]\ntheta = 2\nper_theta = 5000\nradial = 5000\n")
    code = f"print(typical_clt.cli.main(['sweep', '--config', {str(cfg)!r}]))"
    assert _loaded_scipy(code) == ("0", [])


@pytest.mark.parametrize("target", ["phi", "G"])
def test_distance_leaves_scipy_out(tmp_path, target):
    # the normal CDF's Hermite table, directly for phi and through G's
    # lookup table
    code = (f"print(typical_clt.cli.main(['distance', '--spec', 'normal', '--n', '8', "
            f"'--target', '{target}', '--theta-budget', '2', '--per-theta', '5000', "
            f"'--radial', '5000', '--output', {str(tmp_path / 'd.csv')!r}]))")
    assert _loaded_scipy(code) == ("0", [])


@pytest.mark.parametrize("n", [8, 64])
def test_charfn_leaves_scipy_out(tmp_path, n):
    # J_n is a Hermite table in numpy for every n
    code = (f"print(typical_clt.cli.main(['charfn', '--spec', 'uniform', '--n', '{n}', "
            f"'--tmax', '3', '--radial', '2000', '--output', {str(tmp_path / 'c.csv')!r}]))")
    assert _loaded_scipy(code) == ("0", [])


def test_verify_leaves_scipy_out(tmp_path):
    # no verify suite reaches a mixture or the normal CDF
    code = (f"print(typical_clt.cli.main(['verify', '--suite', 'all', "
            f"'--budget-scale', '0.02', '--output', {str(tmp_path / 'v.csv')!r}]))")
    exit_code, loaded = _loaded_scipy(code)
    assert exit_code in ("0", "1") and loaded == []


def _run_unpinned(code, **env):
    """Run `code` in a fresh interpreter whose environment lacks the BLAS
    thread variables (plus `env`); its last line of output."""
    child_env = {k: v for k, v in os.environ.items()
                 if k not in cli.BLAS_THREAD_VARIABLES}
    child_env.update(PYTHONPATH=os.pathsep.join(sys.path), **env)
    out = subprocess.run([sys.executable, "-c", code], env=child_env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return out[-1]


@pytest.mark.parametrize("module", ["typical_clt.cli", "typical_clt"])
def test_import_leaves_numpy_out(module):
    # OpenBLAS reads its thread count when numpy loads, so the CLI can pin
    # it only if importing the package loads no numpy
    assert _run_unpinned(f"import sys, {module}; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("env, pinned", [
    ({}, "['1', '1', '1']"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "['2', '1', '1']"),   # the user's value wins
], ids=["unset", "user-set"])
def test_main_pins_one_blas_thread(tmp_path, env, pinned):
    code = ("import os, typical_clt.cli as c; "
            f"c.main(['verify', '--suite', 'tail', '--budget-scale', '0.05', "
            f"'--output', {str(tmp_path / 'v.csv')!r}]); "
            "print([os.environ.get(v) for v in c.BLAS_THREAD_VARIABLES])")
    assert _run_unpinned(code, **env) == pinned


def test_verify_bytes_do_not_depend_on_blas_variables(tmp_path):
    # the CLI pins BLAS itself, so a shell without the variables writes the
    # bytes of one that sets them to 1
    outputs = []
    for name, env in (("unset", {}), ("one", dict.fromkeys(cli.BLAS_THREAD_VARIABLES, "1"))):
        out = tmp_path / f"{name}.csv"
        code = ("import typical_clt.cli as c; print(c.main(['verify', '--suite', "
                f"'functionals', '--budget-scale', '0.05', '--seed', '42', "
                f"'--output', {str(out)!r}]))")
        assert _run_unpinned(code, **env) in ("0", "1")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class TestLazyPackage:
    def test_names_resolve_to_submodule_attributes(self):
        for name in typical_clt.__all__:
            module = importlib.import_module(f"typical_clt.{typical_clt._MODULE_OF[name]}")
            assert getattr(typical_clt, name) is getattr(module, name), name

    def test_dir_lists_every_public_name(self):
        assert {*typical_clt.__all__, "__version__"} <= set(dir(typical_clt))

    def test_from_import(self):
        from typical_clt import run_verify
        assert run_verify is ex.run_verify

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            typical_clt.no_such_name
        with pytest.raises(ImportError):
            from typical_clt import no_such_name  # noqa: F401


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps package functions by name; it must find each
    code = ('import sys; sys.path.insert(0, "perfbench"); '
            'from tracer import Tracer, install; install(Tracer())')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=Path(__file__).resolve().parents[1],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
