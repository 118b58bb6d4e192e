"""CLI contract: golden files, byte-identity with the library, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np

TESTS = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(TESTS, "fixtures")
SRC = os.path.join(os.path.dirname(TESTS), "src")


def cli_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``.

    The path is absolute because the CLI runs with ``cwd`` set to the fixture
    or a temporary directory, where a relative ``PYTHONPATH=src`` finds nothing.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(*args, cwd=FIXTURES):
    return subprocess.run(
        [sys.executable, "-m", "fraclab", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )


def golden(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


class TestGoldenFiles:
    def test_apply_ileft(self):
        out = run_cli("apply", "--op", "ileft", "--alpha", "0.5", "ones.csv")
        assert out.returncode == 0
        assert out.stdout == golden("golden_apply_ileft.csv")

    def test_verify_ibp(self):
        out = run_cli("verify-ibp", "ibp_q1.json", "ibp_q2.json")
        assert out.returncode == 0
        assert out.stdout == golden("golden_verify_ibp.json")

    def test_el_check(self):
        out = run_cli("el-check", "el_quadratic.json")
        assert out.returncode == 0
        assert out.stdout == golden("golden_el_check.json")

    def test_solve_bvp(self):
        out = run_cli("solve-bvp", "bvp_manufactured.json")
        assert out.returncode == 0
        assert out.stdout == golden("golden_solve_bvp.json")

    def test_convergence(self):
        out = run_cli(
            "convergence", "--op", "ileft", "--alpha", "0.5", "--ref", "cos",
            "--n-list", "128,256,512",
        )
        assert out.returncode == 0
        assert out.stdout == golden("golden_convergence.csv")


class TestByteIdentityWithLibrary:
    def test_apply_matches_module(self, tmp_path):
        from fraclab.core import left_integral
        from fraclab.io import fmt, read_grid_csv

        f = read_grid_csv(os.path.join(FIXTURES, "ones.csv"))
        ref = left_integral(0.5, f)
        lines = ["t,v0"] + [
            ",".join([fmt(t), fmt(v[0])]) for t, v in zip(ref.grid.nodes, ref.values)
        ]
        expected = "\n".join(lines) + "\n"
        out = run_cli("apply", "--op", "ileft", "--alpha", "0.5", "ones.csv")
        assert out.returncode == 0, out.stderr
        assert out.stdout == expected

    def test_verify_ibp_matches_module(self):
        from fraclab.ibp import ibp_report
        from fraclab.io import read_split_json

        q1 = read_split_json(os.path.join(FIXTURES, "ibp_q1.json"))
        q2 = read_split_json(os.path.join(FIXTURES, "ibp_q2.json"))
        rep = ibp_report(q1, q2, quad_n=512)
        expected = json.dumps(rep.as_dict(), indent=2) + "\n"
        out = run_cli("verify-ibp", "ibp_q1.json", "ibp_q2.json")
        assert out.returncode == 0, out.stderr
        assert out.stdout == expected

    def test_solution_numbers_match_module(self):
        from fraclab.bvp import BvpProblem, solve_bvp
        from fraclab.core import FracParams
        from fraclab.special import PowerTerm, Side

        cfg = json.loads(golden("bvp_manufactured.json"))
        f = [
            PowerTerm(t["coeff"], t["exponent"],
                      Side.LEFT if t["side"] == "left" else Side.RIGHT)
            for t in cfg["f"]["terms"]
        ]
        prob = BvpProblem(
            FracParams(cfg["alpha"], 2.0, cfg["a"], cfg["b"]), f, cfg["qa"], cfg["qb"]
        )
        sol = solve_bvp(prob, cfg["basis_degree"])
        got = json.loads(golden("golden_solve_bvp.json"))
        assert got["coeffs"][0] == [float(x) for x in sol.coeffs[:, 0]]
        assert got["energy_norm"] == sol.energy_norm


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("garbage\n")
        out = run_cli("apply", "--op", "ileft", "--alpha", "0.5", str(bad))
        assert out.returncode == 2
        assert out.stderr != ""

    def test_missing_file_is_2(self):
        out = run_cli("apply", "--op", "ileft", "--alpha", "0.5", "no_such_file.csv")
        assert out.returncode == 2

    def test_alpha_out_of_range_is_3(self):
        out = run_cli("apply", "--op", "ileft", "--alpha", "1.5", "ones.csv")
        assert out.returncode == 3

    def test_ibp_regime_violation_is_3(self):
        out = run_cli("verify-ibp", "ibp_q1_bad_regime.json", "ibp_q2_bad_regime.json")
        assert out.returncode == 3
        assert "regime" in out.stderr

    def test_bvp_alpha_gate_is_3(self):
        out = run_cli("solve-bvp", "bvp_bad_alpha.json")
        assert out.returncode == 3
        assert "1/2" in out.stderr

    def test_defect_above_tolerance_is_4(self):
        out = run_cli("verify-ibp", "ibp_q1.json", "ibp_q2.json", "--tol", "1e-30")
        assert out.returncode == 4

    def test_success_is_0(self):
        out = run_cli("verify-ibp", "ibp_q1.json", "ibp_q2.json")
        assert out.returncode == 0


class TestNonFiniteFailsClosed:
    def write_pair(self, tmp_path, edit_q1, edit_q2=lambda q: None):
        paths = []
        for name, edit in (("ibp_q1.json", edit_q1), ("ibp_q2.json", edit_q2)):
            with open(os.path.join(FIXTURES, name)) as fh:
                q = json.load(fh)
            edit(q)
            path = tmp_path / name
            path.write_text(json.dumps(q))  # nan and inf come out as NaN / Infinity
            paths.append(str(path))
        return paths

    def test_nan_sample_is_2(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("t,v0\n0,1\n0.5,nan\n1,1\n")
        out = run_cli("apply", "--op", "ileft", "--alpha", "0.5", str(bad))
        assert out.returncode == 2
        assert "non-finite" in out.stderr

    def test_overflowing_apply_is_4(self, tmp_path):
        # finite samples whose difference quotients overflow to inf
        big = tmp_path / "big.csv"
        big.write_text("t,v0\n" + "".join(f"{t},1e308\n" for t in (0, 0.25, 0.5, 0.75, 1)))
        out = run_cli("apply", "--op", "dleft", "--alpha", "0.5", str(big))
        assert out.returncode == 4
        assert "inf" not in out.stdout

    def test_nan_coefficient_is_2(self, tmp_path):
        q1, q2 = self.write_pair(tmp_path, lambda q: q.update(c=[float("nan")]))
        out = run_cli("verify-ibp", q1, q2)
        assert out.returncode == 2
        assert "non-finite" in out.stderr

    def test_overflowing_defect_is_4(self, tmp_path):
        # finite input whose products overflow: the defect is inf - inf = nan
        q1, q2 = self.write_pair(
            tmp_path,
            lambda q: q["phi"]["terms"][0].update(coeff=1e308),
            lambda q: q.update(c=[1e308]),
        )
        out = run_cli("verify-ibp", q1, q2)
        assert out.returncode == 4
        assert "NaN" not in out.stdout and "Infinity" not in out.stdout


class TestApplyBehavior:
    def test_ileft_of_ones_matches_power(self):
        out = run_cli("apply", "--op", "ileft", "--alpha", "0.5", "ones.csv")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()[1:]
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines])
        from fraclab.special import gamma

        ref = data[:, 0] ** 0.5 / gamma(1.5)
        assert np.max(np.abs(data[:, 1] - ref)) <= 1e-4

    def test_round_trip_dleft_after_ileft(self, tmp_path):
        from fraclab.core import Grid, GridFunction
        from fraclab.io import write_grid_csv

        g = Grid(0.0, 1.0, 512)
        write_grid_csv(str(tmp_path / "sin.csv"), GridFunction(g, np.sin(g.nodes)))
        out1 = run_cli(
            "apply", "--op", "ileft", "--alpha", "0.5", str(tmp_path / "sin.csv"),
            "-o", str(tmp_path / "i.csv"), cwd=str(tmp_path),
        )
        assert out1.returncode == 0
        out2 = run_cli(
            "apply", "--op", "dleft", "--alpha", "0.5", str(tmp_path / "i.csv"),
            "-o", str(tmp_path / "d.csv"), cwd=str(tmp_path),
        )
        assert out2.returncode == 0
        from fraclab.io import read_grid_csv

        back = read_grid_csv(str(tmp_path / "d.csv"))
        interior = slice(52, 460)
        assert np.max(np.abs(back.values[interior, 0] - np.sin(g.nodes[interior]))) <= 1e-2

    def test_zero_csv_round_trip(self, tmp_path):
        from fraclab.core import Grid, GridFunction
        from fraclab.io import read_grid_csv, write_grid_csv

        g = Grid(0.0, 1.0, 16)
        write_grid_csv(str(tmp_path / "z.csv"), GridFunction(g, np.zeros((17, 1))))
        out = run_cli(
            "apply", "--op", "ileft", "--alpha", "0.5", str(tmp_path / "z.csv"),
            "-o", str(tmp_path / "o.csv"), cwd=str(tmp_path),
        )
        assert out.returncode == 0
        assert np.all(read_grid_csv(str(tmp_path / "o.csv")).values == 0.0)


class TestConvergenceCommand:
    def test_exact_on_constants(self):
        # product-trapezoidal integrates constants exactly: rounding-level error
        out = run_cli(
            "convergence", "--op", "ileft", "--alpha", "0.5", "--ref", "one",
            "--n-list", "128,256",
        )
        assert out.returncode == 0
        rows = out.stdout.strip().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[1]) <= 1e-12

    def test_classical_limit_alpha_one(self):
        out = run_cli(
            "convergence", "--op", "ileft", "--alpha", "1.0", "--ref", "cos",
            "--n-list", "128,256,512",
        )
        assert out.returncode == 0, out.stderr
        rows = out.stdout.strip().splitlines()[2:]
        orders = [float(r.split(",")[2]) for r in rows]
        assert len(orders) == 2
        assert all(abs(o - 2.0) <= 0.2 for o in orders)

    def test_dleft_interior_order(self):
        out = run_cli(
            "convergence", "--op", "dleft", "--alpha", "0.5", "--ref", "t",
            "--n-list", "128,256,512",
        )
        assert out.returncode == 0
        rows = out.stdout.strip().splitlines()[2:]
        orders = [float(r.split(",")[2]) for r in rows]
        assert all(o >= 1.0 for o in orders)

    def test_unknown_reference_is_2(self):
        out = run_cli(
            "convergence", "--op", "ileft", "--alpha", "0.5", "--ref", "nope",
            "--n-list", "64",
        )
        assert out.returncode == 2
