"""CLI contract: golden files, byte-identity with the library, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

TESTS = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(TESTS, "fixtures")
SRC = os.path.join(os.path.dirname(TESTS), "src")
DEMOS = os.path.join(os.path.dirname(TESTS), "demos")


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

    def test_large_exponent_is_0(self, tmp_path):
        # Gammas near 1e254 in the closed forms:
        # lhs = int t^145 (1-t)^(-0.4)/Gamma(0.6) dt = Gamma(146)/Gamma(146.6)
        q1 = json.loads(golden("ibp_q1.json"))
        q1["phi"]["terms"] = [{"coeff": 1.0, "exponent": 145.0}]
        path = tmp_path / "q1.json"
        path.write_text(json.dumps(q1))
        out = run_cli("verify-ibp", str(path), "ibp_q2.json")
        assert out.returncode == 0, out.stderr
        ref = float(mpmath.gamma(146) / mpmath.gamma(146.6))
        assert json.loads(out.stdout)["lhs"] == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize(
        "q1, q2",
        [("ibp_q2.json", "ibp_q1.json"), ("ibp_q1.json", "ibp_q1.json")],
        ids=["swapped", "both_left"],
    )
    def test_verify_ibp_wrong_sides_is_3(self, q1, q2):
        out = run_cli("verify-ibp", q1, q2)
        assert out.returncode == 3, out.stderr
        assert "left q1 and a right q2" in out.stderr

    def test_el_check_right_q_is_3(self, tmp_path):
        cfg = json.loads(golden("el_quadratic.json"))
        cfg["q"]["side"] = "right"
        path = tmp_path / "el.json"
        path.write_text(json.dumps(cfg))
        out = run_cli("el-check", str(path), cwd=str(tmp_path))
        assert out.returncode == 3, out.stderr
        assert "left split" in out.stderr

    def test_unknown_side_is_2(self, tmp_path):
        q1 = json.loads(golden("ibp_q1.json"))
        q1["side"] = "up"
        path = tmp_path / "q1.json"
        path.write_text(json.dumps(q1))
        out = run_cli("verify-ibp", str(path), "ibp_q2.json")
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("parse error")

    def test_el_check_quad_n_below_two_is_3(self, tmp_path):
        # q singular at a: el_report extrapolates node 0 from nodes 1 and 2
        cfg = json.loads(golden("el_quadratic.json"))
        cfg["q"]["c"] = [1.0]
        cfg["quad_n"] = 1
        path = tmp_path / "el.json"
        path.write_text(json.dumps(cfg))
        out = run_cli("el-check", str(path), cwd=str(tmp_path))
        assert out.returncode == 3, out.stderr
        assert "quad_n" in out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "--op", "ileft", "--alpha", "0.5", "ones.csv"],
            ["verify-ibp", "ibp_q1.json", "ibp_q2.json"],
            ["el-check", "el_quadratic.json"],
            ["solve-bvp", "bvp_manufactured.json"],
        ],
        ids=["apply", "verify-ibp", "el-check", "solve-bvp"],
    )
    def test_non_utf8_input_is_2(self, tmp_path, argv):
        # the subcommand's first input file, behind a byte that is not UTF-8
        name = next(x for x in argv if x.endswith((".csv", ".json")))
        bad = tmp_path / name
        bad.write_bytes(b"\xff" + golden(name).encode())
        out = run_cli(*[str(bad) if x == name else x for x in argv])
        assert out.returncode == 2, out.stderr
        assert "decode" in out.stderr

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg.pop("q"),
            lambda cfg: cfg.update(quad_n="64"),
            lambda cfg: cfg.update(q=[1]),
            lambda cfg: cfg.update(lagrangian="power:two"),
            lambda cfg: cfg.update(lagrangian={"monomials": [["1", 0, 2, 0.5]]}),
            lambda cfg: cfg.update(lagrangian={"monomials": [[0, 0, 2.5, 0.5]]}),
            lambda cfg: cfg.update(lagrangian={"monomials": [[0, 0, 2]]}),
            lambda cfg: cfg.update(lagrangian={"monomials": [[0, 0, 2, float("nan")]]}),
        ],
        ids=[
            "missing_q", "string_quad_n", "list_q", "bad_power",
            "string_monomial_power", "fractional_monomial_power", "short_monomial",
            "nan_monomial_coefficient",
        ],
    )
    def test_malformed_el_config_is_2(self, tmp_path, edit):
        cfg = json.loads(golden("el_quadratic.json"))
        edit(cfg)
        path = tmp_path / "el.json"
        path.write_text(json.dumps(cfg))
        out = run_cli("el-check", str(path), cwd=str(tmp_path))
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("parse error")


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


class TestSolveBvpInputFailsClosed:
    """Malformed or non-finite problem data is a parse error (exit 2)."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg["f"]["terms"][0].update(coeff=float("nan")),
            lambda cfg: cfg.update(qa=[float("nan")]),
            lambda cfg: cfg["f"]["terms"][0].update(coeff="abc"),
            lambda cfg: cfg["f"]["terms"][2].update(side="Left"),
            # numeric strings and bools are not JSON numbers
            lambda cfg: [cfg.update(alpha="0.6")]
            + [t.update(coeff=str(t["coeff"])) for t in cfg["f"]["terms"]],
            lambda cfg: cfg.update(qb=["0.78"]),
            lambda cfg: cfg["f"]["terms"][1].update(exponent=True),
            lambda cfg: cfg.update(basis_degree="4"),
        ],
        ids=[
            "nan_coefficient", "nan_qa", "string_coefficient", "unknown_side",
            "numeric_strings", "string_qb", "bool_exponent", "string_basis_degree",
        ],
    )
    def test_is_2(self, tmp_path, edit):
        cfg = json.loads(golden("bvp_manufactured.json"))
        edit(cfg)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(cfg))  # nan comes out as NaN
        out = run_cli("solve-bvp", str(path), cwd=str(tmp_path))
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("parse error")


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

    @pytest.mark.parametrize(
        "ref, a, b",
        [("t2", "-1e150", "1e150"), ("cos", "0", "1e160"), ("t", "0", "1e300")],
    )
    def test_non_finite_error_is_4(self, ref, a, b):
        out = run_cli(
            "convergence", "--op", "ileft", "--alpha", "0.5", "--ref", ref,
            "--n-list", "4,8", f"--a={a}", f"--b={b}",
        )
        assert out.returncode == 4, out.stdout
        assert out.stdout == ""

    @pytest.mark.parametrize(
        "n_list, b", [("1,2,3", "1"), ("2,4", "2")], ids=["three_rows", "b_2"]
    )
    def test_exact_scheme_has_no_order(self, n_list, b):
        # alpha = 1 is the trapezoid rule, exact on constants: a zero error
        # leaves the order cell empty instead of dividing by it
        out = run_cli(
            "convergence", "--op", "ileft", "--alpha", "1", "--ref", "one",
            "--n-list", n_list, "--b", b,
        )
        assert out.returncode == 0, out.stderr
        rows = [row.split(",") for row in out.stdout.splitlines()[1:]]
        assert [row[0] for row in rows] == n_list.split(",")
        assert all(float(row[1]) <= 1e-15 and row[2] == "" for row in rows)

    def test_unknown_reference_is_2(self):
        out = run_cli(
            "convergence", "--op", "ileft", "--alpha", "0.5", "--ref", "nope",
            "--n-list", "64",
        )
        assert out.returncode == 2


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo, tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True, text=True, cwd=str(tmp_path), env=cli_env(),
    )
    assert out.returncode == 0, out.stderr


def run_in_process(argv):
    """``cli.main(argv)`` with captured stdout and stderr: (code, out, err)."""
    from fraclab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


SPECIAL_SAMPLES = ["nan", "inf", "-inf", "1e308", "-1e308"]


@st.composite
def grid_csvs(draw):
    """CSV text for ``apply``: mostly well-formed, with special samples, short
    files, ragged rows, non-uniform or unsorted nodes mixed in.  Returns
    (text, n_rows)."""
    n_rows = draw(st.integers(0, 40))
    m = draw(st.integers(1, 3))
    a = draw(st.floats(-10.0, 10.0))
    h = draw(st.floats(1e-3, 10.0))
    nodes = [repr(a + i * h) for i in range(n_rows)]
    layout = draw(st.sampled_from(["uniform"] * 4 + ["jitter", "unsorted"]))
    if layout == "jitter" and n_rows > 2:
        i = draw(st.integers(1, n_rows - 2))
        nodes[i] = repr(a + (i + draw(st.floats(0.01, 0.49))) * h)
    elif layout == "unsorted":
        nodes = draw(st.permutations(nodes))
    wide = draw(st.booleans())  # samples up to the float limit, or moderate ones
    sample = st.floats(allow_nan=False, allow_infinity=False) if wide else st.floats(-1e3, 1e3)
    cells = [[repr(draw(sample)) for _ in range(m + 1)] for _ in range(n_rows)]
    for row, t in zip(cells, nodes):
        row[0] = t
    if n_rows and draw(st.booleans()):  # one special value, the t column included
        cells[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, m))] = draw(
            st.sampled_from(SPECIAL_SAMPLES)
        )
    if n_rows and draw(st.integers(0, 9)) == 0:  # a ragged row
        cells[draw(st.integers(0, n_rows - 1))].pop()
    header = ",".join(["t"] + [f"v{k}" for k in range(m)])
    return "\n".join([header] + [",".join(row) for row in cells]) + "\n", n_rows


class TestApplyFuzz:
    """``apply`` in-process on generated CSVs: exit 0, 2 or 4, never a raise,
    and exit 0 only with every output value finite."""

    @settings(max_examples=150, deadline=None)
    @given(
        csv=grid_csvs(),
        op=st.sampled_from(["ileft", "iright", "dleft", "dright"]),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_exit_code_contract(self, csv, op, alpha):
        text, n_rows = csv
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "in.csv")
            with open(path, "w") as fh:
                fh.write(text)
            code, out, err = run_in_process(["apply", "--op", op, "--alpha", repr(alpha), path])
        allowed = {0, 2, 4}
        if op[0] == "d" and n_rows == 2:
            allowed.add(3)  # one subinterval: too few to differentiate
        assert code in allowed, err
        if code == 0:
            values = [float(x) for ln in out.splitlines()[1:] for x in ln.split(",")]
            assert len(values) > 0 and all(math.isfinite(x) for x in values)


ENDPOINTS = st.floats(-10.0, 10.0) | st.floats(-1e300, 1e300) | st.sampled_from([0.0, 1.0])


class TestConvergenceFuzz:
    """``convergence`` in-process on generated studies: exit 0, 2, 3 or 4,
    never a raise, and exit 0 only with every printed number finite."""

    @settings(max_examples=150, deadline=None)
    @given(
        op=st.sampled_from(["ileft", "iright", "dleft", "dright"]),
        alpha=st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0),
        ref=st.sampled_from(["one", "t", "t2", "cos"]),
        n_list=st.lists(st.integers(1, 64), min_size=1, max_size=4),
        ends=st.tuples(ENDPOINTS, ENDPOINTS).map(sorted),
    )
    @example(op="ileft", alpha=0.5, ref="t2", n_list=[4, 8], ends=[-1e150, 1e150])
    def test_exit_code_contract(self, op, alpha, ref, n_list, ends):
        argv = [
            "convergence", "--op", op, "--alpha", repr(alpha), "--ref", ref,
            "--n-list", ",".join(map(str, n_list)), f"--a={ends[0]!r}", f"--b={ends[1]!r}",
        ]
        # Overflow warnings are not raised as errors, as on the command
        # line, so a non-finite result must be caught by the command itself.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_in_process(argv)
        assert code in {0, 2, 3, 4}, err
        if code == 0:
            cells = [x for ln in out.splitlines()[1:] for x in ln.split(",")[1:] if x]
            assert len(cells) >= len(n_list)
            assert all(math.isfinite(float(x)) for x in cells), out


def finite_numbers(obj):
    """Whether every number in a parsed JSON value is finite."""
    if isinstance(obj, dict):
        return all(finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(finite_numbers(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def run_json_command(command, cfg):
    """``command`` in-process on ``cfg`` written as a JSON file (NaN allowed)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return run_in_process([command, path])


def mostly(common, rare):
    """``common`` nine draws in ten, ``rare`` the tenth."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


COEFFS = mostly(
    st.floats(-10.0, 10.0), st.sampled_from([1e308, -1e308, float("nan"), float("inf")])
)
ORDERS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
EXPONENTS = mostly(st.floats(-0.99, 4.0), st.sampled_from([-1.0, 0.0, 1.0]))


@st.composite
def el_configs(draw):
    """el-check config: a preset Lagrangian, a left or right split function q
    with generated c and phi terms, and quad_n in 1..64."""
    alpha = draw(ORDERS | st.sampled_from([0.6, 0.8]))
    p = draw(st.sampled_from([1.5, 2.0, 4.0, None]))
    preset = draw(
        st.just("quadratic") | st.floats(1.0, 4.0).map(lambda r: f"power:{r!r}")
    )
    term = st.fixed_dictionaries({"coeff": COEFFS, "exponent": EXPONENTS})
    terms = draw(st.lists(term, max_size=3))
    q = {"alpha": alpha, "p": p, "a": 0.0, "b": draw(st.floats(0.1, 10.0)),
         "side": draw(st.sampled_from(["left", "right"])),
         "c": [draw(COEFFS)], "phi": {"kind": "poly", "terms": terms}}
    return {"lagrangian": preset, "q": q, "quad_n": draw(st.integers(1, 64))}


@st.composite
def bvp_problems(draw):
    """solve-bvp problem: generated alpha, interval, boundary data, power-term
    forcing and basis degree (the cap is 12)."""
    a = draw(st.floats(-5.0, 5.0))
    terms = st.fixed_dictionaries(
        {"coeff": COEFFS, "exponent": EXPONENTS, "side": st.sampled_from(["left", "right"])}
    )
    return {
        "alpha": draw(ORDERS | st.sampled_from([0.6, 0.9])),
        "a": a,
        "b": a + draw(st.floats(1e-3, 10.0)),
        "qa": [draw(COEFFS)],
        "qb": [draw(COEFFS)],
        "f": {"kind": "poly", "terms": draw(st.lists(terms, max_size=4))},
        "basis_degree": draw(st.integers(0, 14)),
    }


class TestElCheckFuzz:
    """``el-check`` in-process on generated configs: exit 0, 2, 3 or 4,
    never a raise, and exit 0 only with every printed number finite."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=el_configs())
    def test_exit_code_contract(self, cfg):
        code, out, err = run_json_command("el-check", cfg)
        assert code in {0, 2, 3, 4}, err
        if code == 0:
            assert cfg["q"]["side"] == "left"
            assert finite_numbers(json.loads(out)), out


class TestSolveBvpFuzz:
    """``solve-bvp`` in-process on generated problems: exit 0, 2, 3 or 4,
    never a raise, and exit 0 only with every printed number finite."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=bvp_problems())
    def test_exit_code_contract(self, cfg):
        code, out, err = run_json_command("solve-bvp", cfg)
        assert code in {0, 2, 3, 4}, err
        if code == 0:
            assert finite_numbers(json.loads(out)), out


SIDES = st.sampled_from(["left", "right", "up"])


@st.composite
def ibp_operands(draw):
    """verify-ibp operands: two split-function JSONs on one interval, with
    generated c and phi terms; q1 mostly left, q2 mostly right, and either
    side now and then swapped or bogus."""
    shared = {
        "alpha": draw(ORDERS | st.sampled_from([0.6, 0.8])),
        "p": draw(st.sampled_from([1.5, 2.0, 4.0, None])),
        "a": draw(st.floats(-5.0, 5.0)),
    }
    shared["b"] = shared["a"] + draw(st.floats(1e-3, 10.0))
    term = st.fixed_dictionaries({"coeff": COEFFS, "exponent": EXPONENTS})
    return [
        {**shared, "side": draw(mostly(st.just(side), SIDES)), "c": [draw(COEFFS)],
         "phi": {"kind": "poly", "terms": draw(st.lists(term, max_size=3))}}
        for side in ("left", "right")
    ]


class TestVerifyIbpFuzz:
    """``verify-ibp`` in-process on generated operand pairs: exit 0, 2, 3 or
    4, never a raise, and exit 0 only with every printed number finite."""

    @settings(max_examples=150, deadline=None)
    @given(operands=ibp_operands())
    def test_exit_code_contract(self, operands):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, f"q{k}.json") for k in (1, 2)]
            for path, q in zip(paths, operands):
                with open(path, "w") as fh:
                    json.dump(q, fh)
            code, out, err = run_in_process(["verify-ibp", *paths])
        assert code in {0, 2, 3, 4}, err
        if code == 0:
            assert [q["side"] for q in operands] == ["left", "right"]
            assert finite_numbers(json.loads(out)), out
