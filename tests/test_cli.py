import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmaxent
import qmaxent.__main__
from qmaxent.cli import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    main,
)
from qmaxent.serialization import matrix_to_obj

ARTANH_04 = 0.42364893019360184


def write_problem(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def spin_problem_obj(target=0.4):
    return {
        "mode": "spin",
        "a": 0.5,
        "b": 0.5,
        "c": [0.0, 0.0, 0.0, 1.0],
        "target": target,
    }


class TestUpdate:
    def test_quantum_no_constraints(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "p.json",
            {"mode": "quantum", "prior": matrix_to_obj(np.eye(2) / 2), "constraints": []},
        )
        assert main(["update", path]) == EXIT_OK
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["mode"] == "quantum"
        assert report["converged"] is True
        assert report["iterations"] == 0
        assert report["multipliers"] == []
        assert report["entropy"]["full"] == pytest.approx(1.0, abs=1e-12)
        assert report["entropy"]["umegaki"] == pytest.approx(0.0, abs=1e-12)
        entries = np.array(report["posterior"]["entries"])
        np.testing.assert_allclose(
            (entries[:, 0] + 1j * entries[:, 1]).reshape(2, 2), np.eye(2) / 2, atol=1e-14
        )
        assert "converged in 0 iterations" in captured.err

    def test_spin_file(self, tmp_path, capsys):
        path = write_problem(tmp_path / "spin.json", spin_problem_obj())
        assert main(["update", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "spin"
        assert report["converged"] is True
        assert report["multipliers"][0] == pytest.approx(ARTANH_04, abs=1e-10)
        entries = np.array(report["posterior"]["entries"])
        np.testing.assert_allclose(
            (entries[:, 0] + 1j * entries[:, 1]).reshape(2, 2),
            np.diag([0.7, 0.3]),
            atol=1e-10,
        )
        # posterior diag(0.7, 0.3) against the uniform prior
        umegaki = -(0.7 * math.log(1.4) + 0.3 * math.log(0.6))
        assert report["entropy"]["umegaki"] == pytest.approx(umegaki, abs=1e-9)
        assert report["entropy"]["full"] == pytest.approx(1.0 + umegaki, abs=1e-9)

    def test_classical_constraint(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "c.json",
            {
                "mode": "classical",
                "prior": [1.0, 1.0, 1.0],
                "constraints": [{"observable": [1.0, 2.0, 3.0], "target": 2.5}],
            },
        )
        assert main(["update", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert max(abs(r) for r in report["residuals"]) <= 1e-10
        assert sum(report["posterior"]) == pytest.approx(1.0)
        # entropy is taken against the prior exactly as given, here (1,1,1),
        # so the normalized variant is the posterior's Shannon entropy
        shannon = -sum(p * math.log(p) for p in report["posterior"])
        assert report["entropy"]["normalized"] == pytest.approx(shannon, abs=1e-9)

    def test_out_file(self, tmp_path, capsys):
        path = write_problem(tmp_path / "spin.json", spin_problem_obj())
        out = tmp_path / "report.json"
        assert main(["update", path, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["mode"] == "spin"

    def test_infeasible_target(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "i.json",
            {
                "mode": "classical",
                "prior": [0.5, 0.5],
                "constraints": [{"observable": [1.0, 2.0], "target": 2.0}],
            },
        )
        out = tmp_path / "report.json"
        assert main(["update", path, "--out", str(out)]) == EXIT_INFEASIBLE
        assert not out.exists()
        assert capsys.readouterr().err.startswith("infeasible:")

    @pytest.mark.parametrize(
        "problem, message",
        [
            (
                {
                    "mode": "quantum",
                    "prior": matrix_to_obj(np.eye(2) / 2),
                    "constraints": [
                        {"observable": matrix_to_obj(np.diag([1.0, -1.0])), "target": 2.0},
                        {"observable": matrix_to_obj(np.eye(3)), "target": 0.5},
                    ],
                },
                "error: observable 1 has dim 3, prior has dim 2\n",
            ),
            (
                {
                    "mode": "classical",
                    "prior": [1.0, 1.0, 1.0],
                    "constraints": [
                        {"observable": [1.0, 2.0, 3.0], "target": 5.0},
                        {"observable": [1.0, 2.0], "target": 1.5},
                    ],
                },
                "error: constraint 1 has 2 values for 3 states\n",
            ),
        ],
        ids=["quantum", "classical"],
    )
    def test_wrong_dim_exits_error_before_an_earlier_infeasible_target(
        self, tmp_path, capsys, problem, message
    ):
        # constraint 0's target lies outside its range (exit 2 on its own),
        # but constraint 1's shape error is reported first on both paths
        path = write_problem(tmp_path / "d.json", problem)
        assert main(["update", path]) == EXIT_ERROR
        assert capsys.readouterr().err == message

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "classical",', encoding="utf-8")
        assert main(["update", str(bad)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "column" in err

    def test_file_that_is_not_utf8_exits_error(self, tmp_path, capsys):
        # UnicodeDecodeError from the read left through the interpreter's handler
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff")
        assert main(["update", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    def test_nesting_beyond_the_recursion_limit_exits_error(self, tmp_path, capsys):
        # json.loads raises RecursionError, which left through the
        # interpreter's handler
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main(["update", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["update", str(tmp_path / "absent.json")]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unknown_mode(self, tmp_path, capsys):
        path = write_problem(tmp_path / "m.json", {"mode": "thermal"})
        assert main(["update", path]) == EXIT_ERROR
        assert "mode" in capsys.readouterr().err

    def test_rank_deficient_quantum_prior(self, tmp_path, capsys):
        path = write_problem(
            tmp_path / "r.json",
            {
                "mode": "quantum",
                "prior": matrix_to_obj(np.diag([1.0, 0.0])),
                "constraints": [],
            },
        )
        assert main(["update", path]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_non_convergence_exit(self, tmp_path, capsys):
        # one Newton step from alpha = 0 leaves this two-constraint
        # problem short of tol
        values = np.array([[1.0, 2.0, 3.0], [1.0, 4.0, 9.0]])
        beta = np.array([1.2, -0.7])
        w = np.exp(values.T @ beta) / 3.0
        w /= w.sum()
        targets = values @ w
        path = write_problem(
            tmp_path / "slow.json",
            {
                "mode": "classical",
                "prior": [1.0, 1.0, 1.0],
                "constraints": [
                    {"observable": list(values[0]), "target": float(targets[0])},
                    {"observable": list(values[1]), "target": float(targets[1])},
                ],
                "solver": {"max_iter": 1},
            },
        )
        assert main(["update", path]) == EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["converged"] is False
        assert "did not converge" in captured.err


class TestVerify:
    def test_single_trial(self, capsys):
        assert main(["verify", "--seed", "42", "--trials", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert len(rows) == 6
        assert all(r["passed"] for r in rows)
        assert captured.err.count("pass ") == 6

    def test_rejects_zero_trials(self, capsys):
        assert main(["verify", "--trials", "0"]) == EXIT_ERROR
        assert "trials" in capsys.readouterr().err

    def test_rejects_negative_seed(self, capsys):
        # default_rng(-1) raised a ValueError that ended in a traceback
        assert main(["verify", "--seed", "-1", "--trials", "1"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed must be non-negative")
        assert captured.out == ""

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["verify", "--seed", "7", "--trials", "2", "--out", str(a)]) == EXIT_OK
        assert main(["verify", "--seed", "7", "--trials", "2", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["verify", "--seed", "1", "--trials", "1", "--out", str(a)])
        main(["verify", "--seed", "2", "--trials", "1", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_default_seed_and_trials_are_those_of_the_checks(self, tmp_path, monkeypatch):
        from qmaxent import checks
        from qmaxent.cli import run_verify

        seen = []
        monkeypatch.setattr(
            checks, "run_all_checks", lambda seed, trials: seen.append((seed, trials)) or []
        )
        assert main(["verify", "--out", str(tmp_path / "v.json")]) == EXIT_OK
        assert run_verify(out_path=str(tmp_path / "w.json")) == EXIT_OK
        assert seen == [(checks.DEFAULT_SEED, checks.DEFAULT_TRIALS)] * 2


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_ERROR
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_ERROR

    def test_update_requires_path(self, capsys):
        assert main(["update"]) == EXIT_ERROR

    def test_bad_trials_value(self, capsys):
        assert main(["verify", "--trials", "many"]) == EXIT_ERROR

    @pytest.mark.parametrize("command", ["update", "verify"])
    def test_out_into_missing_directory_exits_error(self, tmp_path, capsys, command):
        out = str(tmp_path / "missing" / "report.json")
        if command == "update":
            argv = ["update", write_problem(tmp_path / "spin.json", spin_problem_obj())]
        else:
            argv = ["verify", "--trials", "1"]
        assert main(argv + ["--out", out]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "No such file or directory" in captured.err


def test_module_entry_point(tmp_path):
    # the child imports the same qmaxent as this process, installed or not
    root = str(Path(qmaxent.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qmaxent", "verify", "--seed", "3", "--trials", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 6


class TestThreadDefault:
    """qmaxent.__main__.main picks one OpenBLAS thread unless the caller chose."""

    VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.fixture
    def seen(self, monkeypatch):
        # the environment that cli.main runs under; no command runs
        seen = {}

        def fake_main(argv):
            seen.update({name: os.environ.get(name) for name in self.VARIABLES}, argv=argv)
            return EXIT_OK

        monkeypatch.setattr(qmaxent.cli, "main", fake_main)
        for name in self.VARIABLES:
            # setenv first, so that teardown also removes what main sets
            monkeypatch.setenv(name, "")
            monkeypatch.delenv(name)
        return seen

    def test_sets_one_openblas_thread_when_neither_variable_is_set(self, seen):
        assert qmaxent.__main__.main(["verify"]) == EXIT_OK
        assert seen == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "argv": ["verify"]}

    @pytest.mark.parametrize("name", VARIABLES)
    def test_keeps_a_callers_setting(self, seen, monkeypatch, name):
        monkeypatch.setenv(name, "2")
        assert qmaxent.__main__.main(["verify"]) == EXIT_OK
        expected = dict.fromkeys(self.VARIABLES)
        expected.update({name: "2", "argv": ["verify"]})
        assert seen == expected


class TestUpdateRegressions:
    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_duplicated_observable_with_conflicting_targets_exits_infeasible(
        self, tmp_path, capsys, mode
    ):
        # <X> = 0.3 and <X> = 0.5 used to stall and exit 3 (not converged)
        if mode == "classical":
            prior, observable = [0.5, 0.5], [-1.0, 1.0]
        else:
            prior = matrix_to_obj(np.eye(2) / 2)
            observable = matrix_to_obj(np.array([[0.0, 1.0], [1.0, 0.0]]))
        path = write_problem(
            tmp_path / "dup.json",
            {
                "mode": mode,
                "prior": prior,
                "constraints": [
                    {"observable": observable, "target": 0.3},
                    {"observable": observable, "target": 0.5},
                ],
            },
        )
        assert main(["update", path]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Farkas certificate" in captured.err

    def test_die_with_negative_variance_exits_infeasible(self, tmp_path, capsys):
        # <X> = 3.5 and <X^2> = 11 on a fair die used to exit 3 (not converged)
        faces = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        path = write_problem(
            tmp_path / "die.json",
            {
                "mode": "classical",
                "prior": [1.0] * 6,
                "constraints": [
                    {"observable": faces, "target": 3.5},
                    {"observable": [x * x for x in faces], "target": 11.0},
                ],
            },
        )
        assert main(["update", path]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Farkas certificate" in captured.err

    def test_prior_whose_trace_overflows_is_one_error_line(self, tmp_path, capsys):
        # it printed numpy's overflow RuntimeWarning, then "prior must be full rank"
        def diag(x):
            return {"dim": 2, "entries": [[x, 0.0], [0.0, 0.0], [0.0, 0.0], [x, 0.0]]}

        path = write_problem(
            tmp_path / "big.json",
            {
                "mode": "quantum",
                "prior": diag(1e308),
                "constraints": [{"observable": diag(1.0), "target": 1.0}],
            },
        )
        assert main(["update", path]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: trace must be finite, got inf\n"

    def test_spin_file_with_overflowing_partition_function_exits_ok(self, tmp_path, capsys):
        # Z = 2 e^lam cosh|w| overflows at the solution (ln Z ~ 4399); the
        # report used to compute it and the command died with an OverflowError
        path = write_problem(
            tmp_path / "spin.json",
            {"mode": "spin", "a": 0.5, "b": 0.5, "c": [2000.0, 0.0, 0.0, 1.0], "target": 2000.9},
        )
        assert main(["update", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert math.isfinite(report["log_partition"])

    def test_spin_file_whose_components_square_overflows_is_solved(self, tmp_path, capsys):
        # it exited 2, calling the feasible target infeasible, then 1, with
        # |c| bounded by 6.7e153; an absolute tol cannot be met at 1e159
        path = write_problem(
            tmp_path / "spin.json",
            {"mode": "spin", "a": 0.5, "b": 0.5, "c": [0, 1e160, 0, 0], "target": 1e159},
        )
        assert main(["update", path]) == EXIT_NO_CONVERGENCE
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is False
        assert report["multipliers"][0] * 1e160 == pytest.approx(math.atanh(0.1), rel=1e-12, abs=0)

    def test_spin_file_with_huge_prior_weights_exits_ok(self, tmp_path, capsys):
        # a * b overflowed to inf, so log_partition was written as null
        path = write_problem(
            tmp_path / "spin.json",
            {"mode": "spin", "a": 1e200, "b": 1e200, "c": [0.0, 0.0, 0.0, 1.0], "target": 0.3},
        )
        assert main(["update", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["log_partition"] == pytest.approx(461.25732111910474, rel=1e-14)

    def test_spin_file_with_tiny_prior_weights_exits_ok(self, tmp_path, capsys):
        # a * b underflowed to 0 and ln(a*b) raised a ValueError traceback;
        # then the entropy's full-rank check compared the smallest eigenvalue
        # 1e-200 of the prior with an absolute 1e-12 and exited 1
        path = write_problem(
            tmp_path / "spin.json",
            {"mode": "spin", "a": 1e-200, "b": 1e-200, "c": [0.0, 0.0, 0.0, 1.0], "target": 0.3},
        )
        assert main(["update", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["multipliers"][0] == pytest.approx(math.atanh(0.3), rel=1e-12)
        assert report["log_partition"] == pytest.approx(-459.77671607851357, rel=1e-14)

    @pytest.mark.parametrize("a", [1e-13, 1e-200])
    def test_spin_file_with_prior_below_the_full_rank_test_exits_ok(self, tmp_path, capsys, a):
        # solve_spin converged, then the entropy rebuilt diag(a, 1) as a
        # DensityMatrix and exited 1 with "phi must be full rank"
        path = write_problem(
            tmp_path / "spin.json",
            {"mode": "spin", "a": a, "b": 1.0, "c": [0.0, 0.0, 0.0, 1.0], "target": 0.3},
        )
        assert main(["update", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        # the posterior is diag(0.65, 0.35)
        p = np.array([0.65, 0.35])
        umegaki = -float(np.sum(p * (np.log(p) - np.log([a, 1.0]))))
        assert report["entropy"]["umegaki"] == pytest.approx(umegaki, rel=1e-10)
        assert report["entropy"]["full"] == pytest.approx(umegaki + 1.0, rel=1e-10)

    def test_offset_classical_observable_exits_ok(self, tmp_path, capsys):
        # ln Z ~ 1e5: the posterior weights used to come from a second exp,
        # summed to 1 - 1.4e-12 and failed the normalization check (exit 1)
        c = 1e5
        path = write_problem(
            tmp_path / "offset.json",
            {
                "mode": "classical",
                "prior": [1.0, 1.0, 1.0],
                "constraints": [{"observable": [c, c + 1.0, c + 2.0], "target": c + 1.5}],
            },
        )
        assert main(["update", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert abs(sum(report["posterior"]) - 1.0) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize(
        "where",
        ["prior[1]", "constraints[0].target", "target", "prior.entries[3]"],
    )
    def test_integer_beyond_float_range_exits_error(self, tmp_path, capsys, where):
        # JSON integers have no size limit; float() of a 401-digit one
        # raised an OverflowError and the command died with a traceback
        big = 10**400
        docs = {
            "prior[1]": {"mode": "classical", "prior": [1, big, 1], "constraints": []},
            "constraints[0].target": {
                "mode": "classical",
                "prior": [1, 1, 1],
                "constraints": [{"observable": [1, 2, 3], "target": big}],
            },
            "target": dict(spin_problem_obj(), target=-big),
            "prior.entries[3]": {
                "mode": "quantum",
                "prior": {"dim": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [big, 0]]},
                "constraints": [],
            },
        }
        path = write_problem(tmp_path / "big.json", docs[where])
        assert main(["update", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {path}: {where}: integer is beyond the float range\n"

    def test_integer_past_the_digit_limit_exits_error(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer of more than sys.get_int_max_str_digits() digits
        path = tmp_path / "digits.json"
        path.write_text(
            '{"mode": "spin", "a": 0.5, "b": 0.5, "c": [0, 0, 0, 1], "target": '
            + "1" * 5000 + "}",
            encoding="utf-8",
        )
        assert main(["update", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_nan_observable_exits_error(self, tmp_path, capsys):
        # json accepts NaN; the observable used to pass validation and exit 2
        observable = matrix_to_obj(np.diag([np.nan, 1.0]))
        path = write_problem(
            tmp_path / "nan.json",
            {
                "mode": "quantum",
                "prior": matrix_to_obj(np.eye(2) / 2),
                "constraints": [{"observable": observable, "target": 0.3}],
            },
        )
        assert "NaN" in (tmp_path / "nan.json").read_text(encoding="utf-8")
        assert main(["update", path]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "non-finite entries at (0, 0)" in err


def test_quantum_update_runs_one_eigensolve_per_density_matrix_and_dual_evaluation(
    tmp_path, monkeypatch, capsys
):
    # a dim-16, m-4 problem planted at beta: the parsed prior's
    # decomposition, then one per line-search trial (full Newton steps
    # here). The starting state, ln phi, the posterior and both entropies
    # add none
    rng = np.random.default_rng(3)

    def hermitian(dim):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return (g + g.conj().T) / (2.0 * np.sqrt(dim))

    def gibbs(c):
        vals, vecs = np.linalg.eigh(c)
        w = np.exp(vals - vals[-1])
        rho = (vecs * (w / w.sum())) @ vecs.conj().T
        return (rho + rho.conj().T) / 2.0

    h0 = hermitian(16)
    observables = [hermitian(16) for _ in range(4)]
    beta = rng.normal(scale=0.4, size=4)
    prior = gibbs(h0)
    # ln prior is h0 up to a multiple of the identity, which Gibbs ignores
    rho = gibbs(h0 + sum(b * a for b, a in zip(beta, observables)))
    path = write_problem(
        tmp_path / "q16.json",
        {
            "mode": "quantum",
            "prior": matrix_to_obj(prior),
            "constraints": [
                {"observable": matrix_to_obj(a), "target": float(np.sum(a * rho.T).real)}
                for a in observables
            ],
        },
    )
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counting(*args, _solver=solver, **kwargs):
            calls.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    assert main(["update", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(report["multipliers"], beta, atol=1e-8)
    assert report["iterations"] >= 3
    assert len(calls) == 1 + report["iterations"]


class TestZeroEntropyIsPositiveZero:
    """-(a - b) gave -0.0 for a == b, written as -0; b - a gives +0.0."""

    @pytest.mark.parametrize(
        "problem, variant",
        [
            (
                {
                    "mode": "classical",
                    "prior": [0.25, 0.25, 0.5],
                    "constraints": [{"observable": [1, 0, -1], "target": -0.25}],
                },
                "normalized",
            ),
            ({"mode": "quantum", "prior": matrix_to_obj(np.eye(2) / 2)}, "umegaki"),
        ],
    )
    def test_report_writes_zero_not_minus_zero(self, tmp_path, capsys, problem, variant):
        path = write_problem(tmp_path / "p.json", problem)
        assert main(["update", path]) == EXIT_OK
        text = capsys.readouterr().out
        assert f'"{variant}": 0\n' in text
        assert "-0\n" not in text
        value = json.loads(text)["entropy"][variant]
        assert value == 0 and math.copysign(1.0, value) == 1.0

    def test_entropy_functions_return_positive_zero(self):
        from qmaxent.classical import ClassicalDistribution, relative_entropy
        from qmaxent.quantum import DensityMatrix, quantum_relative_entropy

        phi = ClassicalDistribution([0.25, 0.25, 0.5])
        assert math.copysign(1.0, relative_entropy(phi, phi, "normalized")) == 1.0
        rho = DensityMatrix(np.eye(2) / 2)
        assert math.copysign(1.0, quantum_relative_entropy(rho, rho, "umegaki")) == 1.0
