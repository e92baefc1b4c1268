import json
import math
import subprocess
import sys

import numpy as np
import pytest

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

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "classical",', encoding="utf-8")
        assert main(["update", str(bad)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "column" in err

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
        # two constraints so the scalar bisection fallback cannot rescue
        # the iteration-starved solve
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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qmaxent", "verify", "--seed", "3", "--trials", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 6


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
        assert "exact linear dependency" in captured.err

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
