import json
import math

import numpy as np
import pytest

from qmaxent.checks import PropertyResult
from qmaxent.classical import ClassicalDistribution
from qmaxent.dual import SolverReport
from qmaxent.quantum import DensityMatrix
from qmaxent.serialization import (
    ProblemFormatError,
    canonical_dumps,
    matrix_from_obj,
    matrix_to_obj,
    parse_problem,
    property_results_to_obj,
    report_to_obj,
)
from qmaxent.spin import SpinProblem

REPORT_KEYS = [
    "mode",
    "converged",
    "iterations",
    "multipliers",
    "log_partition",
    "residuals",
    "posterior",
    "entropy",
]


def quantum_problem_obj():
    return {
        "mode": "quantum",
        "prior": matrix_to_obj(np.eye(2) / 2),
        "constraints": [
            {"observable": matrix_to_obj(np.diag([1.0, -1.0])), "target": 0.4}
        ],
    }


class TestMatrixObj:
    def test_roundtrip(self):
        m = np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -2.0]])
        obj = matrix_to_obj(m)
        assert obj["dim"] == 2
        assert len(obj["entries"]) == 4
        np.testing.assert_array_equal(matrix_from_obj(obj), m)

    def test_json_roundtrip_is_exact(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        text = canonical_dumps(matrix_to_obj(m))
        np.testing.assert_array_equal(matrix_from_obj(json.loads(text)), m)

    def test_rejects_non_object(self):
        with pytest.raises(ProblemFormatError, match="prior"):
            matrix_from_obj([1, 2], where="prior")

    def test_rejects_bad_dim(self):
        with pytest.raises(ProblemFormatError, match=r"m\.dim"):
            matrix_from_obj({"dim": 0, "entries": []}, where="m")
        with pytest.raises(ProblemFormatError, match=r"m\.dim"):
            matrix_from_obj({"dim": True, "entries": [[1, 0]]}, where="m")
        with pytest.raises(ProblemFormatError, match=r"m\.dim"):
            matrix_from_obj({"entries": [[1, 0]]}, where="m")

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ProblemFormatError, match=r"m\.entries"):
            matrix_from_obj({"dim": 2, "entries": [[1, 0]]}, where="m")

    def test_rejects_malformed_pairs(self):
        bad = {"dim": 2, "entries": [[1, 0], [1], [0, 0], [0, 0]]}
        with pytest.raises(ProblemFormatError, match=r"m\.entries\[1\]"):
            matrix_from_obj(bad, where="m")
        bad = {"dim": 1, "entries": [["1", 0]]}
        with pytest.raises(ProblemFormatError, match=r"m\.entries\[0\]"):
            matrix_from_obj(bad, where="m")
        bad = {"dim": 1, "entries": [[True, 0]]}
        with pytest.raises(ProblemFormatError, match=r"m\.entries\[0\]"):
            matrix_from_obj(bad, where="m")

    @pytest.mark.parametrize(
        "pair, message",
        [
            ([True, 0.0], "expected a [re, im] pair of reals, got [True, 0.0]"),
            (["1", 0.0], "expected a [re, im] pair of reals, got ['1', 0.0]"),
            ([0.0, None], "expected a [re, im] pair of reals, got [0.0, None]"),
            ([1.0], "expected a [re, im] pair of reals, got [1.0]"),
            ([1.0, 2.0, 3.0], "expected a [re, im] pair of reals, got [1.0, 2.0, 3.0]"),
            (5, "expected a [re, im] pair of reals, got 5"),
            (None, "expected a [re, im] pair of reals, got None"),
            ([10**400, 0.0], "integer is beyond the float range"),
            ([0.0, -(10**400)], "integer is beyond the float range"),
        ],
    )
    def test_bad_pair_is_named_with_its_index(self, pair, message):
        # the float pairs around it pass the bulk check; the bad one keeps
        # the message and index of the per-entry reader
        entries = [[0.5, 0.0], [0.25, 1.0], pair, [0.5, 0.0]]
        with pytest.raises(ProblemFormatError) as info:
            matrix_from_obj({"dim": 2, "entries": entries}, where="m")
        assert str(info.value) == f"m.entries[2]: {message}"

    def test_first_bad_pair_is_the_one_named(self):
        entries = [[1, 0], [0.5, "x"], [True, 0.0], [0.5, 0.0]]
        with pytest.raises(ProblemFormatError, match=r"^m\.entries\[1\]: "):
            matrix_from_obj({"dim": 2, "entries": entries}, where="m")

    def test_integers_and_tuples_convert_as_complex_does(self):
        big = 2**80 + 2**27 + 1
        entries = [[big, -3], (1.0, 2.0), [0, 2**53 + 1], [-0.0, 7]]
        m = matrix_from_obj({"dim": 2, "entries": entries})
        expected = np.array([complex(re, im) for re, im in entries]).reshape(2, 2)
        assert m.tobytes() == expected.tobytes()
        assert m[0, 0].real == float(big)
        # the caller's list is left as it was
        assert entries[0] == [big, -3]

    def test_float_pairs_are_bit_identical_to_complex(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(16, 2)) * 10.0 ** rng.integers(-300, 300, size=(16, 2))
        entries = values.tolist()
        entries[3] = [-0.0, 5e-324]
        entries[7] = [float("nan"), -math.inf]
        m = matrix_from_obj({"dim": 4, "entries": entries})
        expected = np.array([complex(re, im) for re, im in entries]).reshape(4, 4)
        assert m.dtype == complex and m.shape == (4, 4)
        assert m.tobytes() == expected.tobytes()



class TestParseProblem:
    def test_classical(self):
        mode, payload = parse_problem(
            {
                "mode": "classical",
                "prior": [0.25, 0.25, 0.5],
                "constraints": [{"observable": [1.0, 2.0, 3.0], "target": 2.0}],
                "solver": {"tol": 1e-8, "max_iter": 50},
            }
        )
        assert mode == "classical"
        assert isinstance(payload["prior"], ClassicalDistribution)
        assert len(payload["constraints"]) == 1
        assert payload["constraints"][0].target == 2.0
        assert payload["options"] == {"tol": 1e-8, "max_iter": 50}

    def test_classical_defaults(self):
        mode, payload = parse_problem({"mode": "classical", "prior": [0.5, 0.5]})
        assert payload["constraints"] == []
        assert payload["options"] == {}

    def test_quantum(self):
        mode, payload = parse_problem(quantum_problem_obj())
        assert mode == "quantum"
        assert isinstance(payload["prior"], DensityMatrix)
        assert payload["constraints"][0].target == 0.4

    def test_spin(self):
        mode, payload = parse_problem(
            {
                "mode": "spin",
                "a": 0.5,
                "b": 0.5,
                "c": [0.0, 0.0, 0.0, 1.0],
                "target": 0.4,
                "solver": {"tol": 1e-13, "max_iter": 10},
            }
        )
        assert mode == "spin"
        problem = payload["problem"]
        assert isinstance(problem, SpinProblem)
        assert (problem.a, problem.b) == (0.5, 0.5)
        assert (problem.c1, problem.cx, problem.cy, problem.cz) == (0.0, 0.0, 0.0, 1.0)
        assert problem.target == 0.4
        # the bisection runs to adjacent floats: it takes no tol or iteration cap
        assert payload == {"problem": problem}

    def test_spin_solver_block_is_still_checked(self):
        obj = {"mode": "spin", "a": 0.5, "b": 0.5, "c": [0.0, 0.0, 0.0, 1.0], "target": 0.4}
        with pytest.raises(ProblemFormatError, match="solver.tol"):
            parse_problem(dict(obj, solver={"tol": -1.0}))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ProblemFormatError, match="mode"):
            parse_problem({"mode": "thermal"})
        with pytest.raises(ProblemFormatError, match="mode"):
            parse_problem({})

    def test_rejects_non_object_file(self):
        with pytest.raises(ProblemFormatError, match="object"):
            parse_problem([1, 2, 3])

    def test_rejects_bad_constraints(self):
        with pytest.raises(ProblemFormatError, match="constraints"):
            parse_problem({"mode": "classical", "prior": [0.5, 0.5], "constraints": "x"})
        with pytest.raises(ProblemFormatError, match=r"constraints\[0\]"):
            parse_problem({"mode": "classical", "prior": [0.5, 0.5], "constraints": [3]})
        with pytest.raises(ProblemFormatError, match=r"constraints\[0\]\.target"):
            parse_problem(
                {
                    "mode": "classical",
                    "prior": [0.5, 0.5],
                    "constraints": [{"observable": [1.0, 2.0]}],
                }
            )

    def test_rejects_bad_prior_vector(self):
        with pytest.raises(ProblemFormatError, match="prior"):
            parse_problem({"mode": "classical", "prior": []})
        with pytest.raises(ProblemFormatError, match=r"prior\[1\]"):
            parse_problem({"mode": "classical", "prior": [0.5, "x"]})

    def test_rejects_bad_solver_options(self):
        base = {"mode": "classical", "prior": [0.5, 0.5]}
        with pytest.raises(ProblemFormatError, match="solver"):
            parse_problem({**base, "solver": 3})
        with pytest.raises(ProblemFormatError, match=r"solver\.tol"):
            parse_problem({**base, "solver": {"tol": 0.0}})
        with pytest.raises(ProblemFormatError, match=r"solver\.max_iter"):
            parse_problem({**base, "solver": {"max_iter": 0}})
        with pytest.raises(ProblemFormatError, match=r"solver\.max_iter"):
            parse_problem({**base, "solver": {"max_iter": True}})

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        # max|grad| <= NaN never holds: a NaN tol used to pass and exit 3
        # with "did not converge in 0 iterations"
        base = {"mode": "classical", "prior": [0.5, 0.5]}
        with pytest.raises(ProblemFormatError, match=r"solver\.tol: must be finite"):
            parse_problem({**base, "solver": {"tol": tol}})

    def test_rejects_bad_spin_fields(self):
        with pytest.raises(ProblemFormatError, match="c:"):
            parse_problem({"mode": "spin", "a": 0.5, "b": 0.5, "c": [0, 0, 1], "target": 0.1})
        with pytest.raises(ProblemFormatError, match="target"):
            parse_problem({"mode": "spin", "a": 0.5, "b": 0.5, "c": [0, 0, 0, 1]})


class TestReportToObj:
    def test_key_order_and_types_classical(self):
        posterior = ClassicalDistribution(np.array([0.25, 0.75]))
        report = SolverReport(
            multipliers=np.array([0.5]),
            log_partition=float(np.log(1.25)),
            posterior=posterior,
            residuals=np.array([1e-14]),
            iterations=3,
            converged=True,
        )
        obj = report_to_obj("classical", report, {"full": 0.0, "normalized": 0.0})
        assert list(obj.keys()) == REPORT_KEYS
        assert obj["posterior"] == [0.25, 0.75]
        assert obj["multipliers"] == [0.5]
        assert obj["converged"] is True
        assert isinstance(obj["iterations"], int)

    def test_quantum_posterior_is_matrix_obj(self):
        posterior = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        report = SolverReport(
            multipliers=np.array([-0.85]),
            log_partition=0.0,
            posterior=posterior,
            residuals=np.array([0.0]),
            iterations=5,
            converged=True,
        )
        obj = report_to_obj("quantum", report, {"full": 1.0, "umegaki": 0.0})
        assert obj["posterior"]["dim"] == 2
        assert len(obj["posterior"]["entries"]) == 4


class TestPropertyResultsToObj:
    def test_shape(self):
        rows = property_results_to_obj(
            [PropertyResult("prior_recovery", 0.0, 1e-10, detail="seed=1 trials=2")]
        )
        assert rows == [
            {
                "name": "prior_recovery",
                "max_deviation": 0.0,
                "threshold": 1e-10,
                "passed": True,
                "detail": "seed=1 trials=2",
            }
        ]


class TestCanonicalDumps:
    def test_float_formatting(self):
        assert canonical_dumps(0.1) == "0.10000000000000001\n"
        assert canonical_dumps(1.0) == "1\n"
        assert canonical_dumps(-2.5) == "-2.5\n"

    def test_floats_roundtrip_exactly(self):
        rng = np.random.default_rng(1)
        for x in rng.normal(size=50) * 10.0 ** rng.integers(-12, 12, size=50):
            assert json.loads(canonical_dumps(float(x))) == x

    def test_non_finite_becomes_null(self):
        assert canonical_dumps(float("nan")) == "null\n"
        assert canonical_dumps(float("inf")) == "null\n"

    @pytest.mark.parametrize("value, text", [(None, "null\n"), ([None], "[\n  null\n]\n")])
    def test_none_becomes_null(self, value, text):
        assert canonical_dumps(value) == text

    def test_bool_not_rendered_as_int(self):
        assert canonical_dumps(True) == "true\n"
        assert canonical_dumps({"passed": False}) == '{\n  "passed": false\n}\n'

    def test_layout(self):
        text = canonical_dumps({"a": [1, 2], "b": {}, "c": []})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": {},\n  "c": []\n}\n'

    def test_preserves_key_order(self):
        assert canonical_dumps({"z": 1, "a": 2}).index('"z"') < canonical_dumps(
            {"z": 1, "a": 2}
        ).index('"a"')

    def test_numpy_scalars_and_arrays(self):
        text = canonical_dumps({"v": np.array([0.5, 0.25]), "n": np.int64(3)})
        assert json.loads(text) == {"v": [0.5, 0.25], "n": 3}

    def test_byte_stable(self):
        obj = {"x": [0.1, 0.2, math.pi], "y": {"z": 1e-300}}
        assert canonical_dumps(obj) == canonical_dumps(obj)

    def test_valid_json(self):
        obj = report_to_obj(
            "classical",
            SolverReport(
                multipliers=np.array([0.1]),
                log_partition=0.0,
                posterior=ClassicalDistribution(np.array([0.5, 0.5])),
                residuals=np.array([0.0]),
                iterations=1,
                converged=True,
            ),
            {"full": 0.0, "normalized": 0.0},
        )
        parsed = json.loads(canonical_dumps(obj))
        assert parsed["mode"] == "classical"

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            canonical_dumps({"x": {1, 2}})

    def test_string_escaping(self):
        assert canonical_dumps('he said "hi"\n') == '"he said \\"hi\\"\\n"\n'


class TestCanonicalDumpsBulkLists:
    """Lists of floats and of [float, float] pairs are written with one join;
    the text is what the item-by-item emitter writes."""

    def test_float_list(self):
        values = [1.5, math.nan, math.inf, -math.inf, -0.0, 1e-300, np.float64(0.1)]
        assert canonical_dumps(values) == (
            "[\n  1.5,\n  null,\n  null,\n  null,\n  -0,\n  1e-300,\n  0.10000000000000001\n]\n"
        )
        # the same floats without the numpy scalar take the bulk path
        assert canonical_dumps([float(x) for x in values]) == canonical_dumps(values)

    def test_pair_list(self):
        assert canonical_dumps([[1.5, -0.0], [math.nan, 1e-300]]) == (
            "[\n  [\n    1.5,\n    -0\n  ],\n  [\n    null,\n    1e-300\n  ]\n]\n"
        )

    def test_pair_list_nested_in_an_object(self):
        text = canonical_dumps({"entries": [[0.25, -math.inf], [2.0, 0.1]]})
        assert text == (
            '{\n  "entries": [\n    [\n      0.25,\n      null\n    ],\n'
            "    [\n      2,\n      0.10000000000000001\n    ]\n  ]\n}\n"
        )

    def test_mixed_empty_and_nested_lists(self):
        obj = {
            "a": [[1.5, 2], [1.0, 2.0]],
            "b": [],
            "c": [[]],
            "d": [[1.0, 2.0], [3.0]],
            "e": [[[1.0, 2.0]]],
            "f": [1.0, "x", None, True],
        }
        assert canonical_dumps(obj) == (
            '{\n  "a": [\n    [\n      1.5,\n      2\n    ],\n    [\n      1,\n      2\n    ]\n  ],\n'
            '  "b": [],\n  "c": [\n    []\n  ],\n'
            '  "d": [\n    [\n      1,\n      2\n    ],\n    [\n      3\n    ]\n  ],\n'
            '  "e": [\n    [\n      [\n        1,\n        2\n      ]\n    ]\n  ],\n'
            '  "f": [\n    1,\n    "x",\n    null,\n    true\n  ]\n}\n'
        )

    def test_matrix_obj_is_written_as_complex_pairs(self):
        # tolist gives the floats that float(z.real), float(z.imag) give
        rng = np.random.default_rng(4)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m[1, 2] = complex(-0.0, -0.0)
        obj = matrix_to_obj(m.T)
        assert obj["entries"] == [[float(z.real), float(z.imag)] for z in m.T.reshape(-1)]
        assert all(type(x) is float for pair in obj["entries"] for x in pair)
        # m[1, 2] is (2, 1) of the transpose
        assert str(obj["entries"][7]) == "[-0.0, -0.0]"
