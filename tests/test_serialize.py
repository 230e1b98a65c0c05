import json
from array import array

import numpy as np
import pytest

from magicnoise import (
    Dimension,
    canonical_mub_frame,
    crit_threshold,
    dumps,
    frame_from_dict,
    frame_to_dict,
    gross_wigner_frame,
    jsonable,
    kd_threshold,
    magic_state,
    operator_from_dict,
    operator_to_dict,
    polytope_threshold,
    result_from_dict,
    result_to_dict,
    scan_csv,
    validate_frame,
    wigner_threshold,
)
from magicnoise.serialize import csv_table


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        doc = jsonable(
            {
                "f": np.float64(1.5),
                "i": np.int64(3),
                "a": np.arange(3),
                "t": (1, 2),
                "c": 1 + 2j,
            }
        )
        assert doc == {"f": 1.5, "i": 3, "a": [0, 1, 2], "t": [1, 2], "c": {"im": 2.0, "re": 1.0}}
        json.dumps(doc)  # must be directly serializable

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_dumps_refuses_non_finite_floats(self, value):
        with pytest.raises(ValueError):
            dumps({"tol": value})

    def test_dumps_is_sorted_and_newline_terminated(self):
        text = dumps({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_negative_zero_is_written_as_zero(self):
        doc = {
            "f": -0.0,
            "n": np.float64(-0.0),
            "a": np.array([-0.0, 1.0]),
            "d": array("d", [-0.0]),
            "c": complex(-0.0, -0.0),
        }
        assert "-0.0" not in dumps(doc)
        assert csv_table(("kind", "p"), [("wigner", -0.0)]) == "kind,p\nwigner,0.0\n"
        row = (-0.0, "gross", -0.0, -0.0, -0.0)
        assert scan_csv([row]).endswith("\n0.0,gross,0.0,0.0,0.0\n")


class TestOperatorRoundtrip:
    def test_roundtrip(self, strange):
        data = operator_to_dict(strange)
        assert set(data) == {"d", "re", "im", "role"}
        back = operator_from_dict(data)
        assert back.role == "state"
        assert np.abs(back.entries - strange.entries).max() < 1e-15

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            operator_from_dict({"d": 3, "re": [[1.0]], "im": [[0.0]], "role": "state"})

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_entries(self, strange, part, value):
        data = operator_to_dict(strange)
        data[part][1][2] = value
        with pytest.raises(ValueError, match="state operator has non-finite entries"):
            operator_from_dict(data)


class TestFrameRoundtrip:
    @pytest.mark.parametrize("builder", [gross_wigner_frame, canonical_mub_frame])
    def test_roundtrip_preserves_operators(self, builder, d3):
        frame = builder(d3)
        data = frame_to_dict(frame)
        assert set(data) == {"d", "descriptor", "F", "D"}
        assert len(data["F"]) == 9 and len(data["D"]) == 9
        back = frame_from_dict(json.loads(dumps(data)))
        assert back.descriptor == frame.descriptor
        for a, b in zip(back.analysis, frame.analysis):
            assert np.abs(a.entries - b.entries).max() < 1e-15
        assert validate_frame(back)["passed"]


class TestResultRoundtrip:
    @staticmethod
    def _every_method(rho) -> list:
        return [
            wigner_threshold(rho),
            polytope_threshold(rho),
            kd_threshold(rho),
            crit_threshold(rho),
            crit_threshold(rho, scope="subtheory"),
        ]

    def test_exact_key_set_and_roundtrip(self, strange):
        for res in self._every_method(strange):
            data = result_to_dict(res)
            assert set(data) == {"kind", "p", "certificate", "tol"}
            back = result_from_dict(json.loads(dumps(data)))
            assert back == res, res.kind

    @pytest.mark.parametrize("state", ["strange", "norrell", "d5"])
    @pytest.mark.parametrize(
        "compute", [wigner_threshold, polytope_threshold, kd_threshold, crit_threshold]
    )
    def test_report_survives_a_round_trip(self, request, state, compute):
        if state == "d5":
            rng = np.random.default_rng(5)
            vec = rng.normal(size=5) + 1j * rng.normal(size=5)
            rho = magic_state("custom", Dimension(5), custom_vec=vec)
        else:
            rho = request.getfixturevalue(state)
        res = compute(rho)
        back = result_from_dict(result_to_dict(res))
        assert dumps(result_to_dict(back)) == dumps(result_to_dict(res))

    @pytest.mark.parametrize("state", ["strange", "norrell"])
    def test_polytope_report_has_no_negative_zero(self, request, state):
        # the LP witness holds a zero whose sign is set by the order of a sum
        res = polytope_threshold(request.getfixturevalue(state))
        data = result_to_dict(res)
        zeros = []

        def read(token: str) -> float:
            if float(token) == 0.0:
                zeros.append(token)
            return float(token)

        json.loads(dumps(data), parse_float=read)
        assert zeros and set(zeros) == {"0.0"}
        assert result_from_dict(data) == res

    @pytest.mark.parametrize(
        "k", range(5), ids=["wigner", "polytope", "kd", "crit", "crit-subtheory"]
    )
    def test_reads_older_reports(self, strange, k):
        res = self._every_method(strange)[k]
        data = json.loads(dumps(result_to_dict(res)))
        older = {**data, "upper_bound": False, "seed": None}
        # the 21-point trace older reports carried, and the polytope
        # certificate's copy of p
        older["scan"] = [[0.05 * j, 0.0] for j in range(21)]
        if res.kind == "polytope":
            older["certificate"] = {**data["certificate"], "noise": res.p}
        assert result_from_dict(older) == res

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda data: {k: v for k, v in data.items() if k != "tol"}, "report has no key 'tol'"),
            (lambda data: {k: v for k, v in data.items() if k != "kind"}, "report has no key 'kind'"),
            (lambda data: list(data.items()), "report must be a JSON object, not list"),
            (lambda data: {**data, "certificate": [1.0]}, "certificate must be a JSON object, not list"),
        ],
        ids=["no-tol", "no-kind", "list-report", "list-certificate"],
    )
    def test_malformed_report_names_what_is_missing(self, strange, mangle, message):
        data = result_to_dict(wigner_threshold(strange))
        with pytest.raises(ValueError, match=f"^{message}$"):
            result_from_dict(mangle(data))

    def test_reruns_compare_equal(self, strange):
        assert self._every_method(strange) == self._every_method(strange)

    def test_validation_report_dict(self, gross3):
        # the validate report's dict is JSON as it stands
        doc = json.loads(dumps(validate_frame(gross3)))
        assert doc["passed"] is True


class TestCSV:
    def test_csv_table_format(self):
        text = csv_table(("kind", "p"), [("wigner", 0.75)], preamble=["alpha=1"])
        assert text == "# alpha=1\nkind,p\nwigner,0.75\n"

    def test_scan_csv_format(self):
        rows = [(0.0, "gross", 0.25, -0.1, 0.0), (0.5, "kd-mub", 0.1, 0.0, 0.05)]
        text = scan_csv(rows, preamble=["x=2"])
        lines = text.strip().split("\n")
        assert lines[0] == "# x=2"
        assert lines[1] == "p,frame,witness,min_real,max_abs_imag"
        assert lines[2] == "0.0,gross,0.25,-0.1,0.0"
        assert lines[3] == "0.5,kd-mub,0.1,0.0,0.05"
        assert "\r" not in text

    def test_float_repr_is_locale_free_and_reversible(self):
        values = [(1.0 / 3.0, 1e-300), (0.1, np.nextafter(0.5, 1.0))]
        text = csv_table(("a", "b"), values)
        rows = text.split("\n")[1:-1]  # drop the header and trailing newline
        parsed = [tuple(float(v) for v in row.split(",")) for row in rows]
        assert parsed == values
