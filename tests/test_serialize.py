import dataclasses
import json

import numpy as np
import pytest

from magicnoise import (
    Dimension,
    OptimizerConfig,
    canonical_mub_frame,
    crit_threshold,
    distribution_from_dict,
    distribution_to_dict,
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
    represent_state,
    result_from_dict,
    result_to_dict,
    scan_csv,
    threshold_trace_csv,
    validate_frame,
    validation_report_to_dict,
    wigner_threshold,
)


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
        assert back.labels == frame.labels
        assert back.descriptor == frame.descriptor
        for a, b in zip(back.analysis, frame.analysis):
            assert np.abs(a.entries - b.entries).max() < 1e-15
        assert validate_frame(back).passed


class TestDistributionRoundtrip:
    def test_roundtrip(self, gross3, strange):
        dist = represent_state(gross3, strange)
        data = distribution_to_dict(dist)
        assert set(data) == {"labels", "re", "im", "subject"}
        back = distribution_from_dict(json.loads(dumps(data)))
        assert back.subject == "state"
        assert back.labels == dist.labels
        assert np.abs(back.flat() - dist.flat()).max() < 1e-15


class TestResultRoundtrip:
    @staticmethod
    def _every_method(rho) -> list:
        one = OptimizerConfig(restarts=1)
        return [
            wigner_threshold(rho),
            polytope_threshold(rho),
            kd_threshold(rho),
            crit_threshold(rho),
            crit_threshold(rho, config=one, scope="subtheory"),
        ]

    def test_exact_key_set_and_roundtrip(self, strange):
        for res in self._every_method(strange):
            data = result_to_dict(res)
            assert set(data) == {"kind", "p", "certificate", "scan", "tol"}
            back = result_from_dict(json.loads(dumps(data)))
            want = dataclasses.replace(res, certificate=jsonable(res.certificate))
            assert back == want, res.kind

    def test_reads_older_reports(self, strange):
        data = result_to_dict(wigner_threshold(strange))
        older = {**data, "upper_bound": False, "seed": None}
        assert result_from_dict(older) == result_from_dict(data)

    def test_reruns_compare_equal(self, strange):
        assert self._every_method(strange) == self._every_method(strange)

    def test_validation_report_dict(self, gross3):
        doc = validation_report_to_dict(validate_frame(gross3))
        json.dumps(doc)
        assert doc["passed"] is True


class TestCSV:
    def test_threshold_trace_format(self, strange):
        res = wigner_threshold(strange)
        text = threshold_trace_csv(res, preamble=["alpha=1"])
        lines = text.split("\n")
        assert lines[0] == "# alpha=1"
        assert lines[1] == "p,witness"
        assert text.endswith("\n")
        assert "\r" not in text
        # each data row holds two parseable floats
        for row in lines[2:-1]:
            p, w = row.split(",")
            float(p), float(w)

    def test_scan_csv_format(self):
        rows = [(0.0, "gross", 0.25, -0.1, 0.0), (0.5, "kd-mub", 0.1, 0.0, 0.05)]
        text = scan_csv(rows, preamble=["x=2"])
        lines = text.strip().split("\n")
        assert lines[0] == "# x=2"
        assert lines[1] == "p,frame,witness,min_real,max_abs_imag"
        assert lines[2] == "0.0,gross,0.25,-0.1,0.0"
        assert lines[3] == "0.5,kd-mub,0.1,0.0,0.05"
        assert "\r" not in text

    def test_float_repr_is_locale_free_and_reversible(self, strange):
        res = wigner_threshold(strange)
        text = threshold_trace_csv(res)
        rows = text.split("\n")[1:-1]  # drop the header and trailing newline
        parsed = [tuple(float(v) for v in row.split(",")) for row in rows]
        assert tuple(parsed) == tuple(res.scan)
