"""Design serialization round-trips."""

import json

import pytest

from repro.core import Design, verify_design
from repro.problems import dp_inputs, dp_system


class TestRoundTrip:
    def test_json_round_trip(self, dp_design_fig2, dp_host_inputs):
        payload = json.loads(json.dumps(dp_design_fig2.to_dict()))
        rebuilt = Design.from_dict(payload, dp_design_fig2.system)
        assert rebuilt.schedules == dp_design_fig2.schedules
        assert rebuilt.space_maps == dp_design_fig2.space_maps
        assert rebuilt.cell_count == dp_design_fig2.cell_count
        assert rebuilt.interconnect.columns == \
            dp_design_fig2.interconnect.columns
        # A rebuilt design still verifies.
        report = verify_design(rebuilt, dp_host_inputs)
        assert report.ok, report.failures

    def test_wrong_system_rejected(self, dp_design_fig2, conv_backward_sys):
        payload = dp_design_fig2.to_dict()
        with pytest.raises(ValueError):
            Design.from_dict(payload, conv_backward_sys)

    def test_payload_is_plain_data(self, dp_design_fig1):
        payload = dp_design_fig1.to_dict()
        text = json.dumps(payload)   # must not raise
        assert "m1" in text and "fig1" in text
