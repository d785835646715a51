"""Request validation of the daemon's operation specs."""

import pytest

from repro.serve import ops


@pytest.mark.parametrize("op", ["derive", "check", "violations", "races"])
def test_jobs_is_an_unknown_parameter(op):
    with pytest.raises(ValueError, match=r"unknown parameter\(s\) for .*: jobs"):
        ops.validate(op, {"jobs": 2})
