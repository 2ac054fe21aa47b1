"""Every layer a benchmark workload declares records a call.

The traced benchmark run fails a workload when one of its declared
``LAYERS`` records no call, for instance after a refactor stops calling a
traced binding.  This test runs each workload's set-up and its first op
under the benchmark's own tracer, so such a break shows in the test suite.
The op's result is not inspected here: the benchmark's oracle checks do that.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if not (BENCH / "workloads.py").is_file():
    pytest.skip("no bench/ directory in this checkout", allow_module_level=True)

sys.path.insert(0, str(BENCH))
try:
    import tracing
    import workloads
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_declared_layers_record_calls(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=0, root=tmp_path)
    try:
        with tracing.Tracer() as tracer:
            workload.setup()
            tracer.op = 0
            workload.op(workload.inputs(0))
    finally:
        workload.close()
    assert [layer for layer in workload.LAYERS if not tracer.layer_calls[layer]] == []
