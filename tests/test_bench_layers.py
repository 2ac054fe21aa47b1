"""The benchmark's own gates on each workload's first op.

The traced benchmark run fails a workload when one of its declared
``LAYERS`` records no call, for instance after a refactor stops calling a
traced binding, or when the traced shots differ from the shots the op's
configuration asks for; every run fails it when an op's result fails the
workload's oracle checks (``inspect``) or a repeat of op 0 gives a
different result.
These tests run each workload's set-up and its first op at seed 0 through
the same checks, so such a break shows in the test suite.
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
            args = workload.inputs(0)
            result = workload.op(args)
        outcome = workload.inspect(args, result)
    finally:
        workload.close()
    assert [layer for layer in workload.LAYERS if not tracer.layer_calls[layer]] == []
    # the traced run's shot rule: every shot the op draws is one its configuration asks for
    assert tracer.shots.total() == outcome.shots


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_op_is_correct_and_repeats_bit_for_bit(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=0, root=tmp_path)
    try:
        workload.setup()
        outcomes = []
        for _ in range(2):
            args = workload.inputs(0)
            outcomes.append(workload.inspect(args, workload.op(args)))
    finally:
        workload.close()
    assert [outcome.failures for outcome in outcomes] == [[], []]
    assert outcomes[0].fingerprint and outcomes[1].fingerprint == outcomes[0].fingerprint
