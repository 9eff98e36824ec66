"""Estimates leave no reference cycles behind for the cyclic GC.

Every object an estimate builds — plan, staged nodes, spool files, the
compiled QCOST of each stage decision — must be freed by reference counting
alone. A cycle per estimate means the cyclic collector runs more often on a
busy server and each run walks more objects.
"""

import gc

import pytest

from repro.workloads import paper

TUPLES = 1_000


def _setups():
    return {
        "selection": lambda: paper.make_selection_setup(
            output_tuples=TUPLES // 10, tuples=TUPLES
        ),
        "intersection": lambda: paper.make_intersection_setup(
            common_tuples=TUPLES, tuples=TUPLES
        ),
        "join": lambda: paper.make_join_setup(tuples=TUPLES),
    }


@pytest.mark.parametrize("shape", ["selection", "intersection", "join"])
def test_estimates_leave_no_cyclic_garbage(shape):
    setup = _setups()[shape]()

    def estimate(seed: int):
        return setup.database.estimate(
            setup.query,
            quota=setup.quota,
            seed=seed,
            initial_selectivities=setup.initial_selectivities,
        )

    estimate(0)  # warm-up: lazy imports and compile caches
    gc.collect()
    gc.disable()
    try:
        stages = [estimate(seed).stages_attempted for seed in range(1, 6)]
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert max(stages) >= 2  # several stages: spool runs and bisections
    assert unreachable == 0
