"""Program-size layers grow linearly: work at m and at 4m, not seconds.

Each check runs a layer on seeded corpora of m and 4m points at one
omega and bounds the growth of its work counter by 5x, so the gate holds
on a machine of any speed. Layers join this file as they come to pass
it.

The dp-fit layer (fitting_set_dp and fitting_set_dp_holes at fixed k)
does O(omega^k) work per sample and is bounded on `steps` only. Its
memory is not checked: kept masks are indexed by variable, so a key is
n bits wide and the tables' bytes grow faster than 4x with the size.
That check waits for slot-indexed masks of omega bits.
"""

from functools import cache

import pytest

from spillkit.treedp import fitting_set_dp, fitting_set_dp_holes

from builders import chain_tree_code, seeded

M = 500
GROWTH = 5
OMEGA = 8


@cache
def _tree(m, wide):
    """The first seeded chain_tree_code of m points with omega OMEGA, as
    the benchmark holds omega to a band per size."""
    for seed in range(100):
        inst = chain_tree_code(seeded(seed), m, wide=wide)
        if inst.omega == OMEGA:
            return inst
    raise AssertionError(f"no {m}-point tree with omega {OMEGA}")


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("solve", [fitting_set_dp, fitting_set_dp_holes])
def test_dp_fit_steps_grow_linearly(solve, k, wide):
    if solve is fitting_set_dp_holes and wide:
        # a wide instruction has h + 2 = 4 uses, so every k < 4 is refused
        # at the chad floor before any state is built
        k += 2
    steps = [solve(_tree(m, wide), k).steps for m in (M, 4 * M)]
    assert 0 < steps[1] <= GROWTH * steps[0], steps
