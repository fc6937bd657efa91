"""Malformed arguments to the public entry points raise :class:`DualityError`
subclasses only, never numpy's or Python's own exceptions.

Each argument is either a well-formed value or junk: a non-number, NaN or
±inf, an array of the wrong shape or dtype, a ragged list, or an integer
out of range.  Marker dimensions stay small, since a large valid one only
costs memory.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from duality import sweep
from duality.errors import DualityError
from duality.interferometer import WwmBlocks, from_global_unitary, from_tilted_pair, from_unitary_pair
from duality.measures import evaluate

NUMBERS = st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.complex_numbers())
ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
                    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4))
JUNK = st.one_of(NUMBERS, ARRAYS, st.text(max_size=3), st.none(),
                 st.lists(st.one_of(st.floats(), st.lists(st.floats(), max_size=2)), max_size=3))


@st.composite
def scaled_identities(draw):
    """A stack of identities of any leading shape, scaled by any float: unitary
    at scale ±1, otherwise not, and NaN or ±inf at a non-finite scale."""
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3))
    n = draw(st.integers(1, 3))
    scale = draw(st.one_of(st.sampled_from([1.0, -1.0]), st.floats()))
    with np.errstate(all="ignore"):
        return scale * np.broadcast_to(np.eye(n), lead + (n, n))


MATRICES = st.one_of(JUNK, scaled_identities())


def guarded(call) -> None:
    try:
        call()
    except DualityError:
        pass


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 2 ** 64 - 1), JUNK), stream=st.one_of(st.integers(0, 2 ** 64 - 1), JUNK),
       dim=st.one_of(st.integers(-3, 6), NUMBERS.filter(lambda x: not isinstance(x, int) or x <= 6),
                     st.text(max_size=2), st.none()),
       wwm=st.one_of(st.sampled_from(sweep.WWM_CLASSES), JUNK),
       s_class=st.one_of(st.sampled_from(sweep.S_CLASSES), JUNK),
       block=st.one_of(st.sampled_from((*sweep.BLOCK_CLASSES, sweep.STRINGENCY_CLASS)), JUNK))
def test_generate_instance_raises_only_duality_errors(seed, stream, dim, wwm, s_class, block):
    guarded(lambda: sweep.generate_instance(seed, stream, dim, wwm, s_class, block))


@settings(max_examples=300, deadline=None)
@given(theta=st.one_of(st.floats(), JUNK), u_plus=MATRICES, u_minus=MATRICES)
def test_block_constructors_raise_only_duality_errors(theta, u_plus, u_minus):
    guarded(lambda: from_tilted_pair(theta, u_plus, u_minus))
    guarded(lambda: from_unitary_pair(u_plus, u_minus))
    guarded(lambda: from_global_unitary(u_plus))


# One generated instance of each pair and tilted-pair class at n = 2: the stack that junk replaces parts of.
STACK = sweep._draw(3, [(i, block, wwm, s_class) for i, (block, wwm, s_class) in enumerate(
    (block, wwm, s_class) for block in ("unitary_pair", "tilted_pair") for wwm in sweep.WWM_CLASSES
    for s_class in sweep.S_CLASSES)], 2)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), replaced=st.sets(st.sampled_from(("s", "blocks", "rho_d0", "phi")), min_size=1))
def test_evaluate_raises_only_duality_errors(data, replaced):
    args = dict(zip(("s", "blocks", "rho_d0", "phi"), STACK))
    for name in replaced:
        args[name] = data.draw(MATRICES if name == "rho_d0" else JUNK, label=name)
    if "blocks" in replaced and data.draw(st.booleans(), label="as WwmBlocks"):
        # One matrix for all four blocks reaches past the blocks' own checks.
        mats = data.draw(st.one_of(MATRICES.map(lambda m: [m] * 4), st.lists(MATRICES, min_size=4, max_size=4)),
                         label="blocks")
        guarded(lambda: evaluate(**{**args, "blocks": WwmBlocks(*mats)}))
    else:
        guarded(lambda: evaluate(**args))
