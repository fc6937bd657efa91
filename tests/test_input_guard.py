"""Malformed arguments to the public entry points raise :class:`DualityError`
subclasses only, never numpy's or Python's own exceptions.

Each argument is either a well-formed value or junk: a non-number, NaN or
±inf, an array of the wrong shape or dtype, a ragged list, or an integer
out of range.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from duality import sweep
from duality.errors import DualityError, ValidationError
from duality.interferometer import (InterferometerInstance, WwmBlocks, from_global_unitary, from_tilted_pair,
                                    from_unitary_pair, instance_from_dict)
from duality.linalg import hermitian_eigen, trace_norm
from duality.measures import chi_closed_form, d_two_level, distinguishability, evaluate, quality, r_measure, xi
from duality.sqds import SqdsForms

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


@st.composite
def hermitian_matrices(draw):
    """A Hermitian matrix or stack of them with any finite entries, often huge
    ones whose spectra or trace norms lie beyond the float range."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=1, min_side=1, max_side=3)) + (draw(st.integers(1, 3)),) * 2
    entries = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 1e154]))
    re, im = (draw(hnp.arrays(np.float64, shape, elements=entries)) for _ in range(2))
    if draw(st.booleans()):  # diagonal, so that its huge entries are its eigenvalues
        re, im = np.where(np.eye(shape[-1], dtype=bool), re, 0.0), np.zeros(shape)
    upper = np.triu(re) + 1j * np.triu(im, 1)
    return upper + np.triu(upper, 1).conj().swapaxes(-1, -2)


def guarded(call) -> None:
    try:
        call()
    except DualityError:
        pass


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 2 ** 64 - 1), JUNK), stream=st.one_of(st.integers(0, 2 ** 64 - 1), JUNK),
       dim=st.one_of(st.integers(-3, sweep.MAX_DIM + 2), NUMBERS, st.text(max_size=2), st.none()),
       wwm=st.one_of(st.sampled_from(sweep.WWM_CLASSES), JUNK),
       s_class=st.one_of(st.sampled_from(sweep.S_CLASSES), JUNK),
       block=st.one_of(st.sampled_from((*sweep.BLOCK_CLASSES, sweep.STRINGENCY_CLASS)), JUNK))
def test_generate_instance_raises_only_duality_errors(seed, stream, dim, wwm, s_class, block):
    guarded(lambda: sweep.generate_instance(seed, stream, dim, wwm, s_class, block))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 2 ** 64 - 1),
       dim=st.one_of(st.integers(-3, 2 ** 70), st.integers(-3, 2 ** 63 - 1).map(np.int64),
                     st.integers(0, 2 ** 64 - 1).map(np.uint64), JUNK),
       wwm=st.sampled_from(sweep.WWM_CLASSES), s_class=st.sampled_from(sweep.S_CLASSES),
       block=st.sampled_from((*sweep.BLOCK_CLASSES, sweep.STRINGENCY_CLASS)))
def test_generate_instance_checks_any_dim(seed, stream, dim, wwm, s_class, block):
    # Every other argument is valid, so each example reaches the dim check.
    guarded(lambda: sweep.generate_instance(seed, stream, dim, wwm, s_class, block))


@settings(max_examples=300, deadline=None)
@given(theta=st.one_of(st.floats(), JUNK), u_plus=MATRICES, u_minus=MATRICES)
def test_block_constructors_raise_only_duality_errors(theta, u_plus, u_minus):
    guarded(lambda: from_tilted_pair(theta, u_plus, u_minus))
    guarded(lambda: from_unitary_pair(u_plus, u_minus))
    guarded(lambda: from_global_unitary(u_plus))


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(MATRICES, hermitian_matrices()))
def test_spectral_functions_raise_only_duality_errors(m):
    guarded(lambda: trace_norm(m))
    guarded(lambda: hermitian_eigen(m))


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


# Numbers in [0, 1] in arrays of small, often mismatched, shapes: past every
# range check, so only the broadcast check stands between them and numpy.
UNIT_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3),
                         elements=st.floats(0.0, 1.0))
FORMULA_NUMBERS = st.one_of(st.floats(0.0, 1.0), UNIT_ARRAYS, JUNK)
HALF = np.eye(2) / 2.0
STATES = st.one_of(st.sampled_from([HALF, np.diag([1.0, 0.0]), np.stack([HALF] * 3)]), MATRICES)
GOOD_INSTANCE = InterferometerInstance(s=1.0, blocks=from_unitary_pair(np.eye(2), np.eye(2)), rho_d0=HALF).to_dict()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_formula_functions_and_configs_raise_only_duality_errors(data):
    def number(label):
        return data.draw(FORMULA_NUMBERS, label=label)

    guarded(lambda: xi(number("p"), number("q")))
    guarded(lambda: d_two_level(number("p"), number("r")))
    guarded(lambda: chi_closed_form(number("d1"), number("d2"), number("p"), number("xi_value")))
    rho_plus, rho_minus = data.draw(STATES, label="rho_plus"), data.draw(STATES, label="rho_minus")
    guarded(lambda: quality(rho_plus, rho_minus))
    guarded(lambda: distinguishability(number("w_plus"), rho_plus, number("w_minus"), rho_minus))
    guarded(lambda: r_measure(number("w_plus"), rho_plus, number("w_minus"), rho_minus, number("p")))
    config = {name: data.draw(st.one_of(st.just(good), JUNK), label=name) for name, good in
              (("seed", 0), ("count", 1), ("dims", (2, 3)))}
    guarded(lambda: sweep.SweepConfig(**config))
    fields = {name: data.draw(st.one_of(st.just(GOOD_INSTANCE[name]), JUNK), label=name) for name in ("n", "s", "phi")}
    guarded(lambda: instance_from_dict({**GOOD_INSTANCE, **fields}))


# A field of an SQDS configuration: often in range, so that whole configs are
# accepted and every form is read, otherwise any number (10**400 and 2**1100
# beyond the float range, 1e200 whose square overflows) or junk.  Arrays in
# range have shapes that broadcast together or do not; bool arrays are junk.
SQDS_FIELDS = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0).map(np.float64), st.integers(0, 1).map(np.int64),
                        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3),
                                   elements=st.floats(0.0, 1.0)),
                        hnp.arrays(np.bool_, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)),
                        st.sampled_from([10 ** 400, -2 ** 1100, 1e200, -1e-300]), st.floats(), NUMBERS, JUNK)


@settings(max_examples=300, deadline=None)
@given(fields=st.tuples(SQDS_FIELDS, SQDS_FIELDS, SQDS_FIELDS, SQDS_FIELDS))
def test_sqds_forms_raise_only_duality_errors(fields):
    def every_form():
        forms = SqdsForms(*fields)
        for name in ("s_d_norm", "v_q0", "q", "xi_q", "r_q", "d_q", "v_q", "delta", "chi"):
            getattr(forms, name)  # on every config that is accepted

    guarded(every_form)


@pytest.mark.parametrize("call", [
    lambda: xi("a", 0.5),
    lambda: xi(np.zeros(2), np.zeros(3)),
    lambda: d_two_level(np.zeros(2), np.zeros(3)),
    lambda: distinguishability("a", HALF, 0.5, HALF),
    lambda: distinguishability(np.full(2, 0.5), np.stack([HALF] * 3), 0.5, np.stack([HALF] * 3)),
    lambda: r_measure(0.5, HALF, 0.5, HALF, "x"),
    lambda: chi_closed_form("a", 0.5, 0.5, 0.5),
    # Each used to return a number: True as 1.0, and "0.5" as 0.5.
    lambda: xi(True, 0.5),
    lambda: xi("0.5", 0.5),
    lambda: d_two_level(True, 0.2),
], ids=["xi-string", "xi-shapes", "d_two_level-shapes", "distinguishability-string",
        "distinguishability-shapes", "r_measure-string", "chi-string", "xi-bool", "xi-numeric-string",
        "d_two_level-bool"])
def test_formula_functions_reject_non_numbers_and_mismatched_shapes(call):
    with pytest.raises(ValidationError):
        call()


MATRIX_NAMES = ("rho_d0", "vpp", "vpm", "vmp", "vmm")
# Junk for one entry, one [re, im] pair or one whole matrix of an instance object.
ENTRY_JUNK = st.one_of(JUNK, st.sampled_from(["0.5", "1e3", float("nan"), float("inf"), -float("inf"),
                                              2 ** 1100, -2 ** 1024, np.float64(0.5), np.bool_(False)]),
                       st.dictionaries(st.text(max_size=2), st.floats(), max_size=2))
PAIR_JUNK = st.one_of(ENTRY_JUNK, st.lists(st.floats(), max_size=3), st.tuples(st.floats(), st.floats()).map(np.array))
MATRIX_JUNK = st.one_of(PAIR_JUNK, st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=5),
                        st.lists(st.lists(st.floats(), max_size=3), min_size=4, max_size=4))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), replaced=st.sets(st.sampled_from(MATRIX_NAMES), min_size=1))
def test_instance_matrices_raise_only_duality_errors(data, replaced):
    d = {**GOOD_INSTANCE, "blocks": dict(GOOD_INSTANCE["blocks"])}
    for name in replaced:
        target = d if name == "rho_d0" else d["blocks"]
        pairs = [list(pair) for pair in target[name]]
        level = data.draw(st.sampled_from(("entry", "pair", "matrix", "array")), label=f"{name} level")
        i = data.draw(st.integers(0, len(pairs) - 1), label=f"{name} pair")
        if level == "entry":
            pairs[i][data.draw(st.integers(0, 1), label=f"{name} part")] = data.draw(ENTRY_JUNK, label=name)
        elif level == "pair":
            pairs[i] = data.draw(PAIR_JUNK, label=name)
        elif level == "matrix":
            pairs = data.draw(MATRIX_JUNK, label=name)
        else:  # the matrix as a numpy array, as a Python caller may pass it
            pairs = np.array(pairs, dtype=data.draw(st.sampled_from([float, complex, object, int, bool]), label=name))
        target[name] = pairs
    guarded(lambda: instance_from_dict(d))
