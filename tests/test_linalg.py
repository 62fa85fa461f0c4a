import re

import numpy as np
import pytest

import eivtls.bootstrap
from eivtls.bootstrap import BootstrapConfig, choose_block_length
from eivtls.errors import InvalidParams
from eivtls.linalg import MAX_LENGTH, as_integer, as_matrix, as_number, as_vector
from eivtls.model import build_design, expected_cross_product, repeating_block, sinusoidal, synthesize
from eivtls.montecarlo import CltCheckConfig, clt_check
from eivtls.processes import ErrorMatrixSpec, ErrorProcessSpec, ar1, iid_gaussian, ma
from eivtls.processes import generate_error_matrix, generate_sequence
from eivtls.stats import long_run_variance

from conftest import exemplar


class TestValidators:
    def test_rejects_nan(self):
        with pytest.raises(InvalidParams):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(InvalidParams):
            as_vector([np.inf])

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidParams):
            as_matrix([1.0, 2.0])
        with pytest.raises(InvalidParams):
            as_vector([[1.0]])

    def test_integer_refuses_fractions(self):
        assert as_integer(7.0, "n") == 7 and as_integer(7, "n") == 7
        for value in (2.5, np.nan, np.inf, np.float32(2.5)):
            with pytest.raises(InvalidParams, match="n must be a whole number"):
                as_integer(value, "n")

    def test_integer_refuses_strings_and_bools(self):
        for value in ("500", "7.0", np.str_("3"), True, False, np.bool_(True)):
            with pytest.raises(InvalidParams, match="n must be a whole number"):
                as_integer(value, "n")
        for value in (np.int64(-7), np.uint64(7), np.int32(7), np.float64(7.0)):
            result = as_integer(value, "n")
            assert type(result) is int and abs(result) == 7

    @pytest.mark.parametrize("value", ["1", True, np.bool_(False), None, [1.0], 1j, np.complex128(1)])
    def test_number_refuses_anything_but_integers_and_floats(self, value):
        with pytest.raises(InvalidParams, match="x must be a number"):
            as_number(value, "x")
        with pytest.raises(InvalidParams, match="x must be a whole number"):
            as_integer(value, "x")

    def test_number_returns_a_float(self):
        for value in (2, 2.0, np.int64(2), np.uint8(2), np.float32(2.0), 10**30):
            result = as_number(value, "x")
            assert type(result) is float and result == float(value)

    @pytest.mark.parametrize(
        "entries",
        [["1", "2"], [True, False], [1.0, True], [1.0, np.True_], [1.0, None], [[1.0], [1.0, 2.0]],
         [1.0, 1j]],
    )
    def test_arrays_refuse_entries_that_are_not_numbers(self, entries):
        with pytest.raises(InvalidParams):
            as_vector(entries)
        with pytest.raises(InvalidParams):
            as_matrix([entries, entries])


def experiment(**changes):
    """An experiment config at p = 1, so each n must be at least 3."""
    return exemplar("alpha", (1.0,), **changes)


def clt_config(**changes):
    """A clt-check config read from its config object, at the least sizes."""
    d = {"process": {"kind": "iid_gaussian"}, "n": 500, "replications": 500}
    return CltCheckConfig.from_dict({**d, **changes})


# Every size and count the package reads: (argument name in the message,
# least accepted value, a call that reads the value).  This table owns the
# size contract: a new size reader adds a row here, not a test of its own.
SIZES = {
    "n_grid": ("every entry of n_grid", 3, lambda v: experiment(n_grid=[v])),
    "replications": ("replications", 100, lambda v: experiment(replications=v)),
    "build_design": ("n", 3, lambda v: build_design(repeating_block([[1.0], [2.0]]), v)),
    "generate_sequence": ("n", 1, lambda v: generate_sequence(iid_gaussian(), v, 0)),
    "generate_error_matrix": ("n", 1, lambda v: generate_error_matrix(experiment().errors, v, 0)),
    "clt_check-n": ("n", 500, lambda v: clt_check(iid_gaussian(), v, 500, 0)),
    "clt_check-replications": ("replications", 500, lambda v: clt_check(iid_gaussian(), 500, v, 0)),
    "CltCheckConfig-n": ("n", 500, lambda v: clt_config(n=v)),
    "CltCheckConfig-replications": ("replications", 500, lambda v: clt_config(replications=v)),
    "n_boot": ("n_boot", 199, lambda v: BootstrapConfig(n_boot=v)),
    "block_length": ("block_length", 1, lambda v: BootstrapConfig(block_length=v)),
    "bandwidth": ("bandwidth", 0, lambda v: long_run_variance(np.zeros((100, 1)), bandwidth=v)),
    "choose_block_length": ("rows for an automatic block length", 8, choose_block_length),
}


@pytest.mark.parametrize("site", sorted(SIZES))
class TestSizeReader:
    """``as_integer`` with a minimum reads every size and count, from ``least`` to MAX_LENGTH."""

    def test_out_of_range_is_refused(self, site):
        name, least, read = SIZES[site]
        message = f"{name} must be at least {least} and at most {MAX_LENGTH}, got"
        for value in (least - 1, MAX_LENGTH + 1):
            with pytest.raises(InvalidParams, match="^" + re.escape(message)):
                read(value)

    def test_least_is_accepted(self, site):
        _, least, read = SIZES[site]
        read(least)
        read(float(least))

    def test_fraction_and_string_are_refused(self, site):
        name, least, read = SIZES[site]
        for value in (least + 0.5, str(least), True):
            with pytest.raises(InvalidParams, match="^" + re.escape(f"{name} must be a whole number")):
                read(value)


# Every seed the package reads: (argument name in the message, a call that
# reads the value).  A new seed reader adds a row here.
SEEDS = {
    "generate_sequence": ("seed", lambda v: generate_sequence(iid_gaussian(), 10, v)),
    "generate_error_matrix": ("seed", lambda v: generate_error_matrix(experiment().errors, 10, v)),
    "synthesize": ("seed", lambda v: synthesize(repeating_block([[1.0]]), [2.0], experiment().errors, 10, v)),
    "clt_check": ("seed", lambda v: clt_check(iid_gaussian(), 500, 500, v)),
    "CltCheckConfig": ("seed", lambda v: clt_config(seed=v)),
    "BootstrapConfig": ("seed", lambda v: BootstrapConfig(seed=v)),
    "ExperimentConfig": ("master_seed", lambda v: experiment(master_seed=v)),
}


@pytest.mark.parametrize("value", [7.5, True, "7"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("site", sorted(SEEDS))
def test_seed_reader_refuses_a_fraction_a_bool_and_a_string(site, value):
    name, read = SEEDS[site]
    with pytest.raises(InvalidParams, match="^" + re.escape(f"{name} must be a whole number")):
        read(value)


# Every scalar number the package reads: (argument name in the message, a
# value it accepts, a call that reads a value and returns it as kept).  A
# new number reader adds a row here.  ``scale`` is read from a config object
# only, and ``expected_cross_product`` keeps no field: its row returns the
# sigma2 that its product adds on the diagonal.
NUMBERS = {
    "a": ("a", 0.5, lambda v: ar1(v).a),
    "delta": ("delta", 3.0, lambda v: ar1(0.5, delta=v).delta),
    "omega": ("omega", 2.0, lambda v: iid_gaussian(omega=v).omega),
    "coeffs": ("every entry of coeffs", 2.0, lambda v: ma([1.0, v]).coeffs[1]),
    "scale": ("scale", 1.0,
              lambda v: ErrorProcessSpec.from_dict({"kind": "iid_gaussian", "scale": v}).to_dict()["scale"]),
    "sigma2": ("sigma2", 2.0, lambda v: ErrorMatrixSpec((iid_gaussian(),), sigma2=v).sigma2),
    "frequencies": ("every entry of frequencies", 0.25, lambda v: sinusoidal([0.1, v]).frequencies[1]),
    "level": ("level", 0.75, lambda v: BootstrapConfig(level=v).level),
    "expected_cross_product": ("sigma2", 2.0, lambda v: expected_cross_product([[0.0]], [0.0], v)[1, 1].item()),
}
# The optional fields, where None means "not set".
UNSET_BY_NONE = {"a", "delta", "omega"}
NOT_NUMBERS = {"string": "0.25", "bool": True, "np-bool": np.True_, "list": [0.25], "complex": 1j, "none": None}


@pytest.mark.parametrize(
    "site, value",
    [pytest.param(site, value, id=f"{site}-{label}") for site in sorted(NUMBERS)
     for label, value in NOT_NUMBERS.items() if not (value is None and site in UNSET_BY_NONE)],
)
def test_number_reader_refuses_anything_but_a_number(site, value):
    name, _, read = NUMBERS[site]
    with pytest.raises(InvalidParams, match="^" + re.escape(f"{name} must be a number")):
        read(value)


@pytest.mark.parametrize("site", sorted(NUMBERS))
def test_number_reader_keeps_a_python_float(site):
    _, accepted, read = NUMBERS[site]
    values = [accepted, np.float32(accepted)]
    if accepted.is_integer():
        values += [int(accepted), np.int64(accepted)]
    for value in values:
        kept = read(value)
        assert type(kept) is float and kept == accepted


class TestChooseBlockLengthReadsN:
    @pytest.mark.parametrize("n", ["100", 9.5, 10**300, 1e300], ids=["str", "fraction", "10**300", "1e300"])
    def test_refused_before_the_cube_root(self, monkeypatch, n):
        def unreachable(n):
            raise AssertionError("the cube root ran")

        monkeypatch.setattr(eivtls.bootstrap, "icbrt", unreachable)
        with pytest.raises(InvalidParams, match="^rows for an automatic block length must be"):
            choose_block_length(n)


class TestAsInteger:
    def test_no_minimum_reads_any_whole_number(self):
        assert as_integer(-(10**30), "seed") == -(10**30)
        assert as_integer(MAX_LENGTH + 1, "seed") == MAX_LENGTH + 1

    def test_bounds_are_inclusive(self):
        assert as_integer(5, "n", 5) == 5
        assert as_integer(np.int64(MAX_LENGTH), "n", 5) == MAX_LENGTH
