import numpy as np
import pytest

from pseudoreplay.errors import ConfigurationError
from pseudoreplay.seeding import derive_seed


def test_same_inputs_same_seed():
    assert derive_seed(42, "task", 1) == derive_seed(42, "task", 1)


def test_role_parts_change_the_seed():
    base = derive_seed(42, "task", 1)
    assert derive_seed(42, "task", 2) != base
    assert derive_seed(42, "init", 1) != base
    assert derive_seed(43, "task", 1) != base


def test_part_boundaries_matter():
    # ("ab", "c") and ("a", "bc") must not collide
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_result_fits_unsigned_64_bits():
    for parts in [(), ("x",), ("strategy", "rcl", "rep", 4)]:
        value = derive_seed(7, *parts)
        assert 0 <= value < 2**64


@pytest.mark.parametrize("master", [1.5, 1.0, True, "1", None])
def test_a_master_that_is_not_an_integer_is_refused(master):
    # int() maps 1.5, 1.0, True and "1" to master 1's streams
    with pytest.raises(ConfigurationError, match="master must be an integer"):
        derive_seed(master, "task", 1)


def test_a_numpy_integer_master_is_its_value():
    assert derive_seed(np.int64(3), "task", 1) == derive_seed(3, "task", 1)
