"""Inputs come from the seed alone."""
import pytest

from workloads import catalogue, lattice


def _generators(seed):
    return {
        "lattice": lattice.Generator(seed),
        "catalogue": catalogue.Generator(seed),
    }


@pytest.mark.parametrize("name", ["lattice", "catalogue"])
def test_same_seed_gives_identical_inputs(name):
    a, b = _generators(7)[name], _generators(7)[name]
    assert [a.spec(i) for i in range(2)] == [b.spec(i) for i in range(2)]


def test_other_seed_or_pass_gives_other_inputs():
    a, b = lattice.Generator(7), lattice.Generator(8)
    assert a.spec(0) != b.spec(0)
    assert a.spec(0) != a.spec(1)


def test_the_blowup_matrix_ends_the_first_pass_only():
    g = lattice.Generator(7)
    first, second = g.spec(0)["ops"], g.spec(1)["ops"]
    assert first[-1] == {"kind": "snf", "matrix": lattice.BLOWUP}
    assert len(first) == len(second) + 1
    assert [op["kind"] for op in first[:-1]] == [op["kind"] for op in second]


def test_invariant_factors():
    assert lattice.invariant_factors([2, 4]) == (2, 4)
    assert lattice.invariant_factors([2, 3]) == (6,)
    assert lattice.invariant_factors([4, 2, 2]) == (2, 2, 4)
    assert lattice.invariant_factors([]) == ()
