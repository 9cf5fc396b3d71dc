import math
from itertools import product

import pytest

from neuroram.errors import InvalidParameterError, ResourceBudgetError
from neuroram.vclab import (
    Gate, VarThresholdArchitecture, baum_product_bound, circuit_vc_upper,
    count_dichotomies, count_dichotomies_detailed, grid_oracle_count,
    random_architecture, sauer_lower, vc_by_enumeration,
)


def single_gate(weights) -> VarThresholdArchitecture:
    return VarThresholdArchitecture(
        d=len(weights),
        gates=(Gate(tuple(range(len(weights))), tuple(weights)),),
        output=0,
    )


def chain(d, w1, w2, link) -> VarThresholdArchitecture:
    g1 = Gate(tuple(range(d)), tuple(w1))
    g2 = Gate(tuple(range(d)) + (d,), tuple(w2) + (link,))
    return VarThresholdArchitecture(d=d, gates=(g1, g2), output=1)


# --- exact counting ---------------------------------------------------------

def test_single_gate_distinct_sums_gives_z_plus_one():
    arch = single_gate((1.0, 2.0))
    samples = [(0, 0), (1, 0), (0, 1)]  # sums 0, 1, 2
    assert count_dichotomies(arch, samples) == 4


def test_empty_sample_set_has_one_partition():
    arch = single_gate((1.0,))
    assert count_dichotomies(arch, []) == 1


def test_tied_sums_collapse_patterns():
    arch = single_gate((1.0, 1.0))
    samples = [(1, 0), (0, 1)]  # equal sums: only all/none
    assert count_dichotomies(arch, samples) == 2


def test_two_gate_chain_bounded_and_matches_oracle():
    arch = chain(3, (1.0, 2.0, 4.0), (0.5, -1.5, 2.5), link=3.0)
    samples = [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0)]
    count, per_gate = count_dichotomies_detailed(arch, samples)
    assert count <= (len(samples) + 1) ** arch.m == 25
    assert count == grid_oracle_count(arch, samples)
    assert count <= baum_product_bound(per_gate)
    assert all(g <= len(samples) + 1 for g in per_gate)


def test_monotone_in_samples():
    arch = chain(3, (1.0, 2.0, 4.0), (2.0, 1.0, -3.0), link=1.5)
    pool = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)]
    counts = [count_dichotomies(arch, pool[:z]) for z in range(len(pool) + 1)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_random_architectures_match_grid_oracle():
    for case in range(25):
        arch = random_architecture(900 + case, m=1 + case % 3, d=2 + case % 3)
        domain = list(product((0, 1), repeat=arch.d))
        samples = domain[: 2 + case % 4]
        count, per_gate = count_dichotomies_detailed(arch, samples)
        assert count == grid_oracle_count(arch, samples)
        assert count <= baum_product_bound(per_gate)


def test_count_rejects_bad_samples():
    arch = single_gate((1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        count_dichotomies(arch, [(0, 0), (0, 0)])
    with pytest.raises(InvalidParameterError):
        count_dichotomies(arch, [(0, 0, 1)])
    # with a bit 2 and weights (2, 1) the search would count 3 labelings
    # and the oracle 2
    for count in (count_dichotomies, grid_oracle_count):
        with pytest.raises(InvalidParameterError, match="other than 0 or 1"):
            count(single_gate((2.0, 1.0)), [(2, 0), (0, 1)])


def test_budget_guard():
    arch = VarThresholdArchitecture(
        d=4,
        gates=tuple(
            Gate((0, 1, 2, 3), (1.0, 2.0, 4.0, 8.0)) for _ in range(8)
        ),
        output=7,
    )
    samples = list(product((0, 1), repeat=4))
    with pytest.raises(ResourceBudgetError):
        count_dichotomies(arch, samples)  # 17**8 ~ 7.0e9 search leaves


# --- bounds -----------------------------------------------------------------

def test_baum_product_examples():
    assert baum_product_bound((3, 4)) == 12
    assert baum_product_bound((7,)) == 7


@pytest.mark.parametrize("m,expected", [(2, 6.0), (4, 24.0), (8, 72.0)])
def test_circuit_vc_upper_values(m, expected):
    assert circuit_vc_upper(m) == pytest.approx(expected)


def test_circuit_vc_upper_requires_two_gates():
    with pytest.raises(InvalidParameterError):
        circuit_vc_upper(1)


def test_sauer_lower_values():
    assert sauer_lower(2**15, 16) == pytest.approx(15 / (4 + math.log2(math.e)))
    assert sauer_lower(2**15, 16) == pytest.approx(2.7560, abs=1e-3)
    assert sauer_lower(2, 16) == pytest.approx(1 / (4 + math.log2(math.e)))
    assert sauer_lower(2**255, 256) == pytest.approx(27.005, abs=1e-3)


def test_sauer_lower_handles_huge_class_sizes():
    assert sauer_lower(2 ** (4096 - 1), 4096) > 300


# --- VC by enumeration -------------------------------------------------------

def test_all_zero_weight_gate_has_vc_one():
    # Only the all-fire / none-fire behaviors exist, which still shatters a point.
    arch = single_gate((0.0, 0.0))
    assert vc_by_enumeration(arch, max_z=3) == 1


def test_single_monotone_gate_has_vc_one():
    # Threshold families over a fixed linear map are nested, so no pair of
    # points with comparable sums ever receives both mixed labelings.
    arch = single_gate((1.0, 2.0))
    assert vc_by_enumeration(arch, max_z=3) == 1


def test_enumerated_vc_respects_circuit_bound():
    for case in range(10):
        arch = random_architecture(500 + case, m=2 + case % 2, d=3)
        vc = vc_by_enumeration(arch, max_z=4)
        assert vc <= circuit_vc_upper(arch.m)


def test_vc_budget_guard():
    arch = single_gate((1.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ResourceBudgetError):
        vc_by_enumeration(arch, max_z=8)  # sum of C(32, z <= 8) ~ 1.5e7 sample sets


def test_architecture_validation():
    with pytest.raises(InvalidParameterError):
        VarThresholdArchitecture(d=2, gates=(), output=0)
    with pytest.raises(InvalidParameterError):
        VarThresholdArchitecture(d=2, gates=(Gate((5,), (1.0,)),), output=0)
    with pytest.raises(InvalidParameterError):
        VarThresholdArchitecture(
            d=2, gates=(Gate((0,), (1.0, 2.0)),), output=0
        )
