"""Finitely generated abelian groups and homology profiles."""

import random

import pytest

from bredon.abelian import TRIVIAL, FgAbGroup, HomologyProfile, normalize_factors


def test_normalize_divisor_chain():
    assert normalize_factors([6, 4]) == (2, 12)
    assert normalize_factors([2, 3]) == (6,)
    assert normalize_factors([2, 2, 2]) == (2, 2, 2)
    assert normalize_factors([12, 18, 10]) == (2, 6, 180)
    assert normalize_factors([1, 1, 5]) == (5,)
    assert normalize_factors([]) == ()


def test_normalization_preserves_group():
    # invariant-factor form keeps the multiset of p-power components
    def primary(factors):
        out = []
        for d in factors:
            n, p = d, 2
            while n > 1:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                if e:
                    out.append(p**e)
                p += 1
        return sorted(out)

    rng = random.Random(4096)
    for _ in range(50):
        factors = [rng.randint(2, 60) for _ in range(rng.randint(1, 5))]
        assert primary(factors) == primary(normalize_factors(factors))


def test_from_factors_strips_units():
    g = FgAbGroup.from_factors(2, [1, 4, 6])
    assert g.free_rank == 2
    assert g.torsion == (2, 12)


def test_str_forms():
    assert str(FgAbGroup.free(0)) == "0"
    assert str(FgAbGroup.free(1)) == "Z"
    assert str(FgAbGroup.free(5)) == "Z^5"
    assert str(FgAbGroup.from_factors(1, [2])) == "Z + Z/2"


def test_direct_sum():
    a = FgAbGroup.from_factors(1, [2])
    b = FgAbGroup.from_factors(2, [3])
    s = a.direct_sum(b)
    assert s.free_rank == 3
    assert s.torsion == (6,)


def test_tensor_bilinear_rules():
    z2 = FgAbGroup.from_factors(0, [2])
    z3 = FgAbGroup.from_factors(0, [3])
    z6 = FgAbGroup.from_factors(0, [6])
    assert z2.tensor(z3).is_trivial  # gcd(2,3) = 1
    assert z2.tensor(z6).torsion == (2,)
    assert FgAbGroup.free(2).tensor(FgAbGroup.free(3)) == FgAbGroup.free(6)
    # Z tensor A = A
    a = FgAbGroup.from_factors(2, [4, 12])
    assert FgAbGroup.free(1).tensor(a) == a


def test_tor_rules():
    z2 = FgAbGroup.from_factors(0, [2])
    z4 = FgAbGroup.from_factors(0, [4])
    assert FgAbGroup.free(3).tor(z4).is_trivial  # Tor(free, -) = 0
    assert z2.tor(z4).torsion == (2,)
    assert z2.tor(FgAbGroup.free(5)).is_trivial


def test_tensor_tor_symmetry():
    rng = random.Random(11)
    for _ in range(30):
        a = FgAbGroup.from_factors(
            rng.randint(0, 2), [rng.randint(2, 12) for _ in range(rng.randint(0, 3))]
        )
        b = FgAbGroup.from_factors(
            rng.randint(0, 2), [rng.randint(2, 12) for _ in range(rng.randint(0, 3))]
        )
        assert a.tensor(b) == b.tensor(a)
        assert a.tor(b) == b.tor(a)


def test_json_round_trip():
    g = FgAbGroup.from_factors(3, [2, 6])
    assert FgAbGroup.from_json(g.to_json()) == g


@pytest.mark.parametrize(
    "data",
    [
        {"free_rank": 3.9},
        {"free_rank": "3"},
        {"free_rank": True},
        {"free_rank": 0, "torsion": [2.0]},
        {"free_rank": 0, "torsion": ["2"]},
        {"free_rank": 0, "torsion": [True, 2]},
    ],
)
def test_from_json_rejects_non_integer_entries(data):
    with pytest.raises((TypeError, ValueError)):
        FgAbGroup.from_json(data)


def test_from_json_rejects_unknown_keys():
    # a misspelt key would otherwise be ignored and read as no torsion
    with pytest.raises(ValueError, match="torsoin"):
        FgAbGroup.from_json({"free_rank": 0, "torsoin": [2]})


def test_profile_drops_trivial_degrees():
    p = HomologyProfile({0: FgAbGroup.free(3), 1: TRIVIAL, 2: TRIVIAL})
    assert 1 not in p.groups
    assert p.max_degree == 0
    assert p.group_at(7) == TRIVIAL


def test_profile_truncation_and_json():
    p = HomologyProfile({0: FgAbGroup.free(2), 3: FgAbGroup.from_factors(0, [2])})
    t = p.truncated(1)
    assert t.max_degree == 0
    assert HomologyProfile.from_json(p.to_json()) == p
