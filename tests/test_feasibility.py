"""Root data and the numeric feasibility screens."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flab.errors import InvalidGroup, InvalidInput
from flab.feasibility import (
    GO_PARITY,
    BIG_IMAGE_BOUND,
    SPREAD,
    SIMPLIFIED_BOUND,
    VERY_GOOD,
    FeasReport,
    GroupType,
    check_fl_hypotheses,
    check_oddness_balance,
    check_prime_bounds,
    check_very_good,
    feasibility_report,
    root_data,
)


def positive_roots(kind, n):
    """Positive roots of B_n / C_n / D_n as coordinate tuples: e_i ± e_j for
    i < j, plus e_i (B) or 2e_i (C)."""
    roots = []

    def vec(entries):
        v = [0] * n
        for idx, val in entries:
            v[idx] += val
        return tuple(v)

    for i in range(n):
        for j in range(i + 1, n):
            roots.append(vec([(i, 1), (j, -1)]))
            roots.append(vec([(i, 1), (j, 1)]))
    if kind == "B":
        roots.extend(vec([(i, 1)]) for i in range(n))
    elif kind == "C":
        roots.extend(vec([(i, 2)]) for i in range(n))
    return roots


def _primes(limit):
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for n in range(2, limit + 1):
        if sieve[n]:
            for m in range(n * n, limit + 1, n):
                sieve[m] = False
    return [n for n in range(2, limit + 1) if sieve[n]]


def test_root_data_frozen_examples():
    gsp4 = root_data(GroupType("GSp", 4))
    assert (gsp4.dim_g, gsp4.dim_b, gsp4.num_pos_roots) == (11, 7, 4)
    assert (gsp4.coxeter_h, gsp4.center_order) == (4, 2)
    gsp2 = root_data(GroupType("GSp", 2))
    assert (gsp2.dim_g, gsp2.dim_b, gsp2.num_pos_roots) == (4, 3, 1)
    go5 = root_data(GroupType("GO", 5))
    assert (go5.num_pos_roots, go5.dim_b, go5.dim_g) == (4, 7, 11)
    go9 = root_data(GroupType("GO", 9))
    assert (go9.coxeter_h, go9.center_order) == (8, 1)


def test_root_data_identities_and_counts():
    for family in ("GSp", "GO"):
        for m in range(2, 21):
            if family == "GSp" and m % 2:
                continue
            data = root_data(GroupType(family, m))
            assert data.dim_b == data.num_pos_roots + data.rank_t
            assert data.dim_g == 2 * data.num_pos_roots + data.rank_t
            n = m // 2
            if family == "GSp":
                assert data.num_pos_roots == n * n
            elif m % 2:
                assert data.num_pos_roots == n * n
            else:
                assert data.num_pos_roots == n * n - n
    # enumeration really produces distinct vectors
    for kind, n in (("B", 3), ("C", 3), ("D", 4)):
        roots = positive_roots(kind, n)
        assert len(set(roots)) == len(roots)


def test_root_counts_match_the_enumeration():
    for n in range(1, 41):
        for group in (GroupType("GSp", 2 * n), GroupType("GO", 2 * n + 1), GroupType("GO", 2 * n)):
            kind, rank = group.cartan_type()
            assert rank == n
            assert root_data(group).num_pos_roots == len(positive_roots(kind, n)), group


def test_group_type_rejects_bad_input():
    with pytest.raises(InvalidGroup):
        GroupType("GSp", 5)
    with pytest.raises(InvalidGroup):
        GroupType("GL", 4)
    with pytest.raises(InvalidGroup):
        GroupType("GO", 1)


def test_very_good_is_everything_but_two():
    assert not check_very_good(2, GroupType("GSp", 4)).accept
    assert check_very_good(2, GroupType("GSp", 4)).constraint == VERY_GOOD
    assert check_very_good(3, GroupType("GO", 5)).accept
    assert check_very_good(13, GroupType("GSp", 6)).accept


def test_oddness_balance_fixtures():
    gsp4 = GroupType("GSp", 4)
    assert check_oddness_balance(2, [4, 4], gsp4).accept
    assert not check_oddness_balance(2, [4, 5], gsp4).accept
    with pytest.raises(InvalidInput):
        check_oddness_balance(1, [3], gsp4)
    with pytest.raises(InvalidInput):
        check_oddness_balance(1, [4, 4], gsp4)
    # a missing real place forces strict surplus on the left: reject
    assert not check_oddness_balance(2, [4], gsp4).accept


@given(
    degree=st.integers(min_value=1, max_value=4),
    extra=st.lists(st.integers(min_value=0, max_value=3), max_size=4),
)
def test_oddness_accepts_only_exact_balance(degree, extra):
    g = GroupType("GSp", 4)
    floor = root_data(g).num_pos_roots
    h0 = [floor + e for e in extra[:degree]]
    verdict = check_oddness_balance(degree, h0, g)
    assert verdict.accept == (len(h0) == degree and all(e == 0 for e in extra[:degree]))


def test_prime_bounds_fixtures():
    gsp4 = GroupType("GSp", 4)
    ok = check_prime_bounds(19, gsp4)
    assert ok.accept and ok.parts == {"simplified": True, "big_image": True}
    bad = check_prime_bounds(17, gsp4)
    assert not bad.accept
    assert bad.constraint == SIMPLIFIED_BOUND
    go9 = check_prime_bounds(19, GroupType("GO", 9))
    assert go9.accept
    assert "p − 1 > 14" in go9.detail
    caveat = check_prime_bounds(19, GroupType("GSp", 2))
    assert caveat.parts.get("rank_1_caveat") is True
    assert "rank_1_caveat" not in check_prime_bounds(19, gsp4).parts


def test_prime_bounds_agree_except_at_the_edge():
    # For GSp_m the simplified cut is p ≥ 2m−1 (m ≥ 10) while the big-image
    # cut is p ≥ 2m, so the two verdicts split exactly at p = 2m−1.
    primes = _primes(60)
    edges = []
    for m in range(2, 21, 2):
        g = GroupType("GSp", m)
        for p in primes:
            if p == 2:
                continue
            v = check_prime_bounds(p, g)
            if v.parts["simplified"] != v.parts["big_image"]:
                edges.append((m, p))
                assert v.parts["simplified"] and not v.parts["big_image"]
                assert v.constraint == BIG_IMAGE_BOUND
                assert p == 2 * m - 1
    assert edges == [(10, 19), (12, 23), (16, 31)]


def test_fl_hypotheses_fixtures():
    assert check_fl_hypotheses(11, [[0, 1, 2, 3]]).accept
    bad = check_fl_hypotheses(5, [[0, 1, 2, 3]])
    assert not bad.accept and bad.constraint == SPREAD
    go6 = check_fl_hypotheses(11, [[0, 1]], GroupType("GO", 6))
    assert not go6.accept and go6.constraint == GO_PARITY
    assert not check_fl_hypotheses(11, [[0, 0, 1]]).accept
    assert not check_fl_hypotheses(11, [[0, 1], [0, 1, 2]]).accept
    assert check_fl_hypotheses(11, [[0, 1, 2], [1, 2, 3]], GroupType("GO", 8)).accept
    with pytest.raises(InvalidInput):
        check_fl_hypotheses(None, [[0, 1]])


def test_report_aggregates_checks():
    gsp4 = GroupType("GSp", 4)
    good = feasibility_report(gsp4, p=19, degree=1, h0=[4])
    assert good.accept and good.binding() == []
    bad = feasibility_report(gsp4, p=17, degree=1, h0=[4])
    assert not bad.accept and SIMPLIFIED_BOUND in bad.binding()
    go6 = feasibility_report(GroupType("GO", 6), p=19)
    assert not go6.accept and GO_PARITY in go6.binding()
    assert isinstance(good, FeasReport)
    with pytest.raises(InvalidInput):
        feasibility_report(gsp4)
    with pytest.raises(InvalidInput):
        feasibility_report(gsp4, degree=2)


def test_report_refuses_a_p_that_is_not_prime():
    gsp4 = GroupType("GSp", 4)
    for p in (21, 4, 1, 0, -3):
        with pytest.raises(InvalidInput, match=f"^p = {p} is not prime$"):
            feasibility_report(gsp4, p=p, degree=1, h0=[4])
    # a huge p fails on the trial-division bound, not by dividing on
    with pytest.raises(InvalidInput, match="trial-division bound"):
        feasibility_report(gsp4, p=2**61 - 1)
    # 2 is prime, and stays accepted as input and rejected as not very good
    two = feasibility_report(gsp4, p=2)
    assert not two.checks["very_good"].accept and VERY_GOOD in two.binding()
