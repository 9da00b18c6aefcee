"""check_relations: one moment computation, the reports in order, witnesses."""

from collections import Counter
from fractions import Fraction as F

import pytest

from dq import states, uncertainty
from dq.errors import DimensionTooSmall, InternalConsistencyError, SingularTransform
from dq.linalg import Relation
from dq.observables import coordinate
from dq.series import HBAR
from dq.states import GaussianState, ground, squeezed
from dq.uncertainty import check_annihilating_transform, check_relations

Q, P = coordinate(1, "q", 1), coordinate(1, "p", 1)


def _counting(monkeypatch, calls, owner, name):
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_two_observables_share_one_moment_computation(monkeypatch):
    calls = Counter()
    for owner, name in (
        (uncertainty, "moment_matrices"),
        (uncertainty, "determinant"),
        (uncertainty, "kernel"),
        (states, "star"),
        (GaussianState, "star_expectation"),
    ):
        _counting(monkeypatch, calls, owner, name)
    uncertainty.moment_matrices(ground(1), [Q, P])
    # phi takes n(n+1)/2 pairings and no star product
    assert calls == {"moment_matrices": 1, "star_expectation": 3}
    calls.clear()
    checks = check_relations(ground(1), [Q, P])
    # the one star product is the Gel'fand norm of the kernel witness; the
    # determinants are det a and det b, since the TwoObs gap is det phi; det a
    # is not zero, so a has no kernel to compute
    assert calls == {
        "moment_matrices": 1,
        "determinant": 2,
        "kernel": 1,
        "star_expectation": 3,
        "star": 1,
    }
    assert [name for name, _ in checks.reports] == ["RS", "HR", "Trace", "TracePairing", "TwoObs"]
    assert all(r.relation is Relation.EQUAL for _, r in checks.reports)
    assert checks.hr_intelligent and checks.rs_intelligent
    assert checks.witness is not None and checks.direction is None
    calls.clear()
    # cov = h I: neither phi nor a is singular, so no kernel is computed
    thermal = GaussianState([0, 0], [[HBAR, 0], [0, HBAR]])
    checks = check_relations(thermal, [Q, P])
    assert calls["kernel"] == 0
    assert checks.witness is None and checks.direction is None


def test_a_pairing_with_the_sign_of_j_flipped_fails_the_witness_check(monkeypatch):
    # conj turns cov + (i h/2) J into cov - (i h/2) J; the star-path Gel'fand
    # norm of the kernel witness then is not zero
    orig = states._cross_covariance
    monkeypatch.setattr(
        states,
        "_cross_covariance",
        lambda cov, d: tuple(tuple(x.conj() for x in row) for row in orig(cov, d)),
    )
    with pytest.raises(InternalConsistencyError, match="kernel witness must lie in the ideal"):
        check_relations(ground(1), [Q, P])


def test_dependent_observables_give_a_direction():
    checks = check_relations(ground(1), [Q, P, Q + P])
    assert [name for name, _ in checks.reports] == ["RS", "HR", "Trace"]
    assert checks.rs_intelligent and not checks.hr_intelligent
    assert [str(x) for x in checks.direction] == ["1", "1", "-1"]
    assert checks.witness is None


def _scalar_block(m, x):
    return [[x if i == j else 0 for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("m", [1, 2], ids=["m1", "m2"])
def test_annihilated_ladder_saturates_rs(m):
    # squeezed(4) per mode is annihilated by (5/4) a + (-3/4) conj(a) for its
    # ladder a = (dq + i dp)/2, so each transformed ladder has norm 0
    xs = [coordinate(m, "q", j) for j in range(1, m + 1)]
    xs += [coordinate(m, "p", j) for j in range(1, m + 1)]
    u, v = _scalar_block(m, F(5, 4)), _scalar_block(m, F(-3, 4))
    res = check_annihilating_transform(squeezed(4, m), xs, u, v)
    assert len(res.norms) == m and all(norm.is_zero for norm in res.norms)
    assert res.all_in_ideal
    assert res.rs.relation is Relation.EQUAL


def test_the_annihilating_condition_is_sufficient_not_necessary():
    # ground(1) is annihilated by its ladder a itself: (u, v) = (1, 0)
    res = check_annihilating_transform(ground(1), [Q, P], [[1]], [[0]])
    assert res.all_in_ideal and res.norms[0].is_zero
    assert res.rs.relation is Relation.EQUAL
    # squeezed(4)'s transform does not annihilate ground(1), which still
    # saturates RS
    res = check_annihilating_transform(ground(1), [Q, P], [[F(5, 4)]], [[F(-3, 4)]])
    assert [str(norm) for norm in res.norms] == ["9/32*h"]
    assert not res.all_in_ideal
    assert res.rs.relation is Relation.EQUAL


def test_annihilating_transform_guards():
    with pytest.raises(DimensionTooSmall, match="even number"):
        check_annihilating_transform(squeezed(4), [Q, P, Q + P], [[1]], [[0]])
    with pytest.raises(SingularTransform, match="singular"):
        check_annihilating_transform(squeezed(4), [Q, P], [[1]], [[1]])
    with pytest.raises(ValueError, match="must be 1x1"):
        check_annihilating_transform(squeezed(4), [Q, P], [[1, 0]], [[0]])


def test_moment_matrices_need_an_observable():
    with pytest.raises(DimensionTooSmall, match="at least one observable"):
        uncertainty.moment_matrices(ground(1), [])
