"""check_relations: one moment computation, the reports in order, witnesses."""

from collections import Counter
from fractions import Fraction as F

import pytest

from dq import uncertainty
from dq.errors import InternalConsistencyError
from dq.linalg import Relation
from dq.observables import constant, coordinate
from dq.series import I_UNIT
from dq.states import ground, squeezed
from dq.uncertainty import check_annihilating_transform, check_relations

Q, P = coordinate(1, "q", 1), coordinate(1, "p", 1)


def _counting(monkeypatch, calls, name):
    orig = getattr(uncertainty, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(uncertainty, name, wrapper)


def test_two_observables_share_one_moment_computation(monkeypatch):
    calls = Counter()
    for name in ("moment_matrices", "determinant", "star"):
        _counting(monkeypatch, calls, name)
    checks = check_relations(ground(1), [Q, P])
    # phi takes n^2 star products; its real part is the covariance part
    assert calls == {"moment_matrices": 1, "determinant": 3, "star": 4}
    assert [name for name, _ in checks.reports] == ["RS", "HR", "Trace", "TracePairing", "TwoObs"]
    assert all(r.relation is Relation.EQUAL for _, r in checks.reports)
    assert checks.hr_intelligent and checks.rs_intelligent
    assert checks.witness is not None and checks.direction is None


def test_a_star_product_off_by_i_fails_the_moment_cross_checks(monkeypatch):
    orig = uncertainty.star
    monkeypatch.setattr(uncertainty, "star", lambda f, g: orig(f, g) + constant(1, I_UNIT))
    with pytest.raises(InternalConsistencyError):
        uncertainty.moment_matrices(ground(1), [Q, P])


def test_dependent_observables_give_a_direction():
    checks = check_relations(ground(1), [Q, P, Q + P])
    assert [name for name, _ in checks.reports] == ["RS", "HR", "Trace"]
    assert checks.rs_intelligent and not checks.hr_intelligent
    assert [str(x) for x in checks.direction] == ["1", "1", "-1"]
    assert checks.witness is None


def test_annihilated_ladder_saturates_rs():
    res = check_annihilating_transform(squeezed(4), [Q, P], [[F(5, 4)]], [[F(-3, 4)]])
    assert res.all_in_ideal
    assert res.rs.relation is Relation.EQUAL
