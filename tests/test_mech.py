import itertools

import numpy as np
import pytest

from osauction import dist as D
from osauction import mech as M

F_DISC = D.two_point(1.0, 0.8, 2.0)
UNIF = D.uniform(0, 1)
P = M.Profile


class TestProfile:
    def test_sorted_cache(self):
        prof = P((1.0, 3.0, 2.0))
        assert [v for v, _ in prof.sorted_desc] == [3.0, 2.0, 1.0]
        assert prof.order_stat(1) == 3.0
        assert prof.order_stat(4) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            P((-1.0, 2.0))


class TestPostedPrice:
    def test_first_eligible_wins(self):
        out = M.pp_outcome(0.5, P((0.3, 0.7, 0.7)))
        assert out.winners == ((1, 0.5),)

    def test_no_sale(self):
        assert M.pp_outcome(2.0, P((1, 1, 1))).total_payment == 0.0

    def test_threshold_inclusive(self):
        out = M.pp_outcome(1.0, P((1, 0, 0)))
        assert out.winners == ((0, 1.0),)


class TestSecondPrice:
    def test_single_above_pays_reserve(self):
        assert M.spa_outcome(0.5, P((0.9, 0.3))).total_payment == 0.5

    def test_two_above_pay_second(self):
        assert M.spa_outcome(0.5, P((0.9, 0.7))).total_payment == 0.7

    def test_plain_second_price(self):
        assert M.spa_outcome(0.0, P((3, 2, 1))).total_payment == 2.0

    def test_ties_to_smallest_index(self):
        out = M.spa_outcome(0.0, P((2.0, 2.0)))
        assert out.winners[0][0] == 0

    def test_payment_monotone_in_top_two(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.uniform(0, 1.5)
            v1, v2, v3 = np.sort(rng.uniform(0, 2, size=3))[::-1]
            base = M.spa_outcome(r, P((v1, v2, v3))).total_payment
            assert M.spa_outcome(r, P((v1 + 0.3, v2, v3))).total_payment >= base
            bigger2 = min(v2 + 0.3, v1)
            assert M.spa_outcome(r, P((v1, bigger2, v3))).total_payment >= base


class TestMyerson:
    def test_pooled_flat_charges_next_rise(self):
        out = M.myerson_outcome(F_DISC, "lexicographic", P((1, 2, 1)))
        assert out.winners == ((1, 2.0),)

    def test_winner_above_pooled_rivals_pays_flat_bottom(self):
        out = M.myerson_outcome(F_DISC, "lexicographic", P((2, 1, 1)))
        assert out.winners == ((0, 1.0),)

    def test_all_pooled_pay_flat_bottom(self):
        assert M.myerson_outcome(F_DISC, "lexicographic", P((1, 1, 1))).total_payment == 1.0

    def test_below_reserve_no_sale(self):
        out = M.myerson_outcome(UNIF, "lexicographic", P((0.3, 0.2)))
        assert out.total_payment == 0.0

    def test_regular_case_reserve_binds(self):
        out = M.myerson_outcome(UNIF, "lexicographic", P((0.7, 0.2)))
        assert out.winners == ((0, 0.5),)

    def test_zero_bid_never_wins(self):
        out = M.myerson_outcome(F_DISC, "lexicographic", P((0.0, 1.0, 0.0)))
        assert out.winners == ((1, 1.0),)

    def test_uniform_tiebreak_needs_draw(self):
        with pytest.raises(ValueError):
            M.myerson_outcome(F_DISC, "uniform", P((1, 1)))

    def test_uniform_tiebreak_averages_orders(self):
        # with bids (2, 1) the pooled loser forces payment 2 exactly when it
        # out-prioritizes the winner: expected payment 1.5 over both orders
        pays = []
        for rank in ((0, 1), (1, 0)):
            out = M.myerson_outcome(F_DISC, "uniform", P((2, 1)), priority=rank)
            pays.append(out.total_payment)
        assert sorted(pays) == [1.0, 2.0]

    def test_priority_unranking_covers_all_orders(self):
        n = 4
        seen = set()
        total = 24
        for i in range(total):
            seen.add(M.priority_from_uniform((i + 0.5) / total, n))
        assert len(seen) == total

    def test_priority_unranking_refuses_unreachable_orders(self):
        # 18! < 2**53 < 19!: from 19 bidders on a double cannot reach every order
        assert sorted(M.priority_from_uniform(0.999, 18)) == list(range(18))
        for n in (19, 171):
            with pytest.raises(ValueError, match="priority orders"):
                M.priority_from_uniform(0.5, n)


class TestMultiUnit:
    def test_uniform_price_no_reserve(self):
        out = M.multiunit_outcome(2, 0.0, P((3, 2, 1)))
        assert out.total_payment == 2.0
        assert all(p == 1.0 for _, p in out.winners)

    def test_reserve_binds(self):
        out = M.multiunit_outcome(2, 1.5, P((3, 2, 1)))
        assert out.total_payment == pytest.approx(3.0)

    def test_single_unit_matches_second_price(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            vals = tuple(rng.uniform(0, 2, size=3))
            r = rng.uniform(0, 1.5)
            assert M.multiunit_outcome(1, r, P(vals)).total_payment == pytest.approx(
                M.spa_outcome(r, P(vals)).total_payment
            )

    def test_needs_more_bidders_than_units(self):
        with pytest.raises(ValueError):
            M.multiunit_outcome(3, 0.0, P((1, 2, 3)))


class TestLaddered:
    def test_two_slots(self):
        out = M.laddered_outcome((1.0, 0.5), 0.0, P((3, 2, 1)))
        pays = dict(out.winners)
        assert pays[0] == pytest.approx(1.5)
        assert pays[1] == pytest.approx(0.5)
        assert out.total_payment == pytest.approx(2.0)

    def test_single_slot_matches_second_price(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            vals = tuple(rng.uniform(0, 2, size=3))
            r = rng.uniform(0, 1.5)
            assert M.laddered_outcome((1.0,), r, P(vals)).total_payment == pytest.approx(
                M.spa_outcome(r, P(vals)).total_payment
            )

    def test_reserve_above_everything(self):
        assert M.laddered_outcome((1.0, 0.5), 5.0, P((3, 2, 1))).total_payment == 0.0

    def test_rates_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            M.Laddered((0.5, 1.0))


class TestTopKClass:
    def test_classification(self):
        assert M.topk_class(M.PostedPrice(1.0)) == 1
        assert M.topk_class(M.SPAReserve(1.0)) == 2
        assert M.topk_class(M.MultiUnit(2, 0.0)) == 3
        assert M.topk_class(M.Laddered((1.0, 0.5), 0.0)) == 3
        assert M.topk_class(M.MyersonIID(F_DISC)) is None

    def test_separable_weights(self):
        # r * sum_i a_i 1[v_(i) >= r] + sum_j b_j (v_(j) - r)^+
        assert M.separable_form(M.PostedPrice(0.7)) == (0.7, (1.0,), ())
        assert M.separable_form(M.SPAReserve(0.4)) == M.separable_form(M.Laddered((1.0,), 0.4))
        assert M.separable_form(M.MultiUnit(3, 0.2)) == M.separable_form(M.Laddered((1.0,) * 3, 0.2))
        assert M.separable_form(M.MultiUnit(3, 0.2)) == (0.2, (1.0, 1.0, 1.0), (0.0, 0.0, 3.0))
        assert M.separable_form(M.Laddered((1.0, 0.5), 0.1)) == (0.1, (1.0, 0.5), (0.5, 1.0))
        assert M.separable_form(M.MyersonIID(F_DISC)) is None

    @pytest.mark.parametrize(
        "mech",
        [
            M.PostedPrice(0.7),
            M.SPAReserve(0.4),
            M.MultiUnit(2, 0.3),
            M.Laddered((1.0, 0.6, 0.2), 0.2),
        ],
    )
    def test_payment_depends_only_on_top_k(self, mech):
        k = M.topk_class(mech)
        rng = np.random.default_rng(7)
        for _ in range(100):
            top = np.sort(rng.uniform(0, 2, size=k))[::-1]
            rest1 = rng.uniform(0, top[-1], size=5 - k)
            rest2 = rng.uniform(0, top[-1], size=5 - k)
            v1 = tuple(np.concatenate([top, rest1]))
            v2 = tuple(np.concatenate([top, rest2]))
            assert M.outcome(mech, P(v1)).total_payment == pytest.approx(
                M.outcome(mech, P(v2)).total_payment, abs=1e-12
            )


class TestPaymentBounds:
    @pytest.mark.parametrize(
        "mech,slots",
        [
            (M.PostedPrice(0.7), 1),
            (M.SPAReserve(0.4), 1),
            (M.MyersonIID(F_DISC), 1),
            (M.MyersonIID(UNIF), 1),
            (M.MultiUnit(2, 0.3), 2),
            (M.Laddered((1.0, 0.6), 0.2), 2),
        ],
    )
    def test_non_negative_and_capped(self, mech, slots):
        rng = np.random.default_rng(11)
        for _ in range(300):
            vals = tuple(rng.uniform(0, 2.5, size=4))
            out = M.outcome(mech, P(vals), priority=M.priority_from_uniform(rng.random(), 4))
            assert all(p >= 0 for _, p in out.winners)
            assert out.total_payment <= slots * max(vals) + 1e-12


class TestMyersonIncentives:
    def test_critical_payment_semantics(self):
        # payment never exceeds the winning bid; raising the winning bid
        # changes nothing; bidding below the payment loses
        bases = [F_DISC, UNIF, D.from_table([], atoms=[(0.5, 0.4), (1.0, 0.35), (2.5, 0.25)])]
        rng = np.random.default_rng(19)
        for base in bases:
            hi = base.support_hi * 1.2
            for _ in range(500):
                v = tuple(rng.uniform(0, hi, size=3))
                out = M.myerson_outcome(base, "lexicographic", P(v))
                if not out.winners:
                    continue
                j, pay = out.winners[0]
                assert pay <= v[j] + 1e-12
                v_up = list(v)
                v_up[j] = min(v_up[j] + rng.uniform(0, hi / 3), 1.2 * hi)
                out_up = M.myerson_outcome(base, "lexicographic", P(tuple(v_up)))
                assert out_up.winners[0] == (j, pytest.approx(pay, abs=1e-9))
                if pay > 1e-9:
                    v_dn = list(v)
                    v_dn[j] = max(pay - 1e-6, 0.0)
                    out_dn = M.myerson_outcome(base, "lexicographic", P(tuple(v_dn)))
                    if out_dn.winners and v_dn[j] < pay - 1e-9:
                        assert out_dn.winners[0][0] != j


class TestMyersonMonotonicity:
    def test_coordinatewise_lexicographic(self):
        bases = [F_DISC, UNIF, D.from_table([], atoms=[(0.5, 0.4), (1.0, 0.35), (2.5, 0.25)])]
        rng = np.random.default_rng(3)
        for base in bases:
            hi = base.support_hi * 1.2
            for _ in range(400):
                v = rng.uniform(0, hi, size=3)
                w = np.minimum(v + rng.uniform(0, hi / 2, size=3), 1.1 * hi)
                p_lo = M.myerson_outcome(base, "lexicographic", P(tuple(v))).total_payment
                p_hi = M.myerson_outcome(base, "lexicographic", P(tuple(w))).total_payment
                assert p_lo <= p_hi

    def test_orderstat_dominance_uniform_tiebreak(self):
        # sorted dominance with expectation over all priority orders
        rng = np.random.default_rng(4)
        orders = list(itertools.permutations(range(3)))
        for base in (F_DISC, UNIF):
            hi = base.support_hi * 1.2
            for _ in range(100):
                v = np.sort(rng.uniform(0, hi, size=3))[::-1]
                w = np.minimum(v + rng.uniform(0, hi / 3, size=3), 1.1 * hi)
                w = np.sort(w)[::-1]
                def avg_pay(vals):
                    tot = 0.0
                    for perm in orders:
                        rank = [0, 0, 0]
                        for pos, b in enumerate(perm):
                            rank[b] = pos
                        tot += M.myerson_outcome(
                            base, "uniform", P(tuple(vals)), priority=tuple(rank)
                        ).total_payment
                    return tot / len(orders)
                assert avg_pay(v) <= avg_pay(w) + 1e-12


@pytest.mark.parametrize("call, exc, says", [
    (lambda: M.MultiUnit(0), ValueError, "at least one unit"),
    (lambda: M.Laddered((1.0, 0.0)), ValueError, "click rates must be positive"),
    (lambda: M.Laddered((1.0, -0.5)), ValueError, "click rates must be positive"),
    (lambda: M.MyersonIID(F_DISC, "random"), ValueError, "tiebreak must be"),
    (lambda: M.myerson_outcome(F_DISC, "random", P((1.0, 2.0))), ValueError, "unknown tiebreak 'random'"),
    (lambda: P((1.0, 2.0)).order_stat(0), ValueError, "1-indexed"),
    (lambda: M.pp_outcome(-0.5, P((1.0,))), ValueError, "price must be non-negative"),
    (lambda: M.spa_outcome(-0.5, P((1.0, 2.0))), ValueError, "reserve must be non-negative"),
    (lambda: M.outcome("vickrey", P((1.0, 2.0))), TypeError, "unknown mechanism 'vickrey'"),
    (lambda: M.separable_form("vickrey"), TypeError, "unknown mechanism 'vickrey'"),
], ids=["no_units", "zero_click_rate", "negative_click_rate", "unknown_tiebreak", "outcome_unknown_tiebreak",
        "order_stat_zero", "negative_price", "negative_reserve", "outcome_unknown_mechanism",
        "form_unknown_mechanism"])
def test_refusal_names_its_cause(call, exc, says):
    with pytest.raises(exc, match=says):
        call()
