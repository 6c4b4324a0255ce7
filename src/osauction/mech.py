"""Per-profile outcomes for the mechanisms under study.

All mechanisms are dominant-strategy truthful and evaluated under truthful
bidding: posted price, second-price with reserve, the symmetric Myerson
auction with ironing (both tie-breaking rules), uniform-price multi-unit,
and laddered position auctions. All but Myerson are separable:
``separable_form`` gives the weights of their total payment over the top
order statistics, and ``topk_class`` how many statistics those reach. The
outcomes here follow the allocation rules directly, independently of that
form, so they can certify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from .dist import Dist, virtual_values


@dataclass(frozen=True)
class Profile:
    """A bid/value profile with a cached non-increasing sort."""

    values: tuple[float, ...]
    sorted_desc: tuple[tuple[float, int], ...] = field(init=False)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ValueError("bids must be non-negative")
        object.__setattr__(self, "values", vals)
        order = sorted(((v, i) for i, v in enumerate(vals)), key=lambda t: (-t[0], t[1]))
        object.__setattr__(self, "sorted_desc", tuple(order))

    @property
    def n(self) -> int:
        return len(self.values)

    def order_stat(self, j: int) -> float:
        """j-th largest value; 0 beyond the profile length."""
        if j < 1:
            raise ValueError("order statistics are 1-indexed")
        return self.sorted_desc[j - 1][0] if j <= self.n else 0.0


@dataclass(frozen=True)
class PostedPrice:
    price: float

    def describe(self) -> str:
        return f"posted_price(p={self.price:g})"


@dataclass(frozen=True)
class SPAReserve:
    reserve: float

    def describe(self) -> str:
        return f"spa(r={self.reserve:g})"


@dataclass(frozen=True)
class MyersonIID:
    base: Dist
    tiebreak: str = "lexicographic"  # or "uniform"

    def __post_init__(self):
        if self.tiebreak not in ("lexicographic", "uniform"):
            raise ValueError("tiebreak must be 'lexicographic' or 'uniform'")

    def describe(self) -> str:
        return f"myerson_iid(base={self.base.describe()},tiebreak={self.tiebreak})"


@dataclass(frozen=True)
class MultiUnit:
    units: int
    reserve: float = 0.0

    def __post_init__(self):
        if self.units < 1:
            raise ValueError("need at least one unit")

    def describe(self) -> str:
        return f"multi_unit(m={self.units},r={self.reserve:g})"


@dataclass(frozen=True)
class Laddered:
    click_rates: tuple[float, ...]
    reserve: float = 0.0

    def __post_init__(self):
        rates = tuple(float(a) for a in self.click_rates)
        if not rates or not all(0 < a < math.inf for a in rates):  # NaN too
            raise ValueError("click rates must be positive and finite")
        if any(b > a for a, b in zip(rates, rates[1:])):
            raise ValueError("click rates must be non-increasing")
        object.__setattr__(self, "click_rates", rates)

    def describe(self) -> str:
        rates = ",".join(f"{a:g}" for a in self.click_rates)
        return f"laddered(alpha=[{rates}],r={self.reserve:g})"


Mechanism = Union[PostedPrice, SPAReserve, MyersonIID, MultiUnit, Laddered]


@dataclass(frozen=True)
class Outcome:
    """Winners with their payments; payments are non-negative."""

    winners: tuple[tuple[int, float], ...]
    total_payment: float

    @staticmethod
    def of(winners: list[tuple[int, float]]) -> "Outcome":
        return Outcome(tuple(winners), sum(p for _, p in winners))


NO_SALE = Outcome((), 0.0)


def pp_outcome(price: float, prof: Profile) -> Outcome:
    """Item goes to the first bidder (by index) whose value is >= price."""
    if price < 0:
        raise ValueError("price must be non-negative")
    for i, v in enumerate(prof.values):
        if v >= price:
            return Outcome.of([(i, price)])
    return NO_SALE


def spa_outcome(reserve: float, prof: Profile) -> Outcome:
    """Second price with reserve; highest bidder wins (ties to the smallest
    index) and pays max(reserve, second-highest bid)."""
    if reserve < 0:
        raise ValueError("reserve must be non-negative")
    v1, idx = prof.sorted_desc[0]
    if v1 < reserve:
        return NO_SALE
    second = prof.order_stat(2)
    return Outcome.of([(idx, max(reserve, second))])


def multiunit_outcome(units: int, reserve: float, prof: Profile) -> Outcome:
    """Uniform price: the top bidders clearing max(reserve, v_(m+1)) each win
    one of m units at that price."""
    if units >= prof.n:
        raise ValueError("need more bidders than units")
    price = max(reserve, prof.order_stat(units + 1))
    winners = [
        (idx, price) for v, idx in prof.sorted_desc[:units] if v >= reserve and v >= price
    ]
    return Outcome.of(winners)


def laddered_outcome(click_rates, reserve: float, prof: Profile) -> Outcome:
    """Position auction: slot i goes to the i-th highest bidder when her
    value clears the reserve; she pays the click-weighted sum of the lower
    clearing prices."""
    rates = tuple(click_rates) + (0.0,)
    k = len(click_rates)
    winners = []
    for i in range(1, min(k, prof.n) + 1):
        v_i, idx = prof.sorted_desc[i - 1]
        if v_i < reserve:
            continue
        pay = sum(
            (rates[j - 1] - rates[j]) * max(prof.order_stat(j + 1), reserve)
            for j in range(i, k + 1)
        )
        winners.append((idx, pay))
    return Outcome.of(winners)


# -- Myerson ------------------------------------------------------------------


def priority_from_uniform(u: float, n: int) -> tuple[int, ...]:
    """Unrank a uniform draw into a full priority order over n bidders.

    Returns rank[i] = tie-break rank of bidder i (lower wins). Covers all n!
    orders exactly, which is what uniform tie-breaking means: a uniform
    mixture over deterministic priority rules. Refuses n >= 19: there n!
    exceeds 2**53, so a double draw cannot reach every order.
    """
    if n >= 19:
        raise ValueError(f"a uniform draw cannot reach all {n}! priority orders; pass a priority")
    total = math.factorial(n)
    idx = min(int(u * total), total - 1)
    avail = list(range(n))
    rank = [0] * n
    for pos in range(n):
        f = math.factorial(n - pos - 1)
        j, idx = divmod(idx, f)
        rank[avail.pop(j)] = pos
    return tuple(rank)


def myerson_outcome(
    base: Dist,
    tiebreak: str,
    prof: Profile,
    priority: tuple[int, ...] | None = None,
) -> Outcome:
    """Symmetric Myerson auction designed for i.i.d. bidders from ``base``.

    Allocates to the highest non-negative ironed virtual value. The winner
    pays the critical threshold: the smallest bid keeping her virtual value
    non-negative, weakly above every rival she out-prioritizes, and strictly
    above every rival who out-prioritizes her. Values pooled on an ironed
    flat therefore pay the flat's lower endpoint unless strict dominance over
    an on-flat rival forces the next rise. ``priority[i]`` is bidder i's
    tie-break rank (lower wins); lexicographic tie-breaking defaults to the
    bidders' order, and uniform tie-breaking needs one order drawn from (or
    averaged over) all of them.
    """
    phi_fn = virtual_values(base)
    if priority is None:
        if tiebreak == "lexicographic":
            priority = tuple(range(prof.n))
        elif tiebreak == "uniform":
            raise ValueError("uniform tie-breaking needs a priority order")
        else:
            raise ValueError(f"unknown tiebreak {tiebreak!r}")
    phis = phi_fn.eval(prof.values).tolist()
    best = max(range(prof.n), key=lambda i: (phis[i], -priority[i]))
    if phis[best] < 0.0:
        return NO_SALE
    weak_rivals = [phis[l] for l in range(prof.n) if l != best and priority[l] > priority[best]]
    strict_rivals = [phis[l] for l in range(prof.n) if l != best and priority[l] < priority[best]]
    t_weak = max(weak_rivals) if weak_rivals else 0.0
    pay = float(phi_fn.threshold_weak(max(t_weak, 0.0)))
    if strict_rivals:
        t_strict = max(strict_rivals)
        if t_strict > -math.inf:
            pay = max(pay, float(phi_fn.threshold_strict(t_strict)))
    return Outcome.of([(best, pay)])


def outcome(mech: Mechanism, prof: Profile, priority: tuple[int, ...] | None = None) -> Outcome:
    """Evaluate any mechanism on a profile. ``priority`` feeds Myerson's
    tie-breaking (see ``myerson_outcome``)."""
    if isinstance(mech, PostedPrice):
        return pp_outcome(mech.price, prof)
    if isinstance(mech, SPAReserve):
        return spa_outcome(mech.reserve, prof)
    if isinstance(mech, MultiUnit):
        return multiunit_outcome(mech.units, mech.reserve, prof)
    if isinstance(mech, Laddered):
        return laddered_outcome(mech.click_rates, mech.reserve, prof)
    if isinstance(mech, MyersonIID):
        return myerson_outcome(mech.base, mech.tiebreak, prof, priority=priority)
    raise TypeError(f"unknown mechanism {mech!r}")


def separable_form(mech: Mechanism):
    """Weights of a mechanism's separable total payment, or None for Myerson.

    Returns ``(r, a, b)`` with ``a = (a_1, ..., a_K)`` and ``b = (b_2, ...,
    b_{K+1})`` (empty when no (v_(j) - r)^+ term appears), so the total
    payment is ``r * sum_i a_i 1[v_(i) >= r] + sum_j b_j (v_(j) - r)^+``. A
    posted price is ``a = (1,)`` with no ``b``; second price is Laddered((1,))
    and MultiUnit(m) is Laddered((1,) * m); Laddered(alpha) has ``a_i =
    alpha_i`` and ``b_{j+1} = j * (alpha_j - alpha_{j+1})`` with
    ``alpha_{K+1} = 0``. Myerson's ironed tie-breaking makes its revenue
    depend on lower statistics, so it has no such form.
    """
    if isinstance(mech, PostedPrice):
        return mech.price, (1.0,), ()
    if isinstance(mech, SPAReserve):
        rates = (1.0,)
    elif isinstance(mech, MultiUnit):
        rates = (1.0,) * mech.units
    elif isinstance(mech, Laddered):
        rates = mech.click_rates
    elif isinstance(mech, MyersonIID):
        return None
    else:
        raise TypeError(f"unknown mechanism {mech!r}")
    b = tuple(j * (x - y) for j, (x, y) in enumerate(zip(rates, rates[1:] + (0.0,)), start=1))
    return mech.reserve, rates, b


def topk_class(mech: Mechanism):
    """Smallest k for which the total payment is a separable, monotone
    function of the top k order statistics; None for Myerson."""
    form = separable_form(mech)
    return None if form is None else max(len(form[1]), len(form[2]) + 1)
