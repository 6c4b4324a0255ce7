"""Robust auction design from order-statistic data.

A seller who observes only the distribution of one order statistic of
bidders' values faces an ambiguity set of product distributions. This
package inverts such observations into the unique consistent i.i.d.
distribution, evaluates mechanism revenue exactly on a piecewise-linear
representation, computes worst-case guarantees over the ambiguity set for
mechanisms separable across top order statistics, and ships brute-force
oracles that certify the structural results on small discrete instances.
"""

from .dist import (
    Dist,
    RevenueCurve,
    VirtualValueFn,
    beta_dist,
    exponential,
    from_literal,
    from_table,
    iron,
    is_regular_above_reserve,
    monopoly_price,
    normal,
    point_mass,
    revenue_curve,
    two_point,
    uniform,
    virtual_values,
)
from .mech import (
    Laddered,
    Mechanism,
    MultiUnit,
    MyersonIID,
    Outcome,
    PostedPrice,
    Profile,
    SPAReserve,
    laddered_outcome,
    multiunit_outcome,
    myerson_outcome,
    pp_outcome,
    separable_form,
    spa_outcome,
    topk_class,
)
from .oracle import fosd_check, geometric_average, minimal_orderstat_cdf
from .orderstat import (
    AmbiguitySpec,
    ProductDist,
    consistent_iid,
    h_inverse,
    h_poly,
    iid,
    order_stat_cdf,
    poisson_binomial_pmf,
)
from .revenue import (
    NotSeparableError,
    RevenueReport,
    closed_form_revenue,
    mc_expected_revenue,
    optimal_robust_reserve,
    optimal_unknown_n_reserve,
    robust_sandwich,
    unknown_n_bound,
    worst_case_revenue_topk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
