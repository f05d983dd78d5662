#include "routing/query.hpp"

#include "common/check.hpp"

namespace lmk {

void make_query(const SchemeRouting& scheme, std::uint64_t qid, HostId origin,
                Region region, IndexPoint focus, RangeQuery* out) {
  LMK_CHECK(out != nullptr);
  LMK_CHECK(region.dims() == scheme.dims());
  clamp_region(region, scheme.boundary);
  out->scheme = &scheme;
  out->qid = qid;
  out->origin = origin;
  out->prefix = enclosing_prefix(region, scheme.boundary);
  out->region = std::move(region);
  out->focus = std::make_shared<const IndexPoint>(std::move(focus));
  out->hops = 0;
}

QuerySplitPlan plan_query_split(const RangeQuery& q, int p) {
  LMK_CHECK(p >= 1 && p <= kIdBits);
  LMK_CHECK(p == q.prefix.length + 1);
  QuerySplitPlan plan;
  plan.p = p;
  plan.mid = split_plane(q.prefix.key, p, q.scheme->boundary, &plan.dim);
  plan.lower_key = q.prefix.key;
  plan.upper_key = set_bit(q.prefix.key, p);
  const Interval& range =
      q.region.ranges[static_cast<std::size_t>(plan.dim)];
  if (range.lo > plan.mid) {
    plan.children = 1;
    plan.upper = true;  // entirely in the upper half: descend, set bit p
  } else if (range.hi <= plan.mid) {
    plan.children = 1;
    plan.upper = false;  // entirely in the lower (points on the plane
                         // hash low)
  } else {
    plan.children = 2;
  }
  return plan;
}

void descend_query(RangeQuery& q, const QuerySplitPlan& plan) {
  LMK_CHECK(plan.children == 1);
  if (plan.upper) q.prefix.key = plan.upper_key;
  q.prefix.length = plan.p;
}

std::pair<RangeQuery, RangeQuery> split_query(RangeQuery q,
                                              const QuerySplitPlan& plan) {
  LMK_CHECK(plan.children == 2);
  const auto dim = static_cast<std::size_t>(plan.dim);
  RangeQuery upper = q;  // the one region copy; the focus is shared
  upper.prefix.key = plan.upper_key;
  upper.prefix.length = plan.p;
  upper.region.ranges[dim].lo = plan.mid;
  RangeQuery lower = std::move(q);  // steals q's storage
  lower.prefix.length = plan.p;
  lower.region.ranges[dim].hi = plan.mid;
  return {std::move(upper), std::move(lower)};
}

}  // namespace lmk
