#include "core/recommend.hpp"

#include <sstream>
#include <stdexcept>

#include "core/block_cyclic.hpp"
#include "core/cost.hpp"
#include "core/g2dbc.hpp"
#include "core/sbc.hpp"

namespace anyblock::core {

bool kernel_is_symmetric(Kernel kernel) {
  return kernel == Kernel::kCholesky;
}

std::string kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kLu: return "lu";
    case Kernel::kCholesky: return "cholesky";
  }
  return "unknown";
}

Recommendation recommend_lu(std::int64_t P) {
  if (P <= 0) throw std::invalid_argument("P must be positive");
  Recommendation rec;
  const G2dbcParams params = g2dbc_params(P);
  rec.pattern = make_g2dbc(P);
  rec.cost = lu_cost(rec.pattern);
  std::ostringstream why;
  if (params.degenerate()) {
    rec.scheme = "2DBC";
    why << "P = " << P << " factors as " << params.b << "x" << params.a
        << ", so plain 2DBC already achieves T = " << rec.cost;
  } else {
    rec.scheme = "G-2DBC";
    why << "no balanced near-square 2DBC grid exists for P = " << P
        << "; G-2DBC reaches T = " << rec.cost
        << " (vs " << lu_cost(best_2dbc(P)) << " for the best 2DBC)";
  }
  rec.rationale = why.str();
  return rec;
}

Recommendation recommend_symmetric_from_search(std::int64_t P,
                                               const GcrmSearchResult& search,
                                               const RecommendOptions& options) {
  if (P <= 0) throw std::invalid_argument("P must be positive");
  Recommendation rec;
  // SBC when feasible, GCR&M otherwise — and even when SBC exists, keep the
  // GCR&M result if the search happens to beat it.
  const auto sbc = sbc_params(P);
  if (sbc && (!search.found || sbc->cost() <= search.best_cost)) {
    rec.pattern = make_sbc(*sbc);
    rec.scheme = "SBC";
    rec.cost = sbc->cost();
    std::ostringstream why;
    why << "P = " << P << " is an SBC-feasible node count ("
        << (sbc->kind == SbcKind::kTriangular ? "a(a-1)/2" : "a^2/2")
        << " with a = " << sbc->a << "), T = " << rec.cost;
    rec.rationale = why.str();
    return rec;
  }
  if (!search.found)
    throw std::runtime_error("GCR&M search found no valid pattern");
  rec.pattern = search.best;
  rec.scheme = "GCR&M";
  rec.cost = search.best_cost;
  std::ostringstream why;
  why << "no SBC pattern " << (sbc ? "beats GCR&M" : "exists")
      << " for P = " << P << "; GCR&M search (r <= " << options.search.max_r_factor
      << "*sqrt(P), " << options.search.seeds << " seeds) reached T = "
      << rec.cost;
  rec.rationale = why.str();
  return rec;
}

Recommendation recommend_pattern(std::int64_t P, Kernel kernel,
                                 const RecommendOptions& options) {
  if (P <= 0) throw std::invalid_argument("P must be positive");
  if (kernel == Kernel::kLu) return recommend_lu(P);
  const GcrmSearchResult search = gcrm_search(P, options.search);
  return recommend_symmetric_from_search(P, search, options);
}

}  // namespace anyblock::core
