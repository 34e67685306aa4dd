#include "serve/parallel_search.hpp"

#include <functional>

namespace anyblock::serve {

core::GcrmSearchResult parallel_gcrm_search(
    std::int64_t P, const core::GcrmSearchOptions& options,
    runtime::TaskEngine& engine, bool keep_samples,
    core::GcrmSweepProfile* profile) {
  // One slice per worker and pattern size keeps every worker busy even
  // when few sizes are feasible; the slicing never affects the result.
  return core::gcrm_sweep(
      P, options, static_cast<std::int64_t>(engine.workers()),
      [&engine](std::size_t count,
                const std::function<void(std::size_t)>& run_slice) {
        for (std::size_t k = 0; k < count; ++k) {
          const runtime::HandleId slot = engine.register_data();
          engine.submit([&run_slice, k] { run_slice(k); },
                        {{slot, runtime::AccessMode::kWrite}},
                        /*priority=*/0, "gcrm slice");
        }
        engine.wait_all();
      },
      keep_samples, profile);
}

}  // namespace anyblock::serve
