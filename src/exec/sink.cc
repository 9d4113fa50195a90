#include "exec/sink.h"

#include "common/logging.h"

namespace fw {

void ResultSink::OnBlock(int operator_id, TimeT start, TimeT end,
                         const uint32_t* keys, const double* values,
                         size_t count) {
  for (size_t i = 0; i < count; ++i) {
    OnResult(WindowResult{operator_id, start, end, keys[i], values[i]});
  }
}

std::map<CollectingSink::ResultKey, double> CollectingSink::ToMap() const {
  delivery_role_.AssertHeld();  // Read from the delivery thread.
  std::map<ResultKey, double> out;
  for (const WindowResult& r : results_) {
    auto [it, inserted] = out.emplace(
        ResultKey{r.operator_id, r.start, r.end, r.key}, r.value);
    FW_CHECK(inserted) << "duplicate result for operator " << r.operator_id
                       << " window [" << r.start << ", " << r.end << ") key "
                       << r.key;
    (void)it;
  }
  return out;
}

}  // namespace fw
