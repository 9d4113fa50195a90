#include "exec/columns.h"

#include <string>

#include "common/logging.h"

namespace fw {

Status EventColumns::Validate() const {
  if (keys.size() != timestamps.size() || values.size() != timestamps.size()) {
    return Status::InvalidArgument(
        "column length mismatch: timestamps=" +
        std::to_string(timestamps.size()) +
        " keys=" + std::to_string(keys.size()) +
        " values=" + std::to_string(values.size()));
  }
  return Status::OK();
}

EventColumns EventColumns::FromEvents(const std::vector<Event>& events) {
  EventColumns columns;
  columns.Reserve(events.size());
  for (const Event& event : events) columns.Append(event);
  return columns;
}

void KeyGroups::Group(const uint32_t* keys, const double* values,
                      size_t count, uint32_t num_keys) {
  if (counts_.size() < num_keys) counts_.assign(num_keys, 0);
  group_keys_.clear();
  for (size_t i = 0; i < count; ++i) {
    const uint32_t key = keys[i];
    FW_CHECK_LT(key, num_keys);
    if (counts_[key]++ == 0) group_keys_.push_back(key);
  }
  num_groups_ = group_keys_.size();
  if (num_groups_ > 1) {
    // Scatter the values into per-key segments, laid out in
    // first-appearance key order: counts_ turns into each key's cursor.
    group_lengths_.clear();
    uint32_t base = 0;
    for (const uint32_t key : group_keys_) {
      group_lengths_.push_back(counts_[key]);
      counts_[key] = base;
      base += group_lengths_.back();
    }
    scattered_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      scattered_[counts_[keys[i]]++] = values[i];
    }
    keys_ = group_keys_.data();
    lengths_ = group_lengths_.data();
    values_ = scattered_.data();
  } else {
    // One key (num_keys == 1, or a key-clustered stream), or none: the
    // input span is already one group in stream order.
    single_length_ = static_cast<uint32_t>(count);
    keys_ = keys;
    lengths_ = &single_length_;
  }
  for (const uint32_t key : group_keys_) counts_[key] = 0;
}

}  // namespace fw
