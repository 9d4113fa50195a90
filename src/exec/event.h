#ifndef FW_EXEC_EVENT_H_
#define FW_EXEC_EVENT_H_

#include <cstdint>

#include "window/window.h"

namespace fw {

/// One raw stream event: an event-time timestamp, a grouping key (e.g. the
/// DeviceID of Example 1), and a payload value. Streams are ordered by
/// timestamp (the paper's setting: in-order event streams).
struct Event {
  TimeT timestamp = 0;
  uint32_t key = 0;
  double value = 0.0;
};

/// A finalized window result delivered to the plan's Union/sink.
struct WindowResult {
  int operator_id = 0;  // Plan operator index.
  TimeT start = 0;
  TimeT end = 0;
  uint32_t key = 0;
  double value = 0.0;
};

}  // namespace fw

#endif  // FW_EXEC_EVENT_H_
