// The handle every instrumented layer accepts: a nullable trio of
// metrics registry, chunk tracer, and span recorder. A null
// ObsContext* (or null members) disables recording entirely —
// instrumentation sites reduce to one pointer test, which is the
// zero-cost-when-disabled contract the data-path layers rely on.
#pragma once

#include "src/obs/metrics.hpp"
#include "src/obs/spans.hpp"
#include "src/obs/trace.hpp"

namespace chunknet {

struct ObsContext {
  MetricsRegistry* metrics{nullptr};
  ChunkTracer* tracer{nullptr};
  /// Causal connection/TPDU spans (spans.hpp); null = spans off.
  SpanRecorder* spans{nullptr};
};

/// The registry behind a nullable context (null when metrics are off).
inline MetricsRegistry* metrics_of(const ObsContext* obs) {
  return obs != nullptr ? obs->metrics : nullptr;
}

}  // namespace chunknet
