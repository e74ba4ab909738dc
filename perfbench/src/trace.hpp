// In-memory spans around the benchmark's calls into each layer.
//
// A Span times one call the benchmark makes into a layer's public API
// (MuxPool::on_batch, Simulation::run_until, Controller::solve_ilp, ...).
// Spans nest per thread: a span's self time is its duration minus the
// time its child spans cover, so a layer's self time never double-counts
// a nested call into another layer. While tracing is disabled a Span costs
// one relaxed load and a branch; untraced runs never enable it.
//
// Spans are kept in per-thread buffers (bounded; aggregates cover every
// span, the buffer keeps the first kMaxSpansPerThread) and written out by
// write_spans() when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

enum class Layer : std::uint8_t {
  kLb,
  kNet,
  kSim,
  kCore,
  kIlp,
  kFit,
  kStore,
  kKlm,
  kServer,
  kWorkload,
  kTestbed,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

void set_enabled(bool on);
bool enabled();
/// Round or burst id stamped on spans opened by this thread from now on.
void set_tag(std::uint64_t tag);

class Span {
 public:
  Span(Layer layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

struct NameStats {
  Layer layer = Layer::kLb;
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> durations_ns;
};

struct LayerStats {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

struct Summary {
  std::map<std::string, NameStats> names;
  std::array<LayerStats, kLayers> layers{};
  std::uint64_t spans_kept = 0;
  std::uint64_t spans_dropped = 0;

  /// Stats of span `name`; an empty record when it never ran.
  const NameStats& name(const std::string& n) const;
};

/// Merge every thread's spans. Call once the traced threads have joined.
Summary summarize();

/// Write kept spans as TSV: thread, id, parent, layer, name, start_ns,
/// end_ns, tag. Returns false on I/O failure.
bool write_spans(const std::string& path);

}  // namespace perfbench::trace
