#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common.hpp"

namespace perfbench::trace {

namespace {

constexpr std::size_t kMaxSpansPerThread = 1u << 20;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRec {
  const char* name;
  Layer layer;
  std::int32_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t tag;
};

struct Open {
  const char* name;
  Layer layer;
  std::int32_t idx;  // position in spans, -1 once the buffer is full
  std::int64_t start_ns;
  std::int64_t child_ns;
};

struct ThreadLog {
  std::uint32_t thread = 0;
  std::uint64_t tag = 0;
  std::uint64_t dropped = 0;
  std::vector<SpanRec> spans;
  std::vector<Open> stack;
  std::unordered_map<const char*, NameStats> names;
  std::array<LayerStats, kLayers> layers{};
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadLog>> g_registry;  // guarded by g_registry_mu

ThreadLog& local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lk(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadLog>());
    log = g_registry.back().get();
    log->thread = static_cast<std::uint32_t>(g_registry.size() - 1);
  }
  return *log;
}

const NameStats kEmpty{};

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayers> kNames = {
      "lb",  "net",   "sim",    "core",   "ilp",     "fit",
      "store", "klm", "server", "workload", "testbed"};
  return kNames[static_cast<std::size_t>(layer)];
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_tag(std::uint64_t tag) { local().tag = tag; }

Span::Span(Layer layer, const char* name) : on_(enabled()) {
  if (!on_) return;
  auto& log = local();
  std::int32_t idx = -1;
  if (log.spans.size() < kMaxSpansPerThread) {
    idx = static_cast<std::int32_t>(log.spans.size());
    const std::int32_t parent = log.stack.empty() ? -1 : log.stack.back().idx;
    log.spans.push_back(SpanRec{name, layer, parent, 0, 0, log.tag});
  } else {
    ++log.dropped;
  }
  log.stack.push_back(Open{name, layer, idx, now_ns(), 0});
}

Span::~Span() {
  if (!on_) return;
  const auto end = now_ns();
  auto& log = local();
  const Open open = log.stack.back();
  log.stack.pop_back();
  const auto dur = end - open.start_ns;
  if (!log.stack.empty()) log.stack.back().child_ns += dur;
  auto& ns = log.names[open.name];
  ns.layer = open.layer;
  ++ns.calls;
  ns.total_ns += dur;
  ns.self_ns += dur - open.child_ns;
  ns.durations_ns.push_back(static_cast<double>(dur));
  auto& ls = log.layers[static_cast<std::size_t>(open.layer)];
  ++ls.calls;
  ls.self_ns += dur - open.child_ns;
  if (open.idx >= 0) {
    auto& rec = log.spans[static_cast<std::size_t>(open.idx)];
    rec.start_ns = open.start_ns;
    rec.end_ns = end;
  }
}

const NameStats& Summary::name(const std::string& n) const {
  const auto it = names.find(n);
  return it == names.end() ? kEmpty : it->second;
}

Summary summarize() {
  std::lock_guard<std::mutex> lk(g_registry_mu);
  Summary s;
  for (const auto& log : g_registry) {
    for (const auto& [name, ns] : log->names) {
      auto& agg = s.names[name];
      agg.layer = ns.layer;
      agg.calls += ns.calls;
      agg.total_ns += ns.total_ns;
      agg.self_ns += ns.self_ns;
      agg.durations_ns.insert(agg.durations_ns.end(), ns.durations_ns.begin(),
                              ns.durations_ns.end());
    }
    for (std::size_t l = 0; l < kLayers; ++l) {
      s.layers[l].calls += log->layers[l].calls;
      s.layers[l].self_ns += log->layers[l].self_ns;
    }
    s.spans_kept += log->spans.size();
    s.spans_dropped += log->dropped;
  }
  return s;
}

bool write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tid\tparent\tlayer\tname\tstart_ns\tend_ns\ttag\n";
  std::lock_guard<std::mutex> lk(g_registry_mu);
  for (const auto& log : g_registry) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const auto& r = log->spans[i];
      out << log->thread << '\t' << i << '\t' << r.parent << '\t'
          << layer_name(r.layer) << '\t' << r.name << '\t' << r.start_ns
          << '\t' << r.end_ns << '\t' << r.tag << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench::trace
