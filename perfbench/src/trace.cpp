#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>

#include "stats.hpp"

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
thread_local std::uint64_t t_current = 0;

std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex

void push(const Span& span) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(span);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void record(const char* name, std::uint64_t request, std::int64_t start_ns,
            std::int64_t end_ns) {
  if (!enabled()) return;
  push({g_next_id.fetch_add(1, std::memory_order_relaxed), t_current, request,
        name, start_ns, end_ns});
}

Scoped::Scoped(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Scoped::~Scoped() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current = parent_;
  push({id_, parent_, request_, name_, start_ns_, end});
}

std::vector<Span> spans() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.clear();
}

std::map<std::string, NameTotals> totals(const std::vector<Span>& spans) {
  std::vector<SpanInterval> intervals;
  intervals.reserve(spans.size());
  for (const Span& s : spans) {
    intervals.push_back({s.id, s.parent, s.start_ns, s.end_ns});
  }
  const std::vector<std::int64_t> self = self_times_ns(intervals);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

bool write_json(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench::trace
