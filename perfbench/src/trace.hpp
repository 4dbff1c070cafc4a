// In-memory span recorder of the traced run. The benchmark records spans
// from its own files, around the calls it makes into each layer; spans are
// kept in memory and written out once, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

/// One span. \p name must be a string literal (spans keep the pointer).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Monotonic clock shared by spans and the workloads' own timing.
std::int64_t now_ns();

/// Recording is off unless a traced run turns it on.
bool enabled();
void set_enabled(bool on);

/// Records a finished span when tracing is on. Its parent is the calling
/// thread's innermost open Scoped span, if any.
void record(const char* name, std::uint64_t request, std::int64_t start_ns,
            std::int64_t end_ns);

/// RAII span: opens on construction (becoming the calling thread's
/// innermost open span), records on destruction. A no-op when tracing is
/// off at construction.
class Scoped {
 public:
  Scoped(const char* name, std::uint64_t request);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;  ///< the thread's innermost span before us
  std::int64_t start_ns_ = 0;
};

/// Every span recorded so far, in completion order.
std::vector<Span> spans();
void clear();

struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Per span name: count, summed duration and summed self time.
std::map<std::string, NameTotals> totals(const std::vector<Span>& spans);

/// Writes \p spans as JSON to \p path; returns false on an I/O error.
bool write_json(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::trace
