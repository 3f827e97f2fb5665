#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace fa::perfbench {

namespace {

std::mutex g_mu;
std::deque<SpanRecord> g_spans;  // index = id - 1; guarded by g_mu
thread_local std::vector<std::uint32_t> t_open;

std::uint32_t thread_number() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, std::uint32_t> ids;
  thread_local const std::uint32_t mine = [] {
    const std::lock_guard<std::mutex> lock(mu);
    return ids.emplace(std::this_thread::get_id(),
                       static_cast<std::uint32_t>(ids.size()))
        .first->second;
  }();
  return mine;
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::uint64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::open(std::string name) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = t_open.empty() ? 0 : t_open.back();
  rec.thread = thread_number();
  std::uint32_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    id = static_cast<std::uint32_t>(g_spans.size() + 1);
    rec.id = id;
    g_spans.push_back(std::move(rec));
  }
  t_open.push_back(id);
  const std::uint64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans[id - 1].start_ns = start;
  return id;
}

void Tracer::close(std::uint32_t id) {
  const std::uint64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans[id - 1].end_ns = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(g_mu);
  return {g_spans.begin(), g_spans.end()};
}

std::vector<double> Tracer::self_ns(const std::string& name) const {
  const std::vector<SpanRecord> all = spans();
  std::vector<double> covered(all.size() + 1, 0.0);
  for (const SpanRecord& s : all) {
    if (s.parent != 0 && s.end_ns >= s.start_ns) {
      covered[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<double> out;
  for (const SpanRecord& s : all) {
    if (s.name != name || s.end_ns < s.start_ns) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    out.push_back(std::max(0.0, dur - covered[s.id]));
  }
  return out;
}

double Tracer::total_self_s(const std::string& name) const {
  double sum = 0.0;
  for (const double v : self_ns(name)) sum += v;
  return sum * 1e-9;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const SpanRecord& s : spans()) {
    if (s.end_ns < s.start_ns) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                 first ? "" : ",\n", escape(s.name).c_str(), s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                 s.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace fa::perfbench
