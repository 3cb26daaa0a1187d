#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next++;
  return index;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : t0_{std::chrono::steady_clock::now()} {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

std::int64_t Tracer::open(std::string name, std::int64_t parent,
                          std::uint64_t request) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = parent;
  rec.request = request;
  rec.thread = thread_index();
  rec.start_ns = now_ns();
  rec.end_ns = rec.start_ns;
  const std::scoped_lock lock{mutex_};
  spans_.push_back(std::move(rec));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  const std::scoped_lock lock{mutex_};
  spans_.at(static_cast<std::size_t>(id)).end_ns = end;
}

void Tracer::add(SpanRecord record) {
  record.thread = thread_index();
  const std::scoped_lock lock{mutex_};
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::scoped_lock lock{mutex_};
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f{
      std::fopen(path.c_str(), "w"), &std::fclose};
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f.get());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(),
                 json_escape(layer_of(s.name)).c_str(), s.thread,
                 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
