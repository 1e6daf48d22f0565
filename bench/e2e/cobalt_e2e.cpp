// cobalt-e2e: the end-to-end benchmark driver.
//
// One single-threaded process runs one workload, generated from
// --seed, for about --seconds of measurement, and prints
//
//   metric <name> <value> <unit>   the end-to-end metrics
//   info <name> <value> <unit>     workload-specific detail
//   check ok|FAIL <what>           correctness checks
//   attempted <n> / failed <n>     the operation counts
//   digest <hex>                   a hash of the deterministic outputs
//
// and exits nonzero when a check fails. The library only ever sees
// the keys, ops and victims this file generates, and every layer is
// measured from outside by timing calls into its public functions.
//
// The end-to-end metrics are the same six on every workload, so runs
// of different workloads share one schema: setup_s, ops_per_s,
// op_p50_us, op_p95_us, peak_rss_mb and bytes_per_key. What an "op"
// is depends on the workload (see README.md next to this file).
//
// --trace=PATH records spans (name, start, end, parent, request id)
// in memory and writes them as JSON lines at exit: every membership,
// join, run and execute span, and a deterministic 1-in-64 sample of
// point ops. Costs a layer hides from the outside (the hash inside a
// get, the backend mutation inside a membership event) are
// side-timed on the same input and marked as estimates.
// trace_summary.py turns the file into the per-layer metrics.
//
//   cobalt_e2e --workload=kv_point_1m --seed=1 --seconds=10
//              [--trace=PATH] [--scale=full|smoke]

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/distributed.hpp"
#include "cluster/fault_injection.hpp"
#include "cluster/protocol_driver.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "hashing/hash.hpp"
#include "kv/store.hpp"
#include "placement/replication_spec.hpp"
#include "sim/serving.hpp"

namespace {

using cobalt::placement::NodeId;
using cobalt::placement::ReplicationSpec;
using cobalt::placement::SpreadPolicy;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Runs whole passes of fixed work until about `seconds` have gone by:
/// at least one, and another only while at least half of one fits.
/// `pass(index)` runs one pass.
template <typename Pass>
void run_passes(double seconds, Pass&& pass) {
  const std::int64_t deadline = deadline_after(seconds);
  for (std::size_t index = 0;; ++index) {
    const std::int64_t start = now_ns();
    pass(index);
    const std::int64_t end = now_ns();
    if (end + (end - start) / 2 > deadline) return;
  }
}

/// Keeps a side-timed result alive so the timed call is not elided.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

// --- sizes -----------------------------------------------------------

/// Every size a workload uses. kFull is the benchmark; kSmoke runs the
/// same code paths small enough for the whole suite to take seconds.
struct Scale {
  std::size_t kv_keys;
  std::size_t kv_nodes;
  std::size_t churn_racks;
  std::size_t churn_rack_nodes;
  std::size_t churn_zones;
  std::size_t churn_keys;
  std::size_t churn_cycles;
  std::size_t churn_crash_every;
  std::size_t serve_nodes;
  std::size_t serve_keys;
  std::size_t serve_requests;
  std::size_t serve_joins;
  std::size_t proto_snodes;
  std::size_t proto_creations;
  std::size_t proto_nodes;
  std::size_t proto_keys;
  std::size_t proto_cycles;
  std::size_t proto_plans;
};

constexpr Scale kFull{1'000'000, 24, 12, 4, 3, 20'000, 60, 25,
                      24, 100'000, 8'000'000, 4,
                      16, 8192, 16, 20'000, 200, 200};
constexpr Scale kSmoke{50'000, 24, 6, 4, 3, 2'000, 12, 6,
                       24, 10'000, 100'000, 4,
                       16, 1024, 16, 2'000, 40, 20};

/// Set-ups every run makes before it measures: at least kMinSetups, and
/// more until they add up to kSetupShare of the measured time, so a
/// cheap set-up is timed often enough for a steady median. setup_s is
/// the median of these and of any further set-up the measured passes
/// need.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupShare = 0.1;

/// Point ops (and serving requests) traced: one in kSampleEvery.
constexpr std::uint64_t kSampleEvery = 64;

bool sampled(std::uint64_t index) { return index % kSampleEvery == 0; }

// --- measurement -----------------------------------------------------

/// Wall times pooled over a whole run in log-spaced buckets 1% wide:
/// constant memory at any run length. A quantile is interpolated inside
/// its bucket, so it keeps the digits of the measurement.
class Latencies {
 public:
  void add(double us) {
    const double pos = std::log(std::max(us, kMinUs) / kMinUs) / kLogGrowth;
    ++buckets_[std::min(static_cast<std::size_t>(pos), kBuckets - 1)];
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }

  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double below = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const auto in = static_cast<double>(buckets_[b]);
      if (in > 0.0 && below + in >= target) {
        const double frac = std::clamp((target - below) / in, 0.0, 1.0);
        return kMinUs * std::exp((static_cast<double>(b) + frac) * kLogGrowth);
      }
      below += in;
    }
    return kMinUs * std::exp(static_cast<double>(kBuckets) * kLogGrowth);
  }

 private:
  static constexpr double kMinUs = 1e-3;  // 1 ns
  static constexpr std::size_t kBuckets = 2400;  // up to about 24 s
  static inline const double kLogGrowth = std::log(1.01);
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Peak resident set of the process, MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Heap bytes in use, as the allocator counts them.
double heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

// --- tracing ---------------------------------------------------------

/// In-memory span recorder; a no-op unless a trace path was given.
class Tracer {
 public:
  explicit Tracer(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] bool on() const { return !path_.empty(); }

  /// Opens a span at now, child of the innermost open span.
  std::uint32_t open(const char* name, std::uint64_t req = 0,
                     const char* tag = nullptr, double weight = 1.0) {
    if (!on()) return 0;
    const std::uint32_t id = add(name, 0, 0, top(), req, weight, false);
    spans_[id - 1].tag = tag;
    stack_.push_back(id);
    spans_[id - 1].start = now_ns();  // last, so the bookkeeping is outside
    return id;
  }

  void close(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end = now_ns();
    stack_.pop_back();
  }

  /// Records a finished span. `weight` is its sampling weight (64 for
  /// a 1-in-64 sample). `estimate` marks a side-timed cost of the
  /// parent: its interval lies outside the parent's, so
  /// trace_summary.py subtracts its duration instead of its overlap.
  std::uint32_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint32_t parent, std::uint64_t req, double weight,
                    bool estimate) {
    if (!on()) return 0;
    spans_.push_back(
        Span{name, nullptr, start, end, parent, req, weight, estimate, {}});
    return static_cast<std::uint32_t>(spans_.size());
  }

  void attr(std::uint32_t id, const char* key, double value) {
    if (id != 0) spans_[id - 1].attrs.emplace_back(key, value);
  }

  [[nodiscard]] std::uint32_t top() const {
    return stack_.empty() ? 0 : stack_.back();
  }

  /// Writes the spans as JSON lines after a header line.
  bool write(const std::string& workload, std::uint64_t seed) const {
    if (!on()) return true;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":%zu}\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                   "\"parent\":%u,\"req\":%llu,\"w\":%g,\"est\":%d",
                   i + 1, s.name, static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.req), s.weight,
                   s.estimate ? 1 : 0);
      if (s.tag != nullptr) std::fprintf(out, ",\"tag\":\"%s\"", s.tag);
      for (const auto& [key, value] : s.attrs) {
        std::fprintf(out, ",\"%s\":%.17g", key, value);
      }
      std::fprintf(out, "}\n");
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* tag;
    std::int64_t start;
    std::int64_t end;
    std::uint32_t parent;
    std::uint64_t req;
    double weight;
    bool estimate;
    std::vector<std::pair<const char*, double>> attrs;
  };

  std::string path_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer& trace, const char* name, std::uint64_t req = 0,
            const char* tag = nullptr)
      : trace_(trace), id_(trace.open(name, req, tag)) {}
  ~SpanScope() { trace_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& trace_;
  std::uint32_t id_;
};

// --- the report ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  bool smoke = false;
};

/// What one run prints: metrics, checks, op counts and the digest.
class Report {
 public:
  void metric(const char* name, double value, const char* unit) {
    lines_.push_back(format("metric", name, value, unit));
  }
  void info(const std::string& name, double value, const char* unit) {
    lines_.push_back(format("info", name.c_str(), value, unit));
  }
  void check(bool ok, const std::string& what) {
    checks_.push_back(std::string("check ") + (ok ? "ok " : "FAIL ") + what);
    all_ok_ = all_ok_ && ok;
  }
  /// Folds a deterministic output into the digest.
  void mix(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    digest_ = cobalt::mix64(digest_ ^ bits) + 0x9e3779b97f4a7c15ull;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints everything; returns the process exit code.
  int print() const {
    for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
    std::printf("info failed_frac %.17g frac\n",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted));
    for (const std::string& line : checks_) std::printf("%s\n", line.c_str());
    std::printf("attempted %llu\nfailed %llu\ndigest %016llx\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(digest_));
    return all_ok_ ? 0 : 1;
  }

 private:
  static std::string format(const char* kind, const char* name, double value,
                            const char* unit) {
    char buffer[256];
    std::snprintf(buffer, sizeof buffer, "%s %s %.17g %s", kind, name, value,
                  unit);
    return buffer;
  }

  std::vector<std::string> lines_;
  std::vector<std::string> checks_;
  std::uint64_t digest_ = 0;
  bool all_ok_ = true;
};

/// Everything a workload function needs.
struct Context {
  Options options;
  Scale scale;
  Tracer trace;
  Report report;
};

/// The end-to-end metrics every workload reports, gathered in one
/// place so the schema cannot drift between workloads. Every workload
/// follows one rule: it sets up as set_up() says (setup_s is the median
/// set-up), then measures for --seconds; ops_per_s is every measured op
/// over the wall time inside them, and op_p50_us / op_p95_us are
/// quantiles of the per-op times pooled over the whole run.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> bytes_per_key;
  double measure_s = 0.0;  ///< wall time inside the measured ops
  std::uint64_t ops = 0;
  Latencies op_us;  ///< one sample per op, or per batch of ops

  /// Runs `setup` (which appends its time to setup_s) kMinSetups times,
  /// then again until the set-ups add up to kSetupShare of `seconds`.
  /// The last set-up serves the first measured pass.
  template <typename Setup>
  void set_up(double seconds, Setup&& setup) {
    double total = 0.0;
    while (setup_s.size() < kMinSetups || total < kSetupShare * seconds) {
      setup();
      total += setup_s.back();
    }
  }

  void report(Report& report) const {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("ops_per_s", static_cast<double>(ops) / measure_s, "1/s");
    report.metric("op_p50_us", op_us.quantile(0.50), "us");
    report.metric("op_p95_us", op_us.quantile(0.95), "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("bytes_per_key", median(bytes_per_key), "B");
    report.info("measure_s", measure_s, "s");
    report.info("ops", static_cast<double>(ops), "count");
    report.info("op_samples", static_cast<double>(op_us.count()), "count");
    report.info("setups", static_cast<double>(setup_s.size()), "count");
  }
};

// --- keys and values -------------------------------------------------

/// `count` distinct 13-byte keys "<prefix><12 hex digits>": a seeded
/// affine walk over 48-bit values, a bijection for any count below
/// 2^48, so no two keys collide.
std::vector<std::string> make_keys(char prefix, std::uint64_t seed,
                                   std::size_t count) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 48) - 1;
  const std::uint64_t base = cobalt::mix64(seed);
  std::vector<std::string> keys;
  keys.reserve(count);
  char buffer[16];
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t x = (base + i * 0x9E3779B97F4Bull) & kMask;
    std::snprintf(buffer, sizeof buffer, "%c%012llx", prefix,
                  static_cast<unsigned long long>(x));
    keys.emplace_back(buffer);
  }
  return keys;
}

/// A value carrying a 32-bit version, so reads can be checked exactly.
std::string encode(std::uint32_t version) {
  std::string value(sizeof version, '\0');
  std::memcpy(value.data(), &version, sizeof version);
  return value;
}

bool holds(const std::optional<std::string>& value, std::uint32_t version) {
  if (!value.has_value() || value->size() != sizeof version) return false;
  std::uint32_t got = 0;
  std::memcpy(&got, value->data(), sizeof got);
  return got == version;
}

cobalt::dht::Config dht_config(std::uint64_t seed, std::uint64_t vmin) {
  cobalt::dht::Config config;
  config.pmin = 32;
  config.vmin = vmin;
  config.seed = seed;
  return config;
}

// --- per-layer side timing -------------------------------------------

/// Side-times the hash of `key` as an estimate child of `parent`.
void trace_hash(Tracer& trace, std::uint32_t parent, const std::string& key) {
  const std::int64_t start = now_ns();
  const std::uint64_t h = cobalt::hashing::xxh64(key);
  const std::int64_t end = now_ns();
  keep(h);
  trace.add("hashing.xxh64", start, end, parent, 0, 1.0, true);
}

/// Side-times the backend's replica walk for `key`, at the store's
/// clamped replication target, as an estimate child of `parent`.
template <typename StoreT>
void trace_replica_set(Tracer& trace, std::uint32_t parent,
                       const StoreT& store, const std::string& key) {
  static std::vector<NodeId> out;
  const ReplicationSpec spec = store.replication_spec();
  const ReplicationSpec clamped =
      spec.with_k(std::min(spec.k, store.backend().node_count()));
  const cobalt::HashIndex h = cobalt::hashing::xxh64(key);
  const std::int64_t start = now_ns();
  store.backend().replica_set_into(h, clamped, out);
  const std::int64_t end = now_ns();
  keep(out);
  trace.add("placement.replica_set", start, end, parent, 0, 1.0, true);
}

/// The sampling weight of point op `index`: kSampleEvery for the
/// 1-in-kSampleEvery sample of a traced run, 0 (untraced) otherwise.
double sample_weight(const Tracer& trace, std::uint64_t index) {
  return trace.on() && sampled(index) ? static_cast<double>(kSampleEvery)
                                      : 0.0;
}

/// Runs the point op `op` on `key`. With a nonzero sampling `weight`
/// it is traced: a span around `op`, then the hash it hides (and, for
/// an insert, the replica walk) side-timed on the same key.
template <typename StoreT, typename Op>
auto point_op(double weight, Tracer& trace, const char* name,
              std::uint64_t req, const StoreT& store, const std::string& key,
              bool insert, Op&& op) {
  if (weight == 0.0) return op();
  const std::uint32_t span = trace.open(name, req, nullptr, weight);
  auto result = op();
  trace.close(span);
  trace_hash(trace, span, key);
  if (insert) trace_replica_set(trace, span, store, key);
  return result;
}

// --- membership ------------------------------------------------------

/// Timestamps the store's event-sink callbacks (the phase cuts of one
/// membership event) and forwards every callback to an inner sink.
class PhaseSink final : public cobalt::kv::StoreEventSink {
 public:
  void reset() {
    first_batch_ = last_relocation_ = 0;
    relocation_batches_ = 0;
  }

  void on_membership_begin(cobalt::kv::MembershipEventKind kind) override {
    if (inner != nullptr) inner->on_membership_begin(kind);
  }
  void on_relocation_batch(cobalt::HashIndex first, cobalt::HashIndex last,
                           NodeId from, NodeId to, std::uint64_t keys,
                           bool rebucket) override {
    const std::int64_t t = now_ns();
    if (first_batch_ == 0) first_batch_ = t;
    last_relocation_ = t;
    ++relocation_batches_;
    if (inner != nullptr) {
      inner->on_relocation_batch(first, last, from, to, keys, rebucket);
    }
  }
  void on_repair_batch(cobalt::HashIndex first, cobalt::HashIndex last,
                       std::uint64_t copies, std::uint64_t lost,
                       std::size_t replicas) override {  // raw-k-ok: sink payload
    if (first_batch_ == 0) first_batch_ = now_ns();
    if (inner != nullptr) {
      inner->on_repair_batch(first, last, copies, lost, replicas);
    }
  }
  void on_membership_end() override {
    if (inner != nullptr) inner->on_membership_end();
  }

  /// Records the place / flush / repair cuts of the event that ran in
  /// [start, end] as children of `parent`; returns the place span.
  /// place ends at the first batch callback (backend mutation and
  /// dirty collection), flush at the last relocation batch, repair at
  /// the end of the event.
  std::uint32_t cut(Tracer& trace, std::uint32_t parent, std::int64_t start,
                    std::int64_t end) const {
    const std::int64_t place_end = first_batch_ != 0 ? first_batch_ : end;
    const std::int64_t flush_end =
        relocation_batches_ > 0 ? last_relocation_ : place_end;
    const std::uint32_t place =
        trace.add("kv.place", start, place_end, parent, 0, 1.0, false);
    trace.add("kv.flush", place_end, flush_end, parent, 0, 1.0, false);
    trace.add("kv.repair", flush_end, end, parent, 0, 1.0, false);
    return place;
  }

  cobalt::kv::StoreEventSink* inner = nullptr;

 private:
  std::int64_t first_batch_ = 0;
  std::int64_t last_relocation_ = 0;
  std::uint64_t relocation_batches_ = 0;
};

/// Drives a store's membership calls and times each event. A traced
/// run also cuts each event into phases at the store's sink callbacks
/// and replays every mutation on a mirror backend built from the same
/// options, to time the placement layer alone.
template <typename Backend>
class Membership {
 public:
  using StoreT = cobalt::kv::Store<Backend>;

  Membership(StoreT& store, const typename Backend::Options& options,
             const cobalt::cluster::Topology* topology, Tracer& trace,
             const char* scheme)
      : store_(store), topology_(topology), trace_(trace), scheme_(scheme) {
    if (trace_.on()) {
      mirror_ = std::make_unique<Backend>(options);
      mirror_->set_topology(topology);
      store_.set_event_sink(&phases_);
    }
  }
  ~Membership() {
    if (trace_.on()) store_.set_event_sink(nullptr);
  }
  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// Routes the store's counted event stream to `sink` (null detaches).
  void attach_sink(cobalt::kv::StoreEventSink* sink) {
    if (trace_.on()) {
      phases_.inner = sink;
      store_.set_event_sink(&phases_);
    } else {
      store_.set_event_sink(sink);
    }
  }

  NodeId add_node() {
    NodeId id = 0;
    event([&] { id = store_.add_node(); },
          [&](Mirrored& m) {
            m.mutate([&] { agree(mirror_->add_node() == id); });
          });
    return id;
  }

  bool remove_node(NodeId node) {
    bool removed = false;
    event([&] { removed = store_.remove_node(node); },
          [&](Mirrored& m) {
            m.mutate([&] { agree(mirror_->remove_node(node) == removed); });
          });
    return removed;
  }

  std::size_t fail_nodes(std::span<const NodeId> nodes) {
    std::size_t failed = 0;
    event([&] { failed = store_.fail_nodes(nodes); },
          [&](Mirrored& m) {
            for (const NodeId node : nodes) {
              if (mirror_->node_count() < 2 || !mirror_->is_live(node)) continue;
              m.mutate([&] { (void)mirror_->remove_node(node); });
            }
          });
    return failed;
  }

  /// Wall time of every event since the last reset, microseconds.
  [[nodiscard]] const std::vector<double>& latencies() const {
    return latencies_;
  }
  void reset_timing() { latencies_.clear(); }
  /// Mirror replays that disagreed with the store (traced runs only).
  [[nodiscard]] std::uint64_t disagreements() const { return disagreements_; }

 private:
  /// The mirror's share of one event: every mutation, each followed
  /// by the dirty-range query the store makes after it.
  class Mirrored {
   public:
    Mirrored(Membership& owner, std::uint32_t parent)
        : owner_(owner), parent_(parent) {}

    template <typename F>
    void mutate(F&& call) {
      Backend& mirror = *owner_.mirror_;
      const std::int64_t start = now_ns();
      call();
      const std::int64_t mutated = now_ns();
      const ReplicationSpec spec = owner_.store_.replication_spec();
      const std::vector<cobalt::placement::HashRange> ranges =
          mirror.replica_dirty_ranges(
              spec.with_k(std::min(spec.k, mirror.node_count())));
      const std::int64_t end = now_ns();
      owner_.trace_.add("placement.mutate", start, mutated, parent_, 0, 1.0,
                        true);
      owner_.trace_.add("placement.dirty", mutated, end, parent_, 0, 1.0,
                        true);
      dirty_.insert(dirty_.end(), ranges.begin(), ranges.end());
    }

    /// Hash-space share covered by the event's dirty ranges.
    [[nodiscard]] double dirty_fraction() {
      cobalt::placement::coalesce_ranges(dirty_);
      double share = 0.0;
      for (const auto& range : dirty_) {
        share += (static_cast<double>(range.last - range.first) + 1.0) *
                 0x1.0p-64;
      }
      return share;
    }

   private:
    Membership& owner_;
    std::uint32_t parent_;
    std::vector<cobalt::placement::HashRange> dirty_;
  };

  void agree(bool same) {
    if (!same) ++disagreements_;
  }

  template <typename Call, typename Mirror>
  void event(Call&& call, Mirror&& mirror) {
    if (!trace_.on()) {
      const std::int64_t start = now_ns();
      call();
      record(start, now_ns());
      return;
    }
    const cobalt::kv::ReplicationStats before = store_.stats().replication;
    phases_.reset();
    const std::uint32_t span = trace_.open("kv.membership", ++events_, scheme_);
    const std::int64_t start = now_ns();
    call();
    const std::int64_t end = now_ns();
    trace_.close(span);
    record(start, end);
    const std::uint32_t place = phases_.cut(trace_, span, start, end);
    const cobalt::kv::ReplicationStats after = store_.stats().replication;
    Mirrored m(*this, place);
    mirror(m);
    const ReplicationSpec spec = store_.replication_spec();
    const std::size_t depth =
        spec.spread == SpreadPolicy::kNone || topology_ == nullptr
            ? spec.k
            : topology_->spread_bound(spec.k,
                                      spec.spread == SpreadPolicy::kZone);
    trace_.attr(span, "dirty_fraction", m.dirty_fraction());
    trace_.attr(span, "probe_depth",
                static_cast<double>(
                    std::min(depth, store_.backend().node_count())));
    trace_.attr(span, "shards_visited",
                static_cast<double>(after.repair_shards_visited -
                                    before.repair_shards_visited));
    trace_.attr(span, "shards_total",
                static_cast<double>(after.repair_shards_total -
                                    before.repair_shards_total));
    trace_.attr(span, "copies",
                static_cast<double>(after.keys_rereplicated -
                                    before.keys_rereplicated));
  }

  void record(std::int64_t start, std::int64_t end) {
    latencies_.push_back(static_cast<double>(end - start) * 1e-3);
  }

  StoreT& store_;
  const cobalt::cluster::Topology* topology_;
  Tracer& trace_;
  const char* scheme_;
  std::unique_ptr<Backend> mirror_;
  PhaseSink phases_;
  std::vector<double> latencies_;
  std::uint64_t events_ = 0;
  std::uint64_t disagreements_ = 0;
};

// --- shared store steps ----------------------------------------------

/// Preloads `keys` with value encode(i); returns the heap bytes the
/// store grew by, per key. Traced runs sample kv.preload_put spans.
template <typename StoreT>
double preload(StoreT& store, const std::vector<std::string>& keys,
               Tracer& trace) {
  const double heap_before = heap_bytes();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    point_op(sample_weight(trace, i), trace, "kv.preload_put", i, store,
             keys[i], true, [&] {
               return store.put(keys[i], encode(static_cast<std::uint32_t>(i)));
             });
  }
  return (heap_bytes() - heap_before) / static_cast<double>(keys.size());
}

/// Reads back every key (its value, and a live read node), then probes
/// the write path on a sample: overwrite and restore, insert and
/// erase. Mismatches count as failed ops and fail the check.
template <typename StoreT, typename Expected>
void verify_store(StoreT& store, const std::vector<std::string>& keys,
                  Expected&& expected, Context& ctx, const std::string& what) {
  Tracer& trace = ctx.trace;
  const SpanScope span(trace, "e2e.verify");
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::string& key = keys[i];
    const double weight = sample_weight(trace, i);
    const auto value = point_op(weight, trace, "kv.get", i, store, key, false,
                                [&] { return store.get(key); });
    const NodeId node =
        point_op(weight, trace, "kv.read_node_of", i, store, key, false,
                 [&] { return store.read_node_of(key); });
    if (!holds(value, expected(i)) || node == cobalt::placement::kInvalidNode ||
        !store.backend().is_live(node)) {
      ++bad;
    }
  }
  const std::size_t size_before = store.size();
  const double every = trace.on() ? 1.0 : 0.0;  // every probe is traced
  const std::size_t probes = std::min<std::size_t>(256, keys.size());
  const std::size_t stride = keys.size() / probes;
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t i = p * stride;
    const std::string& key = keys[i];
    const std::string fresh = "probe/" + key;
    const std::uint32_t flipped = expected(i) ^ 0x5a5a5a5au;
    const bool inserted_old =
        point_op(every, trace, "kv.put_update", p, store, key, false,
                 [&] { return store.put(key, encode(flipped)); });
    const bool changed = holds(store.get(key), flipped);
    store.put(key, encode(expected(i)));
    const bool inserted =
        point_op(every, trace, "kv.put_insert", p, store, fresh, true,
                 [&] { return store.put(fresh, encode(0)); });
    const bool erased = point_op(every, trace, "kv.erase", p, store,
                                 fresh, false,
                                 [&] { return store.erase(fresh); });
    if (inserted_old || !changed || !inserted || !erased) ++bad;
  }
  if (store.size() != size_before) ++bad;
  ctx.report.failed += bad;
  ctx.report.check(bad == 0, what +
                                 ": every key reads back from a live replica "
                                 "and the write path still works (" +
                                 std::to_string(bad) + " bad)");
}

// --- kv_point_1m -----------------------------------------------------
//
// The store's data path with a working set far larger than L2: one
// closed-loop client of uniform point ops over 1M preloaded keys. An
// op is one client op; its latency is timed individually.

/// One client op: 80% read (read_node_of + get), 10% overwrite, 5%
/// insert, 5% erase of an earlier insert.
struct ClientOp {
  enum Kind : std::uint8_t { kRead, kOverwrite, kInsert, kErase };
  Kind kind = kRead;
  std::uint32_t key = 0;  ///< preloaded key index, or erase slot
};

void kv_point(Context& ctx) {
  const Scale& scale = ctx.scale;
  const std::uint64_t seed = ctx.options.seed;
  Tracer& trace = ctx.trace;
  Report& report = ctx.report;
  EndToEnd e2e;
  const SpanScope run_span(trace, "e2e.run");

  // Key strings are built before any timing and before the heap
  // baseline; inserts take their keys from a second walk.
  const std::vector<std::string> keys =
      make_keys('k', cobalt::derive_seed(seed, 0x4b, 0), scale.kv_keys);
  const std::vector<std::string> extra =
      make_keys('i', cobalt::derive_seed(seed, 0x4b, 1), scale.kv_keys);

  using Backend = cobalt::placement::LocalDhtBackend;
  const Backend::Options options{
      dht_config(cobalt::derive_seed(seed, 0x4b, 2), 4), 1};
  std::unique_ptr<cobalt::kv::KvStore> store;
  std::unique_ptr<Membership<Backend>> members;
  e2e.set_up(ctx.options.seconds, [&] {
    members.reset();
    store.reset();
    const SpanScope span(trace, "e2e.setup");
    const std::int64_t start = now_ns();
    store = std::make_unique<cobalt::kv::KvStore>(
        options, ReplicationSpec{3, SpreadPolicy::kNone});
    members = std::make_unique<Membership<Backend>>(*store, options, nullptr,
                                                     trace, "local");
    for (std::size_t n = 0; n < scale.kv_nodes; ++n) members->add_node();
    e2e.bytes_per_key.push_back(preload(*store, keys, trace));
    e2e.setup_s.push_back(seconds_since(start));
  });
  report.mix(static_cast<double>(store->shard_index().shard_count()));
  report.mix(static_cast<double>(store->stats().replication.replica_writes));

  std::vector<std::uint32_t> versions(keys.size());  // preload wrote i
  for (std::size_t i = 0; i < versions.size(); ++i) {
    versions[i] = static_cast<std::uint32_t>(i);
  }
  // Inserts take a key the store does not hold: the next fresh one, or
  // one an erase gave back, so the op mix holds however long a run is.
  std::vector<std::uint32_t> live_inserts;  // indexes into `extra`
  std::vector<std::uint32_t> free_inserts(extra.size());
  std::iota(free_inserts.rbegin(), free_inserts.rend(), 0u);  // 0 on top
  cobalt::Xoshiro256 rng(cobalt::derive_seed(seed, 0x4b, 3));
  std::vector<ClientOp> block(1 << 16);
  Latencies reads_us;
  Latencies writes_us;
  std::uint64_t bad = 0;
  std::uint64_t index = 0;

  {
    const SpanScope measure_span(trace, "e2e.measure");
    const std::int64_t deadline = deadline_after(ctx.options.seconds);
    while (now_ns() < deadline) {
      // Ops are generated a block at a time, outside the timed loop.
      for (ClientOp& op : block) {
        const std::uint64_t r = rng.next_below(100);
        op.kind = r < 80   ? ClientOp::kRead
                  : r < 90 ? ClientOp::kOverwrite
                  : r < 95 ? ClientOp::kInsert
                           : ClientOp::kErase;
        op.key = static_cast<std::uint32_t>(rng.next_below(keys.size()));
      }
      const std::int64_t block_start = now_ns();
      for (const ClientOp& op : block) {
        ClientOp::Kind kind = op.kind;
        if (kind == ClientOp::kErase && live_inserts.empty()) {
          kind = ClientOp::kInsert;
        }
        if (kind == ClientOp::kInsert && free_inserts.empty()) {
          kind = ClientOp::kRead;
        }
        const double weight = sample_weight(trace, index);
        const std::int64_t start = now_ns();
        double outcome = 0.0;
        bool ok = true;
        if (kind == ClientOp::kRead) {
          const std::string& key = keys[op.key];
          const NodeId node = point_op(weight, trace, "kv.read_node_of", index,
                                       *store, key, false, [&] {
                                         return store->read_node_of(
                                             key,
                                             cobalt::kv::ReadPolicy::kRoundRobin);
                                       });
          const auto value = point_op(weight, trace, "kv.get", index, *store,
                                      key, false, [&] { return store->get(key); });
          ok = node != cobalt::placement::kInvalidNode &&
               holds(value, versions[op.key]);
          outcome = node;
        } else if (kind == ClientOp::kOverwrite) {
          const std::string& key = keys[op.key];
          const std::uint32_t version = ++versions[op.key];
          const bool inserted =
              point_op(weight, trace, "kv.put_update", index, *store, key,
                       false, [&] { return store->put(key, encode(version)); });
          ok = !inserted;
          outcome = inserted;
        } else if (kind == ClientOp::kInsert) {
          const std::uint32_t fresh = free_inserts.back();
          free_inserts.pop_back();
          const std::string& key = extra[fresh];
          const bool inserted =
              point_op(weight, trace, "kv.put_insert", index, *store, key,
                       true, [&] { return store->put(key, encode(0)); });
          live_inserts.push_back(fresh);
          ok = inserted;
          outcome = inserted;
        } else {
          const std::size_t slot = op.key % live_inserts.size();
          const std::string& key = extra[live_inserts[slot]];
          const bool erased =
              point_op(weight, trace, "kv.erase", index, *store, key, false,
                       [&] { return store->erase(key); });
          free_inserts.push_back(live_inserts[slot]);
          live_inserts[slot] = live_inserts.back();
          live_inserts.pop_back();
          ok = erased;
          outcome = erased;
        }
        const double us = static_cast<double>(now_ns() - start) * 1e-3;
        e2e.op_us.add(us);
        (kind == ClientOp::kRead ? reads_us : writes_us).add(us);
        if (!ok) ++bad;
        if (index < block.size()) report.mix(outcome);  // every run's prefix
        ++index;
      }
      e2e.measure_s += seconds_since(block_start);
    }
  }
  e2e.ops = index;
  report.attempted += index;
  report.failed += bad;
  report.check(bad == 0, "every read returned the tracked version and every "
                         "put/erase returned the expected result (" +
                             std::to_string(bad) + " bad of " +
                             std::to_string(index) + ")");
  report.check(store->size() == keys.size() + live_inserts.size(),
               "final size() is exact (" + std::to_string(store->size()) + ")");
  verify_store(*store, keys, [&](std::size_t i) { return versions[i]; }, ctx,
               "kv_point_1m");
  report.check(members->disagreements() == 0,
               "the mirror backend agreed with the store on every event");
  e2e.report(report);
  report.info("get_p50_us", reads_us.quantile(0.50), "us");
  report.info("get_p99_us", reads_us.quantile(0.99), "us");
  report.info("write_p50_us", writes_us.quantile(0.50), "us");
  report.info("write_p99_us", writes_us.quantile(0.99), "us");
}

// --- churn_rack_k3 ---------------------------------------------------
//
// The membership path under rack-spread replication, for each of the
// seven schemes in turn. An op is one membership event; its latency
// is the wall time of the store call.

/// Calls `visit(tag, name, options)` for each of the seven schemes
/// with the options the ablation benches use; `tag` carries the
/// backend type (std::type_identity).
template <typename Visit>
void for_each_scheme(std::uint64_t seed, Visit&& visit) {
  namespace p = cobalt::placement;
  visit(std::type_identity<p::LocalDhtBackend>{}, "local",
        p::LocalDhtBackend::Options{dht_config(seed, 4), 1});
  visit(std::type_identity<p::GlobalDhtBackend>{}, "global",
        p::GlobalDhtBackend::Options{dht_config(seed, 1), 1});
  visit(std::type_identity<p::ChBackend>{}, "ch",
        p::ChBackend::Options{seed, 32});
  visit(std::type_identity<p::HrwBackend>{}, "hrw",
        p::HrwBackend::Options{seed, 14});
  visit(std::type_identity<p::JumpBackend>{}, "jump",
        p::JumpBackend::Options{seed, 14});
  visit(std::type_identity<p::MaglevBackend>{}, "maglev",
        p::MaglevBackend::Options{seed, 14});
  visit(std::type_identity<p::BoundedChBackend>{}, "bounded-ch",
        p::BoundedChBackend::Options{seed, 32, 0.1, 14});
}

/// One scheme's churn state, behind an interface so the seven
/// instantiations share one loop.
class ChurnCell {
 public:
  ChurnCell() = default;
  virtual ~ChurnCell() = default;
  ChurnCell(const ChurnCell&) = delete;
  ChurnCell& operator=(const ChurnCell&) = delete;

  struct Outcome {
    std::uint64_t lost = 0;     ///< keys lost to rack crashes
    std::uint64_t at_risk = 0;  ///< keys resident at each rack crash
  };

  /// Runs the churn script drawn from `seed`.
  virtual Outcome run(std::uint64_t seed, const Scale& scale) = 0;
  /// Checks the store after the script; `digest` folds its counters.
  virtual void verify(Context& ctx, bool digest) = 0;
  /// Wall time of every event of the last script, microseconds.
  [[nodiscard]] virtual const std::vector<double>& latencies() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

template <typename Backend>
class ChurnCellOf final : public ChurnCell {
 public:
  /// Builds the scheme's topology and store, joins every node and
  /// preloads `keys`; `bytes_per_key` receives the preload's heap cost.
  ChurnCellOf(const char* name, const typename Backend::Options& options,
              const std::vector<std::string>& keys, const Scale& scale,
              Tracer& trace, double& bytes_per_key)
      : name_(name),
        keys_(keys),
        topology_(cobalt::cluster::Topology::uniform(
            scale.churn_racks, scale.churn_rack_nodes, scale.churn_zones)),
        store_(options, ReplicationSpec{3, SpreadPolicy::kRack}),
        members_(store_, options, &topology_, trace, name) {
    store_.set_topology(&topology_);
    const std::size_t nodes = scale.churn_racks * scale.churn_rack_nodes;
    for (std::size_t n = 0; n < nodes; ++n) members_.add_node();
    bytes_per_key = preload(store_, keys_, trace);
  }
  ~ChurnCellOf() override { store_.set_topology(nullptr); }

  /// `churn_cycles` cycles of removing a random node plus joining a
  /// replacement into the victim's rack (placed in the topology
  /// before add_node). Victim racks come round in a seeded order and
  /// the victim is a random live node of its rack, so every seed sees
  /// racks grow alike. Every churn_crash_every-th cycle instead crashes
  /// a random whole rack in one fail_nodes call and re-joins as many
  /// nodes into it.
  Outcome run(std::uint64_t seed, const Scale& scale) override {
    members_.reset_timing();
    cobalt::Xoshiro256 rng(seed);
    std::vector<cobalt::cluster::Topology::RackId> racks = topology_.racks();
    cobalt::shuffle(racks, rng);
    std::size_t next_rack = 0;
    Outcome out;
    const std::uint64_t lost_before = store_.stats().replication.keys_lost;
    for (std::size_t cycle = 1; cycle <= scale.churn_cycles; ++cycle) {
      if (cycle % scale.churn_crash_every == 0) {
        const auto rack = static_cast<cobalt::cluster::Topology::RackId>(
            rng.next_below(scale.churn_racks));
        std::vector<NodeId> victims;
        for (const NodeId node : topology_.nodes_in_rack(rack)) {
          if (store_.backend().is_live(node)) victims.push_back(node);
        }
        out.at_risk += store_.size();
        members_.fail_nodes(victims);
        for (std::size_t j = 0; j < scale.churn_rack_nodes; ++j) join(rack);
        continue;
      }
      const auto rack = racks[next_rack++ % racks.size()];
      std::vector<NodeId> live;
      for (const NodeId node : topology_.nodes_in_rack(rack)) {
        if (store_.backend().is_live(node)) live.push_back(node);
      }
      if (live.empty()) continue;
      if (members_.remove_node(live[rng.next_below(live.size())])) join(rack);
    }
    out.lost = store_.stats().replication.keys_lost - lost_before;
    return out;
  }

  void verify(Context& ctx, bool digest) override {
    const std::size_t size = store_.size();
    std::size_t copies = 0;
    for (const std::size_t c : store_.replica_copies_per_node()) copies += c;
    ctx.report.check(size == keys_.size() && copies == 3 * size,
                     std::string(name_) + ": size() == " +
                         std::to_string(keys_.size()) +
                         " and the replica copies sum to 3 x size()");
    ctx.report.check(joins_misplaced_ == 0,
                     std::string(name_) +
                         ": every join got the id placed in the topology");
    verify_store(store_, keys_,
                 [](std::size_t i) { return static_cast<std::uint32_t>(i); },
                 ctx, name_);
    ctx.report.check(members_.disagreements() == 0,
                     std::string(name_) +
                         ": the mirror backend agreed with the store");
    if (!digest) return;
    const cobalt::kv::StatsSnapshot stats = store_.stats();
    ctx.report.mix(static_cast<double>(stats.relocation.keys_moved_total));
    ctx.report.mix(static_cast<double>(stats.replication.keys_rereplicated));
    ctx.report.mix(static_cast<double>(stats.replication.keys_lost));
    ctx.report.mix(static_cast<double>(stats.replication.repair_shards_visited));
    ctx.report.mix(static_cast<double>(store_.backend().node_slot_count()));
  }

  [[nodiscard]] const std::vector<double>& latencies() const override {
    return members_.latencies();
  }
  [[nodiscard]] const char* name() const override { return name_; }

 private:
  NodeId join(cobalt::cluster::Topology::RackId rack) {
    const auto id = static_cast<NodeId>(store_.backend().node_slot_count());
    topology_.assign(id, rack, topology_.zone_of_rack(rack));
    const NodeId joined = members_.add_node();
    if (joined != id) ++joins_misplaced_;
    return joined;
  }

  const char* name_;
  const std::vector<std::string>& keys_;
  cobalt::cluster::Topology topology_;
  cobalt::kv::Store<Backend> store_;
  Membership<Backend> members_;
  std::uint64_t joins_misplaced_ = 0;
};

void churn_rack(Context& ctx) {
  const std::uint64_t seed = ctx.options.seed;
  Tracer& trace = ctx.trace;
  Report& report = ctx.report;
  EndToEnd e2e;
  const SpanScope run_span(trace, "e2e.run");
  const std::vector<std::string> keys =
      make_keys('c', cobalt::derive_seed(seed, 0xc4, 0), ctx.scale.churn_keys);

  // A pass runs the same script on a fresh cell of every scheme.
  std::vector<std::unique_ptr<ChurnCell>> cells;
  const auto setup = [&] {
    cells.clear();
    const SpanScope span(trace, "e2e.setup");
    const std::int64_t start = now_ns();
    double heap_per_key = 0.0;
    for_each_scheme(cobalt::derive_seed(seed, 0xc4, 1),
                    [&](auto tag, const char* name, const auto& options) {
                      using Backend = typename decltype(tag)::type;
                      double bytes = 0.0;
                      cells.push_back(std::make_unique<ChurnCellOf<Backend>>(
                          name, options, keys, ctx.scale, trace, bytes));
                      heap_per_key += bytes;
                    });
    e2e.bytes_per_key.push_back(heap_per_key /
                                static_cast<double>(cells.size()));
    e2e.setup_s.push_back(seconds_since(start));
  };
  e2e.set_up(ctx.options.seconds, setup);

  std::vector<std::vector<double>> per_scheme;  // of the first pass
  ChurnCell::Outcome total;
  std::size_t passes = 0;
  const std::uint64_t script = cobalt::derive_seed(seed, 0xc4, 2);
  run_passes(ctx.options.seconds, [&](std::size_t pass) {
    if (pass > 0) setup();
    {
      const SpanScope measure_span(trace, "e2e.measure");
      for (auto& cell : cells) {
        const ChurnCell::Outcome out = cell->run(script, ctx.scale);
        total.lost += out.lost;
        total.at_risk += out.at_risk;
      }
    }
    for (auto& cell : cells) {
      for (const double us : cell->latencies()) {
        e2e.op_us.add(us);
        e2e.measure_s += us * 1e-6;
      }
      e2e.ops += cell->latencies().size();
      if (pass == 0) per_scheme.push_back(cell->latencies());
      cell->verify(ctx, pass == 0);
    }
    ++passes;
  });

  report.attempted += total.at_risk;
  report.failed += total.lost;
  report.check(total.lost == 0 && total.at_risk > 0,
               "rack spread lost no key to a whole-rack crash (" +
                   std::to_string(total.lost) + " lost of " +
                   std::to_string(total.at_risk) + " at risk)");
  e2e.report(report);
  report.info("passes", static_cast<double>(passes), "count");
  // How events slow down as the script runs: the median event of the
  // first and of the last third of each scheme's first script.
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::vector<double>& us = per_scheme[c];
    const std::size_t third = us.size() / 3;
    const std::string name = cells[c]->name();
    report.info("event_p50_ms." + name, median(us) * 1e-3, "ms");
    report.info("event_p50_first_third_ms." + name,
                median({us.begin(), us.begin() + third}) * 1e-3, "ms");
    report.info("event_p50_last_third_ms." + name,
                median({us.begin() + 2 * third,
                        us.begin() + std::min(us.size(), 3 * third)}) * 1e-3,
                "ms");
  }
}

// --- serve_flash_k3 --------------------------------------------------
//
// The request-level DES on a hot set that fits in cache, with a flash
// crowd of joins mid-stream. An op is one simulated request; the DES
// dispatches requests itself, so its latency is the wall time per
// request over windows of kWindow consecutive routed requests.

constexpr std::uint64_t kWindow = 256;

void serve_flash(Context& ctx) {
  const Scale& scale = ctx.scale;
  const std::uint64_t seed = ctx.options.seed;
  Tracer& trace = ctx.trace;
  Report& report = ctx.report;
  EndToEnd e2e;
  const SpanScope run_span(trace, "e2e.run");

  cobalt::sim::ServingSpec spec;
  spec.workload.distribution = cobalt::sim::KeyDistribution::kHotspot;
  spec.workload.key_count = scale.serve_keys;
  spec.workload.hot_key_fraction = 0.10;
  spec.workload.hot_access_fraction = 0.90;
  char prefix[24];
  std::snprintf(prefix, sizeof prefix, "s%08llx/",
                static_cast<unsigned long long>(
                    cobalt::derive_seed(seed, 0x5e, 0) & 0xffffffffu));
  spec.workload.prefix = prefix;
  spec.requests = scale.serve_requests;
  spec.arrivals = cobalt::sim::ArrivalProcess::kOpenPoisson;
  spec.service_time_us = 50.0;
  // Utilization 0.7 in simulated time: rate x service / nodes.
  spec.arrival_rate_rps =
      0.7 * static_cast<double>(scale.serve_nodes) * 1e6 / spec.service_time_us;
  spec.write_fraction = 0.10;
  spec.histogram_max_us = 50000.0;
  spec.histogram_buckets = 5000;

  // The key names the sim's request stream uses: "<prefix><index>".
  std::vector<std::string> keys;
  keys.reserve(scale.serve_keys);
  for (std::size_t i = 0; i < scale.serve_keys; ++i) {
    keys.push_back(spec.workload.prefix + std::to_string(i));
  }

  using Backend = cobalt::placement::LocalDhtBackend;
  std::unique_ptr<cobalt::kv::KvStore> store;
  std::unique_ptr<Membership<Backend>> members;
  // A pass serves the whole request stream from a fresh store (its
  // joins change the membership).
  const Backend::Options options{
      dht_config(cobalt::derive_seed(seed, 0x5e, 1), 4), 1};
  const auto setup = [&] {
    members.reset();
    store.reset();
    const SpanScope span(trace, "e2e.setup");
    const std::int64_t start = now_ns();
    store = std::make_unique<cobalt::kv::KvStore>(
        options, ReplicationSpec{3, SpreadPolicy::kNone});
    members = std::make_unique<Membership<Backend>>(*store, options, nullptr,
                                                     trace, "local");
    for (std::size_t n = 0; n < scale.serve_nodes; ++n) members->add_node();
    e2e.bytes_per_key.push_back(preload(*store, keys, trace));
    e2e.setup_s.push_back(seconds_since(start));
  };
  e2e.set_up(ctx.options.seconds, setup);

  std::size_t passes = 0;
  std::uint64_t conserved_failures = 0;
  double sim_p99_us = 0.0;
  run_passes(ctx.options.seconds, [&](std::size_t pass) {
    if (pass > 0) setup();
    cobalt::kv::KvStore& kv = *store;
    cobalt::sim::ServingSim sim(spec, cobalt::derive_seed(seed, 0x5e, 2));
    std::uint64_t routed = 0;
    std::uint64_t reads = 0;
    std::uint64_t probe_calls = 0;
    std::int64_t window_start = 0;
    const auto tick = [&] {
      if (++routed % kWindow != 0) return;
      const std::int64_t t = now_ns();
      e2e.op_us.add(static_cast<double>(t - window_start) * 1e-3 /
                    static_cast<double>(kWindow));
      window_start = t;
    };
    const cobalt::kv::NodeLoadProbe probe = [&](NodeId node) {
      ++probe_calls;
      return sim.queue_depth(node);
    };
    // Sampled routes become weight-64 spans under sim.run.
    const auto route = [&](const char* name, auto&& call) {
      if (!trace.on() || !sampled(routed)) return call();
      const std::int64_t start = now_ns();
      auto result = call();
      trace.add(name, start, now_ns(), trace.top(), routed,
                static_cast<double>(kSampleEvery), false);
      return result;
    };
    sim.set_read_router([&](const std::string& key) {
      tick();
      ++reads;
      return route("sim.route_read", [&] {
        return kv.read_node_of(key, cobalt::kv::ReadPolicy::kLeastLoaded,
                               probe);
      });
    });
    sim.set_write_router(
        [&](const std::string& key, std::vector<NodeId>& replicas) {
          tick();
          std::uint32_t index = 0;
          std::from_chars(key.data() + spec.workload.prefix.size(),
                          key.data() + key.size(), index);
          route("sim.route_write", [&] {
            kv.put(key, encode(index));
            replicas = kv.replicas_of(key);
            return 0;
          });
        });
    cobalt::sim::RepairTrafficSink sink(
        sim, [&kv](cobalt::HashIndex h) { return kv.backend().owner_of(h); });
    members->attach_sink(&sink);
    sim.schedule(0.5 * sim.expected_duration_us(), [&] {
      const SpanScope join(trace, "sim.join");
      for (std::size_t j = 0; j < scale.serve_joins; ++j) members->add_node();
    });

    std::optional<cobalt::sim::ServingOutcome> outcome;
    {
      const SpanScope run(trace, "sim.run", passes);
      const std::int64_t start = now_ns();
      window_start = start;
      outcome.emplace(sim.run());
      e2e.measure_s += seconds_since(start);
      trace.attr(run.id(), "reads", static_cast<double>(reads));
      trace.attr(run.id(), "probe_calls", static_cast<double>(probe_calls));
    }
    members->attach_sink(nullptr);
    e2e.ops += outcome->issued;
    report.attempted += outcome->issued;
    report.failed += outcome->failed;
    if (outcome->issued != spec.requests ||
        outcome->completed + outcome->failed != outcome->issued) {
      ++conserved_failures;
    }
    verify_store(kv, keys,
                 [](std::size_t i) { return static_cast<std::uint32_t>(i); },
                 ctx, "serve_flash_k3 pass " + std::to_string(passes));
    if (passes == 0) {
      sim_p99_us = outcome->p99();
      report.mix(sim_p99_us);
      report.mix(static_cast<double>(outcome->completed));
      report.mix(static_cast<double>(outcome->failed));
      report.mix(sink.total_work_us());
      report.mix(static_cast<double>(
          kv.stats().replication.keys_rereplicated));
    }
    ++passes;
  });

  report.check(conserved_failures == 0,
               "every pass issued exactly its requests and completed + "
               "failed == issued");
  report.check(report.failed == 0, "no request failed");
  e2e.report(report);
  report.info("passes", static_cast<double>(passes), "count");
  report.info("sim_p99_us", sim_p99_us, "us");
}

// --- protocol_lossy --------------------------------------------------
//
// The paper's message-level vnode-creation protocol, then a recorded
// churn log executed message by message through lossy links and a
// crash. An op is one protocol message; its latency is the wall time
// per message of one batch (the creation run, or one execution).

constexpr double kEventGapUs = 500.0;

/// The set-up of protocol_lossy: a store whose churn is recorded
/// through a ProtocolDriver, and the log expanded for execution.
struct Recording {
  using Backend = cobalt::placement::LocalDhtBackend;
  std::unique_ptr<cobalt::kv::KvStore> store;
  std::unique_ptr<Membership<Backend>> members;
  std::unique_ptr<cobalt::cluster::ProtocolDriver<Backend>> driver;
  std::vector<cobalt::cluster::FaultRound> rounds;
  std::uint64_t priced_messages = 0;
  std::uint64_t clean_messages = 0;
};

void protocol_lossy(Context& ctx) {
  const Scale& scale = ctx.scale;
  const std::uint64_t seed = ctx.options.seed;
  Tracer& trace = ctx.trace;
  Report& report = ctx.report;
  EndToEnd e2e;
  const SpanScope run_span(trace, "e2e.run");
  const std::vector<std::string> keys =
      make_keys('p', cobalt::derive_seed(seed, 0x9f, 0), scale.proto_keys);

  using Backend = Recording::Backend;
  Recording rec;
  e2e.set_up(ctx.options.seconds, [&] {
    rec.driver.reset();
    rec.members.reset();
    rec.store.reset();
    const SpanScope span(trace, "e2e.setup");
    const std::int64_t start = now_ns();
    {
      const SpanScope record(trace, "cluster.record");
      const Backend::Options options{
          dht_config(cobalt::derive_seed(seed, 0x9f, 1), 4), 1};
      rec.store = std::make_unique<cobalt::kv::KvStore>(
          options, ReplicationSpec{2, SpreadPolicy::kNone});
      rec.members = std::make_unique<Membership<Backend>>(
          *rec.store, options, nullptr, trace, "local");
      rec.driver =
          std::make_unique<cobalt::cluster::ProtocolDriver<Backend>>(*rec.store);
      rec.members->attach_sink(rec.driver.get());
      for (std::size_t n = 0; n < scale.proto_nodes; ++n) {
        rec.members->add_node();
      }
      e2e.bytes_per_key.push_back(preload(*rec.store, keys, trace));
      cobalt::Xoshiro256 rng(cobalt::derive_seed(seed, 0x9f, 2));
      for (std::size_t cycle = 0; cycle < scale.proto_cycles; ++cycle) {
        std::vector<NodeId> live;
        for (NodeId node = 0; node < rec.store->backend().node_slot_count();
             ++node) {
          if (rec.store->backend().is_live(node)) live.push_back(node);
        }
        if (rec.members->remove_node(live[rng.next_below(live.size())])) {
          rec.members->add_node();
        }
      }
    }
    {
      const SpanScope expand(trace, "cluster.fault_rounds");
      rec.rounds = rec.driver->fault_rounds(kEventGapUs);
      rec.priced_messages = rec.driver->run(kEventGapUs).messages;
      rec.clean_messages = cobalt::cluster::clean_message_count(rec.rounds);
    }
    e2e.setup_s.push_back(seconds_since(start));
  });

  // Each plan: 10% loss, 0.5% duplication, 20us jitter on every link,
  // and one participant crashed in the middle of the log for one
  // re-plan delay (the executor's default, its backoff cap). The
  // executor runs with its default retry and re-plan budget, so a
  // round abandoned to the crash is a measured failure.
  const cobalt::cluster::FaultExecutorOptions exec;
  std::vector<NodeId> participants;
  double horizon = 0.0;
  for (const auto& round : rec.rounds) {
    participants.insert(participants.end(), round.participants.begin(),
                        round.participants.end());
    horizon = std::max(horizon, round.arrival);
  }
  std::sort(participants.begin(), participants.end());
  participants.erase(std::unique(participants.begin(), participants.end()),
                     participants.end());
  const double crash_start = horizon / 2.0;
  const double crash_us = exec.backoff.cap_us;
  const auto make_plan = [&](std::uint64_t plan_seed) {
    cobalt::cluster::FaultPlan plan(plan_seed);
    cobalt::cluster::LinkFaults faults;
    faults.drop = 0.10;
    faults.duplicate = 0.005;
    faults.delay_jitter_us = 20.0;
    plan.set_default_link(faults);
    if (!participants.empty()) {
      plan.add_crash_window(
          participants[cobalt::mix64(plan_seed) % participants.size()],
          crash_start, crash_start + crash_us);
    }
    return plan;
  };

  // A pass runs the creation protocol once and executes the log under
  // every plan seed. Each of these batches is one latency sample: its
  // wall time per message.
  bool audited = true;
  std::uint64_t unbalanced = 0;
  std::uint64_t replanned = 0;
  double creations_s = 0.0;
  double exec_s = 0.0;
  std::uint64_t exec_messages = 0;
  std::optional<cobalt::cluster::FaultExecOutcome> first_outcome;
  std::size_t passes = 0;
  const auto plan_of = [&](std::size_t p) {
    return make_plan(cobalt::derive_seed(seed, 0x9f, 1000 + p));
  };
  run_passes(ctx.options.seconds, [&](std::size_t pass) {
    const SpanScope measure_span(trace, "e2e.measure");
    const auto batch = [&](double wall_s, std::uint64_t messages) {
      e2e.op_us.add(wall_s * 1e6 / static_cast<double>(messages));
      e2e.measure_s += wall_s;
      e2e.ops += messages;
    };
    {
      cobalt::cluster::DistributedDht dht(
          dht_config(cobalt::derive_seed(seed, 0x9f, 3), 32),
          scale.proto_snodes);
      for (std::size_t c = 0; c < scale.proto_creations; ++c) {
        dht.submit_create(
            static_cast<cobalt::dht::SNodeId>(c % scale.proto_snodes));
      }
      cobalt::cluster::RunStats stats;
      double wall_s = 0.0;
      {
        const SpanScope span(trace, "cluster.distributed_run", pass);
        const std::int64_t start = now_ns();
        stats = dht.run();
        wall_s = seconds_since(start);
      }
      batch(wall_s, stats.messages);
      creations_s += wall_s;
      {
        const SpanScope span(trace, "cluster.audit", pass);
        try {
          dht.audit();
        } catch (const std::exception& e) {
          audited = false;
          std::fprintf(stderr, "audit: %s\n", e.what());
        }
      }
      if (pass == 0) {
        report.mix(static_cast<double>(stats.messages));
        report.mix(static_cast<double>(stats.rounds));
        report.mix(static_cast<double>(stats.group_splits));
        report.mix(static_cast<double>(dht.group_count()));
        report.mix(dht.sigma_qv());
      }
    }
    for (std::size_t p = 0; p < scale.proto_plans; ++p) {
      const cobalt::cluster::FaultPlan plan = plan_of(p);
      const SpanScope span(trace, "cluster.execute", p);
      const std::int64_t start = now_ns();
      const cobalt::cluster::FaultExecOutcome o =
          cobalt::cluster::execute_rounds(rec.rounds, plan, exec);
      const double wall_s = seconds_since(start);
      batch(wall_s, o.messages_sent);
      exec_s += wall_s;
      exec_messages += o.messages_sent;
      trace.attr(span.id(), "sent", static_cast<double>(o.messages_sent));
      trace.attr(span.id(), "clean", static_cast<double>(rec.clean_messages));
      trace.attr(span.id(), "retries", static_cast<double>(o.retries));
      trace.attr(span.id(), "rounds", static_cast<double>(o.rounds));
      trace.attr(span.id(), "completed",
                 static_cast<double>(o.completed_rounds));
      report.attempted += o.rounds;
      report.failed += o.abandoned_rounds;
      replanned += o.replanned_rounds;
      if (o.rounds != o.completed_rounds + o.aborted_rounds ||
          o.aborted_rounds != o.replanned_rounds + o.abandoned_rounds) {
        ++unbalanced;
      }
      if (pass == 0) {
        if (p == 0) first_outcome = o;
        report.mix(static_cast<double>(o.messages_sent));
        report.mix(static_cast<double>(o.retries));
        report.mix(static_cast<double>(o.aborted_rounds));
        report.mix(o.makespan_us);
      }
    }
    ++passes;
  });

  report.check(audited, "the distributed runtime passed audit()");
  report.check(unbalanced == 0,
               "every execution conserved rounds == completed + aborted and "
               "aborted == replanned + abandoned");
  report.check(cobalt::cluster::execute_rounds(rec.rounds, plan_of(0), exec) ==
                   *first_outcome,
               "a repeated plan seed gave an identical FaultExecOutcome");
  const cobalt::cluster::FaultExecOutcome clean = cobalt::cluster::execute_rounds(
      rec.rounds, cobalt::cluster::FaultPlan(seed), exec);
  report.check(clean.messages_sent == rec.clean_messages &&
                   rec.clean_messages == rec.priced_messages,
               "a clean execution sends exactly the priced message count (" +
                   std::to_string(rec.priced_messages) + ")");
  verify_store(*rec.store, keys,
               [](std::size_t i) { return static_cast<std::uint32_t>(i); },
               ctx, "protocol_lossy record store");
  report.check(rec.members->disagreements() == 0,
               "the mirror backend agreed with the store on every event");
  e2e.report(report);
  report.info("passes", static_cast<double>(passes), "count");
  report.info("replanned_rounds", static_cast<double>(replanned), "count");
  report.info("creations_per_s",
              static_cast<double>(passes * scale.proto_creations) / creations_s,
              "1/s");
  report.info("exec_messages_per_s",
              static_cast<double>(exec_messages) / exec_s, "1/s");
}

// --- command line ----------------------------------------------------

struct Workload {
  const char* name;
  void (*run)(Context&);
};

constexpr Workload kWorkloads[] = {
    {"kv_point_1m", kv_point},
    {"churn_rack_k3", churn_rack},
    {"serve_flash_k3", serve_flash},
    {"protocol_lossy", protocol_lossy},
};

/// Parses --key=value / --key value; returns false on a bad argument.
bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace_path = value;
      } else if (arg == "--scale" && (value == "full" || value == "smoke")) {
        options.smoke = value == "smoke";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return options.seconds > 0.0 && options.seconds <= 600.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const Workload* workload = nullptr;
  if (parse(argc, argv, options)) {
    for (const Workload& w : kWorkloads) {
      if (options.workload == w.name) workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "usage: cobalt_e2e --workload=kv_point_1m|churn_rack_k3|"
                 "serve_flash_k3|protocol_lossy [--seed=N] [--seconds=S] "
                 "[--trace=PATH] [--scale=full|smoke]\n");
    return 2;
  }
  Context ctx{options, options.smoke ? kSmoke : kFull,
              Tracer(options.trace_path), Report{}};
  try {
    workload->run(ctx);
  } catch (const std::exception& e) {
    ctx.report.check(false, std::string("the workload threw: ") + e.what());
  }
  ctx.report.check(ctx.trace.write(options.workload, options.seed),
                   "the trace was written");
  return ctx.report.print();
}
