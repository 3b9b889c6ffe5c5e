// mdac end-to-end decision benchmark.
//
//   mdac_perfbench --workload <engine_hot|pep_settree|policy_churn>
//                  --seed <n> --seconds <s> --trace <0|1> --policies <dir>
//
// Runs one workload against libmdac's public API, checks every decision
// against the closed-form answer of inputs.hpp, and prints one JSON
// object as the last line of stdout: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exit 0 only when every
// check passed. perfbench/README.md describes the workloads and metrics.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/analysis.hpp"
#include "cache/decision_cache.hpp"
#include "cache/request_key.hpp"
#include "checker.hpp"
#include "common/clock.hpp"
#include "core/pdp.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "obs/trace.hpp"
#include "pap/repository.hpp"
#include "pep/pep.hpp"
#include "runtime/engine.hpp"
#include "runtime/snapshot.hpp"

// ---------------------------------------------------------------------
// Allocation counting (runtime.allocs_per_decision): every operator new
// in the process is counted while g_count_allocs is set. Off, the hook
// costs one relaxed load per allocation.
// ---------------------------------------------------------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
const std::int64_t g_process_start_ns = perfbench::now_ns();
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC's mismatched-new-delete heuristic cannot see that operator new
// above allocates with std::malloc, so free() is the matching release.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace mdac;
using perfbench::Expect;
using perfbench::Metric;
using perfbench::now_ns;

constexpr std::uint64_t kSeqBits = 40;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
constexpr const char* kAdmin = "perfbench-admin";
/// Measurement windows per phase: rates and percentiles are reported as
/// medians over windows.
constexpr int kWindows = 40;
/// Publications timed by engine_hot's publish-to-serve probes:
/// alternately an issue and a withdraw.
constexpr int kPublishProbes = 300;
/// Requests in flight in the engine's closed loop.
constexpr std::ptrdiff_t kInFlight = 256;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string policies;
};

/// Everything one run reports.
struct Report {
  perfbench::Checker checker;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// The benchmark's own work inside the timed set-up window (input
  /// generation, sample buffers), subtracted from setup_s.
  std::int64_t own_ns = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& line) { std::cout << "# " << line << "\n"; }
};

std::size_t host_cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// Pins the calling thread to `core` when the host has it. Each PEP
/// client gets a core of its own, so runs do not differ in where the
/// clients landed. (The engine workloads stay unpinned: a pinned sender
/// or pinned workers cannot move off a core the host briefly takes away,
/// which put millisecond stalls into their p99.)
void pin_this_thread(std::size_t core) {
  if (core >= host_cores()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Lets the calling thread run on every core again.
void unpin_this_thread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t c = 0; c < host_cores() && c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ---------------------------------------------------------------------
// Set-up: the PAP, its initial policy set, the first snapshot
// ---------------------------------------------------------------------

struct Federation {
  common::WallClock clock;
  std::unique_ptr<pap::PolicyRepository> repo;
  runtime::SnapshotPublisher publisher;
  std::unique_ptr<runtime::RepositoryPublisher> admin;
  std::uint64_t first_version = 0;

  /// Submits and issues every document, then publishes once.
  bool load(const std::vector<perfbench::PolicyDocument>& docs, pap::PapConfig config,
            Report& report) {
    repo = std::make_unique<pap::PolicyRepository>(clock, std::move(config));
    admin = std::make_unique<runtime::RepositoryPublisher>(*repo, publisher);
    for (const auto& doc : docs) {
      pap::RepoOutcome out = repo->submit(doc.xml, kAdmin);
      if (out) out = repo->issue(doc.id, kAdmin);
      if (!out) {
        report.checker.reject("loading " + doc.id + " failed: " + out.reason);
        return false;
      }
    }
    first_version = publisher.publish_from(*repo)->version();
    return true;
  }
};

/// The distinct requests of a workload and the order they are sent in.
struct Inputs {
  std::vector<perfbench::RequestSpec> specs;
  std::vector<std::uint32_t> stream;       // indices into specs
  std::vector<std::string> audit_ids;      // set-tree workloads only
  std::vector<core::RequestContext> pool;  // built from specs after set-up

  void build_pool(Report& report) {
    const std::int64_t t0 = now_ns();
    pool.reserve(specs.size());
    for (const auto& s : specs) pool.push_back(perfbench::build_request(s));
    report.own_ns += now_ns() - t0;
  }
};

/// The answer for spec `index` under snapshot `version`.
using Oracle = std::function<Expect(std::uint32_t index, std::uint64_t version)>;

perfbench::PolicyDocument probe_grant(const perfbench::Templates& t, int k) {
  // A domain no request names: issuing or withdrawing it changes the
  // snapshot but no answer.
  return perfbench::grant_document(t, perfbench::GrantForm::kAnyOfs, "probe:grant", 1000, 0, k % 2);
}

// ---------------------------------------------------------------------
// Engine driver: closed-loop and open-loop phases over DecisionEngine
// ---------------------------------------------------------------------

/// Exactly-once completion marks, one bit per submission, allocated in
/// chunks by the submitting thread before it submits into them.
/// Consecutive sequence numbers fall in different cache lines, so workers
/// completing neighbouring requests do not contend on one line.
class DoneBits {
 public:
  static constexpr std::uint64_t kChunkBits = std::uint64_t{1} << 20;
  static constexpr std::uint64_t kLines = kChunkBits / 512;  // 8 words of 64 bits per line

  void ensure(std::uint64_t seq) {
    const std::uint64_t c = seq / kChunkBits;
    if (c >= chunks_.size()) throw std::runtime_error("too many submissions");
    if (!chunks_[c]) chunks_[c] = std::make_unique<std::atomic<std::uint64_t>[]>(kChunkBits / 64);
  }
  /// False when `seq` was already marked (a second completion).
  bool mark(std::uint64_t seq) {
    const std::uint64_t in_chunk = seq % kChunkBits;
    const std::uint64_t line = in_chunk % kLines, in_line = in_chunk / kLines;
    auto& word = chunks_[seq / kChunkBits][line * 8 + in_line / 64];
    const std::uint64_t bit = std::uint64_t{1} << (in_line % 64);
    return (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
  }
  std::uint64_t count(std::uint64_t upto) const {
    std::uint64_t n = 0;
    for (std::uint64_t c = 0; c * kChunkBits < upto; ++c) {
      if (!chunks_[c]) continue;
      for (std::uint64_t w = 0; w < kChunkBits / 64; ++w) {
        n += static_cast<std::uint64_t>(
            __builtin_popcountll(chunks_[c][w].load(std::memory_order_relaxed)));
      }
    }
    return n;
  }

 private:
  std::array<std::unique_ptr<std::atomic<std::uint64_t>[]>, 4096> chunks_;
};

struct TraceRecord {
  std::int64_t submit_ns = 0;
  std::int64_t done_ns = 0;
  std::uint64_t trace_id = 0;
};

struct ClosedResult {
  std::uint64_t decisions = 0;
  double seconds = 0;
  double cpu_s = 0;
  double sys_s = 0;
  std::uint64_t allocs = 0;
  double submit_ns = 0;  // mean time inside submit()
  std::vector<double> window_rate;    // decisions/s per window
  std::vector<double> window_cpu_us;  // CPU us per decision per window
};

struct OpenResult {
  std::vector<std::int64_t> latency_ns;
  std::vector<std::int64_t> late_ns;
  std::int64_t start_ns = 0;
};

class EngineDriver {
 public:
  struct Config {
    /// The traced run's instruments: the allocation-counting hook, the
    /// timing of submit() and the submit-to-callback record ring.
    bool instrumented = false;
    bool versioned = false;  // check snapshot stamps against floors
    bool audited = false;    // set-tree decisions carry audit obligations
  };

  EngineDriver(const Inputs& in, Oracle oracle, Federation& fed, perfbench::Checker& checker,
               Config config)
      : in_(in), oracle_(std::move(oracle)), fed_(fed), checker_(checker), config_(config) {
    if (config_.instrumented) records_.resize(kRecordRing);
  }

  void attach(runtime::DecisionEngine* engine) { engine_ = engine; }

  /// The admin thread's floor: the version the last returned mutation
  /// published.
  std::atomic<std::uint64_t>& floor() { return floor_; }
  std::vector<std::atomic<std::int64_t>>& first_served() { return first_served_; }
  void track_versions(std::size_t versions) {
    first_served_ = std::vector<std::atomic<std::int64_t>>(versions);
  }

  /// Submits `count` requests closed-loop (warm-up).
  void warm(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) submit_closed(false, nullptr);
    drain();
  }

  /// Closed loop for `seconds`, split into `windows` equal windows; the
  /// per-window throughput and CPU per decision are kept so the report
  /// can take their medians.
  ClosedResult closed(double seconds, int windows) {
    ClosedResult r;
    const std::uint64_t seq0 = seq_;
    const perfbench::Usage u0 = perfbench::Usage::now();
    g_allocs.store(0, std::memory_order_relaxed);
    if (config_.instrumented) g_count_allocs.store(true, std::memory_order_relaxed);
    const std::int64_t t0 = now_ns();
    std::int64_t submit_total = 0;
    for (int w = 0; w < windows; ++w) {
      const std::int64_t end =
          t0 + static_cast<std::int64_t>(seconds * 1e9 * (w + 1) / windows);
      const std::uint64_t c0 = completed();
      const perfbench::Usage wu0 = perfbench::Usage::now();
      const std::int64_t wt0 = now_ns();
      while (now_ns() < end) {
        for (int i = 0; i < 32; ++i) submit_closed(config_.instrumented, &submit_total);
      }
      const std::uint64_t done = completed() - c0;
      const perfbench::Usage wu1 = perfbench::Usage::now();
      const double dt = static_cast<double>(now_ns() - wt0) * 1e-9;
      if (done == 0) continue;
      r.window_rate.push_back(static_cast<double>(done) / dt);
      r.window_cpu_us.push_back((wu1.cpu_s() - wu0.cpu_s()) * 1e6 / static_cast<double>(done));
    }
    drain();
    const std::int64_t t1 = now_ns();
    g_count_allocs.store(false, std::memory_order_relaxed);
    const perfbench::Usage u1 = perfbench::Usage::now();
    r.decisions = seq_ - seq0;
    r.seconds = static_cast<double>(t1 - t0) * 1e-9;
    r.cpu_s = u1.cpu_s() - u0.cpu_s();
    r.sys_s = u1.sys_s - u0.sys_s;
    r.allocs = g_allocs.load(std::memory_order_relaxed);
    r.submit_ns = r.decisions ? static_cast<double>(submit_total) / static_cast<double>(r.decisions)
                              : 0;
    return r;
  }

  /// Sends `rate`/s for `seconds` on a fixed schedule; each request is
  /// timed from when it was due.
  OpenResult open(double seconds, double rate) {
    OpenResult r;
    const auto n = static_cast<std::size_t>(seconds * rate);
    r.latency_ns.assign(n, -1);
    r.late_ns.assign(n, 0);
    open_latency_ = r.latency_ns.data();
    if (config_.instrumented) open_trace_ids_.assign(n, 0);
    open_base_ = seq_;
    open_period_ns_ = 1e9 / rate;
    r.start_ns = now_ns() + 2'000'000;
    open_start_ns_ = r.start_ns;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due = r.start_ns + static_cast<std::int64_t>(static_cast<double>(i) * open_period_ns_);
      std::int64_t t = now_ns();
      while (t < due) {
        perfbench::cpu_relax();
        t = now_ns();
      }
      r.late_ns[i] = t - due;
      const std::uint64_t seq = seq_++;
      dones_.ensure(seq);
      const std::uint64_t packed = seq | (floor_.load(std::memory_order_acquire) << kSeqBits);
      engine_->submit(in_.pool[in_.stream[seq % in_.stream.size()]],
                      [this, packed](runtime::EngineResult res) { on_done(packed, std::move(res), true); });
    }
    drain();
    open_latency_ = nullptr;
    return r;
  }

  /// Completion checks that need the whole run: exactly-once, and the
  /// benchmark's cache-level tally against the engine's counters.
  void finish(const runtime::EngineMetrics::Snapshot& m) {
    checker_.equal(completed(), seq_, "completions vs submissions");
    checker_.equal(dones_.count(seq_), seq_, "distinct completed requests vs submissions");
    checker_.equal(tally(1), m.l1_hits, "L1 hits: benchmark tally vs EngineMetrics");
    checker_.equal(tally(2), m.l2_hits, "L2 hits: benchmark tally vs EngineMetrics");
    checker_.equal(tally(0), m.cache_misses, "misses: benchmark tally vs EngineMetrics");
  }

  /// Clears the cache-level tally (after warm-up, with the engine
  /// quiescent and its metrics reset at the same point).
  void reset_tally() {
    for (auto& s : shards_) {
      for (auto& l : s.level) l.store(0, std::memory_order_relaxed);
    }
  }

  /// Counts the cache level of a request submitted outside the driver
  /// (the publish probes), so the tally keeps matching the engine's.
  void count_level(const runtime::EngineResult& r) {
    if (r.decided()) shard().level[r.cache_level < 3 ? r.cache_level : 0].fetch_add(1);
  }

  std::uint64_t submitted() const { return seq_; }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s.failed.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t tally(int level) const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s.level[level].load(std::memory_order_relaxed);
    return n;
  }

  /// Checks every sampled explain trace still in the tracer's ring whose
  /// request the benchmark timed against the benchmark's own clock, and
  /// returns how many were checked. Collects the queue waits of the open
  /// loop's traces only, the phase the latency percentiles are taken in.
  std::size_t check_traces(const obs::DecisionTracer& tracer, const OpenResult& open,
                           std::vector<double>* queue_wait_us) {
    // Submit-to-callback time of each timed request, by trace id. In the
    // open loop it runs from the clock read just before submit() (`late`
    // after the due time) to the callback (`latency` after it).
    std::unordered_map<std::uint64_t, std::int64_t> closed_ns, open_ns;
    for (const auto& rec : records_) {
      if (rec.trace_id != 0 && rec.done_ns != 0) {
        closed_ns.emplace(rec.trace_id, rec.done_ns - rec.submit_ns);
      }
    }
    for (std::size_t i = 0; i < open_trace_ids_.size(); ++i) {
      if (open_trace_ids_[i] != 0 && open.latency_ns[i] >= 0) {
        open_ns.emplace(open_trace_ids_[i], open.latency_ns[i] - open.late_ns[i]);
      }
    }
    std::size_t checked = 0;
    for (const obs::Trace& t : tracer.traces()) {
      auto it = open_ns.find(t.trace_id);
      if (it != open_ns.end()) {
        for (std::uint32_t i = 0; i < t.span_count; ++i) {
          if (t.spans[i].kind == obs::SpanKind::kQueueWait) {
            queue_wait_us->push_back(static_cast<double>(t.spans[i].a) * 1e-3);
          }
        }
      } else if ((it = closed_ns.find(t.trace_id)) == closed_ns.end()) {
        continue;
      }
      checker_.nested(t.latency_ns(), static_cast<std::uint64_t>(it->second), t.trace_id);
      ++checked;
    }
    return checked;
  }

 private:
  static constexpr std::size_t kRecordRing = std::size_t{1} << 20;

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, 3> level{};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> done{0};
  };

  Shard& shard() {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned slot = next.fetch_add(1, std::memory_order_relaxed);
    return shards_[slot % shards_.size()];
  }

  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += s.done.load(std::memory_order_acquire);
    return n;
  }

  void drain() {
    const std::int64_t give_up = now_ns() + 60'000'000'000;
    while (completed() < seq_) {
      if (now_ns() > give_up) {
        checker_.reject("engine did not complete every submitted request within 60 s");
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void submit_closed(bool timed, std::int64_t* submit_total) {
    window_.acquire();
    const std::uint64_t seq = seq_++;
    dones_.ensure(seq);
    const std::uint64_t packed = seq | (floor_.load(std::memory_order_acquire) << kSeqBits);
    runtime::DecisionEngine::Callback cb = [this, packed](runtime::EngineResult res) {
      on_done(packed, std::move(res), false);
    };
    const core::RequestContext& req = in_.pool[in_.stream[seq % in_.stream.size()]];
    if (!timed) {
      engine_->submit(req, std::move(cb));
      return;
    }
    TraceRecord& rec = records_[seq % kRecordRing];
    rec = TraceRecord{};
    rec.submit_ns = now_ns();
    engine_->submit(req, std::move(cb));
    *submit_total += now_ns() - rec.submit_ns;
  }

  void on_done(std::uint64_t packed, runtime::EngineResult res, bool open) {
    const std::int64_t t = now_ns();
    const std::uint64_t seq = packed & kSeqMask;
    const std::uint64_t floor = packed >> kSeqBits;
    Shard& s = shard();
    if (!dones_.mark(seq)) checker_.reject("request completed twice");
    const std::uint32_t index = in_.stream[seq % in_.stream.size()];
    if (!res.decided() || res.decision.is_indeterminate()) {
      s.failed.fetch_add(1, std::memory_order_relaxed);
    } else {
      s.level[res.cache_level < 3 ? res.cache_level : 0].fetch_add(1, std::memory_order_relaxed);
      bool stamp_ok = true;
      if (config_.versioned) {
        stamp_ok = checker_.snapshot(res.snapshot_version, floor, fed_.first_version,
                                     fed_.publisher.current_version(), "engine decision");
      }
      if (stamp_ok) {
        const Expect want = oracle_(index, res.snapshot_version);
        checker_.decision(want, res.decision, "engine decision");
        if (config_.audited) {
          checker_.audit(want, res.decision, in_.audit_ids[index], in_.specs[index].subject,
                         "engine decision");
        }
        const std::size_t v = res.snapshot_version - fed_.first_version;
        if (v < first_served_.size()) {
          std::int64_t seen = first_served_[v].load(std::memory_order_relaxed);
          while ((seen == 0 || t < seen) &&
                 !first_served_[v].compare_exchange_weak(seen, t, std::memory_order_relaxed)) {
          }
        }
      }
    }
    if (open && open_latency_ != nullptr) {
      const std::uint64_t i = seq - open_base_;
      const std::int64_t due =
          open_start_ns_ + static_cast<std::int64_t>(static_cast<double>(i) * open_period_ns_);
      open_latency_[i] = t - due;
      if (config_.instrumented) open_trace_ids_[i] = res.trace_id;
    } else if (config_.instrumented) {
      TraceRecord& rec = records_[seq % kRecordRing];
      rec.trace_id = res.trace_id;
      rec.done_ns = t;
    }
    s.done.fetch_add(1, std::memory_order_release);
    if (!open) window_.release();
  }

  const Inputs& in_;
  Oracle oracle_;
  Federation& fed_;
  perfbench::Checker& checker_;
  Config config_;
  runtime::DecisionEngine* engine_ = nullptr;
  std::counting_semaphore<kInFlight> window_{kInFlight};
  std::uint64_t seq_ = 0;
  DoneBits dones_;
  std::array<Shard, 16> shards_{};
  std::atomic<std::uint64_t> floor_{0};
  std::vector<std::atomic<std::int64_t>> first_served_;
  std::vector<TraceRecord> records_;
  std::int64_t* open_latency_ = nullptr;
  std::vector<std::uint64_t> open_trace_ids_;  // trace id of each open-loop request
  std::uint64_t open_base_ = 0;
  std::int64_t open_start_ns_ = 0;
  double open_period_ns_ = 0;
};

runtime::EngineConfig engine_config(std::size_t workers, obs::DecisionTracer* tracer) {
  runtime::EngineConfig c;
  c.workers = workers;
  c.queue_capacity = 1 << 16;  // far above any backlog the offered rates build
  c.l1_capacity = 1024;
  c.tracer = tracer;
  return c;
}

cache::DecisionCache::TwoLevelConfig l2_config() { return {.capacity = 16384, .groups = 1}; }

/// Splits samples kept in send order into `windows` consecutive
/// windows, dropping negative (never completed) entries.
template <typename T>
std::vector<std::vector<T>> split_windows(const std::vector<T>& samples, int windows) {
  std::vector<std::vector<T>> out(static_cast<std::size_t>(windows));
  const std::size_t n = samples.size();
  for (int w = 0; w < windows; ++w) {
    for (std::size_t i = n * w / windows; i < n * (w + 1) / windows; ++i) {
      if (samples[i] >= 0) out[static_cast<std::size_t>(w)].push_back(samples[i]);
    }
  }
  return out;
}

/// p50 and p99 are taken in each window and the medians over windows
/// reported, so one stall of the host moves one window, not the run.
template <typename T>
void report_latency(std::vector<std::vector<T>> windows, Report& report, const std::string& label) {
  std::vector<double> p50, p99;
  std::size_t total = 0, past = 0;
  for (auto& lat : windows) {
    if (lat.empty()) continue;
    total += lat.size();
    past += perfbench::beyond(lat.size(), 0.99);
    p50.push_back(perfbench::quantile(lat, 0.50) * 1e-3);
    p99.push_back(perfbench::quantile(lat, 0.99) * 1e-3);
  }
  report.note(label + ": " + std::to_string(total) + " latency samples in " +
              std::to_string(p50.size()) + " windows, " + std::to_string(past) +
              " beyond the windows' p99; medians over windows: p50 " +
              perfbench::json_number(perfbench::median(p50)) + " us, p99 " +
              perfbench::json_number(perfbench::median(p99)) + " us");
  report.add("latency_p50_us", perfbench::median(p50), "us");
  report.add("latency_p99_us", perfbench::median(p99), "us");
}

/// With `paired`, `pts_ms` alternates issue and withdraw times, which
/// fall in two groups (an issue compiles and lints, a withdraw does not);
/// the median of all would sit on the edge between them, so the median
/// over consecutive pairs of the pair's mean is reported instead.
void report_publish_to_serve(const std::vector<double>& pts_ms, bool paired, Report& report) {
  std::string all;
  for (double v : pts_ms) all += " " + perfbench::json_number(v);
  report.note("publish-to-serve: " + std::to_string(pts_ms.size()) + " publications, ms:" + all);
  std::vector<double> values = pts_ms;
  if (paired) {
    values.clear();
    for (std::size_t i = 0; i + 1 < pts_ms.size(); i += 2) {
      values.push_back((pts_ms[i] + pts_ms[i + 1]) / 2);
    }
  }
  report.add("publish_to_serve_ms", perfbench::median(values), "ms");
}

// ---------------------------------------------------------------------
// Layer probes (traced runs): each layer's public calls, timed on the
// workload's own inputs
// ---------------------------------------------------------------------

template <typename F>
double median_ns_per_op(int passes, std::size_t ops, F&& pass) {
  std::vector<double> per;
  for (int p = 0; p < passes; ++p) {
    const std::int64_t t0 = now_ns();
    pass();
    per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(ops));
  }
  return perfbench::median(per);
}

void layer_probes(const Inputs& in, Federation& fed, const perfbench::Templates& templates,
                  const Oracle& oracle, Report& report) {
  const std::size_t n = std::min<std::size_t>(in.pool.size(), 16384);
  std::vector<cache::RequestKey> keys(n);
  std::uint64_t sink = 0;
  report.add("cache.fingerprint_ns", median_ns_per_op(5, n, [&] {
               for (std::size_t i = 0; i < n; ++i) keys[i] = cache::fingerprint(in.pool[i]);
               sink += keys[n - 1].lo;
             }),
             "ns");

  // Decisions to cache: the workload's own answers from a fresh PDP.
  auto snapshot = fed.publisher.current();
  core::Pdp pdp(snapshot->store());
  std::vector<core::Decision> decisions;
  decisions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) decisions.push_back(pdp.evaluate(in.pool[i]));
  const std::uint64_t version = snapshot->version();

  // The benchmark's own per-decision check, as the measured loops run it
  // (closed-form answer, decision, audit obligation): its share of
  // cpu_us_per_decision.
  report.add("perfbench.check_ns", median_ns_per_op(5, n, [&] {
               for (std::size_t i = 0; i < n; ++i) {
                 const auto index = static_cast<std::uint32_t>(i);
                 const Expect want = oracle(index, version);
                 if (report.checker.decision(want, decisions[i], "probe decision") &&
                     !in.audit_ids.empty()) {
                   report.checker.audit(want, decisions[i], in.audit_ids[i], in.specs[i].subject,
                                        "probe decision");
                 }
               }
             }),
             "ns");

  const std::size_t hot = std::min<std::size_t>(n, 1024);
  cache::WorkerL1Cache l1(1024);
  cache::DecisionCache l2(l2_config());
  for (std::size_t i = 0; i < hot; ++i) {
    l1.insert(keys[i], 1, decisions[i]);
    l2.insert(keys[i], 1, decisions[i]);
  }
  std::size_t l1_hits = 0, l2_hits = 0;
  report.add("cache.l1_lookup_ns", median_ns_per_op(5, hot, [&] {
               for (std::size_t i = 0; i < hot; ++i) l1_hits += l1.lookup(keys[i], 1) != nullptr;
             }),
             "ns");
  report.add("cache.l2_lookup_ns", median_ns_per_op(5, hot, [&] {
               for (std::size_t i = 0; i < hot; ++i) l2_hits += l2.lookup(keys[i], 1).has_value();
             }),
             "ns");
  if (l1_hits != 5 * hot) report.checker.reject("L1 probe: a filled key missed");
  report.note("layer probe: L2 served " + std::to_string(l2_hits) + " of " +
              std::to_string(5 * hot) + " lookups of filled keys");

  {
    std::vector<double> per;
    for (int p = 0; p < 5; ++p) {
      common::WallClock clock;
      cache::DecisionCache pep_cache(clock, 60'000, 4096, 8);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        if (!pep_cache.lookup(keys[i])) pep_cache.insert(keys[i], decisions[i]);
      }
      per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
    }
    report.add("cache.pep_miss_ns", perfbench::median(per), "ns");
  }

  {
    core::Pdp batch_pdp(snapshot->store());
    double candidates = 0, partitions = 0;
    std::size_t wrong = 0;
    const std::size_t top_level = snapshot->store()->size();
    auto run = [&](bool tally) {
      for (std::size_t at = 0; at < n; at += 32) {
        const std::size_t len = std::min<std::size_t>(32, n - at);
        auto results = batch_pdp.evaluate_batch(std::span(in.pool.data() + at, len));
        if (!tally) continue;
        for (std::size_t j = 0; j < len; ++j) {
          candidates += static_cast<double>(top_level - results[j].candidates_skipped);
          partitions += static_cast<double>(results[j].partitions_probed);
          if (!perfbench::matches(oracle(static_cast<std::uint32_t>(at + j), version),
                                  results[j].decision.type)) {
            ++wrong;
          }
        }
      }
    };
    run(true);
    report.add("core.evaluate_ns", median_ns_per_op(5, n, [&] { run(false); }), "ns");
    report.add("core.candidates_per_request", candidates / static_cast<double>(n), "count");
    report.add("core.partitions_per_request", partitions / static_cast<double>(n), "count");
    if (wrong != 0) {
      report.checker.reject("evaluate_batch probe: " + std::to_string(wrong) +
                            " decisions differ from the closed-form answer");
    }
  }

  {
    core::Pdp src_pdp(snapshot->store());
    std::int64_t source_ns = 0;
    pep::EnforcementPoint gate([&](const core::RequestContext& r) {
      const std::int64_t t0 = now_ns();
      core::Decision d = src_pdp.evaluate(r);
      source_ns += now_ns() - t0;
      return d;
    });
    for (const auto& id : in.audit_ids) gate.register_obligation_handler(id, pep::obligations::no_op());
    std::vector<double> per;
    for (int p = 0; p < 6; ++p) {
      source_ns = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) sink += gate.enforce(in.pool[i]).allowed;
      const std::int64_t total = now_ns() - t0;
      if (p > 0) per.push_back(static_cast<double>(total - source_ns) / static_cast<double>(n));
    }
    report.add("pep.enforce_overhead_ns", perfbench::median(per), "ns");
  }

  {
    // PAP issue (compile + lint, with the workload's own PapConfig) of a
    // grant no request names, withdrawn again after each timing.
    std::vector<double> issue_ms;
    for (int k = 0; k < 9; ++k) {
      const auto doc = probe_grant(templates, k);
      pap::RepoOutcome out = fed.repo->submit(doc.xml, kAdmin);
      const std::int64_t t0 = now_ns();
      if (out) out = fed.repo->issue(doc.id, kAdmin);
      issue_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (out) out = fed.repo->withdraw(doc.id, kAdmin);
      if (!out) report.checker.reject("PAP probe failed: " + out.reason);
    }
    report.add("pap.issue_ms", perfbench::median(issue_ms), "ms");
  }

  {
    std::vector<double> analyse_ms;
    const std::int64_t budget_end = now_ns() + 3'000'000'000;
    for (int k = 0; k < 5 && (k == 0 || now_ns() < budget_end); ++k) {
      const std::int64_t t0 = now_ns();
      const analysis::AnalysisReport r = analysis::analyse_store(*snapshot->store());
      analyse_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      sink += r.findings.size();
    }
    report.add("analysis.analyse_ms", perfbench::median(analyse_ms), "ms");
  }

  {
    std::vector<double> publish_ms, adopt_ms;
    for (int k = 0; k < 9; ++k) {
      const std::int64_t t0 = now_ns();
      auto snap = fed.publisher.publish_from(*fed.repo);
      const std::int64_t t1 = now_ns();
      core::Pdp fresh(snap->store());
      const core::Decision d = fresh.evaluate(in.pool[static_cast<std::size_t>(k) % n]);
      const std::int64_t t2 = now_ns();
      sink += static_cast<std::uint64_t>(d.type);
      publish_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      adopt_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    }
    report.add("runtime.publish_ms", perfbench::median(publish_ms), "ms");
    report.add("runtime.adoption_first_eval_ms", perfbench::median(adopt_ms), "ms");
  }
  if (sink == 0x5eed) report.note("");  // keeps the probed calls observable
}

// ---------------------------------------------------------------------
// Engine workloads: engine_hot and policy_churn
// ---------------------------------------------------------------------

struct EngineWorkload {
  Federation* fed = nullptr;
  Inputs in;
  Oracle oracle;
  std::size_t workers = 1;
  double open_rate = 0;
  bool versioned = false;
  bool audited = false;
  // policy_churn
  const perfbench::ChurnPlan* plan = nullptr;
  std::vector<perfbench::PolicyDocument> plan_docs;
  double cadence_s = 0;
};

/// The administrator: one mutation every `cadence_s` through
/// RepositoryPublisher until `stop`, recording when each started.
struct Admin {
  std::vector<std::int64_t> started;
  std::vector<double> issue_ms;
  std::thread thread;

  void start(EngineWorkload& w, EngineDriver& driver, perfbench::Checker& checker,
             std::atomic<bool>& stop) {
    started.assign(w.plan->steps.size(), 0);
    issue_ms.assign(w.plan->steps.size(), 0);
    thread = std::thread([&w, &driver, &checker, &stop, this] {
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < w.plan->steps.size(); ++k) {
        const std::int64_t due = t0 + static_cast<std::int64_t>(static_cast<double>(k + 1) * w.cadence_s * 1e9);
        while (now_ns() < due && !stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (stop.load(std::memory_order_relaxed)) return;
        const perfbench::MutationStep& step = w.plan->steps[k];
        const std::string id = perfbench::churn_grant_id(step.domain, step.role);
        const std::int64_t t = now_ns();
        pap::RepoOutcome out;
        if (step.op == perfbench::Mutation::kWithdraw) {
          out = w.fed->admin->withdraw(id, kAdmin);
        } else {
          out = w.fed->admin->submit(w.plan_docs[k].xml, kAdmin);
          if (out) out = w.fed->admin->issue(id, kAdmin);
        }
        issue_ms[k] = static_cast<double>(now_ns() - t) * 1e-6;
        started[k] = t;
        const std::uint64_t version = w.fed->publisher.current_version();
        if (!out) {
          checker.reject(std::string("mutation ") + perfbench::to_string(step.op) + " " + id +
                         " failed: " + out.reason);
        }
        checker.equal(version, w.fed->first_version + k + 1, "snapshot version after mutation");
        driver.floor().store(version, std::memory_order_release);
      }
    });
  }
  void join() {
    if (thread.joinable()) thread.join();
  }
};

void run_engine(EngineWorkload& w, const Options& opt, const perfbench::Templates& templates,
                Report& report) {
  const bool churn = w.plan != nullptr;
  EngineDriver::Config dc;
  dc.instrumented = opt.trace;
  dc.versioned = w.versioned;
  dc.audited = w.audited;

  double closed_s = opt.seconds * 0.4;
  double open_s = opt.seconds * 0.6;
  std::optional<ClosedResult> untraced;
  std::unique_ptr<obs::DecisionTracer> tracer;

  if (opt.trace) {
    // The tracing-off reference for obs.tracing_overhead: the same
    // closed loop, with the same instruments, on an engine without a
    // tracer, so the tracer is the only difference between the two.
    closed_s = opt.seconds * 0.3;
    open_s = opt.seconds * 0.4;
    EngineDriver ref(w.in, w.oracle, *w.fed, report.checker,
                     {.instrumented = true, .versioned = false, .audited = w.audited});
    if (churn) ref.floor().store(w.fed->publisher.current_version());
    cache::DecisionCache cache(l2_config());
    runtime::DecisionEngine engine(w.fed->publisher, engine_config(w.workers, nullptr), &cache);
    ref.attach(&engine);
    ref.warm(w.in.specs.size());
    untraced = ref.closed(closed_s, kWindows);
    engine.shutdown();
    report.attempted += ref.submitted();
    report.failed += ref.failed();
    tracer = std::make_unique<obs::DecisionTracer>(
        obs::ObsConfig{.sample_every_n = 64, .always_sample_anomalies = true, .ring_capacity = 8192});
  }

  EngineDriver driver(w.in, w.oracle, *w.fed, report.checker, dc);
  driver.floor().store(w.fed->publisher.current_version());
  if (churn) driver.track_versions(w.plan->steps.size() + 2);
  cache::DecisionCache cache(l2_config());
  runtime::DecisionEngine engine(w.fed->publisher, engine_config(w.workers, tracer.get()), &cache);
  driver.attach(&engine);
  driver.warm(w.in.specs.size());
  const std::int64_t setup_end = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));  // workers park after the last callback
  engine.reset_metrics();
  driver.reset_tally();
  if (!opt.trace) {
    report.add("setup_s",
               static_cast<double>(setup_end - g_process_start_ns - report.own_ns) * 1e-9, "s");
  }

  std::atomic<bool> stop{false};
  Admin admin;
  if (churn) admin.start(w, driver, report.checker, stop);
  const ClosedResult closed = driver.closed(closed_s, kWindows);
  OpenResult open = driver.open(open_s, w.open_rate);
  stop.store(true);
  admin.join();

  // Quiescent publish-to-serve on the workloads without churn: issue or
  // withdraw a grant no request names, then time the first decision
  // stamped with the new version.
  std::vector<double> pts_ms;
  if (churn) {
    for (std::size_t k = 0; k < admin.started.size(); ++k) {
      const std::size_t v = k + 1;
      if (admin.started[k] == 0 || admin.started[k] < open.start_ns) continue;
      const std::int64_t served = driver.first_served()[v].load();
      if (served > admin.started[k]) {
        pts_ms.push_back(static_cast<double>(served - admin.started[k]) * 1e-6);
      }
    }
  } else {
    // The traffic has ended (a publication during it would flush the
    // cache the workload measures): the publishing thread takes a core of
    // its own. The probes run back to back; each waits for its decision,
    // so the workers are idle when the next one publishes. (With a 20 ms
    // pause before each, their times were longer and varied more.)
    pin_this_thread(host_cores() - 1);
    for (int k = 0; k < kPublishProbes; ++k) {
      const auto doc = probe_grant(templates, k);
      const std::int64_t t0 = now_ns();
      pap::RepoOutcome out = k % 2 == 0 ? w.fed->admin->submit(doc.xml, kAdmin) : pap::RepoOutcome{};
      if (out) out = k % 2 == 0 ? w.fed->admin->issue(doc.id, kAdmin) : w.fed->admin->withdraw(doc.id, kAdmin);
      if (!out) report.checker.reject("probe mutation failed: " + out.reason);
      const std::uint64_t published = w.fed->publisher.current_version();
      const runtime::EngineResult r = engine.submit(w.in.pool[w.in.stream[0]]).get();
      pts_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      driver.count_level(r);
      report.attempted += 1;
      if (!r.decided() || r.decision.is_indeterminate()) {
        report.failed += 1;
        continue;
      }
      report.checker.snapshot(r.snapshot_version, published, w.fed->first_version, published,
                              "publish probe decision");
      report.checker.decision(w.oracle(w.in.stream[0], r.snapshot_version), r.decision,
                              "publish probe decision");
    }
  }
  engine.shutdown();
  const runtime::EngineMetrics::Snapshot m = engine.metrics();
  driver.finish(m);
  report.attempted += driver.submitted();
  report.failed += driver.failed();

  const double decisions = static_cast<double>(closed.decisions);
  const double cpu_us = closed.cpu_s * 1e6 / decisions;
  report.note("closed loop: " + std::to_string(closed.decisions) + " decisions in " +
              perfbench::json_number(closed.seconds) + " s, " + std::to_string(w.workers) +
              " workers, " + std::to_string(kInFlight) + " in flight");
  report.note("open loop: " + perfbench::json_number(w.open_rate) + " requests/s for " +
              perfbench::json_number(open_s) + " s");
  if (churn) {
    report.note("mutations: " + std::to_string(std::count_if(admin.started.begin(), admin.started.end(),
                                                             [](std::int64_t t) { return t != 0; })) +
                " applied, " + std::to_string(pts_ms.size()) + " timed in the open loop");
  }

  if (!opt.trace) {
    report.add("decisions_per_s", perfbench::median(closed.window_rate), "decisions/s");
    report.add("cpu_us_per_decision", perfbench::median(closed.window_cpu_us), "us");
    report_latency(split_windows(open.latency_ns, kWindows), report, "open loop");
    report_publish_to_serve(pts_ms, !churn, report);
    report.add("peak_rss_mb", perfbench::Usage::now().max_rss_mb, "MB");
    return;
  }

  // ---- per-layer metrics (traced run) ----
  // submit(), allocation and CPU figures from the tracing-off reference
  // loop; the cache and batch figures from the traced engine.
  const double served = static_cast<double>(m.l1_hits + m.l2_hits + m.cache_misses);
  const double untraced_us = untraced->cpu_s * 1e6 / static_cast<double>(untraced->decisions);
  report.add("runtime.submit_ns", untraced->submit_ns, "ns");
  std::vector<double> queue_wait_us;
  const std::size_t checked = driver.check_traces(*tracer, open, &queue_wait_us);
  report.note("traced: " + std::to_string(tracer->sampled_total()) + " sampled, " +
              std::to_string(checked) + " traces checked against the benchmark's clock, " +
              std::to_string(queue_wait_us.size()) + " open-loop queue-wait spans");
  if (checked == 0) report.checker.reject("no sampled trace could be matched to its request");
  report.add("runtime.queue_wait_us", perfbench::quantile(queue_wait_us, 0.5), "us");
  report.add("runtime.queue_wait_p99_us", perfbench::quantile(queue_wait_us, 0.99), "us");
  report.add("runtime.batch_size_mean", m.mean_batch_size, "count");
  report.add("runtime.allocs_per_decision",
             static_cast<double>(untraced->allocs) / static_cast<double>(untraced->decisions), "count");
  report.add("runtime.sys_cpu_share", untraced->cpu_s > 0 ? untraced->sys_s / untraced->cpu_s : 0,
             "share");
  report.add("runtime.cpu_s", untraced->cpu_s, "s");
  report.add("cache.decisions", served, "count");
  report.add("cache.l1_hit_share", static_cast<double>(m.l1_hits) / served, "share");
  report.add("cache.l2_hit_share", static_cast<double>(m.l2_hits) / served, "share");
  report.add("cache.miss_share", static_cast<double>(m.cache_misses) / served, "share");
  report.add("cache.l2_read_retries_per_decision", static_cast<double>(m.l2_read_retries) / served,
             "count");
  report.add("cache.version_evictions", static_cast<double>(m.version_evictions), "count");
  report.add("obs.cpu_us_untraced", untraced_us, "us");
  report.add("obs.cpu_us_traced", cpu_us, "us");
  report.add("obs.tracing_overhead", cpu_us / untraced_us, "ratio");
  report.add("obs.traces_checked", static_cast<double>(checked), "count");
  std::vector<std::int64_t> late = open.late_ns;
  report.add("loadgen.late_us", perfbench::quantile(late, 0.99) * 1e-3, "us");
}

// ---------------------------------------------------------------------
// pep_settree: embedded PEPs, one PDP per client thread
// ---------------------------------------------------------------------

/// Each client keeps a uniform sample (reservoir) of its enforce()
/// latencies per window, so memory does not grow with throughput.
constexpr std::size_t kReservoir = 32768;

struct PepThread {
  std::vector<std::vector<std::uint32_t>> reservoir;  // per window
  std::vector<std::uint64_t> seen;                    // latencies offered per window
  std::vector<std::uint64_t> window_end;              // enforcements by the end of each window
  std::uint64_t enforced = 0;
  std::uint64_t permits = 0;
  std::uint64_t handler_calls = 0;
  std::uint64_t failed = 0;
  std::int64_t ended_ns = 0;
};

struct PepRun {
  std::vector<PepThread> threads;
  double seconds = 0;
  double cpu_s = 0;
  std::vector<double> window_rate;    // enforcements/s per window
  std::vector<double> window_cpu_us;  // CPU us per enforcement per window

  std::vector<std::vector<std::uint32_t>> latency_windows() const {
    std::vector<std::vector<std::uint32_t>> out(static_cast<std::size_t>(kWindows));
    for (const auto& t : threads) {
      for (std::size_t w = 0; w < t.reservoir.size(); ++w) {
        const auto n = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(t.seen[w], kReservoir));
        out[w].insert(out[w].end(), t.reservoir[w].begin(), t.reservoir[w].begin() + n);
      }
    }
    return out;
  }
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.enforced;
    return n;
  }
};

/// Runs `clients` threads for `seconds`, each enforcing its own slice of
/// the request pool through its own PEP + PDP and the shared PEP-side
/// cache. Returns once every thread has joined; `ready` is called after
/// every thread has built and warmed its PDP (the end of set-up), and
/// `each_window` at the start of every window on the thread that keeps
/// the windows, whose CPU time in it is left out of the window's.
PepRun run_peps(const Inputs& in, const perfbench::SetTreeShape& shape, Federation& fed,
                std::size_t clients, double seconds, obs::DecisionTracer* tracer, Report& report,
                const std::function<void()>& ready, const std::function<void()>& each_window) {
  perfbench::Checker& checker = report.checker;
  PepRun run;
  run.threads.resize(clients);
  // The latency samples' memory, touched now: the benchmark's own, so
  // timed and left out of setup_s.
  const std::int64_t samples_t0 = now_ns();
  for (PepThread& t : run.threads) {
    t.reservoir.assign(kWindows, std::vector<std::uint32_t>(kReservoir, 0));
    t.seen.assign(kWindows, 0);
    t.window_end.assign(kWindows, 0);
  }
  report.own_ns += now_ns() - samples_t0;
  common::WallClock clock;
  cache::DecisionCache shared_cache(clock, 60'000, 4096, 8);
  const std::size_t slice = in.pool.size() / clients;
  std::atomic<std::size_t> warmed{0};
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> start_ns{0};
  auto snapshot = fed.publisher.current();

  pin_this_thread(host_cores() - 1);  // the run's clock, asleep between window boundaries
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pin_this_thread(c);
      PepThread& me = run.threads[c];
      core::Pdp pdp(snapshot->store());
      pep::EnforcementPoint gate([&](const core::RequestContext& r) { return pdp.evaluate(r); });
      gate.set_cache(&shared_cache);
      gate.set_tracer(tracer);
      const perfbench::RequestSpec* current = nullptr;
      for (int d = 0; d < shape.domains; ++d) {
        for (int s = 0; s < shape.services; ++s) {
          for (int r = 0; r < shape.roles; ++r) {
            gate.register_obligation_handler(
                shape.leaf_id(d, s, r) + ":audit", [&](const core::ObligationInstance& ob) {
                  ++me.handler_calls;
                  if (ob.assignments.empty() || !ob.assignments[0].second.is_string() ||
                      ob.assignments[0].second.as_string() != current->subject) {
                    checker.reject("obligation handler: audit does not name the requester");
                  }
                  return true;
                });
          }
        }
      }
      const std::size_t lo = c * slice;
      // Warm-up: build the PDP's index on this thread (lazy on first use).
      for (std::size_t i = 0; i < 64; ++i) (void)pdp.evaluate(in.pool[lo + i]);
      std::mt19937_64 pick(c + 1);
      warmed.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::int64_t start = start_ns.load(std::memory_order_relaxed);
      const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
      std::size_t i = 0;
      std::size_t window = 0;
      while (true) {
        for (int b = 0; b < 16; ++b, ++i) {
          const std::size_t index = lo + i % slice;
          const perfbench::RequestSpec& spec = in.specs[index];
          current = &spec;
          const std::int64_t t0 = now_ns();
          const pep::Enforcement e = gate.enforce(in.pool[index]);
          const std::int64_t t1 = now_ns();
          const std::uint64_t n = me.seen[window]++;
          const std::uint64_t slot = n < kReservoir ? n : pick() % (n + 1);
          if (slot < kReservoir) me.reservoir[window][slot] = static_cast<std::uint32_t>(t1 - t0);
          ++me.enforced;
          if (e.decision.is_indeterminate()) {
            ++me.failed;
            continue;
          }
          const Expect want = shape.expect(spec);
          if (want == Expect::kPermit) ++me.permits;
          if (checker.decision(want, e.decision, "pep decision")) {
            checker.audit(want, e.decision, in.audit_ids[index], spec.subject, "pep decision");
            checker.enforcement(want, e, "pep enforcement");
          }
        }
        const std::int64_t t = now_ns();
        const auto in_window = static_cast<std::size_t>(
            std::min<std::int64_t>(kWindows, (t - start) * kWindows / (end - start)));
        if (t >= end) break;
        for (; window < in_window; ++window) me.window_end[window] = me.enforced;
      }
      for (; window < static_cast<std::size_t>(kWindows); ++window) me.window_end[window] = me.enforced;
      me.ended_ns = now_ns();
    });
  }
  while (warmed.load() < clients) std::this_thread::yield();
  ready();
  const perfbench::Usage u0 = perfbench::Usage::now();
  const std::int64_t t0 = now_ns();
  start_ns.store(t0);
  go.store(true, std::memory_order_release);
  // CPU per window: read at the window boundaries the clients also use.
  std::vector<perfbench::Usage> at_boundary{u0};
  std::vector<double> own_cpu_s;
  for (int w = 1; w <= kWindows; ++w) {
    const perfbench::Usage before = perfbench::Usage::now(RUSAGE_THREAD);
    each_window();
    own_cpu_s.push_back(perfbench::Usage::now(RUSAGE_THREAD).cpu_s() - before.cpu_s());
    const std::int64_t boundary = t0 + static_cast<std::int64_t>(seconds * 1e9 * w / kWindows);
    while (now_ns() < boundary) std::this_thread::sleep_for(std::chrono::microseconds(100));
    at_boundary.push_back(perfbench::Usage::now());
  }
  for (auto& t : threads) t.join();
  unpin_this_thread();
  for (std::size_t w = 0; w < static_cast<std::size_t>(kWindows); ++w) {
    std::size_t done = 0;
    for (const auto& t : run.threads) done += t.window_end[w] - (w == 0 ? 0 : t.window_end[w - 1]);
    if (done == 0) continue;
    run.window_rate.push_back(static_cast<double>(done) / (seconds / kWindows));
    run.window_cpu_us.push_back((at_boundary[w + 1].cpu_s() - at_boundary[w].cpu_s() - own_cpu_s[w]) *
                                1e6 / static_cast<double>(done));
  }
  const perfbench::Usage u1 = perfbench::Usage::now();
  std::int64_t last = t0;
  for (const auto& t : run.threads) last = std::max(last, t.ended_ns);
  run.seconds = static_cast<double>(last - t0) * 1e-9;
  run.cpu_s = u1.cpu_s() - u0.cpu_s();
  for (const auto& t : run.threads) {
    checker.equal(t.handler_calls, t.permits, "obligation handler calls vs permits");
  }
  return run;
}

void run_pep_settree(const Options& opt, const perfbench::Templates& templates, Report& report) {
  const perfbench::SetTreeShape shape;
  const std::size_t clients = std::max<std::size_t>(1, std::min<std::size_t>(3, host_cores() - 1));
  std::mt19937_64 rng(opt.seed);

  std::int64_t t0 = now_ns();
  const auto docs = shape.documents(templates);
  Inputs in;
  // Every request is distinct (its own subject), so the PEP-side cache
  // almost never hits: the stream cycles over 16384 requests per client.
  constexpr std::size_t kPerClient = 16384;
  std::uniform_int_distribution<int> domain(0, shape.domains - 1), service(0, shape.services - 1),
      granted_role(0, shape.roles - 1), other_role(shape.roles, shape.roles + 3);
  std::bernoulli_distribution unassigned(0.2), write(0.4);
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t i = 0; i < kPerClient; ++i) {
      perfbench::RequestSpec s;
      s.domain = domain(rng);
      s.service = service(rng);
      s.role = unassigned(rng) ? other_role(rng) : granted_role(rng);
      s.action = write(rng) ? 1 : 0;
      s.subject = "user-" + std::to_string(c) + "-" + std::to_string(i);
      in.audit_ids.push_back(shape.audit_id(s));
      in.specs.push_back(std::move(s));
    }
  }
  for (std::uint32_t i = 0; i < in.specs.size(); ++i) in.stream.push_back(i);
  report.own_ns += now_ns() - t0;

  Federation fed;
  if (!fed.load(docs, pap::PapConfig{}, report)) return;
  in.build_pool(report);
  auto oracle = [&](std::uint32_t index, std::uint64_t) { return shape.expect(in.specs[index]); };

  std::unique_ptr<obs::DecisionTracer> tracer;
  std::optional<PepRun> untraced;
  double seconds = opt.seconds;
  if (opt.trace) {
    untraced = run_peps(in, shape, fed, clients, opt.seconds * 0.25, nullptr, report, [] {}, [] {});
    report.attempted += untraced->total();
    tracer = std::make_unique<obs::DecisionTracer>(
        obs::ObsConfig{.sample_every_n = 64, .always_sample_anomalies = true, .ring_capacity = 8192});
    seconds = opt.seconds * 0.25;
  }
  // Embedded publish-to-serve, on the untraced run: at the start of each
  // window, issue and then withdraw a grant no request names, each time
  // adopting the new snapshot in a fresh PDP and enforcing. The probes
  // run on the core the clients leave free, spread over the whole run, so
  // a short stall of the host moves few of them.
  std::vector<double> pts_ms;
  auto publish_probes = [&] {
    for (int k = 0; k < 2; ++k) {
      const auto doc = probe_grant(templates, k);
      const std::int64_t s0 = now_ns();
      pap::RepoOutcome out = k == 0 ? fed.admin->submit(doc.xml, kAdmin) : pap::RepoOutcome{};
      if (out) out = k == 0 ? fed.admin->issue(doc.id, kAdmin) : fed.admin->withdraw(doc.id, kAdmin);
      if (!out) report.checker.reject("probe mutation failed: " + out.reason);
      core::Pdp fresh(fed.publisher.current()->store());
      pep::EnforcementPoint gate([&](const core::RequestContext& r) { return fresh.evaluate(r); });
      gate.register_obligation_handler(in.audit_ids[0], pep::obligations::no_op());
      const pep::Enforcement e = gate.enforce(in.pool[0]);
      pts_ms.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
      report.attempted += 1;
      report.checker.decision(oracle(0, 0), e.decision, "publish probe decision");
    }
  };
  PepRun run = run_peps(
      in, shape, fed, clients, seconds, tracer.get(), report,
      [&] {
        if (!opt.trace) {
          report.add("setup_s",
                     static_cast<double>(now_ns() - g_process_start_ns - report.own_ns) * 1e-9, "s");
        }
      },
      [&] {
        if (!opt.trace) publish_probes();
      });
  report.attempted += run.total();
  for (const auto& t : run.threads) report.failed += t.failed;
  const double total = static_cast<double>(run.total());
  const double cpu_us = run.cpu_s * 1e6 / total;
  report.note("pep_settree: " + std::to_string(clients) + " client threads, " +
              std::to_string(run.total()) + " enforcements in " + perfbench::json_number(run.seconds) +
              " s over " + std::to_string(docs.size()) + " set trees (" +
              std::to_string(shape.domains * shape.services * shape.roles) + " leaf policies)");

  if (!opt.trace) {
    report.add("decisions_per_s", perfbench::median(run.window_rate), "decisions/s");
    report.add("cpu_us_per_decision", perfbench::median(run.window_cpu_us), "us");
    report_latency(run.latency_windows(), report, "enforce()");
    report_publish_to_serve(pts_ms, true, report);
    report.add("peak_rss_mb", perfbench::Usage::now().max_rss_mb, "MB");
    return;
  }

  // Traced: the PEP layers from the run, then the engine layers over the
  // same requests, then the layer probes.
  const double untraced_us = untraced->cpu_s * 1e6 / static_cast<double>(untraced->total());
  report.add("obs.cpu_us_untraced", untraced_us, "us");
  report.add("obs.cpu_us_traced", cpu_us, "us");
  report.add("obs.tracing_overhead", cpu_us / untraced_us, "ratio");
  report.note("traced PEP run: " + std::to_string(tracer->sampled_total()) + " sampled of " +
              std::to_string(tracer->admitted_total()) + " admitted");

  EngineWorkload ew;
  ew.fed = &fed;
  ew.in = in;
  ew.workers = std::max<std::size_t>(1, std::min<std::size_t>(2, host_cores() - 2));
  ew.open_rate = 20'000;
  ew.audited = true;
  ew.oracle = oracle;
  Options engine_opt = opt;
  engine_opt.seconds = opt.seconds * 0.4;
  // obs.* from the PEP run above take precedence: drop the engine pass's.
  Report engine_report;
  run_engine(ew, engine_opt, templates, engine_report);
  for (const auto& msg : engine_report.checker.messages()) report.checker.reject(msg);
  report.attempted += engine_report.attempted;
  report.failed += engine_report.failed;
  for (const auto& mtr : engine_report.metrics) {
    if (mtr.name.rfind("obs.", 0) == 0 && mtr.name != "obs.traces_checked") continue;
    report.metrics.push_back(mtr);
  }
  layer_probes(in, fed, templates, oracle, report);
}

// ---------------------------------------------------------------------
// Workload set-ups
// ---------------------------------------------------------------------

void run_engine_hot(const Options& opt, const perfbench::Templates& templates, Report& report) {
  constexpr int kDomains = 8, kRoles = 16, kCopies = 4;  // 8 x 16 x 4 = 512 policies
  constexpr std::size_t kKeys = 16384;
  std::mt19937_64 rng(opt.seed);

  std::int64_t t0 = now_ns();
  perfbench::GrantTable table(kDomains, kRoles);
  std::vector<perfbench::PolicyDocument> docs;
  for (int d = 0; d < kDomains; ++d) {
    for (int r = 0; r < kRoles; ++r) {
      table.at(d, r) = 0;  // read
      for (int k = 0; k < kCopies; ++k) {
        docs.push_back(perfbench::grant_document(
            templates, perfbench::GrantForm::kAnyOfs, "hot:" + perfbench::domain_name(d) + ":" + perfbench::role_name(r) + ":" +
                           std::to_string(k),
            d, r, 0));
      }
    }
  }
  Federation fed;
  EngineWorkload w;
  w.fed = &fed;
  // Key mix by popularity rank: one rank in 12 names a role with no
  // grant (NotApplicable); of the rest, three ranks in 10 write (Deny)
  // and the others read (Permit).
  std::uniform_int_distribution<int> domain(0, kDomains - 1), granted_role(0, kRoles - 1),
      other_role(kRoles, kRoles + 7);
  for (std::size_t k = 0; k < kKeys; ++k) {
    perfbench::RequestSpec s;
    s.domain = domain(rng);
    s.role = k % 12 == 7 ? other_role(rng) : granted_role(rng);
    s.action = k % 10 == 2 || k % 10 == 5 || k % 10 == 9 ? 1 : 0;
    s.subject = "user-" + std::to_string(k);
    w.in.specs.push_back(std::move(s));
  }
  w.in.stream = perfbench::zipf_stream(rng, kKeys, 1.0, std::size_t{1} << 20);
  report.own_ns += now_ns() - t0;

  // Bulk boot load of 512 policies: lint on issue is off here (its cost
  // grows with the issued set; policy_churn measures it).
  pap::PapConfig config;
  config.lint_on_issue = false;
  if (!w.fed->load(docs, config, report)) return;
  w.in.build_pool(report);
  w.oracle = [&w, table](std::uint32_t index, std::uint64_t) { return table.expect(w.in.specs[index]); };
  // 2 workers + the sender leave one core of 4 for everything else on
  // the host: with all 4 busy, host noise put millisecond stalls into p99.
  w.workers = std::max<std::size_t>(1, std::min<std::size_t>(2, host_cores() - 2));
  w.open_rate = 30'000;
  run_engine(w, opt, templates, report);
  if (opt.trace) {
    layer_probes(w.in, *w.fed, templates, w.oracle, report);
  }
}

void run_policy_churn(const Options& opt, const perfbench::Templates& templates, Report& report) {
  constexpr int kDomains = 8, kRoles = 12;  // 96 grant slots, 72 issued
  constexpr std::size_t kKeys = 4096;
  constexpr double kCadence = 0.1;  // one mutation per 100 ms
  // Hand-written XACML: one AllOf with both Matches (see GrantForm).
  constexpr perfbench::GrantForm kForm = perfbench::GrantForm::kAllOf;
  std::mt19937_64 rng(opt.seed);

  std::int64_t t0 = now_ns();
  const std::size_t steps = static_cast<std::size_t>(opt.seconds / kCadence) + 2;
  const perfbench::ChurnPlan plan = perfbench::ChurnPlan::make(rng, kDomains, kRoles, 72, steps);
  std::vector<perfbench::PolicyDocument> docs;
  for (int d = 0; d < kDomains; ++d) {
    for (int r = 0; r < kRoles; ++r) {
      if (plan.initial.at(d, r) >= 0) {
        docs.push_back(perfbench::grant_document(templates, kForm, perfbench::churn_grant_id(d, r), d, r,
                                                 plan.initial.at(d, r)));
      }
    }
  }
  Federation fed;
  EngineWorkload w;
  w.fed = &fed;
  w.plan = &plan;
  w.cadence_s = kCadence;
  for (const auto& step : plan.steps) {
    w.plan_docs.push_back(step.op == perfbench::Mutation::kWithdraw
                              ? perfbench::PolicyDocument{}
                              : perfbench::grant_document(templates, kForm,
                                                          perfbench::churn_grant_id(step.domain, step.role),
                                                          step.domain, step.role, step.action));
  }
  std::uniform_int_distribution<int> domain(0, kDomains - 1), role(0, kRoles - 1), action(0, 1);
  for (std::size_t k = 0; k < kKeys; ++k) {
    perfbench::RequestSpec s;
    s.domain = domain(rng);
    s.role = role(rng);
    s.action = action(rng);
    s.subject = "user-" + std::to_string(k);
    w.in.specs.push_back(std::move(s));
  }
  w.in.stream = perfbench::uniform_stream(rng, kKeys, std::size_t{1} << 20);
  report.own_ns += now_ns() - t0;

  if (!w.fed->load(docs, pap::PapConfig{}, report)) return;  // lint on issue, as configured by default
  w.in.build_pool(report);
  w.oracle = [&w](std::uint32_t index, std::uint64_t version) {
    const std::uint64_t k = version - w.fed->first_version;
    const perfbench::GrantTable& t = k == 0 ? w.plan->initial : w.plan->after[k - 1];
    return t.expect(w.in.specs[index]);
  };
  w.versioned = true;
  w.workers = std::max<std::size_t>(1, std::min<std::size_t>(2, host_cores() - 2));
  w.open_rate = 20'000;
  report.note("policy_churn: " + std::to_string(docs.size()) + " initial grants of " +
              std::to_string(kDomains * kRoles) + " slots, one mutation per " +
              perfbench::json_number(kCadence * 1e3) + " ms");
  run_engine(w, opt, templates, report);
  if (opt.trace) {
    layer_probes(w.in, *w.fed, templates, w.oracle, report);
  }
}

int usage() {
  std::cerr << "usage: mdac_perfbench --workload <engine_hot|pep_settree|policy_churn> "
               "--seed <n> --seconds <s> --trace <0|1> --policies <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    try {
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = value == "1";
      else if (key == "--policies") opt.policies = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.policies.empty() || opt.seconds <= 0) return usage();

  Report report;
  try {
    const auto templates = perfbench::Templates::load(opt.policies);
    if (opt.workload == "engine_hot") run_engine_hot(opt, templates, report);
    else if (opt.workload == "pep_settree") run_pep_settree(opt, templates, report);
    else if (opt.workload == "policy_churn") run_policy_churn(opt, templates, report);
    else return usage();
  } catch (const std::exception& e) {
    std::cerr << "mdac_perfbench: " << e.what() << "\n";
    return 1;
  }

  for (const auto& msg : report.checker.messages()) std::cout << "# CHECK FAILED: " << msg << "\n";
  report.note("attempted " + std::to_string(report.attempted) + ", failed " +
              std::to_string(report.failed) + ", check rejections " +
              std::to_string(report.checker.rejections()));
  const bool correct = report.checker.ok() && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << report.attempted << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << perfbench::json_escape(m.name) << "\": {\"value\": "
              << perfbench::json_number(m.value) << ", \"unit\": \"" << perfbench::json_escape(m.unit)
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
