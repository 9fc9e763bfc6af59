// The untraced workloads. Each measures for the requested time and checks
// its outputs; see BENCHMARK.json for why each exists.
#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace tp = toppriv;

namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }
int64_t ToNs(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

// The machine's speed drifts within a run (other tenants share the host),
// so every rate and percentile is taken per time window and the median
// over the windows is reported.
constexpr size_t kWindows = 8;

/// Latency samples of one run, split by the time window in which each
/// operation completed. Each window counts every operation but keeps a
/// uniform random sample of at most kReservoir latencies (reservoir
/// sampling), so the benchmark's own memory does not grow with the
/// program's speed and peak_rss_mb stays the program's.
class Windows {
 public:
  static constexpr size_t kReservoir = 8192;

  Windows(int64_t start_ns, double seconds)
      : start_ns_(start_ns),
        width_ns_(ToNs(seconds) / static_cast<int64_t>(kWindows)),
        windows_(kWindows) {}

  void Add(int64_t end_ns, double ms) {
    const int64_t w = std::clamp<int64_t>((end_ns - start_ns_) / width_ns_, 0,
                                          kWindows - 1);
    Window& win = windows_[w];
    ++win.count;
    if (win.ms.size() < kReservoir) {
      win.ms.push_back(static_cast<float>(ms));
      return;
    }
    const uint64_t slot = rng_() % win.count;
    if (slot < kReservoir) win.ms[slot] = static_cast<float>(ms);
  }
  /// Adds another thread's windows: counts add up, samples are pooled.
  void Merge(const Windows& other) {
    for (size_t w = 0; w < kWindows; ++w) {
      windows_[w].count += other.windows_[w].count;
      windows_[w].ms.insert(windows_[w].ms.end(), other.windows_[w].ms.begin(),
                            other.windows_[w].ms.end());
    }
  }

  /// Reports op_ms_p50, op_ms_p99 and ops_per_s: the median over the
  /// windows of each window's percentile and completions per second. The
  /// last window also takes what completed after the planned end, and its
  /// rate uses its actual length.
  void Report(perfbench::Report* report, int64_t end_ns) const {
    std::vector<double> rates, p50s, p99s;
    uint64_t count = 0;
    for (size_t w = 0; w < kWindows; ++w) {
      const std::vector<double> ms(windows_[w].ms.begin(),
                                   windows_[w].ms.end());
      const int64_t length =
          w + 1 < kWindows
              ? width_ns_
              : end_ns - start_ns_ - width_ns_ * static_cast<int64_t>(w);
      rates.push_back(static_cast<double>(windows_[w].count) / Sec(length));
      p50s.push_back(Percentile(ms, 0.50));
      p99s.push_back(Percentile(ms, 0.99));
      count += windows_[w].count;
    }
    report->Set("op_ms_p50", Median(p50s), "ms", count);
    report->Set("op_ms_p99", Median(p99s), "ms", count);
    report->Set("ops_per_s", Median(rates), "1/s", count);
  }

 private:
  struct Window {
    uint64_t count = 0;
    std::vector<float> ms;
  };
  const int64_t start_ns_;
  const int64_t width_ns_;
  std::vector<Window> windows_;
  std::mt19937_64 rng_{0x5eed};
};

/// One SessionDriver::Run call of a closed loop.
struct Batch {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t cycles = 0;
};

// Per-cycle latencies of one closed-loop batch, recovered from the engine
// calls alone (`threads`: each driver thread's calls, in order). A driver
// thread runs its cycles back to back: Protect, then the cycle's Evaluate
// calls with only microseconds between them. Every gap between two calls on
// one thread that holds a Protect (at least one LDA inference) is a cycle
// boundary, so in a batch of C cycles spread over T threads the C - T
// widest gaps are exactly the boundaries. A cycle's latency runs from the
// end of the previous cycle on its thread (or the batch start) to the end
// of its last Evaluate.
void AddCycleLatencies(
    const std::vector<std::vector<ObservedEngine::Call>>& threads,
    const Batch& b, Windows* windows, Report* report) {
  struct Gap {
    int64_t width;
    size_t thread;
    size_t pos;  // boundary before threads[thread][pos]
  };
  std::vector<Gap> gaps;
  for (size_t t = 0; t < threads.size(); ++t) {
    for (size_t p = 1; p < threads[t].size(); ++p) {
      gaps.push_back(
          Gap{threads[t][p].start_ns - threads[t][p - 1].end_ns, t, p});
    }
  }
  if (b.cycles < threads.size() || b.cycles - threads.size() > gaps.size()) {
    report->Fail("closed-loop calls do not split into the batch's cycles");
    return;
  }
  const size_t boundaries = b.cycles - threads.size();
  std::nth_element(gaps.begin(), gaps.begin() + boundaries, gaps.end(),
                   [](const Gap& x, const Gap& y) { return x.width > y.width; });
  std::vector<std::vector<char>> starts(threads.size());
  for (size_t t = 0; t < threads.size(); ++t) {
    starts[t].assign(threads[t].size(), 0);
  }
  for (size_t g = 0; g < boundaries; ++g) starts[gaps[g].thread][gaps[g].pos] = 1;
  for (size_t t = 0; t < threads.size(); ++t) {
    int64_t prev_end = b.start_ns;
    for (size_t p = 1; p < threads[t].size(); ++p) {
      if (!starts[t][p]) continue;
      const int64_t end = threads[t][p - 1].end_ns;
      windows->Add(end, Ms(end - prev_end));
      prev_end = end;
    }
    windows->Add(threads[t].back().end_ns,
                 Ms(threads[t].back().end_ns - prev_end));
  }
}

void WarnOnWrap(const char* workload, const SessionFeed& feed) {
  if (feed.wraps() > 0) {
    std::fprintf(stderr,
                 "[perfbench] %s: the user query stream wrapped %zu time(s); "
                 "later user queries repeat earlier ones\n",
                 workload, feed.wraps());
  }
}

}  // namespace

void RunProtectClosed(const Args& args, World& world, Report* report) {
  ObservedEngine observed(world.engine.get(), /*keep_terms=*/false);
  tp::serving::SessionDriver driver(*world.model, *world.inferencer, observed,
                                    MakeDriverOptions(args, 4));
  SessionFeed feed(world, world.sizes.batch_sessions,
                   world.sizes.session_queries);
  const int64_t start = NowNs();
  const int64_t stop = start + ToNs(args.seconds);
  Windows windows(start, args.seconds);
  int64_t end = start;
  do {
    std::vector<tp::serving::SessionWorkload> sessions = feed.Next();
    Batch b;
    b.start_ns = NowNs();
    b.cycles = driver.Run(sessions).total_cycles;
    b.end_ns = end = NowNs();
    AddCycleLatencies(observed.TakeCalls(), b, &windows, report);
    report->attempted += b.cycles;
  } while (end < stop);
  WarnOnWrap("protect_closed", feed);
  windows.Report(report, end);
}

std::vector<uint64_t> SequentialDigests(const World& world) {
  std::vector<uint64_t> digests;
  digests.reserve(world.engine_stream.size());
  for (const Query& q : world.engine_stream) {
    digests.push_back(HashResults(world.engine->Evaluate(q, kTopK)));
  }
  return digests;
}

void RunEngineReplay(const Args& args, World& world,
                     const std::vector<uint64_t>& expected, Report* report) {
  constexpr size_t kThreads = 4;
  const std::vector<Query>& stream = world.engine_stream;
  const size_t n = stream.size();
  const int64_t start = NowNs();
  const int64_t stop = start + ToNs(args.seconds);
  std::vector<Windows> latencies(kThreads, Windows(start, args.seconds));
  std::vector<size_t> calls(kThreads, 0);
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      size_t i = t * n / kThreads;
      for (int64_t now = NowNs(); now < stop;) {
        const std::vector<tp::search::ScoredDoc> results =
            world.engine->Evaluate(stream[i], kTopK);
        const int64_t done = NowNs();
        latencies[t].Add(done, Ms(done - now));
        ++calls[t];
        if (HashResults(results) != expected[i]) ++mismatches[t];
        i = (i + 1) % n;
        now = done;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const int64_t end = NowNs();
  Windows all(start, args.seconds);
  size_t bad = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    all.Merge(latencies[t]);
    bad += mismatches[t];
    report->attempted += calls[t];
  }
  report->failed += bad;
  if (bad > 0) {
    report->Fail(std::to_string(bad) +
                 " replayed results differ from the sequential digests");
  }
  all.Report(report, end);
}

}  // namespace perfbench
