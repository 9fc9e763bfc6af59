// Entry point of the TopPriv benchmark binary. run.py builds and invokes it;
// it prints one metric per line and, last, a JSON object with every metric
// it measured, the attempt/failure counts, the correctness verdict and the
// run context.
//
//   toppriv_perfbench --workload W --seed N --seconds S --trace 0|1
//                     --open-rate R --work-dir DIR [--trace-out FILE] [--tiny]
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

/// One cold set-up of `args.workload`, in its own work directory.
struct SetUpResult {
  std::unique_ptr<World> world;
  std::vector<uint64_t> digests;
  double seconds = 0.0;
};

SetUpResult SetUp(const Args& args, const Sizes& sizes, size_t index) {
  Args mine = args;
  mine.work_dir = args.work_dir + "/setup" + std::to_string(index);
  SetUpResult result;
  const int64_t t0 = NowNs();
  result.world = BuildWorld(mine, sizes);
  if (args.workload == "engine_replay") {
    result.digests = SequentialDigests(*result.world);
  }
  result.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return result;
}

/// A set-up running in a child process; it writes its time to `fd`.
struct Child {
  pid_t pid = -1;
  int fd = -1;
};

Child ForkSetUp(const Args& args, const Sizes& sizes, size_t index) {
  int fds[2];
  if (pipe(fds) != 0) return Child{};
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const double seconds = SetUp(args, sizes, index).seconds;
    const bool written =
        write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return Child{};
  }
  return Child{pid, fds[0]};
}

/// Waits for the child; true when it set up and reported its time.
bool JoinChild(const Child& child, double* seconds) {
  if (child.pid < 0) return false;
  const bool got = read(child.fd, seconds, sizeof(*seconds)) ==
                   static_cast<ssize_t>(sizeof(*seconds));
  close(child.fd);
  int status = 0;
  waitpid(child.pid, &status, 0);
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Starts a fresh peak-RSS measurement: returns the memory the allocator
/// holds free to the kernel, then resets the kernel's high-water mark.
/// False when the mark cannot be reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// The kernel's RSS high-water mark of this process, in MB (VmHWM); a
/// negative value when it cannot be read.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string ContextJson(const Args& args) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"open_rate\":%g,\"tiny\":%d,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"cpu\":\"%s\",\"nproc\":%u}",
      JsonEscape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.open_rate, args.tiny ? 1 : 0,
      PERFBENCH_BUILD_TYPE, JsonEscape(PERFBENCH_COMPILER).c_str(),
      JsonEscape(CpuModel()).c_str(), std::thread::hardware_concurrency());
  return buf;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--open-rate") {
      args->open_rate = std::atof(value.c_str());
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0.0 && args->open_rate > 0.0;
}

void WriteTrace(const std::string& path, const std::string& context,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[perfbench] cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"context\":%s,\"spans\":[", context.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\":%llu,\"parent\":%llu,\"cycle\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.cycle), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: toppriv_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --open-rate R --work-dir DIR [--trace-out F] "
                 "[--tiny]\n");
    return 2;
  }
  const std::string& w = args.workload;
  if (w != "protect_closed" && w != "engine_replay") {
    std::fprintf(stderr, "[perfbench] unknown workload %s\n", w.c_str());
    return 2;
  }
  const Sizes sizes = Sizes::For(args.tiny);
  const std::string context = ContextJson(args);
  Report report;

  if (args.trace) {
    Args mine = args;
    mine.work_dir = args.work_dir + "/setup0";
    std::unique_ptr<World> world = BuildWorld(mine, sizes);
    Tracer tracer;
    RunTraced(mine, *world, &tracer, &report);
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, context, tracer.Collect());
    }
  } else {
    // Cold set-ups side by side. Each is mostly single-threaded LDA
    // training, so running them together keeps the repeats from eating the
    // measuring time. The extra ones run in child processes, forked before
    // this process starts any thread, so their memory never counts towards
    // peak_rss_mb. setup_s is the median of the set-up times.
    std::vector<Child> children;
    for (size_t r = 1; r < sizes.setup_repeats; ++r) {
      children.push_back(ForkSetUp(args, sizes, r));
    }
    SetUpResult kept = SetUp(args, sizes, 0);
    std::vector<double> setup_s = {kept.seconds};
    bool children_ok = true;
    for (const Child& child : children) {
      double seconds = 0.0;
      children_ok &= JoinChild(child, &seconds);
      setup_s.push_back(seconds);
    }
    if (!children_ok) {
      std::fprintf(stderr, "[perfbench] a set-up child process failed\n");
      return 2;
    }
    report.Set("setup_s", Median(setup_s), "s", setup_s.size());
    World* world = kept.world.get();

    // peak_rss_mb is the peak while the workload runs. The set-up leaves
    // free memory in the allocator's lists whose amount varied by up to
    // 3 MB from one process to the next; it is returned first, so the
    // figure counts what the world and the workload keep live.
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "[perfbench] cannot reset the peak RSS mark\n");
      return 2;
    }

    if (w == "protect_closed") RunProtectClosed(args, *world, &report);
    if (w == "engine_replay") {
      RunEngineReplay(args, *world, kept.digests, &report);
    }

    // The privacy SLO of the reference sessions: a pure function of the
    // seed (every cycle's ghosts depend only on model, query and RNG).
    const toppriv::serving::ServingReport& ref = world->ref_report;
    double met = 0.0;
    double exposure = 0.0;
    for (const toppriv::serving::SessionStats& s : ref.sessions) {
      met += static_cast<double>(s.met_epsilon2);
      exposure += s.exposure_after_sum;
    }
    const double cycles = static_cast<double>(ref.total_cycles);
    report.Set("queries_per_cycle",
               static_cast<double>(ref.total_queries) / cycles, "count",
               ref.total_cycles);
    report.Set("met_eps2_frac", met / cycles, "frac", ref.total_cycles);
    report.Set("exposure_after_mean", exposure / cycles, "frac",
               ref.total_cycles);
    report.Set("ok_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "frac", report.attempted);

    const double peak_mb = PeakRssMb();
    if (peak_mb <= 0.0) {
      std::fprintf(stderr, "[perfbench] cannot read the peak RSS\n");
      return 2;
    }
    report.Set("peak_rss_mb", peak_mb, "MB");
  }

  for (const auto& [name, m] : report.metrics) {
    std::printf("metric %-36s %14.6g %-6s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\":";
  json += report.errors.empty() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(report.attempted);
  json += ",\"failed\":" + std::to_string(report.failed);
  json += ",\"context\":" + context + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%zu}",
                  first ? "" : ",", name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
