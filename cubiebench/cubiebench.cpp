// Cubie-Bench: the benchmark cubie measures itself with (see README.md in
// this directory for the workloads, the metrics and how they relate).
//
//   cubiebench --workload suite|warm|serve --seed N --seconds S --trace 0|1
//
// Each run is one workload in its own process. With --trace 0 it measures
// the workload's end-to-end metrics, with no spans recorded. With --trace 1
// it runs the layer probe instead: it calls every cubie layer through its
// public functions under in-memory spans, prints each layer's self time,
// an "unattributed" line and the tracing overhead of the chosen workload,
// and writes the spans as Chrome trace_event JSON.
//
// Output: human-readable lines, then one host-record JSON line, then, as
// the last line of stdout, the result object
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}.
// Every operation's output is checked; a failed check counts as a failed
// operation (exit 1). Exit codes: 0 ok, 1 failed checks, 2 usage error,
// 3 preflight failure (not enough memory or disk), 4 runtime error.

#include "spans.hpp"

#include "check/check.hpp"
#include "common/report.hpp"
#include "core/workload.hpp"
#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "graph/generators.hpp"
#include "mma/simd.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/device.hpp"
#include "sim/model.hpp"
#include "sim/model_registry.hpp"
#include "sparse/generators.hpp"
#include "telemetry/trace_context.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace fs = std::filesystem;
using cubie::report::Json;
using cubiebench::Clock;
using cubiebench::Scope;
using cubiebench::seconds_since;
using cubiebench::SpanLog;

constexpr double kMB = 1024.0 * 1024.0;  // "MB" is 2^20 bytes throughout
// The server's request mix is run through this many closed-loop clients.
constexpr int kServeClients = 2;
constexpr int kServeWorkers = 2;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct PreflightError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  int scale = 4;
  std::string git_sha = "unknown";
  std::string digest_file = "cubiebench/suite_records.digest";
  std::string work_dir = ".bench_build";
  // Self-test fault injection: compare the suite records against a
  // perturbed digest / damage one warm cache file after set-up.
  bool perturb_digest = false;
  bool inject_fault = false;
  std::string digest_of;  // print the records digest of a report file
};

const char* kUsage =
    "usage: cubiebench --workload suite|warm|serve --seed N --seconds S\n"
    "                  --trace 0|1 [--scale N] [--git-sha SHA]\n"
    "                  [--digest-file PATH] [--work-dir DIR]\n"
    "                  [--perturb-digest] [--inject-fault]\n"
    "       cubiebench --digest-of REPORT.json\n";

template <typename T>
T parse_number(const std::string& flag, const std::string& text, T lo,
               T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || p != end || v < lo || v > hi)
    throw UsageError(flag + ": expected an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got '" + text + "'");
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(a + ": missing value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      if (o.workload != "suite" && o.workload != "warm" &&
          o.workload != "serve")
        throw UsageError("--workload: unknown workload '" + o.workload +
                         "' (suite, warm, serve)");
    } else if (a == "--seed") {
      o.seed = parse_number<std::uint64_t>(a, value(), 0, UINT64_MAX);
    } else if (a == "--seconds") {
      o.seconds = parse_number<int>(a, value(), 1, 3600);
    } else if (a == "--trace") {
      o.trace = parse_number<int>(a, value(), 0, 1) == 1;
    } else if (a == "--scale") {
      o.scale = parse_number<int>(a, value(), 1, 1 << 20);
    } else if (a == "--git-sha") {
      o.git_sha = value();
    } else if (a == "--digest-file") {
      o.digest_file = value();
    } else if (a == "--work-dir") {
      o.work_dir = value();
    } else if (a == "--perturb-digest") {
      o.perturb_digest = true;
    } else if (a == "--inject-fault") {
      o.inject_fault = true;
    } else if (a == "--digest-of") {
      o.digest_of = value();
    } else if (a == "-h" || a == "--help") {
      std::cout << kUsage;
      std::exit(0);
    } else {
      throw UsageError("unknown flag '" + a + "'");
    }
  }
  if (o.digest_of.empty() && o.workload.empty())
    throw UsageError("--workload is required");
  return o;
}

// ---------------------------------------------------------------------------
// Statistics and host facts.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The highest percentile with at least ten samples beyond it, capped at
// p99. Fewer than twenty samples support none above the median, so the
// tail is then the median itself.
double tail_quantile(std::size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// Hand the previous operation's freed memory back to the kernel, so each
// operation starts from the state a fresh process would, whatever the
// allocator kept from the one before.
void release_free_memory() { malloc_trim(0); }

// Peak resident memory of one interval: start_peak_rss() starts it (it
// resets VmHWM through /proc/self/clear_refs), peak_rss_mb() reads it. Where
// the reset is unavailable the process peak is read instead.
void start_peak_rss() {
  release_free_memory();
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      if (in >> kb) return kb * 1024.0 / kMB;
      break;
    }
    in.ignore(1 << 16, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss: KiB
}

double mem_available_mb() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  double kb = 0.0;
  std::string unit;
  while (in >> key >> kb >> unit)
    if (key == "MemAvailable:") return kb * 1024.0 / kMB;
  return -1.0;  // unknown: do not block the run on it
}

double disk_free_mb(const std::string& path) {
  struct statvfs st{};
  if (statvfs(path.c_str(), &st) != 0) return -1.0;
  return static_cast<double>(st.f_bavail) * static_cast<double>(st.f_frsize) /
         kMB;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

cubie::engine::EngineOptions engine_opts(const std::string& cache_dir = "") {
  cubie::engine::EngineOptions e;
  e.jobs = nproc();
  e.cache_dir = cache_dir;
  return e;
}

// ---------------------------------------------------------------------------
// The result object and its printing.

class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value))
      throw std::runtime_error("metric " + name + " is not finite");
    metrics_.push_back({name, value, unit});
  }
  void attempt(std::size_t n = 1) { attempted_ += n; }
  // Count one failed operation; the first few reasons go to stderr.
  void fail(const std::string& why) {
    if (++failed_ <= 10) std::cerr << "cubiebench: FAILED: " << why << "\n";
  }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  std::string line() const {
    Json m = Json::object();
    for (const auto& x : metrics_) {
      Json v = Json::object();
      v["value"] = Json::number(x.value);
      v["unit"] = Json::string(x.unit);
      m[x.name] = std::move(v);
    }
    Json j = Json::object();
    j["correct"] = Json::boolean(correct());
    j["attempted"] = Json::number(static_cast<double>(attempted_));
    j["failed"] = Json::number(static_cast<double>(failed_));
    j["metrics"] = std::move(m);
    return j.dump(-1);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

void say(const std::string& name, double value, const std::string& unit,
         const std::string& note = "") {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-34s %14.6g %-8s", name.c_str(), value,
                unit.c_str());
  std::cout << buf << note << "\n";
}

// ---------------------------------------------------------------------------
// Suite records digest (FNV-1a 64 of the compact "records" array, the part
// of fig03_perf --json that ROADMAP pins as "modeled results must not
// move").

struct Digest {
  int scale = 0;
  std::size_t records = 0;
  std::size_t bytes = 0;
  std::string fnv1a64;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Digest digest_of(const cubie::report::MetricsReport& rep) {
  const Json j = rep.to_json();
  const Json* rec = j.find("records");
  const std::string text = rec ? rec->dump(-1) : "[]";
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return Digest{rep.scale_divisor, rep.records.size(), text.size(),
                hex64(h)};
}

std::string digest_line(const Digest& d) {
  return "scale " + std::to_string(d.scale) + " records " +
         std::to_string(d.records) + " bytes " + std::to_string(d.bytes) +
         " fnv1a64 " + d.fnv1a64;
}

// The pinned line for `scale` ("scale S records R bytes B fnv1a64 H").
std::optional<std::string> pinned_digest(const std::string& path,
                                         int scale) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::string line;
  const std::string prefix = "scale " + std::to_string(scale) + " ";
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Per-run work directory (cache files, socket), removed on every exit
// path: normal return and exceptions through the destructor, SIGINT and
// SIGTERM through the handler.

char g_run_dir[4096] = {0};

void on_signal(int sig) {
  if (g_run_dir[0] != '\0') {
    std::error_code ec;
    fs::remove_all(g_run_dir, ec);
  }
  _exit(128 + sig);
}

class RunDir {
 public:
  explicit RunDir(const std::string& work_dir)
      : path_(work_dir + "/run-" + std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
    if (path_.size() >= sizeof g_run_dir)
      throw UsageError("--work-dir path too long");
    std::memcpy(g_run_dir, path_.c_str(), path_.size() + 1);
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
  }
  ~RunDir() {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_run_dir[0] = '\0';
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const std::string& path() const { return path_; }
  std::string cache() const { return path_ + "/cache"; }
  // Pass a relative --work-dir: a Unix socket path must fit sockaddr_un's
  // 108 bytes.
  std::string socket() const { return path_ + "/serve.sock"; }

 private:
  std::string path_;
};

// Typed refusal to start when the host cannot hold the run: `warm` keeps
// ~3.5 GB resident while it decodes its cache, and writes ~0.7 GB of cell
// files at scale 4.
void preflight(const Options& o, const RunDir& dir) {
  const bool uses_cache = o.trace || o.workload == "warm";
  const double need_mem = uses_cache ? 4096.0 : 2048.0;
  const double need_disk = uses_cache ? 1024.0 : 16.0;
  const double mem = mem_available_mb();
  if (mem >= 0 && mem < need_mem)
    throw PreflightError("insufficient memory: need " +
                         std::to_string(static_cast<long>(need_mem)) +
                         " MB available, have " +
                         std::to_string(static_cast<long>(mem)) + " MB");
  const double disk = disk_free_mb(dir.path());
  if (disk >= 0 && disk < need_disk)
    throw PreflightError("insufficient temp disk under " + dir.path() +
                         ": need " +
                         std::to_string(static_cast<long>(need_disk)) +
                         " MB, have " + std::to_string(static_cast<long>(disk)) +
                         " MB");
}

Json host_record(const Options& o) {
  namespace simd = cubie::mma::simd;
  Json h = Json::object();
  h["workload"] = Json::string(o.workload);
  h["seed"] = Json::number(static_cast<double>(o.seed));
  h["seconds"] = Json::number(o.seconds);
  h["trace"] = Json::number(o.trace ? 1 : 0);
  h["scale"] = Json::number(o.scale);
  h["nproc"] = Json::number(nproc());
  h["git_sha"] = Json::string(o.git_sha);
  h["build_type"] = Json::string(CUBIEBENCH_BUILD_TYPE);
  h["isa"] = Json::string(simd::isa_name(simd::active_isa()));
  const char* fs_env = std::getenv("CUBIE_FORCE_SCALAR");
  h["cubie_force_scalar"] = fs_env ? Json::string(fs_env) : Json();
  h["scalar_forced"] = Json::boolean(simd::scalar_forced_by_env());
  Json out = Json::object();
  out["host"] = std::move(h);
  return out;
}

// ---------------------------------------------------------------------------
// Shared phases. Each takes the SpanLog to record into; untraced runs pass
// a disabled log, so the measured code is the same in both modes.

using cubie::engine::EngineCounters;
using cubie::engine::ExperimentEngine;
using cubie::engine::Plan;

void accumulate(EngineCounters& sum, const EngineCounters& c) {
  sum.memo_hits += c.memo_hits;
  sum.disk_hits += c.disk_hits;
  sum.coalesced_hits += c.coalesced_hits;
  sum.misses += c.misses;
  sum.disk_errors += c.disk_errors;
}

// One Figure-3 sweep on `eng`: execute every suite cell, then price them
// into fig03_perf's records.
struct Sweep {
  double execute_s = 0.0;
  double records_s = 0.0;
  cubie::report::MetricsReport rep;
};

Sweep sweep(ExperimentEngine& eng, int scale, SpanLog& log) {
  Sweep s;
  {
    Scope sc(log, "engine", "ExperimentEngine::execute suite");
    eng.execute(Plan::suite(scale));
    s.execute_s = sc.stop();
  }
  s.rep.scale_divisor = scale;
  {
    Scope sc(log, "report", "serve::add_suite_perf_records");
    cubie::serve::add_suite_perf_records(eng, scale, s.rep);
    s.records_s = sc.stop();
  }
  return s;
}

// Compare a sweep's records against the pinned digest.
void check_digest(const Sweep& s, const std::string& pinned, bool perturb,
                  Result& r) {
  const std::string got = digest_line(digest_of(s.rep));
  std::string want = pinned;
  if (perturb) want.back() = want.back() == '0' ? '1' : '0';
  if (got != want)
    r.fail("suite records digest mismatch: got '" + got + "', pinned '" +
           want + "'");
}

std::string require_pinned(const Options& o) {
  const auto p = pinned_digest(o.digest_file, o.scale);
  if (!p)
    throw std::runtime_error("no pinned suite digest for scale " +
                             std::to_string(o.scale) + " in " +
                             o.digest_file);
  return *p;
}

// Check that a warm pass was served entirely from disk.
void check_disk_pass(const char* pass, const EngineCounters& c,
                     std::size_t cells, Result& r) {
  if (c.disk_hits != cells || c.misses != 0 || c.disk_errors != 0)
    r.fail(std::string(pass) + ": expected " + std::to_string(cells) +
           " disk hits, 0 misses, 0 disk errors; got " +
           std::to_string(c.disk_hits) + " / " + std::to_string(c.misses) +
           " / " + std::to_string(c.disk_errors));
}

// One `warm` iteration: the profile-only consumer, then the value
// consumer, each with a fresh engine over the same cache directory.
struct WarmIteration {
  double report_s = 0.0;
  double check_s = 0.0;
};

WarmIteration warm_iteration(const std::string& cache_dir, int scale,
                             std::size_t cells, SpanLog& log, Result& r,
                             EngineCounters* sum) {
  WarmIteration it;
  {
    release_free_memory();
    const auto t0 = Clock::now();
    ExperimentEngine eng(engine_opts(cache_dir));
    {
      Scope sc(log, "engine", "ExperimentEngine::execute representative");
      eng.execute(Plan::representative(scale));
    }
    for (const auto& w : eng.suite()) {
      cubie::serve::RunSpec spec;
      spec.workload = w->name();
      spec.variant = "all";
      spec.case_sel = "rep";
      spec.gpu = "all";
      spec.scale = scale;
      std::string err;
      Scope sc(log, "serve", "serve::run_report " + w->name());
      if (!cubie::serve::run_report(eng, spec, &err))
        r.fail("run_report " + w->name() + ": " + err);
    }
    it.report_s = seconds_since(t0);
    r.attempt();
    check_disk_pass("warm profile-only pass", eng.counters(), cells, r);
    if (sum) accumulate(*sum, eng.counters());
  }
  {
    release_free_memory();
    const auto t0 = Clock::now();
    ExperimentEngine eng(engine_opts(cache_dir));
    cubie::check::ConformanceReport rep;
    {
      Scope sc(log, "check", "check::verify_plan representative");
      rep = cubie::check::verify_plan(eng, Plan::representative(scale));
    }
    it.check_s = seconds_since(t0);
    r.attempt();
    check_disk_pass("warm value pass", eng.counters(), cells, r);
    if (!rep.pass())
      r.fail("verify_plan: " + std::to_string(rep.violations) +
             " violation(s)");
    if (sum) accumulate(*sum, eng.counters());
  }
  return it;
}

// Fill `cache_dir` the way a user's first `--cache` run does.
double fill_cache(const std::string& cache_dir, int scale, std::size_t cells,
                  Result& r) {
  std::error_code ec;
  fs::remove_all(cache_dir, ec);
  const auto t0 = Clock::now();
  ExperimentEngine eng(engine_opts(cache_dir));
  eng.execute(Plan::representative(scale));
  const double s = seconds_since(t0);
  const auto c = eng.counters();
  r.attempt();
  if (c.misses != cells || c.disk_errors != 0)
    r.fail("cache fill: expected " + std::to_string(cells) +
           " misses and 0 disk errors, got " + std::to_string(c.misses) +
           " / " + std::to_string(c.disk_errors));
  return s;
}

// An in-process cubie::serve::Server on a Unix socket, serving on its own
// thread until destroyed.
class RunningServer {
 public:
  explicit RunningServer(const std::string& socket_path)
      : srv_(options(socket_path)) {}
  ~RunningServer() { stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  cubie::serve::Server& server() { return srv_; }

  void start() {
    std::string err;
    if (!srv_.start(&err)) throw std::runtime_error("server start: " + err);
    thread_ = std::thread([this] {
      try {
        srv_.serve();
      } catch (const std::exception& e) {
        std::cerr << "cubiebench: server stopped: " << e.what() << "\n";
      }
    });
  }
  void stop() {
    if (!thread_.joinable()) return;
    srv_.request_shutdown();
    thread_.join();
  }

 private:
  static cubie::serve::ServerOptions options(const std::string& socket_path) {
    cubie::serve::ServerOptions so;
    so.socket_path = socket_path;
    so.workers = kServeWorkers;
    so.engine = engine_opts();
    return so;
  }

  cubie::serve::Server srv_;
  std::thread thread_;
};

// The served request mix: one `run <W> --variant all --case all --gpu all`
// per workload plus one `suite`, each with its in-process report (the
// bytes every response's "report" member must equal).
struct Mix {
  std::vector<cubie::serve::Request> requests;
  std::vector<std::string> expected;
  std::vector<double> run_report_s;    // in-process build time, per run
  std::vector<double> suite_report_s;  // per suite_report call
};

Mix build_mix(ExperimentEngine& eng, int scale, int suite_calls,
              SpanLog& log) {
  Mix m;
  for (const auto& w : eng.suite()) {
    cubie::serve::Request r;
    r.cmd = cubie::serve::Cmd::Run;
    r.spec.workload = w->name();
    r.spec.variant = "all";
    r.spec.case_sel = "all";
    r.spec.gpu = "all";
    r.spec.scale = scale;
    std::string err;
    Scope sc(log, "serve", "serve::run_report " + w->name());
    const auto rep = cubie::serve::run_report(eng, r.spec, &err);
    m.run_report_s.push_back(sc.stop());
    if (!rep) throw std::runtime_error("run_report " + w->name() + ": " + err);
    m.requests.push_back(r);
    m.expected.push_back(rep->to_json().dump(-1));
  }
  cubie::serve::Request s;
  s.cmd = cubie::serve::Cmd::Suite;
  s.spec.scale = scale;
  std::string suite_bytes;
  for (int i = 0; i < suite_calls; ++i) {
    Scope sc(log, "serve", "serve::suite_report");
    suite_bytes = cubie::serve::suite_report(eng, scale).to_json().dump(-1);
    m.suite_report_s.push_back(sc.stop());
  }
  m.requests.push_back(s);
  m.expected.push_back(std::move(suite_bytes));
  return m;
}

// The request order: a permutation of the mix drawn from the seed.
std::vector<std::size_t> mix_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

// Closed loop: kServeClients connections, each sending its next request
// only after the reply to the previous one arrived, round-robin over
// `order` (client c starts c/kServeClients of the way in). Stops at the
// deadline, or after `max_requests` when that is nonzero.
struct Loop {
  std::vector<double> latencies_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few reasons
  double wall_s = 0.0;
};

Loop closed_loop(const std::string& socket_path, const Mix& mix,
                 const std::vector<std::size_t>& order, double seconds,
                 std::size_t max_requests, std::uint64_t seed,
                 SpanLog& log) {
  std::atomic<std::size_t> issued{0};
  std::vector<Loop> per(kServeClients);
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto client = [&](int c) {
    Loop& out = per[static_cast<std::size_t>(c)];
    auto note = [&](const std::string& why) {
      ++out.failed;
      if (out.failures.size() < 5) out.failures.push_back(why);
    };
    std::string err;
    auto conn = cubie::serve::Client::connect({socket_path, -1}, &err);
    if (!conn) {
      ++out.attempted;
      note("connect: " + err);
      return;
    }
    std::size_t i = static_cast<std::size_t>(c) * order.size() / kServeClients;
    for (std::uint64_t n = 1;; ++n, ++i) {
      if (max_requests > 0) {
        if (issued.fetch_add(1) >= max_requests) break;
      } else if (Clock::now() >= deadline) {
        break;
      }
      const std::size_t k = order[i % order.size()];
      cubie::serve::Request r = mix.requests[k];
      r.id = "c" + std::to_string(c) + "-" + std::to_string(n);
      r.trace = cubie::telemetry::hex_id(
          seed ^ 0xcb00000000000000ull,
          (static_cast<std::uint64_t>(c + 1) << 40) | n);
      const std::string line = cubie::serve::request_to_json(r).dump(-1);
      ++out.attempted;
      std::optional<std::string> reply;
      {
        Scope sc(log, "serve", "Client request " + cubie::serve::request_key(r),
                 c + 1);
        if (conn->send_line(line)) reply = conn->recv_line();
        out.latencies_ms.push_back(sc.stop() * 1e3);
      }
      if (!reply) {
        out.latencies_ms.pop_back();
        note("transport error on " + r.id);
        break;
      }
      const auto j = Json::parse(*reply);
      const Json* ok = j ? j->find("ok") : nullptr;
      const Json* trace = j ? j->find("trace") : nullptr;
      const std::size_t at = reply->find("\"report\":");
      if (!ok || !ok->is_bool() || !ok->as_bool()) {
        note(r.id + ": response not ok");
      } else if (!trace || !trace->is_string() ||
                 trace->as_string() != r.trace) {
        note(r.id + ": trace id not echoed");
      } else if (at == std::string::npos ||
                 reply->compare(at + 9, mix.expected[k].size(),
                                mix.expected[k]) != 0) {
        note(r.id + ": report differs from the in-process report");
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeClients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  Loop all;
  all.wall_s = seconds_since(t0);
  for (auto& p : per) {
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.latencies_ms.insert(all.latencies_ms.end(), p.latencies_ms.begin(),
                            p.latencies_ms.end());
    for (auto& f : p.failures) all.failures.push_back(std::move(f));
  }
  return all;
}

void record_loop(const Loop& l, Result& r) {
  r.attempt(l.attempted);
  for (const auto& f : l.failures) r.fail(f);
  for (std::size_t i = l.failures.size(); i < l.failed; ++i)
    r.fail("serve request failed");
}

// ---------------------------------------------------------------------------
// Untraced workloads: end-to-end metrics.

// Set-up is repeated this many times per run and reported as a median.
constexpr int kSuiteSetupsPerCpu = 25;
constexpr int kWarmSetups = 2;
constexpr int kServeSetups = 2;

// Time `step` `reps` times on each CPU the process may use, pinning the
// calling thread to one CPU at a time, then restore its affinity. A 0.1 ms
// single-threaded step runs up to 1.6x slower on some CPUs of a shared host
// than on others, so timing it on whichever CPU the thread happens to sit
// on gives a per-process lottery; pooling every CPU does not.
std::vector<double> time_on_each_cpu(int reps, const std::function<void()>& step) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<double> out;
  const bool pin = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (pin) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      step();
      out.push_back(seconds_since(t0));
    }
    if (!pin) break;
  }
  if (pin) sched_setaffinity(0, sizeof allowed, &allowed);
  return out;
}

// The five end-to-end metrics. `peaks_mb` holds the peak RSS of each
// measured interval (one per operation, or one for the whole loop).
void e2e_common(Result& r, const std::vector<double>& setups,
                const std::vector<double>& ops_s,
                const std::vector<double>& peaks_mb, double items_per_s) {
  const double q = tail_quantile(ops_s.size());
  const std::vector<std::pair<std::string, double>> values = {
      {"setup_s", median(setups)},
      {"peak_rss_mb", median(peaks_mb)},
      {"op_p50_ms", median(ops_s) * 1e3},
      {"op_tail_ms", percentile(ops_s, q) * 1e3},
      {"items_per_s", items_per_s}};
  const char* units[] = {"s", "MB", "ms", "ms", "1/s"};
  std::cout << "end-to-end (" << ops_s.size() << " operations, "
            << *std::min_element(ops_s.begin(), ops_s.end()) * 1e3 << " .. "
            << *std::max_element(ops_s.begin(), ops_s.end()) * 1e3
            << " ms, tail = p" << q * 100 << ", " << setups.size()
            << " set-ups):\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    r.add(values[i].first, values[i].second, units[i]);
    say(values[i].first, values[i].second, units[i]);
  }
}

Result run_suite(const Options& o) {
  Result r;
  SpanLog off(false);
  std::string pinned;
  std::size_t cells = 0;
  // No engine threads exist yet, so pinning the main thread here leaves
  // the sweeps' pools free to use every CPU.
  const std::vector<double> setups = time_on_each_cpu(kSuiteSetupsPerCpu, [&] {
    pinned = require_pinned(o);
    ExperimentEngine eng(engine_opts());
    cells = eng.expand(Plan::suite(o.scale)).size();
  });
  std::vector<double> walls, execs, records, peaks;
  const auto t0 = Clock::now();
  while (walls.empty() || seconds_since(t0) < o.seconds) {
    start_peak_rss();
    auto eng = std::make_unique<ExperimentEngine>(engine_opts());
    const Sweep s = sweep(*eng, o.scale, off);
    peaks.push_back(peak_rss_mb());
    walls.push_back(s.execute_s + s.records_s);
    execs.push_back(s.execute_s);
    records.push_back(s.records_s);
    r.attempt();
    check_digest(s, pinned, o.perturb_digest, r);
    if (eng->counters().misses != cells)
      r.fail("suite sweep computed " + std::to_string(eng->counters().misses) +
             " cells, expected " + std::to_string(cells));
  }
  e2e_common(r, setups, walls, peaks,
             static_cast<double>(cells) / median(walls));
  std::cout << "suite (cold Figure-3 sweep, " << cells << " cells, jobs "
            << nproc() << "):\n";
  say("suite_s", median(walls), "s",
      "median of " + std::to_string(walls.size()) + " sweep(s)");
  say("  execute_s", median(execs), "s");
  say("  records_s", median(records), "s");
  return r;
}

Result run_warm(const Options& o, const RunDir& dir) {
  Result r;
  SpanLog off(false);
  std::size_t cells = 0;
  {
    ExperimentEngine eng(engine_opts());
    cells = eng.expand(Plan::representative(o.scale)).size();
  }
  std::vector<double> setups;
  for (int i = 0; i < kWarmSetups; ++i)
    setups.push_back(fill_cache(dir.cache(), o.scale, cells, r));
  // Let the kernel write the cache files back before timing starts, so
  // write-back of set-up's dirty pages does not land in the measurement.
  ::sync();
  if (o.inject_fault) {
    ExperimentEngine eng(engine_opts());
    const auto first = eng.expand(Plan::representative(o.scale)).front();
    if (!cubie::engine::DiskCache(dir.cache())
             .inject_fault(first.key,
                           cubie::engine::DiskCache::Fault::CorruptJson))
      throw std::runtime_error("inject_fault failed");
  }
  std::vector<double> walls, reports, checks, peaks;
  const auto t0 = Clock::now();
  while (walls.empty() || seconds_since(t0) < o.seconds) {
    start_peak_rss();
    const auto it = warm_iteration(dir.cache(), o.scale, cells, off, r, nullptr);
    peaks.push_back(peak_rss_mb());
    walls.push_back(it.report_s + it.check_s);
    reports.push_back(it.report_s);
    checks.push_back(it.check_s);
  }
  e2e_common(r, setups, walls, peaks,
             static_cast<double>(2 * cells) / median(walls));
  double cache_b = 0.0;
  for (const auto& e : fs::directory_iterator(dir.cache()))
    cache_b += static_cast<double>(file_bytes(e.path().string()));
  std::cout << "warm (" << cells << " cells read twice per iteration from "
            << "a DiskCache of " << cache_b / kMB << " MB):\n";
  say("warm_report_s", median(reports), "s",
      "median of " + std::to_string(reports.size()));
  say("warm_check_s", median(checks), "s",
      "median of " + std::to_string(checks.size()));
  return r;
}

Result run_serve(const Options& o, const RunDir& dir) {
  Result r;
  SpanLog off(false);
  std::vector<double> setups;
  std::unique_ptr<RunningServer> srv;
  for (int i = 0; i < kServeSetups; ++i) {
    srv.reset();  // the previous set-up's server drains and exits first
    const auto t0 = Clock::now();
    srv = std::make_unique<RunningServer>(dir.socket());
    srv->start();
    srv->server().engine().execute(Plan::suite(o.scale));
    setups.push_back(seconds_since(t0));
  }
  const Mix mix = build_mix(srv->server().engine(), o.scale, 1, off);
  const auto order = mix_order(mix.requests.size(), o.seed);
  start_peak_rss();
  const Loop loop =
      closed_loop(dir.socket(), mix, order, o.seconds, 0, o.seed, off);
  const std::vector<double> peaks = {peak_rss_mb()};
  record_loop(loop, r);
  const auto stats = srv->server().stats();
  srv.reset();
  std::vector<double> lat_s;
  for (double ms : loop.latencies_ms) lat_s.push_back(ms / 1e3);
  const double rps =
      static_cast<double>(loop.latencies_ms.size()) / loop.wall_s;
  e2e_common(r, setups, lat_s, peaks, rps);
  std::string order_text;
  for (std::size_t k : order)
    order_text += " " + cubie::serve::request_key(mix.requests[k]);
  std::cout << "serve (" << kServeClients << " closed-loop clients, "
            << kServeWorkers << " workers; order:" << order_text << "):\n";
  say("serve_rps", rps, "1/s");
  say("serve_p50_ms", percentile(loop.latencies_ms, 0.5), "ms");
  say("serve_p99_ms", percentile(loop.latencies_ms, 0.99), "ms",
      "n=" + std::to_string(loop.latencies_ms.size()));
  say("max_queue_depth", static_cast<double>(stats.max_queue_depth), "count");
  return r;
}

// ---------------------------------------------------------------------------
// Traced run: the layer probe.

Result run_traced(const Options& o, const RunDir& dir) {
  Result r;
  SpanLog log(true);
  SpanLog off(false);
  const int jobs = nproc();
  EngineCounters counters;
  double untraced_s = 0.0, traced_s = 0.0;  // the workload's own iteration

  // The catalog engine owns the Workload objects the cell list points to;
  // it never executes anything.
  ExperimentEngine catalog(engine_opts());
  const auto suite_cells = catalog.expand(Plan::suite(o.scale));
  const std::string pinned = require_pinned(o);

  // --- graph / sparse: one generator call per cell that uses one, with
  // the arguments the workloads pass today (SpGEMM halves its matrix).
  double graph_s = 0.0, sparse_s = 0.0;
  std::size_t gen_calls = 0;
  std::set<std::string> datasets;
  for (const auto& c : suite_cells) {
    const std::string w = c.workload->name();
    if (w != "BFS" && w != "SpMV" && w != "SpGEMM") continue;
    const int div = static_cast<int>(c.test_case.dims.at(0)) *
                    (w == "SpGEMM" ? 2 : 1);
    ++gen_calls;
    if (w == "BFS") {
      datasets.insert("graph|" + c.test_case.dataset + "|" + std::to_string(div));
      Scope sc(log, "graph", "graph::make_table3_graph " + c.test_case.dataset);
      (void)cubie::graph::make_table3_graph(c.test_case.dataset, div);
      graph_s += sc.stop();
    } else {
      datasets.insert("sparse|" + c.test_case.dataset + "|" + std::to_string(div));
      Scope sc(log, "sparse", "sparse::make_table4_matrix " + c.test_case.dataset);
      (void)cubie::sparse::make_table4_matrix(c.test_case.dataset, div);
      sparse_s += sc.stop();
    }
  }

  // --- core: serial Workload::run over every suite cell.
  std::map<std::string, double> run_by_pair;
  std::vector<std::string> pair_order;
  double core_s = 0.0, max_cell_s = 0.0, useful_flops = 0.0;
  for (const auto& c : suite_cells) {
    const std::string pair =
        c.workload->name() + "." + cubie::core::variant_name(c.variant);
    if (!run_by_pair.count(pair)) pair_order.push_back(pair);
    Scope sc(log, "core", "Workload::run " + pair + " " + c.test_case.label);
    const auto out = c.workload->run(c.variant, c.test_case);
    const double dt = sc.stop();
    run_by_pair[pair] += dt;
    core_s += dt;
    max_cell_s = std::max(max_cell_s, dt);
    useful_flops += out.profile.useful_flops;
  }

  // --- warm: cache writes and reads, both consumers, compare-only check.
  double store_s = 0.0, load_s = 0.0, verify_s = 0.0, reference_s = 0.0;
  double written_b = 0.0, read_b = 0.0, values_compared = 0.0;
  std::size_t loads = 0, load_hits = 0, violations = 0;
  {
    ExperimentEngine e0(engine_opts());
    {
      Scope sc(log, "engine", "ExperimentEngine::execute representative");
      e0.execute(Plan::representative(o.scale));
    }
    const auto cells = e0.expand(Plan::representative(o.scale));
    const cubie::engine::DiskCache cache(dir.cache());
    for (const auto& c : cells) {
      const cubie::core::RunOutput* out = nullptr;
      {
        Scope sc(log, "engine", "ExperimentEngine::run (memo)");
        out = &e0.run(*c.workload, c.variant, c.test_case, c.scale);
      }
      Scope sc(log, "cache", "DiskCache::store");
      const auto st = cache.store(c.key, *out);
      store_s += sc.stop();
      r.attempt();
      if (!st.ok()) r.fail("DiskCache::store: " + st.detail);
      written_b += static_cast<double>(file_bytes(cache.path_for(c.key)));
    }
    if (o.workload == "warm") {
      const auto t0 = Clock::now();
      const auto it = warm_iteration(dir.cache(), o.scale, cells.size(), off,
                                     r, nullptr);
      untraced_s = it.report_s + it.check_s;
      log.exclude(seconds_since(t0));
    }
    const auto it =
        warm_iteration(dir.cache(), o.scale, cells.size(), log, r, &counters);
    if (o.workload == "warm") traced_s = it.report_s + it.check_s;
    for (const auto& c : cells) {
      Scope sc(log, "cache", "DiskCache::load");
      const auto ld = cache.load(c.key);
      load_s += sc.stop();
      ++loads;
      r.attempt();
      if (ld.hit()) {
        ++load_hits;
      } else {
        r.fail(std::string("DiskCache::load: ") +
               cubie::engine::cache_status_name(ld.status));
      }
      read_b += static_cast<double>(file_bytes(cache.path_for(c.key)));
    }
    double verify_wall = 0.0;
    cubie::check::ConformanceReport crep;
    {
      Scope sc(log, "check", "check::verify_cells (in memory)");
      crep = cubie::check::verify_cells(e0, cells);
      verify_wall = sc.stop();
    }
    // verify_cells computes the CPU reference of workloads without a
    // baseline (PiC) itself; time those references alone and subtract.
    for (const auto& c : cells) {
      if (c.workload->has_baseline() || c.variant != cubie::core::Variant::TC)
        continue;
      Scope sc(log, "core", "Workload::reference " + c.workload->name());
      (void)c.workload->reference(c.test_case);
      reference_s += sc.stop();
    }
    verify_s = std::max(0.0, verify_wall - reference_s);
    r.attempt();
    for (const auto& v : crep.verdicts) values_compared += static_cast<double>(v.n);
    violations = crep.violations;
    if (!crep.pass())
      r.fail("verify_cells: " + std::to_string(crep.violations) +
             " violation(s)");
    accumulate(counters, e0.counters());
  }
  {
    std::error_code ec;
    fs::remove_all(dir.cache(), ec);
  }

  // --- suite sweep, pricing and report, in the server's engine.
  RunningServer srv(dir.socket());
  ExperimentEngine& eng = srv.server().engine();
  if (o.workload == "suite") {
    const auto t0 = Clock::now();
    {
      ExperimentEngine fresh(engine_opts());
      const Sweep s = sweep(fresh, o.scale, off);
      untraced_s = s.execute_s + s.records_s;
    }
    log.exclude(seconds_since(t0));
  }
  const Sweep sw = sweep(eng, o.scale, log);
  if (o.workload == "suite") traced_s = sw.execute_s + sw.records_s;
  r.attempt();
  check_digest(sw, pinned, o.perturb_digest, r);

  std::vector<std::unique_ptr<cubie::sim::DeviceModel>> models;
  for (auto g : cubie::sim::all_gpus())
    models.push_back(cubie::sim::make_device_model(
        "analytic", cubie::sim::spec_for(g)));
  double memo_s = 0.0, predict_s = 0.0, values_b = 0.0;
  std::size_t predicts = 0;
  const auto eng_cells = eng.expand(Plan::suite(o.scale));
  for (const auto& c : eng_cells) {
    const cubie::core::RunOutput* out = nullptr;
    {
      Scope sc(log, "engine", "ExperimentEngine::run (memo)");
      out = &eng.run(*c.workload, c.variant, c.test_case, c.scale);
      memo_s += sc.stop();
    }
    values_b += static_cast<double>(out->values.size() * sizeof(double));
    for (const auto& m : models) {
      Scope sc(log, "sim", "DeviceModel::predict");
      (void)m->predict(out->profile);
      predict_s += sc.stop();
      ++predicts;
    }
  }
  double serialize_s = 0.0, parse_s = 0.0, report_b = 0.0;
  {
    std::string text;
    {
      Scope sc(log, "report", "Json::dump suite report");
      text = sw.rep.to_json().dump(-1);
      serialize_s = sc.stop();
    }
    report_b = static_cast<double>(text.size());
    Scope sc(log, "report", "MetricsReport::from_json suite report");
    const auto j = Json::parse(text);
    const auto back =
        j ? cubie::report::MetricsReport::from_json(*j) : std::nullopt;
    parse_s = sc.stop();
    r.attempt();
    if (!back || back->records.size() != sw.rep.records.size())
      r.fail("suite report did not survive a serialize/parse round trip");
  }

  // --- serve: protocol floor, in-process report builds, closed loop.
  srv.start();
  std::vector<double> ping_ms;
  {
    std::string err;
    auto conn = cubie::serve::Client::connect({dir.socket(), -1}, &err);
    if (!conn) throw std::runtime_error("connect: " + err);
    for (int i = 0; i < 50; ++i) {
      cubie::serve::Request p;
      p.id = "ping-" + std::to_string(i);
      p.cmd = cubie::serve::Cmd::Ping;
      Scope sc(log, "serve", "Client::call ping");
      const auto reply = conn->call(p, &err);
      ping_ms.push_back(sc.stop() * 1e3);
      r.attempt();
      const Json* ok = reply ? reply->find("ok") : nullptr;
      if (!ok || !ok->as_bool()) r.fail("ping: " + err);
    }
  }
  const Mix mix = build_mix(eng, o.scale, 3, log);
  const auto order = mix_order(mix.requests.size(), o.seed);
  const std::size_t loop_requests = 40 * mix.requests.size();
  if (o.workload == "serve") {
    const auto t0 = Clock::now();
    const Loop l =
        closed_loop(dir.socket(), mix, order, 0, loop_requests, o.seed, off);
    record_loop(l, r);
    untraced_s = l.wall_s;
    log.exclude(seconds_since(t0));
  }
  Loop loop;
  {
    Scope sc(log, "serve", "closed loop");
    loop = closed_loop(dir.socket(), mix, order, 0, loop_requests, o.seed, log);
  }
  record_loop(loop, r);
  if (o.workload == "serve") traced_s = loop.wall_s;
  const auto stats = srv.server().stats();
  srv.stop();
  accumulate(counters, eng.counters());

  // --- metrics.
  const auto acc = log.account();
  std::cout << "layer self times (traced wall " << acc.wall_s << " s, "
            << acc.spans << " spans):\n";
  const std::vector<std::string> layers = {"core",   "graph", "sparse",
                                           "sim",    "engine", "cache",
                                           "check",  "report", "serve"};
  double attributed = 0.0;
  for (const auto& l : layers) {
    const auto it = acc.self_s.find(l);
    const double s = it == acc.self_s.end() ? 0.0 : it->second;
    attributed += s;
    say("self." + l + "_s", s, "s",
        std::to_string(acc.wall_s > 0 ? 100.0 * s / acc.wall_s : 0.0) + " %");
  }
  say("self.unattributed_s", acc.unattributed_s, "s");
  say("sum of the above", attributed + acc.unattributed_s, "s",
      "(traced wall " + std::to_string(acc.wall_s) + " s)");
  std::cout << "tracing overhead (" << o.workload << "): traced " << traced_s
            << " s - untraced " << untraced_s << " s = "
            << traced_s - untraced_s << " s\n";
  const double parallel_eff = core_s / (jobs * sw.execute_s);
  say("suite_s (traced sweep)", sw.execute_s + sw.records_s, "s",
      "engine.parallel_eff " + std::to_string(parallel_eff) +
          ", core.max_cell_s " + std::to_string(max_cell_s));

  std::cout << "per-layer:\n";
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    r.add(name, v, unit);
    say(name, v, unit);
  };
  add("core.run_s", core_s, "s");
  for (const auto& p : pair_order) add("core.run_s." + p, run_by_pair[p], "s");
  add("core.max_cell_s", max_cell_s, "s");
  add("core.useful_gflop", useful_flops / 1e9, "GFLOP");
  add("core.host_gflop_per_s", useful_flops / 1e9 / core_s, "GFLOP/s");
  add("core.reference_s", reference_s, "s");
  add("graph.gen_s", graph_s, "s");
  add("sparse.gen_s", sparse_s, "s");
  add("inputs.distinct_ratio",
      static_cast<double>(datasets.size()) / static_cast<double>(gen_calls),
      "ratio");
  add("sim.predicts", static_cast<double>(predicts), "count");
  add("sim.predict_s", predict_s, "s");
  add("engine.execute_s", sw.execute_s, "s");
  add("engine.parallel_eff", parallel_eff, "ratio");
  add("engine.memo_hit_us", memo_s / static_cast<double>(eng_cells.size()) * 1e6,
      "us");
  add("engine.values_mb", values_b / kMB, "MB");
  add("engine.misses", static_cast<double>(counters.misses), "count");
  add("engine.memo_hits", static_cast<double>(counters.memo_hits), "count");
  add("engine.disk_hits", static_cast<double>(counters.disk_hits), "count");
  add("engine.coalesced_hits", static_cast<double>(counters.coalesced_hits),
      "count");
  add("engine.disk_errors", static_cast<double>(counters.disk_errors), "count");
  add("cache.store_s", store_s, "s");
  add("cache.written_mb", written_b / kMB, "MB");
  add("cache.load_s", load_s, "s");
  add("cache.read_mb", read_b / kMB, "MB");
  add("cache.load_mb_per_s", read_b / kMB / load_s, "MB/s");
  add("cache.hit_ratio",
      static_cast<double>(load_hits) / static_cast<double>(loads), "ratio");
  add("check.verify_s", verify_s, "s");
  add("check.values_compared", values_compared, "count");
  add("check.violations", static_cast<double>(violations), "count");
  add("report.records_s", sw.records_s, "s");
  add("report.serialize_s", serialize_s, "s");
  add("report.parse_s", parse_s, "s");
  add("report.bytes", report_b, "B");
  add("serve.ping_rtt_ms", median(ping_ms), "ms");
  add("serve.run_report_ms", median(mix.run_report_s) * 1e3, "ms");
  add("serve.suite_report_ms", median(mix.suite_report_s) * 1e3, "ms");
  add("serve.max_queue_depth", static_cast<double>(stats.max_queue_depth),
      "count");
  add("serve.rejected",
      static_cast<double>(stats.rejected_overloaded + stats.rejected_deadline +
                          stats.rejected_shutdown),
      "count");
  for (const auto& l : layers) {
    const auto it = acc.self_s.find(l);
    r.add("self." + l + "_s", it == acc.self_s.end() ? 0.0 : it->second, "s");
  }
  r.add("self.unattributed_s", acc.unattributed_s, "s");
  add("trace.wall_s", acc.wall_s, "s");
  add("trace.overhead_s", traced_s - untraced_s, "s");
  add("trace.spans", static_cast<double>(acc.spans), "count");

  // Spans are written once, at the end.
  Json meta = host_record(o);
  const std::string out_dir = o.work_dir + "/traces";
  fs::create_directories(out_dir);
  const std::string path = out_dir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  std::ofstream(path) << log.chrome_trace(std::move(meta)).dump(-1) << "\n";
  std::cout << "trace written to " << path << "\n";
  return r;
}

int run(const Options& o) {
  if (!o.digest_of.empty()) {
    std::string err;
    const auto rep = cubie::report::MetricsReport::read_file(o.digest_of, &err);
    if (!rep) throw UsageError("cannot read " + o.digest_of + ": " + err);
    std::cout << digest_line(digest_of(*rep)) << "\n";
    return 0;
  }
  fs::create_directories(o.work_dir);
  const RunDir dir(o.work_dir);
  preflight(o, dir);
  std::cout << "cubiebench: workload " << o.workload << ", seed " << o.seed
            << ", " << o.seconds << " s, trace " << (o.trace ? 1 : 0)
            << ", scale " << o.scale << ", jobs " << nproc() << "\n";
  Result r = o.trace                   ? run_traced(o, dir)
             : o.workload == "suite"   ? run_suite(o)
             : o.workload == "warm"    ? run_warm(o, dir)
                                       : run_serve(o, dir);
  std::cout << host_record(o).dump(-1) << "\n";
  std::cout << r.line() << std::endl;
  return r.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "cubiebench: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const PreflightError& e) {
    std::cerr << "cubiebench: preflight failed: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "cubiebench: error: " << e.what() << "\n";
    return 4;
  }
}
