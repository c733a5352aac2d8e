// perfbench driver: runs one vmstorm workload once, in this process, and
// prints one JSON object with everything the harness (run.py) needs.
//
//   vmstorm_perfbench --workload <name> --seed <n> [--instances <n>]
//                     [--traced 0|1] [--spans <path>]
//
// It drives vmstorm only through the public API: the cloud::Cloud
// constructor and phase calls, metrics_json(), trace_jsonl(), the
// sim::Engine counters and Engine::set_profiler. Host time is measured
// around those calls twice: wall time with std::chrono::steady_clock and
// the process's CPU time with CLOCK_PROCESS_CPUTIME_ID. run.py compares
// CPU times when this build and the reference build share one CPU.
//
// With --traced 1 the same workload also records the driver's own spans
// around every public call (written to --spans as JSONL), attaches an
// obs::SelfProfiler, reads metrics_json() and the engine counters after
// each phase and samples VmRSS between calls. None of that may change the
// simulation: run.py compares the traced run's sim counters and model
// outputs with an untraced run of the same seed.
//
// Checks are not judged here. The driver reports raw outcomes (statuses,
// model outputs, invariant gauges, line counts) and run.py decides, so
// the smoke test can show every check failing on doctored input.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "cloud/scale_workload.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"
#include "util/bench_util.hpp"

namespace vmstorm {
namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this (single-threaded) process has run, excluding the
/// time it waited for the CPU.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// The driver's own spans: one per public call, parented to the arm
/// (one Cloud) that made it, which is parented to the workload root.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 2011;
  std::size_t instances = 0;  // 0: the workload's own size
  bool traced = false;
  std::string spans_path;
};

class Driver {
 public:
  explicit Driver(const Options& opt) : opt_(opt) {
    out_.begin_object();
    out_.key("workload").value(opt.workload);
    out_.key("seed").value(opt.seed);
    out_.key("traced").value(opt.traced);
    out_.key("rss_start_mib").value(mib(obs::current_rss_bytes()));
    out_.key("arms").begin_array();
    root_ = open_span("workload:" + opt.workload, -1);
  }

  /// One Cloud: constructs it (timed as set-up), runs `body` on it, then
  /// reports the engine counters and metrics_json() at the end.
  void arm(const cloud::CloudConfig& cfg, cloud::Strategy s, bool trace_on,
           const std::function<void(cloud::Cloud&)>& body) {
    arm_span_ = open_span(std::string("arm:") + cloud::strategy_name(s), root_);
    out_.begin_object();
    out_.key("strategy").value(cloud::strategy_name(s));
    out_.key("instances").value(static_cast<std::uint64_t>(cfg.compute_nodes));
    out_.key("rss_before_setup_mib").value(mib(obs::current_rss_bytes()));
    const int setup = open_span("Cloud::Cloud", arm_span_);
    const double t0 = now_s();
    const double c0 = cpu_s();
    cloud::Cloud c(cfg, s);
    const double c1 = cpu_s();
    const double t1 = now_s();
    close_span(setup);
    out_.key("setup_s").value(t1 - t0);
    out_.key("setup_cpu_s").value(c1 - c0);
    if (opt_.traced) {
      out_.key("rss_after_setup_mib").value(mib(obs::current_rss_bytes()));
    }
    // Overrides VMSTORM_TRACE / VMSTORM_TIMELINE from the environment.
    c.obs().trace.set_enabled(trace_on);
    c.obs().timeline.set_enabled(false);
    obs::SelfProfiler prof;
    if (opt_.traced) {
      c.engine().set_profiler(&prof);
      c.obs().trace.set_profiler(&prof);
    }
    out_.key("phases").begin_array();
    body(c);
    out_.end_array();
    c.engine().set_profiler(nullptr);
    c.obs().trace.set_profiler(nullptr);

    write_engine(c.engine());
    if (opt_.traced) {
      out_.key("profiler").begin_object();
      out_.key("run_s").value(prof.run_seconds());
      out_.key("queue_ops_s").value(prof.seconds(obs::SelfProfiler::kQueueOps));
      out_.key("auditor_s").value(prof.seconds(obs::SelfProfiler::kAuditor));
      out_.key("resume_s").value(prof.seconds(obs::SelfProfiler::kResume));
      out_.key("tracer_s").value(prof.seconds(obs::SelfProfiler::kTracer));
      out_.key("user_work_s").value(prof.user_seconds());
      out_.end_object();
    }
    const obs::Tracer& tr = c.obs().trace;
    out_.key("trace").begin_object();
    out_.key("recorded").value(tr.recorded_total());
    out_.key("retained").value(static_cast<std::uint64_t>(tr.size()));
    out_.key("dropped_ring").value(tr.dropped_ring());
    out_.key("dropped_sampling").value(tr.dropped_sampling());
    out_.end_object();
    out_.key("repository_bytes").value(c.repository_bytes());
    const int ms = open_span("Cloud::metrics_json", arm_span_);
    out_.key("metrics").raw(c.metrics_json());
    close_span(ms);
    out_.end_object();
    close_span(arm_span_);
  }

  /// Times one public phase call: `call()` alone is timed, then
  /// `report(writer, result)` writes its outputs and returns its status.
  template <class Call, class Report>
  void phase(cloud::Cloud& c, const char* name, Call&& call, Report&& report) {
    out_.begin_object();
    out_.key("call").value(name);
    const int span = open_span(name, arm_span_);
    const double t0 = now_s();
    const double c0 = cpu_s();
    const auto result = call();
    const double c1 = cpu_s();
    const double t1 = now_s();
    close_span(span);
    out_.key("wall_s").value(t1 - t0);
    out_.key("cpu_s").value(c1 - c0);
    const Status st = report(out_, result);
    out_.key("ok").value(st.is_ok());
    out_.key("status").value(st.to_string());
    if (opt_.traced) {
      out_.key("rss_after_mib").value(mib(obs::current_rss_bytes()));
      write_engine(c.engine());
      const int ms = open_span("Cloud::metrics_json", arm_span_);
      out_.key("metrics").raw(c.metrics_json());
      close_span(ms);
    }
    out_.end_object();
  }

  int finish() {
    close_span(root_);
    out_.end_array();
    out_.key("peak_rss_mib").value(mib(obs::peak_rss_bytes()));
    out_.end_object();
    std::printf("%s\n", out_.str().c_str());
    if (opt_.traced && !opt_.spans_path.empty()) {
      std::ofstream f(opt_.spans_path, std::ios::binary | std::ios::trunc);
      const std::string run = opt_.workload + "/" + std::to_string(opt_.seed);
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        obs::JsonWriter w;
        w.begin_object();
        w.key("id").value(static_cast<std::uint64_t>(i));
        w.key("run").value(run);
        w.key("name").value(spans_[i].name);
        w.key("start").value(spans_[i].start - spans_[0].start);
        w.key("end").value(spans_[i].end - spans_[0].start);
        w.key("parent").value(static_cast<std::int64_t>(spans_[i].parent));
        w.end_object();
        f << w.str() << "\n";
      }
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", opt_.spans_path.c_str());
        return 1;
      }
    }
    return 0;
  }

 private:
  int open_span(std::string name, int parent) {
    if (!opt_.traced) return -1;
    spans_.push_back(Span{std::move(name), now_s(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close_span(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
  }

  void write_engine(const sim::Engine& e) {
    out_.key("engine").begin_object();
    out_.key("events").value(e.events_processed());
    out_.key("events_scheduled").value(e.events_scheduled());
    out_.key("queue_depth_hw")
        .value(static_cast<std::uint64_t>(e.queue_depth_high_water()));
    out_.key("wait_records_created").value(e.wait_records_created());
    out_.end_object();
  }

  Options opt_;
  obs::JsonWriter out_;
  std::vector<Span> spans_;
  int root_ = -1;
  int arm_span_ = -1;
};

Status write_deploy(obs::JsonWriter& w, const cloud::MultideployMetrics& m,
                    std::size_t n) {
  w.key("boot_mean_s").value(m.boot_seconds.mean());
  w.key("boot_p99_s").value(m.boot_seconds.percentile(99));
  w.key("completion_s").value(m.completion_seconds);
  w.key("traffic_bytes").value(m.network_traffic);
  if (m.boot_seconds.count() != n) return internal_error("instances missing");
  return Status();
}

void deploy(Driver& d, cloud::Cloud& c, std::size_t n,
            const vm::BootTraceParams& tp) {
  d.phase(
      c, "multideploy", [&] { return c.multideploy(n, tp); },
      [n](obs::JsonWriter& w, const cloud::MultideployMetrics& m) {
        return write_deploy(w, m, n);
      });
}

void snapshot(Driver& d, cloud::Cloud& c) {
  d.phase(
      c, "multisnapshot", [&] { return c.multisnapshot(); },
      [](obs::JsonWriter& w, const Result<cloud::MultisnapshotMetrics>& r) {
        if (!r.is_ok()) return r.status();
        w.key("completion_s").value(r->completion_seconds);
        w.key("traffic_bytes").value(r->network_traffic);
        w.key("repo_growth_bytes").value(r->repository_growth);
        return Status();
      });
}

void resume(Driver& d, cloud::Cloud& c, const vm::BootTraceParams& tp) {
  d.phase(
      c, "resume_boot", [&] { return c.resume_boot(tp); },
      [&c](obs::JsonWriter& w, const Result<cloud::MultideployMetrics>& r) {
        if (!r.is_ok()) return r.status();
        return write_deploy(w, *r, c.instance_count());
      });
}

void app_phase(Driver& d, cloud::Cloud& c) {
  d.phase(
      c, "run_app_phase", [&] { return c.run_app_phase(10.0, 4_MiB); },
      [](obs::JsonWriter& w, double t) {
        w.key("completion_s").value(t);
        return t > 0 ? Status() : internal_error("empty app phase");
      });
}

/// The JSONL export, serialized in memory, counted and discarded.
void export_trace(Driver& d, cloud::Cloud& c) {
  d.phase(
      c, "trace_jsonl", [&] { return c.trace_jsonl(); },
      [](obs::JsonWriter& w, const std::string& jsonl) {
        w.key("export_bytes").value(static_cast<std::uint64_t>(jsonl.size()));
        w.key("export_peak_rss_mib").value(mib(obs::peak_rss_bytes()));
        w.key("lines").value(static_cast<std::uint64_t>(
            std::count(jsonl.begin(), jsonl.end(), '\n')));
        return Status();
      });
}

int run(const Options& opt) {
  using cloud::Strategy;
  Driver d(opt);
  const auto size = [&opt](std::size_t dflt) {
    return opt.instances != 0 ? opt.instances : dflt;
  };
  if (opt.workload == "scale_10k" || opt.workload == "traced_4k") {
    const bool traced_4k = opt.workload == "traced_4k";
    cloud::CloudConfig cfg =
        cloud::scale_config(size(traced_4k ? 4096 : cloud::kScaleFullNodes));
    cfg.seed = opt.seed;
    const vm::BootTraceParams tp = cloud::scale_trace();
    d.arm(cfg, Strategy::kOurs, traced_4k, [&](cloud::Cloud& c) {
      deploy(d, c, cfg.compute_nodes, tp);
      snapshot(d, c);
      if (traced_4k) export_trace(d, c);
    });
  } else if (opt.workload == "paper_110") {
    cloud::CloudConfig cfg = bench::paper_cloud_config(size(110));
    cfg.seed = opt.seed;
    const vm::BootTraceParams tp = bench::paper_boot_params();
    for (Strategy s : {Strategy::kPrepropagation, Strategy::kQcowOverPvfs,
                       Strategy::kOurs}) {
      d.arm(cfg, s, false, [&](cloud::Cloud& c) {
        deploy(d, c, cfg.compute_nodes, tp);
        if (s != Strategy::kPrepropagation) snapshot(d, c);
      });
    }
  } else if (opt.workload == "back_and_forth") {
    cloud::CloudConfig cfg = cloud::scale_config(size(512));
    cfg.seed = opt.seed;
    const vm::BootTraceParams tp = cloud::scale_trace();
    for (Strategy s : {Strategy::kQcowOverPvfs, Strategy::kOurs}) {
      d.arm(cfg, s, false, [&](cloud::Cloud& c) {
        deploy(d, c, cfg.compute_nodes, tp);
        for (int round = 0; round < 4; ++round) {
          app_phase(d, c);
          snapshot(d, c);
        }
        resume(d, c, tp);
      });
    }
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  return d.finish();
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--instances") {
      opt.instances = std::strtoull(v, nullptr, 10);
    } else if (k == "--traced") {
      opt.traced = std::strcmp(v, "0") != 0;
    } else if (k == "--spans") {
      opt.spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty();
}

}  // namespace
}  // namespace vmstorm

int main(int argc, char** argv) {
  vmstorm::Options opt;
  if (!vmstorm::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> [--seed <n>] [--instances <n>]"
                 " [--traced 0|1] [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return vmstorm::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
}
