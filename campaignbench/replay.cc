// Traced pass (see replay.h). For each campaign of the seed's stream, while
// the time lasts:
//
// 1. Untraced runs at the workload's topology, at jobs=1 and (assure)
//    in-process give the wall-clock ratios: parallel efficiency, supervisor
//    overhead, trace overhead. A recording BenchGenerator wraps one more
//    in-process run and keeps every generated case with its span.
// 2. The recorded cases are replayed in iteration order, coverage
//    suppressed, through the public entry points on a benchmark-owned
//    Kernel/Bpf configured the way CaseRunner configures one. The instrument
//    hook and the exec observer are wrapped so sanitize and audit become
//    child spans of load and exec.
// 3. Spans stay in memory; those of the first campaign are written to
//    <out>/trace-<workload>-<campaign seed>.tsv, later campaigns only add to
//    the per-layer totals.

#include "replay.h"

#include <malloc.h>
#include <sys/stat.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/analysis/lints.h"
#include "src/analysis/state_audit.h"
#include "src/core/checkpoint.h"
#include "src/core/epoch.h"
#include "src/core/metamorph/metamorph.h"
#include "src/core/metamorph/witness.h"
#include "src/kernel/coverage.h"
#include "src/runtime/bpf_syscall.h"
#include "src/runtime/decoded_prog.h"
#include "src/runtime/jit_prog.h"
#include "src/runtime/kernel.h"
#include "src/runtime/verdict_cache.h"
#include "src/sanitizer/asan_funcs.h"
#include "src/sanitizer/instrument.h"
#include "src/verifier/verifier.h"
#include "stats_util.h"

namespace campaignbench {
namespace {

constexpr int kBootSamples = 5;     // extra throwaway boots for boot.us
constexpr int kEngineSamples = 32;  // accepted cases timed on all three engines
constexpr int kEngineRuns = 64;     // ProgTestRunRepeat count per engine sample

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t case_id;
};

class Tracer {
 public:
  int32_t Begin(const char* name) {
    spans_.push_back(Span{name, NowNs(), 0, current_, case_id_});
    current_ = static_cast<int32_t>(spans_.size()) - 1;
    return current_;
  }
  // Closes span |index| and returns its duration in nanoseconds.
  int64_t End(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    current_ = span.parent;
    return span.end_ns - span.start_ns;
  }
  void Record(const Span& span) { spans_.push_back(span); }
  void set_case(int64_t case_id) { case_id_ = case_id; }
  void Clear() {
    spans_.clear();
    current_ = -1;
  }

  bool Write(const std::string& path) const {
    FILE* file = fopen(path.c_str(), "w");
    if (file == nullptr) {
      return false;
    }
    fprintf(file, "name\tstart_ns\tend_ns\tparent\tcase\n");
    for (const Span& span : spans_) {
      fprintf(file, "%s\t%" PRId64 "\t%" PRId64 "\t%d\t%" PRId64 "\n", span.name,
              span.start_ns, span.end_ns, span.parent, span.case_id);
    }
    return fclose(file) == 0;
  }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
  int64_t case_id_ = -1;
};

// Nanosecond total and event count of one span kind.
struct Acc {
  double ns = 0;
  uint64_t n = 0;
  void Add(int64_t d) {
    ns += static_cast<double>(d);
    ++n;
  }
  double UsPer(double count) const { return Ratio(ns / 1e3, count); }
};

// One generated case of the traced campaign, with its generator span.
struct RecordedCase {
  uint64_t iteration = 0;
  const bvf::FuzzCase* the_case = nullptr;
  GenSpan span;
};

// Maps each worker's generator calls back to absolute iterations: worker w
// runs iterations s+w, s+w+jobs, ... of every epoch [s, e] (src/core/epoch.h),
// one generator call per iteration. Returns false when the logs do not
// account for exactly |iterations| calls.
bool AssignIterations(const GenRecorder& recorder, uint64_t iterations, uint64_t epoch_len,
                      int jobs, std::vector<RecordedCase>* out) {
  if (static_cast<int>(recorder.logs().size()) != jobs) {
    return false;
  }
  out->assign(iterations, RecordedCase{});
  for (const auto& log : recorder.logs()) {
    size_t call = 0;
    for (uint64_t start = 1; start <= iterations; start += epoch_len) {
      const uint64_t end = std::min(iterations, start + epoch_len - 1);
      for (uint64_t i = start + static_cast<uint64_t>(log->worker); i <= end;
           i += static_cast<uint64_t>(jobs)) {
        if (call >= log->cases.size()) {
          return false;
        }
        RecordedCase& rc = (*out)[i - 1];
        rc.iteration = i;
        rc.the_case = &log->cases[call];
        rc.span = log->spans[call];
        ++call;
      }
    }
    if (call != log->cases.size()) {
      return false;
    }
  }
  return true;
}

struct Substrate {
  bpf::Kernel kernel;
  bpf::Bpf bpf;
  explicit Substrate(const bvf::CampaignOptions& o)
      : kernel(o.version, o.bugs, o.arena_size), bpf(kernel) {}
};

// Per-layer totals of one replay.
struct ReplayTotals {
  uint64_t cases = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t verdict_mismatches = 0;  // ProgLoad verdict != standalone verdict
  Acc lint, maps, verify_self_accept, verify_self_reject, verify_sanitize;
  Acc load, load_sanitize, decode, jit, exec_run, audit, repeat_audit, reset;
  Acc witness, metamorph, jit_oracle;
  uint64_t insns_generated = 0;
  uint64_t verify_insns_processed = 0;
  uint64_t verify_states_pruned = 0;
  uint64_t verify_peak_states = 0;
  uint64_t uops = 0;
  uint64_t jit_code_bytes = 0;
  uint64_t jit_compiled = 0;
  uint64_t runs = 0;
  uint64_t run_insns = 0;
  uint64_t run_fails = 0;
  // exec.ctx_ns_per_run inputs: cases whose N single runs and one
  // ProgTestRunRepeat(N) all succeeded.
  double ctx_single_ns = 0;
  double ctx_repeat_ns = 0;
  uint64_t ctx_runs = 0;
  double engine_ns[3] = {0, 0, 0};  // legacy, decoded, jit
  uint64_t engine_insns[3] = {0, 0, 0};
  int engine_samples = 0;
  uint64_t metamorph_bases = 0;
  uint64_t metamorph_variants = 0;
  uint64_t vcache_lookups = 0;
  uint64_t vcache_hits = 0;
  uint64_t jcache_lookups = 0;
  uint64_t jcache_hits = 0;
  bvf::SanitizerStats sanitizer;  // load-path instrumentation, all campaigns
  std::vector<double> boot_ns;
  std::vector<double> cold_boot_ns;
  // Per-case ProgLoad self time. Reported as a median: the difference of two
  // timings of the same verification is dominated by timing noise on the few
  // multi-millisecond rejections, which a mean would let through.
  std::vector<double> load_self_ns;
  std::vector<double> case_ns;  // per-case attributed time, gen included
  double attributed_ns = 0;
};

class Replayer {
 public:
  Replayer(const bvf::CampaignOptions& options, Tracer& tracer, ReplayTotals& totals)
      : options_(options), tracer_(tracer), t_(totals), oracle_(options_) {}

  // Boots the replay substrate. With |samples| > 0, first boots it that many
  // times cold (each after malloc_trim(0) has handed the freed pages back to
  // the kernel, so the boot page-faults its memory in) and that many times
  // warm, for the boot.cold_us and boot.us medians.
  void Start(int samples) {
    for (int i = 0; i < samples; ++i) {
      sub_.reset();
      malloc_trim(0);
      t_.cold_boot_ns.push_back(static_cast<double>(Boot()));
    }
    for (int i = 0; i < samples; ++i) {
      t_.boot_ns.push_back(static_cast<double>(Boot()));
    }
    if (sub_ == nullptr) {
      Boot();
    }
  }

  void ReplayCase(const RecordedCase& rc);

  const bvf::SanitizerStats& load_sanitizer_stats() const { return load_sanitizer_.stats(); }

 private:
  // (Re)builds the substrate; returns the boot time in nanoseconds.
  int64_t Boot();
  // Runs |fn| inside a span named |name|, adding its duration to |acc|.
  template <typename Fn>
  int64_t Timed(const char* name, Acc& acc, Fn&& fn) {
    const int32_t span = tracer_.Begin(name);
    fn();
    const int64_t ns = tracer_.End(span);
    acc.Add(ns);
    return ns;
  }
  std::function<void(bpf::Program&, std::vector<bpf::InsnAux>&)> WrappedHook(
      bvf::Sanitizer* sanitizer, const char* name, Acc* acc) {
    return [this, sanitizer, name, acc](bpf::Program& prog, std::vector<bpf::InsnAux>& aux) {
      Timed(name, *acc, [&] { sanitizer->Instrument(prog, aux); });
    };
  }
  void EngineSample(const bvf::FuzzCase& the_case, uint64_t iteration);

  const bvf::CampaignOptions& options_;
  Tracer& tracer_;
  ReplayTotals& t_;
  bvf::MetamorphOracle oracle_;
  std::unique_ptr<Substrate> sub_;
  bvf::Sanitizer load_sanitizer_;
  bvf::Sanitizer verify_sanitizer_;
  bvf::Sanitizer engine_sanitizer_;
  Acc* audit_acc_ = nullptr;
  std::unordered_set<bpf::VerdictKey, bpf::VerdictKeyHash> vkeys_;
  std::unordered_set<bpf::VerdictKey, bpf::VerdictKeyHash> jkeys_;
};

int64_t Replayer::Boot() {
  sub_.reset();
  const int32_t span = tracer_.Begin("boot");
  sub_ = std::make_unique<Substrate>(options_);
  // The CaseRunner substrate configuration, with sanitize and audit wrapped.
  bpf::Bpf& bpf = sub_->bpf;
  bpf.set_exec_engine(options_.interp_engine);
  if (options_.sanitize) {
    bpf::BpfAsan::Register(sub_->kernel);
    bpf.set_instrument(WrappedHook(&load_sanitizer_, "load.sanitize", &t_.load_sanitize));
  }
  if (options_.audit_state) {
    bpf::Kernel* kernel = &sub_->kernel;
    bpf.set_exec_observer(
        [this, kernel](const bpf::LoadedProgram& prog, const bpf::WitnessTrace& trace) {
          Timed(audit_acc_ == &t_.audit ? "exec.audit" : "repeat.audit", *audit_acc_,
                [&] { bvf::AuditAndReport(prog, trace, kernel->reports()); });
        });
  }
  sub_->kernel.arena().set_alloc_budget(options_.arena_budget);
  sub_->kernel.arena().set_dirty_reset(options_.dirty_reset);
  bpf.set_exec_limits(options_.limits);
  return tracer_.End(span);
}

void Replayer::EngineSample(const bvf::FuzzCase& the_case, uint64_t iteration) {
  static constexpr bpf::ExecEngine kEngines[3] = {
      bpf::ExecEngine::kLegacy, bpf::ExecEngine::kDecoded, bpf::ExecEngine::kJit};
  static constexpr const char* kNames[3] = {"engine.legacy", "engine.decoded", "engine.jit"};
  Acc unused;
  for (int e = 0; e < 3; ++e) {
    if (kEngines[e] == bpf::ExecEngine::kJit && !bpf::JitAvailable()) {
      continue;
    }
    // A second facade over the same kernel: the case's maps are visible, no
    // exec observer, so the repeat times the engine rather than the audit.
    bpf::Bpf facade(sub_->kernel);
    facade.set_exec_engine(kEngines[e]);
    if (options_.sanitize) {
      facade.set_instrument(engine_sanitizer_.Hook());
    }
    facade.set_exec_limits(options_.limits);
    const int fd = facade.ProgLoad(the_case.prog);
    if (fd < 0) {
      continue;
    }
    bpf::ExecResult result;
    const int64_t ns = Timed(kNames[e], unused, [&] {
      result = facade.ProgTestRunRepeat(fd, kEngineRuns, 64, iteration * 16);
    });
    t_.engine_ns[e] += static_cast<double>(ns);
    t_.engine_insns[e] += result.insns_executed;
  }
  ++t_.engine_samples;
}

void Replayer::ReplayCase(const RecordedCase& rc) {
  const bvf::FuzzCase& c = *rc.the_case;
  const uint64_t iteration = rc.iteration;
  tracer_.set_case(static_cast<int64_t>(iteration));
  tracer_.Record(Span{"gen", rc.span.start_ns, rc.span.end_ns, -1,
                      static_cast<int64_t>(iteration)});
  ++t_.cases;
  t_.insns_generated += c.prog.insns.size();
  double case_ns = static_cast<double>(rc.span.end_ns - rc.span.start_ns);

  Timed("lint", t_.lint, [&] { (void)bvf::LintProgram(c.prog); });

  bpf::Kernel& kernel = sub_->kernel;
  bpf::Bpf& bpf = sub_->bpf;
  case_ns += static_cast<double>(Timed("maps", t_.maps, [&] {
    // DriveCase's map set-up: create, then seed two entries.
    for (const bpf::MapDef& def : c.maps) {
      const int fd = bpf.MapCreate(def);
      if (fd < 0) {
        continue;
      }
      if (def.type == bpf::MapType::kHash || def.type == bpf::MapType::kArray) {
        for (uint32_t k = 0; k < 2 && k < def.max_entries; ++k) {
          std::vector<uint8_t> key(def.key_size, 0);
          std::memcpy(key.data(), &k, std::min<size_t>(sizeof(k), key.size()));
          std::vector<uint8_t> value(def.value_size, 0);
          bpf.MapUpdateElem(fd, key.data(), value.data());
        }
      }
    }
  }));

  const bpf::VerdictKey key =
      bpf::MakeVerdictKey(c.prog, kernel, options_.sanitize, options_.audit_state);
  ++t_.vcache_lookups;
  t_.vcache_hits += vkeys_.insert(key).second ? 0 : 1;

  // Standalone verification with ProgLoad's environment.
  bpf::VerifierEnv env;
  env.maps = &kernel.maps();
  env.btf = &kernel.btf();
  env.version = kernel.version();
  env.bugs = kernel.bugs();
  env.map_obj_addr = [&kernel](int map_id) {
    bpf::Map* map = kernel.maps().Find(map_id);
    return map != nullptr ? map->obj_addr() : 0ull;
  };
  env.btf_obj_addr = [&kernel](int btf_id) { return kernel.BtfObjAddr(btf_id); };
  if (options_.sanitize) {
    env.instrument = WrappedHook(&verify_sanitizer_, "verify.sanitize", &t_.verify_sanitize);
  }
  env.collect_state_claims = options_.audit_state;
  // One untimed verification first, so the timed standalone verify and the
  // timed ProgLoad below both see this program warm; otherwise the second of
  // them would run faster and load.self_us_per_case would be skewed.
  {
    bpf::VerifierEnv warm_env = env;
    bvf::Sanitizer warm_sanitizer;
    warm_env.instrument = options_.sanitize ? warm_sanitizer.Hook() : nullptr;
    (void)bpf::VerifyProgram(c.prog, warm_env);
  }
  const double sanitize_before = t_.verify_sanitize.ns;
  bpf::VerifierResult verdict;
  Acc unused;
  const int64_t verify_ns =
      Timed("verify", unused, [&] { verdict = bpf::VerifyProgram(c.prog, env); });
  const double verify_self =
      static_cast<double>(verify_ns) - (t_.verify_sanitize.ns - sanitize_before);
  const bool accepted = verdict.ok();
  (accepted ? t_.verify_self_accept : t_.verify_self_reject)
      .Add(static_cast<int64_t>(verify_self));
  (accepted ? t_.accepted : t_.rejected) += 1;
  t_.verify_insns_processed += verdict.insns_processed;
  t_.verify_states_pruned += verdict.states_pruned;
  t_.verify_peak_states += verdict.peak_states;

  double decode_ns = 0;
  if (accepted) {
    std::shared_ptr<const bpf::DecodedProgram> decoded;
    decode_ns = static_cast<double>(Timed(
        "decode", t_.decode, [&] { decoded = bpf::DecodeProgram(verdict.prog, verdict.aux); }));
    t_.uops += decoded->uops.size();
    ++t_.jcache_lookups;
    t_.jcache_hits += jkeys_.insert(key).second ? 0 : 1;
    if (bpf::JitAvailable()) {
      std::shared_ptr<const bpf::JitProgram> jit;
      Timed("jit.compile", t_.jit, [&] { jit = bpf::CompileJit(*decoded); });
      if (jit != nullptr) {
        t_.jit_code_bytes += jit->code_size;
        ++t_.jit_compiled;
      }
    }
  }

  int fd = -1;
  const double load_sanitize_before = t_.load_sanitize.ns;
  const int64_t load_ns = Timed("load", t_.load, [&] { fd = bpf.ProgLoad(c.prog); });
  case_ns += static_cast<double>(load_ns);
  // What ProgLoad spends outside verify, sanitize and decode. Every workload
  // runs the decoded engine, so ProgLoad compiles no JIT code.
  t_.load_self_ns.push_back(static_cast<double>(load_ns) - verify_self -
                            (t_.load_sanitize.ns - load_sanitize_before) - decode_ns);
  if ((fd > 0) != accepted) {
    ++t_.verdict_mismatches;
  }

  if (fd > 0) {
    audit_acc_ = &t_.audit;
    double single_ns = 0;
    bool all_ok = true;
    for (int run = 0; run < c.test_runs; ++run) {
      bpf::ExecResult one;
      const int64_t ns = Timed("exec.run", t_.exec_run, [&] {
        one = bpf.ProgTestRun(fd, static_cast<uint32_t>(32 + 16 * run),
                              iteration * 16 + static_cast<uint64_t>(run));
      });
      single_ns += static_cast<double>(ns);
      ++t_.runs;
      t_.run_insns += one.insns_executed;
      if (one.err != 0) {
        ++t_.run_fails;
        all_ok = false;
      }
    }
    case_ns += single_ns;

    if (!kernel.reports().panicked()) {
      if (options_.metamorph) {
        bvf::MetamorphOracle::Result mm;
        case_ns += static_cast<double>(
            Timed("metamorph", t_.metamorph, [&] { mm = oracle_.Examine(c, iteration); }));
        t_.metamorph_bases += mm.bases_examined;
        t_.metamorph_variants += mm.variants_executed;
        Timed("witness", t_.witness, [&] { (void)bvf::CollectWitness(c.prog, c, options_); });
      }
      if (options_.jit_oracle && bpf::JitAvailable()) {
        // The campaign's JIT oracle: decoded and jit witnesses of the case.
        case_ns += static_cast<double>(Timed("jit_oracle", t_.jit_oracle, [&] {
          bvf::CampaignOptions decoded_options = options_;
          decoded_options.interp_engine = bpf::ExecEngine::kDecoded;
          bvf::CampaignOptions jit_options = options_;
          jit_options.interp_engine = bpf::ExecEngine::kJit;
          (void)bvf::CollectWitness(c.prog, c, decoded_options);
          (void)bvf::CollectWitness(c.prog, c, jit_options);
        }));
      }
    }

    // Measurement-only work (not attributed to the campaign): per-run
    // context set-up and the three engines.
    if (all_ok && c.test_runs > 0 && !kernel.reports().panicked()) {
      audit_acc_ = &t_.repeat_audit;
      bpf::ExecResult repeated;
      const int64_t ns = Timed("exec.repeat", unused, [&] {
        repeated = bpf.ProgTestRunRepeat(fd, c.test_runs, 64, iteration * 16);
      });
      if (repeated.err == 0) {
        t_.ctx_single_ns += single_ns;
        t_.ctx_repeat_ns += static_cast<double>(ns);
        t_.ctx_runs += static_cast<uint64_t>(c.test_runs);
      }
      if (t_.engine_samples < kEngineSamples && !kernel.reports().panicked()) {
        EngineSample(c, iteration);
      }
    }
  }

  if (kernel.reports().panicked()) {
    const int64_t ns = Boot();
    t_.boot_ns.push_back(static_cast<double>(ns));
    case_ns += static_cast<double>(ns);
  } else {
    case_ns += static_cast<double>(Timed("reset", t_.reset, [&] { bpf.ResetCaseState(); }));
  }
  t_.case_ns.push_back(case_ns);
  t_.attributed_ns += case_ns;
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

template <typename Fn>
double MedianMs(int times, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < times; ++i) {
    const int64_t start = NowNs();
    fn();
    ms.push_back(1e-6 * static_cast<double>(NowNs() - start));
  }
  return Median(ms);
}

}  // namespace

int RunTraced(const Workload& w0, double seconds, const std::string& out_dir) {
  const int jobs = w0.options.jobs;
  const uint64_t cases = w0.options.iterations;
  const bool supervised = w0.topology == Topology::kSupervised;
  printf("traced workload %s cases/campaign=%" PRIu64 " jobs=%d\n", w0.name.c_str(), cases,
         jobs);
  CheckList checks;
  uint64_t attempted = 0;
  bool all_ok = true;
  char detail[160];

  // Wall and CPU sums per topology, pooled over the traced campaigns.
  double u_wall = 0, u_cpu = 0, j1_wall = 0, ip_wall = 0, t_wall = 0;
  double checkpoint_bytes = 0, checkpoint_load_ms = 0, checkpoint_save_ms = 0;
  double journal_bytes = 0, prologue_ms = 0;
  double coverage = 0, rebuilds = 0, restarts = 0, bugs = 0, conf_passed = 0, conf_cases = 0;
  double dcache_hits = 0, dcache_lookups = 0;
  double gen_ns = 0, gen_mutates = 0;
  int mismatches = 0;
  Tracer tracer;
  ReplayTotals t;
  const std::string span_path =
      out_dir + "/trace-" + w0.name + "-" + std::to_string(w0.options.seed) + ".tsv";

  // Campaigns SubSeed(seed, 0), (seed, 1), ... while the time lasts. Each is
  // run untraced at the workload's topology, at jobs=1, in-process (when the
  // workload is supervised) and traced; then the traced one is replayed.
  const int64_t begin = NowNs();
  int k = 0;
  for (; k < 1 || 1e-9 * static_cast<double>(NowNs() - begin) < seconds; ++k) {
    // w0 carries SubSeed(seed, 0) = seed * 1000, so this is SubSeed(seed, k).
    Workload w = w0;
    w.options.seed = w0.options.seed + static_cast<uint64_t>(k);
    const bvf::CampaignOptions& o = w.options;
    const std::string label = "campaign" + std::to_string(k);

    // The untraced run at the workload's topology is every other run's
    // digest reference.
    bvf::CampaignStats u_stats;
    const CampaignRun u = RunCampaign(w, w.topology, jobs, nullptr, &u_stats);
    const auto check = [&](const std::string& what, const CampaignRun& run) {
      all_ok = CheckRun(label + "." + what, run, &run == &u ? nullptr : &u, "", cases,
                        checks) &&
               all_ok;
      attempted += cases;
    };
    check("untraced", u);
    u_wall += u.wall_s;
    u_cpu += u.cpu_s;
    restarts += static_cast<double>(u_stats.worker_restarts);
    if (k == 0 && !o.checkpoint_path.empty()) {
      // The checkpoint the workload's own engine wrote at its last barrier.
      checkpoint_bytes = static_cast<double>(FileBytes(o.checkpoint_path));
      bvf::CampaignCheckpoint cp;
      std::string error;
      checkpoint_load_ms =
          MedianMs(3, [&] { bvf::LoadCheckpoint(o.checkpoint_path, &cp, &error); });
      checks.Add(label + ".checkpoint_loads", error.empty(), error);
      const std::string copy = o.checkpoint_path + ".copy";
      checkpoint_save_ms = MedianMs(3, [&] { bvf::SaveCheckpoint(copy, cp); });
    }
    const CampaignRun j1 = RunCampaign(w, w.topology, 1, nullptr);
    check("jobs1", j1);
    j1_wall += j1.wall_s;
    if (supervised) {
      const CampaignRun ip = RunCampaign(w, Topology::kInProcess, jobs, nullptr);
      check("inprocess", ip);
      ip_wall += ip.wall_s;
      if (k == 0) {
        mismatches = ReportCounterAgreement(ip, u);
      }
    } else {
      ip_wall += u.wall_s;
    }
    GenRecorder recorder;
    bvf::CampaignStats stats;
    const CampaignRun traced = RunCampaign(w, Topology::kInProcess, jobs, &recorder, &stats);
    check("traced", traced);
    t_wall += traced.wall_s;

    coverage += static_cast<double>(stats.final_coverage);
    rebuilds += static_cast<double>(stats.substrate_rebuilds);
    bugs += traced.bugs_found;
    conf_passed += static_cast<double>(stats.conf_passed);
    conf_cases += static_cast<double>(stats.conf_cases);
    dcache_hits += static_cast<double>(stats.decode_cache_hits);
    dcache_lookups += static_cast<double>(stats.decode_cache_hits + stats.decode_cache_misses);

    if (k == 0) {
      if (!o.journal_path.empty()) {
        // Journal growth without checkpoint rotation.
        Workload journal_only = w;
        journal_only.options.checkpoint_path.clear();
        check("journal", RunCampaign(journal_only, Topology::kInProcess, jobs, nullptr));
        journal_bytes = static_cast<double>(FileBytes(o.journal_path));
      }
      if (!o.conformance_dir.empty()) {
        prologue_ms = MedianMs(3, [&] {
          bvf::CampaignStats prologue_stats;
          std::vector<bvf::FuzzCase> corpus;
          bvf::RunConformancePrologue(o, prologue_stats, &corpus);
        });
      }
    }

    // ---- Replay ----
    std::vector<RecordedCase> recorded;
    const bool assigned = AssignIterations(recorder, cases, o.epoch_len, jobs, &recorded);
    snprintf(detail, sizeof(detail), "%zu generator logs for %d workers",
             recorder.logs().size(), jobs);
    checks.Add(label + ".cases_recorded", assigned, detail);
    all_ok = all_ok && assigned;
    const uint64_t accepted_before = t.accepted;
    const uint64_t mismatches_before = t.verdict_mismatches;
    if (assigned) {
      bpf::ScopedCoverageSuppress suppress;
      Replayer replayer(o, tracer, t);
      replayer.Start(k == 0 ? kBootSamples : 0);
      for (const RecordedCase& rc : recorded) {
        gen_ns += static_cast<double>(rc.span.end_ns - rc.span.start_ns);
        gen_mutates += rc.span.mutate ? 1 : 0;
        replayer.ReplayCase(rc);
      }
      t.sanitizer.Add(replayer.load_sanitizer_stats());
    }
    const uint64_t replay_accepted = t.accepted - accepted_before;
    snprintf(detail, sizeof(detail), "replay %" PRIu64 " vs campaign %" PRIu64 " accepted",
             replay_accepted, stats.accepted);
    checks.Add(label + ".accepted_matches", replay_accepted == stats.accepted, detail);
    snprintf(detail, sizeof(detail), "%" PRIu64, t.verdict_mismatches - mismatches_before);
    checks.Add(label + ".load_matches_verify", t.verdict_mismatches == mismatches_before,
               detail);
    all_ok = all_ok && replay_accepted == stats.accepted &&
             t.verdict_mismatches == mismatches_before;
    // Spans of the first campaign are written out; later campaigns only
    // add to the totals.
    if (k == 0 && !tracer.Write(span_path)) {
      fprintf(stderr, "campaignbench: could not write %s\n", span_path.c_str());
    }
    tracer.Clear();
  }

  // ---- Metrics ----
  const double campaigns = k;
  const double n = static_cast<double>(t.cases);
  const double acc = static_cast<double>(t.accepted);
  const double runs = static_cast<double>(t.runs);
  const double verify_all_ns = t.verify_self_accept.ns + t.verify_self_reject.ns;
  MetricList m;
  m.Add("gen.us_per_case", gen_ns / 1e3 / n, "us");
  m.Add("gen.insns_per_case", static_cast<double>(t.insns_generated) / n, "count");
  m.Add("gen.mutate_share", gen_mutates / n, "ratio");
  m.Add("lint.us_per_case", t.lint.UsPer(n), "us");
  m.Add("verify.us_per_case", verify_all_ns / 1e3 / n, "us");
  m.Add("verify.us_per_accept", t.verify_self_accept.UsPer(acc), "us");
  m.Add("verify.us_per_reject", t.verify_self_reject.UsPer(static_cast<double>(t.rejected)),
        "us");
  m.Add("verify.insns_processed_per_case", static_cast<double>(t.verify_insns_processed) / n,
        "count");
  m.Add("verify.states_pruned_per_case", static_cast<double>(t.verify_states_pruned) / n,
        "count");
  m.Add("verify.peak_states", static_cast<double>(t.verify_peak_states) / n, "count");
  m.Add("verify.accept_ratio", acc / n, "ratio");
  m.Add("sanitize.us_per_accept", t.load_sanitize.UsPer(acc), "us");
  m.Add("sanitize.footprint", t.sanitizer.Footprint(), "ratio");
  m.Add("load.us_per_case", t.load.UsPer(n), "us");
  m.Add("load.self_us_per_case", Median(t.load_self_ns) / 1e3, "us");
  m.Add("maps.us_per_case", t.maps.UsPer(n), "us");
  m.Add("decode.us_per_accept", t.decode.UsPer(acc), "us");
  m.Add("decode.uops_per_accept", Ratio(static_cast<double>(t.uops), acc), "count");
  m.Add("jit.compile_us_per_accept", t.jit.UsPer(acc), "us");
  m.Add("jit.code_bytes_per_accept",
        Ratio(static_cast<double>(t.jit_code_bytes), static_cast<double>(t.jit_compiled)),
        "bytes");
  m.Add("exec.us_per_case", t.exec_run.UsPer(n), "us");
  m.Add("exec.ns_per_run", Ratio(t.exec_run.ns, runs), "ns");
  m.Add("exec.insns_per_run", Ratio(static_cast<double>(t.run_insns), runs), "count");
  m.Add("exec.fail_ratio", Ratio(static_cast<double>(t.run_fails), runs), "ratio");
  m.Add("exec.ctx_ns_per_run",
        Ratio(t.ctx_single_ns - t.ctx_repeat_ns, static_cast<double>(t.ctx_runs)), "ns");
  m.Add("exec.legacy_ns_per_insn",
        Ratio(t.engine_ns[0], static_cast<double>(t.engine_insns[0])), "ns");
  m.Add("exec.decoded_ns_per_insn",
        Ratio(t.engine_ns[1], static_cast<double>(t.engine_insns[1])), "ns");
  m.Add("exec.jit_ns_per_insn",
        Ratio(t.engine_ns[2], static_cast<double>(t.engine_insns[2])), "ns");
  m.Add("audit.ns_per_run", Ratio(t.audit.ns, runs), "ns");
  m.Add("boot.us", Median(t.boot_ns) / 1e3, "us");
  m.Add("boot.cold_us", Median(t.cold_boot_ns) / 1e3, "us");
  m.Add("reset.us_per_case", t.reset.UsPer(static_cast<double>(t.reset.n)), "us");
  m.Add("rebuilds_per_kcase", 1e3 * rebuilds / n, "count");
  m.Add("coverage.branches", coverage / campaigns, "count");
  m.Add("witness.us", t.witness.UsPer(static_cast<double>(t.witness.n)), "us");
  m.Add("metamorph.us_per_base",
        t.metamorph.UsPer(static_cast<double>(t.metamorph_bases)), "us");
  m.Add("metamorph.variants_per_base",
        Ratio(static_cast<double>(t.metamorph_variants), static_cast<double>(t.metamorph_bases)),
        "count");
  m.Add("jit_oracle.us_per_accept", t.jit_oracle.UsPer(acc), "us");
  m.Add("parallel.efficiency", Ratio(j1_wall, u_wall * jobs), "ratio");
  m.Add("parallel.cpu_share", Ratio(u_cpu, u_wall * jobs), "ratio");
  m.Add("epoch.count",
        std::ceil(static_cast<double>(cases) / static_cast<double>(w0.options.epoch_len)),
        "count");
  m.Add("supervise.overhead", supervised ? u_wall / ip_wall - 1 : 0, "ratio");
  m.Add("supervise.restarts", restarts, "count");
  m.Add("checkpoint.bytes", checkpoint_bytes, "bytes");
  m.Add("checkpoint.save_ms", checkpoint_save_ms, "ms");
  m.Add("checkpoint.load_ms", checkpoint_load_ms, "ms");
  m.Add("journal.bytes", journal_bytes, "bytes");
  m.Add("conf.prologue_ms", prologue_ms, "ms");
  m.Add("vcache.hit_ratio",
        Ratio(static_cast<double>(t.vcache_hits), static_cast<double>(t.vcache_lookups)),
        "ratio");
  m.Add("dcache.hit_ratio", Ratio(dcache_hits, dcache_lookups), "ratio");
  m.Add("jcache.hit_ratio",
        Ratio(static_cast<double>(t.jcache_hits), static_cast<double>(t.jcache_lookups)),
        "ratio");
  m.Add("case.us_p50", Quantile(t.case_ns, 0.5) / 1e3, "us");
  m.Add("case.us_p99", Quantile(t.case_ns, 0.99) / 1e3, "us");
  m.Add("case.samples", static_cast<double>(t.case_ns.size()), "count");
  m.Add("trace.overhead", t_wall / ip_wall - 1, "ratio");
  m.Add("trace.unattributed_share", 1 - Ratio(t.attributed_ns, 1e9 * t_wall * jobs), "ratio");
  m.Add("bugs_found", bugs / campaigns, "count");
  m.Add("conf_pass_share", Ratio(conf_passed, conf_cases), "ratio");
  m.Add("agree.mismatches", mismatches, "count");
  const std::string json = m.Json();
  printf("%-34s %14s  %s\n", "per-layer metric", "value", "unit");
  for (const Metric& metric : m.metrics()) {
    printf("%-34s %14.6g  %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  printf("campaigns %d, cases replayed %.0f, spans of campaign 0 written to %s\n", k, n,
         span_path.c_str());
  checks.Summary();
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": %s}\n",
         all_ok && checks.all_pass() ? "true" : "false", attempted,
         all_ok && checks.all_pass() ? 0 : attempted,
         json.c_str());
  return 0;
}

}  // namespace campaignbench
