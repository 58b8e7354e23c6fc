#include "src/core/fuzzer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "src/analysis/state_audit.h"
#include "src/conformance/corpus.h"
#include "src/conformance/runner.h"
#include "src/core/epoch.h"
#include "src/core/metamorph/metamorph.h"
#include "src/core/metamorph/transform.h"
#include "src/core/metamorph/witness.h"
#include "src/kernel/coverage.h"
#include "src/runtime/bpf_syscall.h"
#include "src/runtime/decoded_prog.h"
#include "src/sanitizer/asan_funcs.h"

namespace bvf {

const char* CaseOutcomeName(CaseOutcome outcome) {
  switch (outcome) {
    case CaseOutcome::kUnclassified:
      return "unclassified";
    case CaseOutcome::kRejected:
      return "rejected";
    case CaseOutcome::kExecOk:
      return "exec-ok";
    case CaseOutcome::kExecFault:
      return "exec-fault";
    case CaseOutcome::kExecTimeout:
      return "exec-timeout";
    case CaseOutcome::kResourceExhausted:
      return "resource-exhausted";
    case CaseOutcome::kPanic:
      return "panic";
    case CaseOutcome::kVerdictDivergence:
      return "verdict-divergence";
    case CaseOutcome::kWitnessDivergence:
      return "witness-divergence";
    case CaseOutcome::kSanitizerDivergence:
      return "sanitizer-divergence";
    case CaseOutcome::kJitDivergence:
      return "jit-divergence";
    case CaseOutcome::kConformanceMismatch:
      return "conformance-mismatch";
    case CaseOutcome::kConformanceReject:
      return "conformance-reject";
  }
  return "unclassified";
}

bool CampaignStats::FoundBug(KnownBug bug) const {
  for (const Finding& finding : findings) {
    if (finding.triaged == bug) {
      return true;
    }
  }
  return false;
}

uint64_t CampaignStats::FoundAtIteration(KnownBug bug) const {
  uint64_t first = 0;
  for (const Finding& finding : findings) {
    if (finding.triaged == bug && (first == 0 || finding.iteration < first)) {
      first = finding.iteration;
    }
  }
  return first;
}

void AccumulateInsnMix(const FuzzCase& the_case, CampaignStats& stats) {
  for (const bpf::Insn& insn : the_case.prog.insns) {
    ++stats.insns_total;
    if (insn.IsAlu() || (insn.IsJmp() && !insn.IsCall() && !insn.IsExit())) {
      ++stats.insns_alu_jmp;
    } else if (insn.IsMemLoad() || insn.IsMemStore() || insn.IsAtomic() ||
               insn.IsLdImm64()) {
      ++stats.insns_mem;
    } else if (insn.IsCall()) {
      ++stats.insns_call;
    }
  }
}

void AccumulateCaseCounters(const CaseRunner::CaseResult& result, CampaignStats& stats) {
  if (result.prog_fd < 0) {
    ++stats.rejected;
    ++stats.reject_errno[-result.prog_fd];
  } else {
    ++stats.accepted;
  }
  stats.exec_runs += result.exec_runs;
  for (const int err : result.exec_errs) {
    if (err != 0) {
      ++stats.exec_failures;
      ++stats.exec_errno[-err];
    }
  }
  stats.fault_injected += result.faults_injected;
  ++stats.outcomes[result.outcome];
  if (result.panicked) {
    ++stats.panics;
    ++stats.substrate_rebuilds;
  }
  stats.metamorph_bases += result.metamorph_bases;
  stats.metamorph_variants += result.metamorph_variants;
  stats.metamorph_verdict_divergences += result.metamorph_verdict_divergences;
  stats.metamorph_witness_divergences += result.metamorph_witness_divergences;
  stats.metamorph_sanitizer_divergences += result.metamorph_sanitizer_divergences;
}

// One simulated machine. Rebuilt from scratch after a panic (the contained
// analogue of a reboot); otherwise rewound between cases via ResetCaseState.
struct CaseRunner::Substrate {
  bpf::Kernel kernel;
  bpf::Bpf bpf;

  explicit Substrate(const CampaignOptions& options)
      : kernel(options.version, options.bugs, options.arena_size), bpf(kernel) {}
};

CaseRunner::CaseRunner(const CampaignOptions& options) : options_(options) {
  if (options_.metamorph) {
    metamorph_ = std::make_unique<MetamorphOracle>(options_);
  }
}

CaseRunner::~CaseRunner() = default;

void CaseRunner::Teardown() { substrate_.reset(); }

CaseRunner::Substrate& CaseRunner::EnsureSubstrate() {
  if (!substrate_) {
    substrate_ = std::make_unique<Substrate>(options_);
    ConfigureSubstrate(*substrate_, &sanitizer_);
  }
  return *substrate_;
}

void CaseRunner::ConfigureSubstrate(Substrate& sub, Sanitizer* sanitizer) {
  // Every substrate — campaign and confirmation alike — runs the selected
  // engine, so a confirmation re-execution reproduces through the exact same
  // path as the original case (the engines are digest-identical anyway; this
  // keeps the intent honest).
  sub.bpf.set_exec_engine(options_.interp_engine);
  if (options_.sanitize) {
    bpf::BpfAsan::Register(sub.kernel);
    sub.bpf.set_instrument(sanitizer->Hook());
  }
  if (options_.audit_state) {
    // Indicator #3: compare every execution's register witnesses against the
    // verifier's claimed abstract state, reporting containment misses.
    bpf::Kernel* kernel = &sub.kernel;
    sub.bpf.set_exec_observer(
        [kernel](const bpf::LoadedProgram& prog, const bpf::WitnessTrace& trace) {
          AuditAndReport(prog, trace, kernel->reports());
        });
  }
  sub.kernel.arena().set_alloc_budget(options_.arena_budget);
  sub.kernel.arena().set_dirty_reset(options_.dirty_reset);
  sub.bpf.set_exec_limits(options_.limits);
}

CaseRunner::DriveResult CaseRunner::DriveCase(Substrate& sub, const FuzzCase& the_case,
                                              uint64_t iteration) {
  DriveResult result;
  bpf::Bpf& bpf = sub.bpf;

  // Create the case's maps and seed a few entries so lookups can hit.
  for (const bpf::MapDef& def : the_case.maps) {
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

  bpf::VerifierResult verdict;
  result.prog_fd = bpf.ProgLoad(the_case.prog, &verdict);
  if (result.prog_fd < 0) {
    return result;
  }
  for (int run = 0; run < the_case.test_runs; ++run) {
    const bpf::ExecResult one = bpf.ProgTestRun(
        result.prog_fd, static_cast<uint32_t>(32 + 16 * run),
        iteration * 16 + static_cast<uint64_t>(run));
    result.exec_errs.push_back(one.err);
    ++result.exec_runs;
  }
  if (the_case.do_attach) {
    if (bpf.ProgAttach(result.prog_fd, the_case.attach_target) == 0) {
      for (bpf::TracepointId event : the_case.events) {
        bpf.FireEvent(event);
      }
      // Attached programs also run when the program itself re-executes.
      const bpf::ExecResult one = bpf.ProgTestRun(result.prog_fd, 64, iteration);
      result.exec_errs.push_back(one.err);
      ++result.exec_runs;
      bpf.DetachAll();
    }
  }
  if (the_case.do_xdp_install && the_case.prog.type == bpf::ProgType::kXdp) {
    if (bpf.XdpInstall(result.prog_fd) == 0) {
      const bpf::ExecResult first = bpf.XdpRun(64, iteration);
      const bpf::ExecResult second = bpf.XdpRun(96, iteration + 1);
      result.exec_errs.push_back(first.err);
      result.exec_errs.push_back(second.err);
      ++result.exec_runs;
    }
  }
  if (the_case.do_map_batch) {
    // Several batched lookups so the simulated bucket-lock contention tick
    // (every 3rd trylock) is reached.
    for (const auto& map : sub.kernel.maps().maps()) {
      if (map->def().type == bpf::MapType::kHash) {
        for (int round = 0; round < 4; ++round) {
          bpf.MapLookupBatch(map->id(), 16);
        }
      }
    }
  }
  return result;
}

namespace {

CaseOutcome ClassifyOutcome(bool panicked, int prog_fd, const std::vector<int>& errs) {
  if (panicked) {
    return CaseOutcome::kPanic;
  }
  if (prog_fd < 0) {
    return CaseOutcome::kRejected;
  }
  bool resource = false;
  bool timeout = false;
  bool fault = false;
  for (const int err : errs) {
    switch (-err) {
      case 0:
        break;
      case ENOMEM:
      case E2BIG:
      case ENOSPC:
      case EAGAIN:
        resource = true;
        break;
      case ELOOP:
      case ETIMEDOUT:
        timeout = true;
        break;
      default:
        fault = true;
    }
  }
  if (resource) {
    return CaseOutcome::kResourceExhausted;
  }
  if (timeout) {
    return CaseOutcome::kExecTimeout;
  }
  if (fault) {
    return CaseOutcome::kExecFault;
  }
  return CaseOutcome::kExecOk;
}

// JIT differential oracle (Indicator #5): execute the case's program once
// under the decoded interpreter and once under the JIT, each on a clean
// throwaway substrate, and compare the witnesses. The two engines implement
// one semantics, so ANY difference is a miscompile by construction. The
// signature keys on which witness field diverged (not the program), so one
// codegen bug dedups to one finding however many programs hit it — the same
// discipline the metamorphic oracle uses. Returns an empty vector when the
// witnesses agree or the JIT is unavailable (the jit leg would silently run
// decoded: nothing to compare).
std::vector<Finding> RunJitOracle(const FuzzCase& the_case, uint64_t iteration,
                                  const CampaignOptions& options) {
  std::vector<Finding> findings;
  if (!bpf::JitAvailable()) {
    return findings;
  }
  // Oracle executions must not feed coverage: corpus evolution (and with it
  // the campaign digest) has to be identical whether the oracle is on or off
  // for the base stream.
  bpf::ScopedCoverageSuppress suppress;

  CampaignOptions decoded_options = options;
  decoded_options.interp_engine = bpf::ExecEngine::kDecoded;
  CampaignOptions jit_options = options;
  jit_options.interp_engine = bpf::ExecEngine::kJit;
  const ExecWitness decoded = CollectWitness(the_case.prog, the_case, decoded_options);
  const ExecWitness jit = CollectWitness(the_case.prog, the_case, jit_options);

  const char* field = nullptr;
  std::string what;
  if (decoded.accepted != jit.accepted) {
    // Cannot happen today (verification precedes engine selection), but a
    // future load-time compile error surfacing as -errno would land here.
    field = "verdict";
    char buf[96];
    snprintf(buf, sizeof(buf), "decoded %s (errno %d), jit %s (errno %d)",
             decoded.accepted ? "accepted" : "rejected", -decoded.load_err,
             jit.accepted ? "accepted" : "rejected", -jit.load_err);
    what = buf;
  } else if (!decoded.SameExecution(jit)) {
    field = "execution";
    for (size_t i = 0; i < decoded.run_errs.size() && i < jit.run_errs.size(); ++i) {
      if (decoded.run_errs[i] != jit.run_errs[i] || decoded.run_r0[i] != jit.run_r0[i]) {
        char buf[128];
        snprintf(buf, sizeof(buf),
                 "run %zu: decoded err=%d r0=0x%llx, jit err=%d r0=0x%llx", i,
                 decoded.run_errs[i],
                 static_cast<unsigned long long>(decoded.run_r0[i]), jit.run_errs[i],
                 static_cast<unsigned long long>(jit.run_r0[i]));
        what = buf;
        break;
      }
    }
    if (what.empty()) {
      what = "run counts differ";
    }
  } else if (decoded.panicked != jit.panicked) {
    field = "panic";
    what = "panic state differs";
  } else if (decoded.report_kinds != jit.report_kinds) {
    field = "reports";
    char buf[96];
    snprintf(buf, sizeof(buf),
             "indicator kind sets differ (decoded %zu kinds, jit %zu kinds)",
             decoded.report_kinds.size(), jit.report_kinds.size());
    what = buf;
  }
  if (field == nullptr) {
    return findings;
  }

  Finding finding;
  finding.kind = bpf::ReportKind::kJitDivergence;
  finding.signature =
      std::string(bpf::ReportKindName(finding.kind)) + " in " + field;
  char buf[160];
  snprintf(buf, sizeof(buf), "prog fnv=0x%016llx: %s",
           static_cast<unsigned long long>(ProgramFnv(the_case.prog)), what.c_str());
  finding.details = buf;
  finding.indicator = 5;
  finding.iteration = iteration;
  findings.push_back(std::move(finding));
  return findings;
}

}  // namespace

CaseRunner::CaseResult CaseRunner::RunOne(const FuzzCase& the_case, uint64_t iteration) {
  Substrate& sub = EnsureSubstrate();
  CaseResult result;

  // Per-case fault schedule, seeded independently of case generation
  // (FaultSeed and CaseSeed mix the campaign seed with the iteration through
  // different constants), so fault decisions neither perturb generation nor
  // drift across checkpoint/resume.
  std::unique_ptr<bpf::FaultInjector> injector;
  if (options_.fault.Active()) {
    injector = std::make_unique<bpf::FaultInjector>(
        options_.fault, bpf::FaultSeed(options_.seed, iteration));
    sub.kernel.set_fault_injector(injector.get());
  }

  const DriveResult drive = DriveCase(sub, the_case, iteration);
  sub.kernel.set_fault_injector(nullptr);

  result.prog_fd = drive.prog_fd;
  result.exec_runs = drive.exec_runs;
  result.exec_errs = drive.exec_errs;
  if (injector != nullptr) {
    result.faults_injected = injector->total_failures();
  }

  result.panicked = sub.kernel.reports().panicked();
  result.outcome = ClassifyOutcome(result.panicked, drive.prog_fd, drive.exec_errs);

  // Oracle: convert this case's reports into findings before the substrate is
  // rewound (reports live on the kernel and do not survive the reset).
  result.findings = ClassifyReports(sub.kernel.reports(), 0, iteration);
  if (injector != nullptr && !result.findings.empty()) {
    result.fault_log = injector->log();
  }

  // Indicator #4: metamorphic examination of accepted cases. The oracle runs
  // on its own throwaway substrates (never this one) with coverage
  // suppressed, so it cannot disturb the campaign stream; it only adds
  // counters, findings, and — on divergence — an escalated outcome.
  if (metamorph_ != nullptr && !result.panicked && result.prog_fd > 0) {
    const MetamorphOracle::Result mm = metamorph_->Examine(the_case, iteration);
    result.metamorph_bases = mm.bases_examined;
    result.metamorph_variants = mm.variants_executed;
    result.metamorph_verdict_divergences = mm.verdict_divergences;
    result.metamorph_witness_divergences = mm.witness_divergences;
    result.metamorph_sanitizer_divergences = mm.sanitizer_divergences;
    result.findings.insert(result.findings.end(), mm.findings.begin(),
                           mm.findings.end());
    if (mm.escalated != CaseOutcome::kUnclassified) {
      result.outcome = mm.escalated;
    }
  }

  // Indicator #5: JIT-vs-interpreter differential comparison of accepted
  // cases. Like the metamorphic oracle it runs on throwaway substrates with
  // coverage suppressed; a divergence is the highest-precedence outcome (a
  // miscompile trumps any other classification of the same case).
  if (options_.jit_oracle && !result.panicked && result.prog_fd > 0) {
    std::vector<Finding> jit_findings = RunJitOracle(the_case, iteration, options_);
    if (!jit_findings.empty()) {
      result.outcome = CaseOutcome::kJitDivergence;
      result.findings.insert(result.findings.end(),
                             std::make_move_iterator(jit_findings.begin()),
                             std::make_move_iterator(jit_findings.end()));
    }
  }

  // Panic containment: a panicked machine is dead — tear it down and let the
  // next case boot a replacement. Otherwise rewind (or discard, when substrate
  // reuse is off).
  if (result.panicked) {
    substrate_.reset();
  } else if (options_.reuse_substrate) {
    sub.bpf.ResetCaseState();
  } else {
    substrate_.reset();
  }
  return result;
}

bool CaseRunner::ReproduceOnce(const FuzzCase& the_case, uint64_t iteration,
                               const std::string& signature, const bpf::FaultLog* replay) {
  // Confirmation runs on a throwaway substrate with a local sanitizer, so
  // they cannot disturb the campaign's substrate or instrumentation stats.
  Substrate sub(options_);
  Sanitizer confirm_sanitizer;
  ConfigureSubstrate(sub, &confirm_sanitizer);
  bpf::FaultInjector injector =
      replay != nullptr ? bpf::FaultInjector::Replay(*replay)
                        : bpf::FaultInjector(bpf::FaultConfig{}, 0);
  if (replay != nullptr) {
    sub.kernel.set_fault_injector(&injector);
  }
  DriveCase(sub, the_case, iteration);
  sub.kernel.set_fault_injector(nullptr);
  for (const Finding& finding : ClassifyReports(sub.kernel.reports(), 0, iteration)) {
    if (finding.signature == signature) {
      return true;
    }
  }
  return false;
}

void CaseRunner::ConfirmFinding(Finding& finding, const FuzzCase& the_case,
                                uint64_t iteration, const bpf::FaultLog& fault_log) {
  const int k = options_.confirm_runs;
  if (k <= 0) {
    return;
  }
  // Coverage is process-global; confirmation re-executions must not feed the
  // campaign's corpus-growth or curve accounting. In a worker thread this
  // mutes the thread's sink; without a sink it disables the global recorder.
  bpf::ScopedCoverageSuppress suppress;

  if (finding.indicator == 5) {
    // JIT-divergence findings are fault-free by construction (the oracle
    // drives clean substrates), so confirmation is re-comparison:
    // deterministic iff every re-run reproduces the divergence signature.
    int hits = 0;
    for (int run = 0; run < k; ++run) {
      for (const Finding& repro : RunJitOracle(the_case, iteration, options_)) {
        if (repro.signature == finding.signature) {
          ++hits;
          break;
        }
      }
    }
    finding.confirmation =
        hits == k ? Confirmation::kDeterministic : Confirmation::kFlaky;
    finding.confirm_hits = hits;
    finding.confirm_runs = k;
    return;
  }

  if (finding.indicator == 4) {
    // Metamorphic findings are fault-free by construction (the oracle drives
    // clean substrates), so confirmation is re-examination: deterministic iff
    // every re-run reproduces the divergence signature.
    MetamorphOracle oracle(options_);
    int hits = 0;
    for (int run = 0; run < k; ++run) {
      const MetamorphOracle::Result mm = oracle.Examine(the_case, iteration);
      for (const Finding& repro : mm.findings) {
        if (repro.signature == finding.signature) {
          ++hits;
          break;
        }
      }
    }
    finding.confirmation =
        hits == k ? Confirmation::kDeterministic : Confirmation::kFlaky;
    finding.confirm_hits = hits;
    finding.confirm_runs = k;
    return;
  }

  int clean_hits = 0;
  for (int run = 0; run < k; ++run) {
    clean_hits += ReproduceOnce(the_case, iteration, finding.signature, nullptr) ? 1 : 0;
  }
  if (clean_hits == k) {
    finding.confirmation = Confirmation::kDeterministic;
    finding.confirm_hits = clean_hits;
    finding.confirm_runs = k;
  } else if (!fault_log.empty()) {
    // Not cleanly reproducible: replay the recorded fault schedule.
    int replay_hits = 0;
    for (int run = 0; run < k; ++run) {
      replay_hits += ReproduceOnce(the_case, iteration, finding.signature, &fault_log) ? 1 : 0;
    }
    finding.confirmation = replay_hits == k ? Confirmation::kFaultDependent
                                            : Confirmation::kFlaky;
    finding.confirm_hits = clean_hits + replay_hits;
    finding.confirm_runs = 2 * k;
  } else {
    finding.confirmation = Confirmation::kFlaky;
    finding.confirm_hits = clean_hits;
    finding.confirm_runs = k;
  }
}

bool RunConformancePrologue(const CampaignOptions& options, CampaignStats& stats,
                            std::vector<FuzzCase>* corpus) {
  std::vector<conf::ConformanceCase> cases;
  std::string error;
  if (!conf::LoadCorpusDir(options.conformance_dir, &cases, &error)) {
    stats.resume_error = "conformance: " + error;
    return false;
  }

  // The prologue is not part of the coverage-guided loop: whatever kernel
  // paths the corpus lights up must not seed the campaign's hit set, or a
  // --conformance campaign would generate differently from a bare one.
  bpf::ScopedCoverageSuppress suppress;

  conf::RunnerConfig config;
  config.version = options.version;
  config.bugs = options.bugs;
  config.arena_size = options.arena_size;
  config.sanitize = options.sanitize;
  config.limits = options.limits;
  const conf::ConformanceRunner runner(config);

  std::vector<conf::CaseResult> results;
  results.reserve(cases.size());
  const conf::ConformanceRunner::Summary summary = runner.RunCorpus(cases, &results);
  stats.conf_cases += summary.cases;
  stats.conf_passed += summary.passed;
  stats.conf_mismatches += summary.mismatches;
  stats.conf_rejects += summary.rejects;

  for (size_t i = 0; i < cases.size(); ++i) {
    const conf::ConformanceCase& c = cases[i];
    const conf::CaseResult& result = results[i];

    const bool mismatch = result.verdict == conf::CaseVerdict::kMismatch;
    const bool verdict_gap = result.verdict == conf::CaseVerdict::kReject ||
                             result.verdict == conf::CaseVerdict::kUnexpectedAccept;
    if (mismatch || verdict_gap) {
      Finding finding;
      finding.kind = mismatch ? bpf::ReportKind::kConformanceMismatch
                              : bpf::ReportKind::kConformanceReject;
      finding.signature = std::string(bpf::ReportKindName(finding.kind)) + " in " + c.name;
      finding.details =
          std::string(CaseOutcomeName(mismatch ? CaseOutcome::kConformanceMismatch
                                               : CaseOutcome::kConformanceReject)) +
          " (" + conf::CaseVerdictName(result.verdict) + "): " + result.detail;
      finding.indicator = 6;
      finding.iteration = 0;  // pre-campaign
      if (stats.finding_signatures.insert(finding.signature).second) {
        // Conformance cases are replayable by construction; confirmation is a
        // straight re-run of the case through the same runner.
        if (options.confirm_runs > 0) {
          int hits = 0;
          for (int run = 0; run < options.confirm_runs; ++run) {
            if (runner.RunCase(c).verdict == result.verdict) {
              ++hits;
            }
          }
          finding.confirm_runs = options.confirm_runs;
          finding.confirm_hits = hits;
          finding.confirmation = hits == options.confirm_runs
                                     ? Confirmation::kDeterministic
                                     : Confirmation::kFlaky;
        }
        stats.findings.push_back(std::move(finding));
      }
    }

    // Accepted-and-executed cases become mutation seeds: authored programs
    // cover instruction shapes the structured generator rarely emits.
    if (corpus != nullptr &&
        (result.verdict == conf::CaseVerdict::kPass || mismatch) &&
        corpus->size() < 512) {
      FuzzCase seed;
      seed.prog = conf::ToProgram(c);
      seed.test_runs = 2;
      corpus->push_back(std::move(seed));
      ++stats.conf_seeded;
    }
  }
  return true;
}

}  // namespace bvf
