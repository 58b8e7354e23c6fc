#include "src/conformance/runner.h"

#include <sstream>

#include "src/runtime/bpf_syscall.h"
#include "src/runtime/jit_prog.h"
#include "src/runtime/kernel.h"
#include "src/sanitizer/asan_funcs.h"
#include "src/sanitizer/instrument.h"

namespace bvf {
namespace conf {

namespace {

// Later verdicts are worse; Worst() folds per-engine classifications.
CaseVerdict Worst(CaseVerdict a, CaseVerdict b) { return a < b ? b : a; }

std::string FormatR0(uint64_t value) {
  std::ostringstream os;
  os << value;
  if (value > 9) {
    os << " (0x" << std::hex << value << ")";
  }
  return os.str();
}

}  // namespace

const char* CaseVerdictName(CaseVerdict verdict) {
  switch (verdict) {
    case CaseVerdict::kPass:
      return "pass";
    case CaseVerdict::kExpectedReject:
      return "expected-reject";
    case CaseVerdict::kUnexpectedAccept:
      return "unexpected-accept";
    case CaseVerdict::kReject:
      return "reject";
    case CaseVerdict::kMismatch:
      return "mismatch";
  }
  return "?";
}

bpf::Program ToProgram(const ConformanceCase& c) {
  bpf::Program prog;
  prog.type = bpf::ProgType::kTracepoint;
  prog.insns = c.insns;
  return prog;
}

CaseResult ConformanceRunner::RunCase(const ConformanceCase& c) const {
  CaseResult result;
  result.name = c.name;
  const bpf::Program prog = ToProgram(c);

  static const bpf::ExecEngine kEngines[] = {
      bpf::ExecEngine::kLegacy, bpf::ExecEngine::kDecoded, bpf::ExecEngine::kJit};

  bool classified_load = false;
  bool accepted = false;
  std::ostringstream detail;
  for (const bpf::ExecEngine engine : kEngines) {
    EngineRun run;
    run.engine = engine;
    if (engine == bpf::ExecEngine::kJit && !bpf::JitAvailable()) {
      result.runs.push_back(run);  // ran = false: engine unavailable here
      continue;
    }

    // Fresh substrate per engine: no state carried across engines, so every
    // run is a from-scratch load + execute.
    bpf::Kernel kernel(config_.version, config_.bugs, config_.arena_size);
    bpf::Bpf bpf(kernel);
    bpf.set_exec_engine(engine);
    bvf::Sanitizer sanitizer;
    if (config_.sanitize) {
      bpf::BpfAsan::Register(kernel);
      bpf.set_instrument(sanitizer.Hook());
    }
    bpf.set_exec_limits(config_.limits);

    bpf::VerifierResult verdict;
    const int fd = bpf.ProgLoad(prog, &verdict);
    if (!classified_load) {
      classified_load = true;
      accepted = fd > 0;
      if (!accepted) {
        result.verifier_log = verdict.log;
        if (c.expect_reject) {
          if (!c.expected_error.empty() &&
              verdict.log.find(c.expected_error) == std::string::npos) {
            result.verdict = Worst(result.verdict, CaseVerdict::kReject);
            detail << "rejected, but log lacks expected substring '"
                   << c.expected_error << "'; ";
          } else {
            result.verdict = Worst(result.verdict, CaseVerdict::kExpectedReject);
          }
        } else {
          result.verdict = Worst(result.verdict, CaseVerdict::kReject);
          detail << "verifier rejected a -- result case; ";
        }
      } else if (c.expect_reject) {
        result.verdict = Worst(result.verdict, CaseVerdict::kUnexpectedAccept);
        detail << "verifier accepted a -- error case; ";
      }
    } else if ((fd > 0) != accepted) {
      // The verifier is engine-independent; acceptance flipping with the
      // engine would mean load-path state bleeding into verification.
      result.verdict = Worst(result.verdict, CaseVerdict::kMismatch);
      detail << bpf::ExecEngineName(engine) << ": load verdict diverged; ";
    }
    if (fd <= 0 || c.expect_reject) {
      result.runs.push_back(run);
      continue;
    }

    const bpf::ExecResult exec = bpf.ProgTestRunCtx(fd, c.mem);
    run.ran = true;
    run.r0 = exec.r0;
    run.err = exec.err;
    run.abort_reason = exec.abort_reason;
    result.runs.push_back(run);

    if (exec.err != 0) {
      result.verdict = Worst(result.verdict, CaseVerdict::kMismatch);
      detail << bpf::ExecEngineName(engine) << ": aborted ("
             << (exec.abort_reason.empty() ? "err" : exec.abort_reason) << "="
             << exec.err << "); ";
    } else if (exec.r0 != c.expected_r0) {
      result.verdict = Worst(result.verdict, CaseVerdict::kMismatch);
      detail << bpf::ExecEngineName(engine) << ": r0 = " << FormatR0(exec.r0)
             << ", expected " << FormatR0(c.expected_r0) << "; ";
    }
  }
  result.detail = detail.str();
  return result;
}

ConformanceRunner::Summary ConformanceRunner::RunCorpus(
    const std::vector<ConformanceCase>& corpus, std::vector<CaseResult>* results) const {
  Summary summary;
  for (const ConformanceCase& c : corpus) {
    CaseResult result = RunCase(c);
    ++summary.cases;
    switch (result.verdict) {
      case CaseVerdict::kPass:
      case CaseVerdict::kExpectedReject:
        ++summary.passed;
        break;
      case CaseVerdict::kMismatch:
        ++summary.mismatches;
        break;
      case CaseVerdict::kReject:
      case CaseVerdict::kUnexpectedAccept:
        ++summary.rejects;
        break;
    }
    if (results != nullptr) {
      results->push_back(std::move(result));
    }
  }
  return summary;
}

}  // namespace conf
}  // namespace bvf
