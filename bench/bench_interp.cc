// Experiment: execution-tier throughput — legacy vs decoded vs JIT
// (DESIGN.md §10, §14).
//
// Measures interpreter throughput — executions/sec of one verified program —
// for the legacy instruction-at-a-time interpreter, the pre-decoded micro-op
// engine, and the x86-64 JIT tier, on a plain and a sanitizer-rewritten
// program, at repeat=1 and repeat=64 (the campaign's hot ProgTestRunRepeat
// shape). Each timed batch reproduces one campaign case: ResetCaseState
// (arena rewind — the KASAN-model arena never reuses freed memory, so a
// long-lived substrate would exhaust it), map create, PROG_LOAD (verify +
// rewrite + decode + compile), then one test_run of |repeat| back-to-back
// executions. At repeat=1 the per-case verify/decode/compile overhead is
// unamortized — the JIT's worst case (a fresh code mapping per batch); at
// repeat=64 execution dominates, which is where the native tier pays off.
//
// The measured program is a 200-iteration bounded loop doing three
// map-value accesses per iteration. Map-value pointers are exactly what the
// sanitation pass instruments (constant-offset stack accesses are skipped by
// design, paper §4.2), so the sanitized variant executes ~600
// bpf_asan_{load,store} dispatches per run — the path the decoded engine
// lowers to inlined uops and the JIT compiles to inline shadow checks.
//
// Digest equality is enforced inside the bench, twice:
//   * per-batch: all three engines must produce identical ExecResult
//     (r0, errno, insns_executed) for every measured configuration, and
//   * campaign-level: a full jobs=1 campaign (sanitize on, all bugs) run
//     with --interp=legacy, --interp=decoded, and --interp=jit must produce
//     the same StatsDigest. A faster engine that drifts is a correctness
//     failure, not a perf data point.
//
// Acceptance bars: decoded >= 1.5x legacy execs/sec on the sanitized program
// at repeat=64 (ISSUE 4), and jit >= 3x decoded on the same cell (ISSUE 9;
// enforced only where JitAvailable() — elsewhere the jit tier downgrades to
// decoded and the bar would measure the downgrade, not the JIT).
//
// Results go to stdout as a table and to bench_interp.json for tooling.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/core/checkpoint.h"
#include "src/ebpf/builder.h"
#include "src/runtime/bpf_syscall.h"
#include "src/runtime/jit_prog.h"
#include "src/sanitizer/asan_funcs.h"
#include "src/sanitizer/instrument.h"

namespace bvf {
namespace {

constexpr int kLoopIterations = 200;
constexpr uint64_t kTotalExecs = 4096;  // per measurement cell
constexpr int kBestOf = 3;              // damp scheduler noise
constexpr uint64_t kCampaignIterations = 500;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Bounded loop over a map value: load, store, load back, ALU mix. The three
// accesses per iteration go through a PTR_TO_MAP_VALUE pointer, so the
// sanitizer rewrites each into a bpf_asan_load/store call.
bpf::Program LoopProgram(int map_fd) {
  using namespace bpf;
  ProgramBuilder b;
  b.StoreImm(kSizeW, kR10, -4, 0);          //  0: key = 0
  b.LdMapFd(kR1, map_fd);                   //  1 (+hi slot 2)
  b.Mov(kR2, kR10);                         //  3
  b.Add(kR2, -4);                           //  4
  b.Call(kHelperMapLookupElem);             //  5
  b.JmpIf(kJmpJne, kR0, 0, 2);              //  6: value != null -> insn 9
  b.Mov(kR0, 0);                            //  7
  b.Ret();                                  //  8
  b.Mov(kR8, kR0);                          //  9: value pointer
  b.Mov(kR6, 0);                            // 10: accumulator
  b.Mov(kR7, kLoopIterations);              // 11: counter
  // loop: (insn 12)
  b.Load(kSizeDw, kR1, kR8, 0);             // 12
  b.Add(kR6, kR1);                          // 13
  b.Store(kSizeDw, kR8, kR6, 8);            // 14
  b.Load(kSizeDw, kR2, kR8, 8);             // 15
  b.Alu(kAluXor, kR6, kR2);                 // 16
  b.Alu(kAluMul, kR6, 3);                   // 17
  b.Add(kR6, 7);                            // 18
  b.Mov(kR1, 1);                            // 19
  b.Alu(kAluRsh, kR6, kR1);                 // 20: shifts need the reg form
  b.Alu(kAluSub, kR7, 1);                   // 21
  b.JmpIf(kJmpJne, kR7, 0, -11);            // 22: back to insn 12
  b.Mov(kR0, kR6);                          // 23
  b.Ret();                                  // 24
  return b.Build();
}

struct Measurement {
  double seconds = 0;
  double execs_per_sec = 0;
  uint64_t r0 = 0;
  int err = 0;
  uint64_t insns = 0;
  bool ok = true;
};

// One campaign-case-shaped batch per ProgTestRunRepeat call: reset, map,
// load, run |repeat| times. Returns the wall time of |batches| such cases.
// Every batch pays the full verify/decode/compile cost its engine incurs at
// PROG_LOAD, exactly like a campaign case.
Measurement Measure(bpf::ExecEngine engine, bool sanitize, int repeat) {
  Measurement best;
  best.ok = false;
  for (int attempt = 0; attempt < kBestOf; ++attempt) {
    bpf::Kernel kernel(bpf::KernelVersion::kBpfNext, bpf::BugConfig::None());
    bpf::Bpf facade(kernel);
    facade.set_exec_engine(engine);
    Sanitizer sanitizer;
    if (sanitize) {
      bpf::BpfAsan::Register(kernel);
      facade.set_instrument(sanitizer.Hook());
    }
    const uint64_t batches = kTotalExecs / static_cast<uint64_t>(repeat);
    bpf::MapDef def;
    def.value_size = 16;
    bpf::ExecResult last;
    bool ok = true;
    const double start = Now();
    for (uint64_t i = 0; i < batches && ok; ++i) {
      facade.ResetCaseState();
      const int map_fd = facade.MapCreate(def);
      bpf::VerifierResult result;
      const int fd = facade.ProgLoad(LoopProgram(map_fd), &result);
      if (map_fd <= 0 || fd <= 0) {
        fprintf(stderr, "FATAL: bench case setup failed (map %d, prog %d): %s\n",
                map_fd, fd, result.log.c_str());
        ok = false;
        break;
      }
      last = facade.ProgTestRunRepeat(fd, repeat);
      ok = last.err == 0;
    }
    const double seconds = Now() - start;
    if (!ok) {
      fprintf(stderr, "FATAL: bench execution failed: err=%d (%s)\n", last.err,
              last.abort_reason.c_str());
      exit(1);
    }
    if (attempt == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.execs_per_sec = static_cast<double>(batches * repeat) / seconds;
      best.r0 = last.r0;
      best.err = last.err;
      best.insns = last.insns_executed;
      best.ok = true;
    }
  }
  return best;
}

std::string CampaignDigest(bpf::ExecEngine engine) {
  CampaignOptions options;
  options.version = bpf::KernelVersion::kBpfNext;
  options.bugs = bpf::BugConfig::All();
  options.iterations = kCampaignIterations;
  options.seed = 1;
  options.interp_engine = engine;
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  const CampaignStats stats = fuzzer.Run();
  return StatsDigest(stats);
}

}  // namespace
}  // namespace bvf

int main() {
  using namespace bvf;
  PrintHeader("execution tiers: legacy vs decoded vs jit throughput");
  printf("program: %d-iteration loop, 3 map-value accesses/iteration; %" PRIu64
         " execs per cell, best of %d\n"
         "each batch = one campaign case: reset + map create + PROG_LOAD + "
         "test_run(repeat)\n"
         "jit tier: %s\n\n",
         kLoopIterations, kTotalExecs, kBestOf,
         bpf::JitAvailable() ? "available (x86-64, W^X)"
                             : "UNAVAILABLE (jit column runs decoded)");

  struct Cell {
    const char* label;
    bool sanitize;
    int repeat;
    Measurement legacy;
    Measurement decoded;
    Measurement jit;
  };
  Cell cells[] = {
      {"plain      repeat=1", false, 1, {}, {}, {}},
      {"plain      repeat=64", false, 64, {}, {}, {}},
      {"sanitized  repeat=1", true, 1, {}, {}, {}},
      {"sanitized  repeat=64", true, 64, {}, {}, {}},
  };

  bool exec_parity = true;
  printf("%-22s %12s %12s %12s %9s %9s\n", "config", "legacy e/s", "decoded e/s",
         "jit e/s", "dec/leg", "jit/dec");
  PrintRule(82);
  for (Cell& cell : cells) {
    cell.legacy = Measure(bpf::ExecEngine::kLegacy, cell.sanitize, cell.repeat);
    cell.decoded = Measure(bpf::ExecEngine::kDecoded, cell.sanitize, cell.repeat);
    cell.jit = Measure(bpf::ExecEngine::kJit, cell.sanitize, cell.repeat);
    const bool same = cell.legacy.r0 == cell.decoded.r0 &&
                      cell.legacy.err == cell.decoded.err &&
                      cell.legacy.insns == cell.decoded.insns &&
                      cell.jit.r0 == cell.decoded.r0 &&
                      cell.jit.err == cell.decoded.err &&
                      cell.jit.insns == cell.decoded.insns;
    exec_parity = exec_parity && same;
    printf("%-22s %12.0f %12.0f %12.0f %8.2fx %8.2fx%s\n", cell.label,
           cell.legacy.execs_per_sec, cell.decoded.execs_per_sec,
           cell.jit.execs_per_sec,
           cell.decoded.execs_per_sec / cell.legacy.execs_per_sec,
           cell.jit.execs_per_sec / cell.decoded.execs_per_sec,
           same ? "" : "  EXEC MISMATCH");
  }

  const double sanitized64_speedup =
      cells[3].decoded.execs_per_sec / cells[3].legacy.execs_per_sec;
  const double sanitized64_jit_speedup =
      cells[3].jit.execs_per_sec / cells[3].decoded.execs_per_sec;
  printf("\nper-exec results identical across engines: %s\n",
         exec_parity ? "yes" : "NO");
  printf("sanitized repeat=64 decoded/legacy speedup: %.2fx (acceptance bar >= 1.5x)\n",
         sanitized64_speedup);
  printf("sanitized repeat=64 jit/decoded speedup: %.2fx (acceptance bar >= 3x%s)\n",
         sanitized64_jit_speedup,
         bpf::JitAvailable() ? "" : "; waived, jit unavailable");

  printf("\ncampaign digest check (%" PRIu64 " iterations, sanitize on, all bugs)\n",
         kCampaignIterations);
  const std::string digest_decoded = CampaignDigest(bpf::ExecEngine::kDecoded);
  const std::string digest_legacy = CampaignDigest(bpf::ExecEngine::kLegacy);
  const std::string digest_jit = CampaignDigest(bpf::ExecEngine::kJit);
  const bool digests_match =
      digest_decoded == digest_legacy && digest_decoded == digest_jit;
  printf("decoded %s / legacy %s / jit %s: %s\n", digest_decoded.c_str(),
         digest_legacy.c_str(), digest_jit.c_str(),
         digests_match ? "identical" : "DIVERGED");

  FILE* json = fopen("bench_interp.json", "w");
  if (json) {
    fprintf(json,
            "{\n"
            "  \"loop_iterations\": %d,\n"
            "  \"execs_per_cell\": %" PRIu64 ",\n"
            "  \"best_of\": %d,\n"
            "  \"jit_available\": %s,\n"
            "  \"exec_parity\": %s,\n"
            "  \"campaign_digests_match\": %s,\n"
            "  \"campaign_digest\": \"%s\",\n"
            "  \"sanitized_repeat64_speedup\": %.3f,\n"
            "  \"sanitized_repeat64_jit_speedup\": %.3f,\n"
            "  \"cells\": [\n",
            kLoopIterations, kTotalExecs, kBestOf,
            bpf::JitAvailable() ? "true" : "false", exec_parity ? "true" : "false",
            digests_match ? "true" : "false", digest_decoded.c_str(),
            sanitized64_speedup, sanitized64_jit_speedup);
    for (size_t i = 0; i < 4; ++i) {
      const Cell& cell = cells[i];
      fprintf(json,
              "    {\"sanitize\": %s, \"repeat\": %d, \"legacy_execs_per_sec\": %.1f, "
              "\"decoded_execs_per_sec\": %.1f, \"jit_execs_per_sec\": %.1f, "
              "\"speedup\": %.3f, \"jit_speedup\": %.3f}%s\n",
              cell.sanitize ? "true" : "false", cell.repeat,
              cell.legacy.execs_per_sec, cell.decoded.execs_per_sec,
              cell.jit.execs_per_sec,
              cell.decoded.execs_per_sec / cell.legacy.execs_per_sec,
              cell.jit.execs_per_sec / cell.decoded.execs_per_sec, i == 3 ? "" : ",");
    }
    fprintf(json, "  ]\n}\n");
    fclose(json);
    printf("wrote bench_interp.json\n");
  }

  if (!exec_parity || !digests_match) {
    return 1;
  }
  if (sanitized64_speedup < 1.5) {
    return 1;
  }
  if (bpf::JitAvailable() && sanitized64_jit_speedup < 3.0) {
    return 1;
  }
  return 0;
}
