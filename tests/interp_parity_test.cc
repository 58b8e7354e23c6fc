// Differential parity gate for the execution tiers (DESIGN.md §10, §14):
// every observable of an execution — ExecResult (r0, errno, insns_executed,
// abort_reason), kernel reports, sanitizer stats, coverage, and ultimately
// the campaign StatsDigest — must be bit-identical across all three engines
// (the legacy instruction-at-a-time interpreter, the decoded micro-op engine,
// and the x86-64 JIT tier), for handwritten edge programs, injected-bug
// repros, generated program sweeps, and full jobs=1/jobs=2 campaigns. Also
// locks down the JIT's graceful degradation to decoded and the JIT
// differential oracle (indicator #5) catching a deliberately injected
// miscompile.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/parallel.h"
#include "src/core/structured_gen.h"
#include "src/ebpf/builder.h"
#include "src/runtime/bpf_syscall.h"
#include "src/runtime/decoded_prog.h"
#include "src/runtime/jit_prog.h"
#include "src/sanitizer/asan_funcs.h"
#include "src/sanitizer/instrument.h"

namespace bvf {
namespace {

using bpf::BugConfig;
using bpf::Insn;
using bpf::kR0;
using bpf::kR1;
using bpf::kR2;
using bpf::kR3;
using bpf::kR4;
using bpf::kR6;
using bpf::kR7;
using bpf::kR8;
using bpf::kR10;
using bpf::Kernel;
using bpf::KernelVersion;
using bpf::MapDef;
using bpf::MapType;
using bpf::Program;
using bpf::ProgramBuilder;
using bpf::ProgType;

// Everything one engine's run of a program exposes to the rest of the system.
struct Observation {
  int fd = 0;
  std::string log;
  bpf::ExecResult exec;
  std::vector<std::string> reports;
  SanitizerStats san;
};

struct RunSpec {
  bool sanitize = false;
  int repeat = 1;
  uint32_t pkt_len = 64;
  uint64_t seed = 1;
  bpf::ExecLimits limits;
  BugConfig bugs = BugConfig::All();
  // Builds the program against the freshly booted facade (so it can create
  // maps and reference their fds); called identically for both engines.
  std::function<Program(bpf::Bpf&)> make_prog;
};

Observation Observe(const RunSpec& spec, bpf::ExecEngine engine) {
  Kernel kernel(KernelVersion::kBpfNext, spec.bugs);
  bpf::Bpf facade(kernel);
  facade.set_exec_engine(engine);
  facade.set_exec_limits(spec.limits);
  Sanitizer sanitizer;
  if (spec.sanitize) {
    bpf::BpfAsan::Register(kernel);
    facade.set_instrument(sanitizer.Hook());
  }
  const Program prog = spec.make_prog(facade);

  Observation obs;
  bpf::VerifierResult result;
  obs.fd = facade.ProgLoad(prog, &result);
  obs.log = result.log;
  if (obs.fd > 0) {
    obs.exec = spec.repeat > 1
                   ? facade.ProgTestRunRepeat(obs.fd, spec.repeat, spec.pkt_len, spec.seed)
                   : facade.ProgTestRun(obs.fd, spec.pkt_len, spec.seed);
  }
  for (const bpf::KernelReport& report : kernel.reports().reports()) {
    obs.reports.push_back(std::string(bpf::ReportKindName(report.kind)) + ": " +
                          report.title + " | " + report.details);
  }
  obs.san = sanitizer.stats();
  return obs;
}

void ExpectPairParity(const Observation& a, const Observation& b, const char* what,
                      const char* leg) {
  EXPECT_EQ(a.fd, b.fd) << what << " [" << leg << "]";
  EXPECT_EQ(a.exec.r0, b.exec.r0) << what << " [" << leg << "]";
  EXPECT_EQ(a.exec.err, b.exec.err) << what << " [" << leg << "]";
  EXPECT_EQ(a.exec.insns_executed, b.exec.insns_executed) << what << " [" << leg << "]";
  EXPECT_EQ(a.exec.abort_reason, b.exec.abort_reason) << what << " [" << leg << "]";
  EXPECT_EQ(a.reports, b.reports) << what << " [" << leg << "]";
  EXPECT_EQ(a.san.programs, b.san.programs) << what << " [" << leg << "]";
  EXPECT_EQ(a.san.insns_before, b.san.insns_before) << what << " [" << leg << "]";
  EXPECT_EQ(a.san.insns_after, b.san.insns_after) << what << " [" << leg << "]";
  EXPECT_EQ(a.san.mem_sites, b.san.mem_sites) << what << " [" << leg << "]";
  EXPECT_EQ(a.san.alu_sites, b.san.alu_sites) << what << " [" << leg << "]";
}

// Three-way differential: the decoded engine is the reference; the legacy
// interpreter and the JIT tier must both match it on every observable.
void ExpectParity(const RunSpec& spec, const char* what) {
  const Observation decoded = Observe(spec, bpf::ExecEngine::kDecoded);
  const Observation legacy = Observe(spec, bpf::ExecEngine::kLegacy);
  ExpectPairParity(legacy, decoded, what, "legacy-vs-decoded");
  if (bpf::JitAvailable()) {
    const Observation jit = Observe(spec, bpf::ExecEngine::kJit);
    ExpectPairParity(jit, decoded, what, "jit-vs-decoded");
  }
}

RunSpec Spec(Program prog) {
  RunSpec spec;
  spec.make_prog = [prog = std::move(prog)](bpf::Bpf&) { return prog; };
  return spec;
}

// ---- Handwritten edge programs ----

TEST(InterpParityTest, AluEdgeSemantics) {
  // Masked shifts, div/mod by zero, 32-bit truncation, bswap widths — the
  // semantics audited against Linux in tests/interpreter_test.cc, here run
  // through both engines.
  ProgramBuilder b;
  b.LdImm64(kR6, 0x1122334455667788ull);
  b.Mov(kR1, 64);
  b.Alu(bpf::kAluLsh, kR6, kR1);       // shift masked &63 -> unchanged
  b.LdImm64(kR7, 0x100000005ull);
  b.Mov(kR2, 0);
  b.Raw(bpf::Alu32Reg(bpf::kAluMod, kR7, kR2));  // mod32 by 0 keeps truncated dst
  b.Raw(bpf::Alu32Reg(bpf::kAluDiv, kR6, kR2));  // div32 by 0 zeroes dst
  b.Mov(kR0, kR7);
  b.Ret();
  ExpectParity(Spec(b.Build()), "alu edges");
}

TEST(InterpParityTest, ByteSwapAllWidths) {
  ProgramBuilder b;
  b.LdImm64(kR0, 0x0102030405060708ull);
  for (const int width : {16, 32, 64, 8 /* invalid: engine-defined no-op */}) {
    Insn swap;
    swap.opcode = bpf::kClassAlu | bpf::kAluEnd | 0x08;  // to_be
    swap.dst = kR0;
    swap.imm = width;
    b.Raw(swap);
  }
  Insn to_le;
  to_le.opcode = bpf::kClassAlu | bpf::kAluEnd;
  to_le.dst = kR0;
  to_le.imm = 8;  // invalid width: legacy masks to 0xff
  b.Raw(to_le);
  b.Ret();
  ExpectParity(Spec(b.Build()), "bswap widths");
}

TEST(InterpParityTest, JumpsSignedUnsigned32And64) {
  ProgramBuilder b;
  b.LdImm64(kR6, 0x100000005ull);
  b.Mov(kR0, 0);
  b.Raw(bpf::Jmp32Imm(bpf::kJmpJlt, kR6, 10, 1));  // wr6 == 5 < 10: taken
  b.Ret();
  b.Mov(kR1, -5);
  b.JmpIf(bpf::kJmpJslt, kR1, 3, 1);               // signed: taken
  b.Ret();
  b.JmpIfReg(bpf::kJmpJgt, kR6, kR1, 1);           // unsigned 64: r1 huge, not taken
  b.RetImm(7);
  ExpectParity(Spec(b.Build()), "jumps");
}

TEST(InterpParityTest, AtomicsAllOps) {
  for (const uint8_t size : {bpf::kSizeW, bpf::kSizeDw}) {
    ProgramBuilder b;
    b.StoreImm(bpf::kSizeDw, kR10, -8, 0);
    b.StoreImm(size, kR10, -8, 0x0f);
    for (const int32_t op : {bpf::kAtomicAdd, bpf::kAtomicOr, bpf::kAtomicAnd,
                             bpf::kAtomicXor, bpf::kAtomicAdd | bpf::kAtomicFetch,
                             bpf::kAtomicXor | bpf::kAtomicFetch}) {
      b.Mov(kR1, 0x35);
      b.Raw(bpf::AtomicOp(size, kR10, kR1, -8, op));
    }
    b.Mov(kR1, 9);
    b.Raw(bpf::AtomicOp(size, kR10, kR1, -8, bpf::kAtomicXchg));
    b.Mov(kR0, kR1);  // old value
    b.Mov(kR2, 33);
    b.Raw(bpf::AtomicOp(size, kR10, kR2, -8, bpf::kAtomicCmpXchg));
    b.Load(size, kR3, kR10, -8);
    b.Alu(bpf::kAluAdd, kR0, kR3);
    b.Ret();
    ExpectParity(Spec(b.Build()), size == bpf::kSizeW ? "atomics w" : "atomics dw");
  }
}

TEST(InterpParityTest, SubprogramsAndHelperClobber) {
  ProgramBuilder b(ProgType::kKprobe);
  b.Mov(kR6, 7);
  b.Mov(kR1, 3);
  b.Raw(bpf::CallPseudoFunc(4));  // sub at insn 7
  b.Alu(bpf::kAluAdd, kR0, kR6);
  b.Call(bpf::kHelperKtimeGetNs);  // clobbers r1-r5 identically in both engines
  b.Mov(kR0, kR6);
  b.Ret();
  // sub: own stack slot, callee-saved restore.
  b.StoreImm(bpf::kSizeDw, kR10, -8, 1);
  b.Mov(kR6, 99);
  b.Mov(kR0, kR1);
  b.Ret();
  ExpectParity(Spec(b.Build()), "subprog + clobber");
}

TEST(InterpParityTest, RunawayLoopTripsBudgetAtSameStep) {
  ProgramBuilder b;
  b.Mov(kR6, 1 << 20);
  b.Mov(kR0, 0);
  b.Alu(bpf::kAluSub, kR6, 1);
  b.JmpIf(bpf::kJmpJne, kR6, 0, -2);
  b.Ret();
  RunSpec spec = Spec(b.Build());
  spec.limits.step_budget = 777;  // trip mid-loop; insns_executed must match
  ExpectParity(spec, "step budget");
}

TEST(InterpParityTest, SanitizedMapValueAccess) {
  RunSpec spec;
  spec.sanitize = true;
  spec.make_prog = [](bpf::Bpf& facade) {
    MapDef def;
    def.type = MapType::kHash;
    def.key_size = 4;
    def.value_size = 8;
    def.max_entries = 4;
    const int map_fd = facade.MapCreate(def);
    ProgramBuilder b(ProgType::kKprobe);
    b.StoreImm(bpf::kSizeW, kR10, -4, 5);
    b.StoreImm(bpf::kSizeDw, kR10, -16, 777);
    b.LdMapFd(kR1, map_fd);
    b.Mov(kR2, kR10);
    b.Add(kR2, -4);
    b.Mov(kR3, kR10);
    b.Add(kR3, -16);
    b.Mov(kR4, 0);
    b.Call(bpf::kHelperMapUpdateElem);
    b.LdMapFd(kR1, map_fd);
    b.Mov(kR2, kR10);
    b.Add(kR2, -4);
    b.Call(bpf::kHelperMapLookupElem);
    b.JmpIf(bpf::kJmpJeq, kR0, 0, 2);
    b.StoreImm(bpf::kSizeW, kR0, 0, 42);  // rewritten to bpf_asan_store
    b.Load(bpf::kSizeDw, kR0, kR0, 0);    // rewritten to bpf_asan_load
    b.Ret();
    return b.Build();
  };
  ExpectParity(spec, "sanitized map access");
}

TEST(InterpParityTest, SanitizedPacketAccess) {
  RunSpec spec;
  spec.sanitize = true;
  spec.make_prog = [](bpf::Bpf&) {
    ProgramBuilder b(ProgType::kXdp);
    b.Mov(kR0, 0);
    b.Load(bpf::kSizeDw, kR2, kR1, 0);
    b.Load(bpf::kSizeDw, kR3, kR1, 8);
    b.Mov(kR4, kR2);
    b.Add(kR4, 4);
    b.JmpIfReg(bpf::kJmpJgt, kR4, kR3, 1);
    b.Load(bpf::kSizeW, kR0, kR2, 0);
    b.Ret();
    return b.Build();
  };
  spec.repeat = 8;
  ExpectParity(spec, "sanitized packet access");
}

TEST(InterpParityTest, InjectedBug1NullDerefReproducesIdentically) {
  // The Listing-2 nullness-propagation repro: the buggy verifier accepts a
  // NULL dereference; sanitation catches it at runtime. Reports (and the
  // BTF-load null path feeding it) must match across engines.
  RunSpec spec;
  spec.sanitize = true;
  spec.make_prog = [](bpf::Bpf& facade) {
    MapDef def;
    def.type = MapType::kHash;
    def.key_size = 8;
    def.value_size = 8;
    def.max_entries = 4;
    const int hash_fd = facade.MapCreate(def);
    ProgramBuilder b(ProgType::kKprobe);
    b.LdBtfId(kR6, bpf::kBtfMmStruct);
    b.StoreImm(bpf::kSizeDw, kR10, -8, 7777);  // never-inserted key
    b.LdMapFd(kR1, hash_fd);
    b.Mov(kR2, kR10);
    b.Add(kR2, -8);
    b.Call(bpf::kHelperMapLookupElem);
    b.JmpIfReg(bpf::kJmpJne, kR0, kR6, 1);
    b.Load(bpf::kSizeDw, kR8, kR0, 0);
    b.RetImm(0);
    return b.Build();
  };
  ExpectParity(spec, "bug1 repro");
}

TEST(InterpParityTest, RepeatedTestRunAccumulatesIdenticalInsnCounts) {
  ProgramBuilder b;
  b.Mov(kR6, 100);
  b.Mov(kR0, 0);
  b.Alu(bpf::kAluAdd, kR0, kR6);
  b.Alu(bpf::kAluSub, kR6, 1);
  b.JmpIf(bpf::kJmpJne, kR6, 0, -3);
  b.Ret();
  RunSpec spec = Spec(b.Build());
  spec.repeat = 64;
  ExpectParity(spec, "repeat=64");
}

// ---- Generated sweep: structured programs, sanitized, all bugs injected ----

TEST(InterpParityTest, GeneratedProgramSweep) {
  StructuredGenerator generator(KernelVersion::kBpfNext);
  bpf::Rng rng(1234);
  for (int i = 0; i < 150; ++i) {
    FuzzCase the_case = generator.Generate(rng);
    RunSpec spec;
    spec.sanitize = true;
    spec.seed = static_cast<uint64_t>(i);
    spec.make_prog = [&the_case](bpf::Bpf& facade) {
      for (const MapDef& def : the_case.maps) {
        facade.MapCreate(def);
      }
      return the_case.prog;
    };
    ExpectParity(spec, "generated sweep");
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at generated program " << i;
    }
  }
}

// ---- Campaign-level digest parity ----

CampaignOptions SmallCampaign() {
  CampaignOptions options;
  options.iterations = 200;
  options.seed = 17;
  options.bugs = BugConfig::All();
  options.fault.probability = 0.05;
  options.confirm_runs = 1;
  options.epoch_len = 32;
  return options;
}

CampaignStats RunParallel(const CampaignOptions& options) {
  StructuredGenerator generator(options.version);
  ParallelFuzzer fuzzer(generator, options);
  return fuzzer.Run();
}

TEST(InterpParityTest, SerialCampaignDigestIdenticalAcrossEngines) {
  // One worker (jobs=1, the default).
  CampaignOptions options = SmallCampaign();
  options.interp_engine = bpf::ExecEngine::kLegacy;
  const CampaignStats legacy = RunParallel(options);
  options.interp_engine = bpf::ExecEngine::kDecoded;
  const CampaignStats decoded = RunParallel(options);
  // The jit leg is unconditional: on hosts without a working JIT the engine
  // downgrades to decoded, which must still produce the identical digest.
  options.interp_engine = bpf::ExecEngine::kJit;
  const CampaignStats jit = RunParallel(options);
  EXPECT_EQ(StatsDigest(legacy), StatsDigest(decoded));
  EXPECT_EQ(StatsDigest(jit), StatsDigest(decoded));
  EXPECT_EQ(legacy.findings.size(), decoded.findings.size());
  EXPECT_EQ(jit.findings.size(), decoded.findings.size());
  EXPECT_EQ(legacy.sanitizer.mem_sites, decoded.sanitizer.mem_sites);
  EXPECT_EQ(jit.sanitizer.mem_sites, decoded.sanitizer.mem_sites);
}

TEST(InterpParityTest, ParallelCampaignDigestIdenticalAcrossEngines) {
  CampaignOptions options = SmallCampaign();
  options.jobs = 2;
  options.interp_engine = bpf::ExecEngine::kLegacy;
  const CampaignStats legacy = RunParallel(options);
  options.interp_engine = bpf::ExecEngine::kDecoded;
  const CampaignStats decoded = RunParallel(options);
  options.interp_engine = bpf::ExecEngine::kJit;
  const CampaignStats jit = RunParallel(options);
  EXPECT_EQ(StatsDigest(legacy), StatsDigest(decoded));
  EXPECT_EQ(StatsDigest(jit), StatsDigest(decoded));
}

TEST(InterpParityTest, SanitizeOffCampaignAlsoDigestIdentical) {
  CampaignOptions options = SmallCampaign();
  options.sanitize = false;
  options.audit_state = false;
  options.interp_engine = bpf::ExecEngine::kLegacy;
  const CampaignStats legacy = RunParallel(options);
  options.interp_engine = bpf::ExecEngine::kDecoded;
  const CampaignStats decoded = RunParallel(options);
  options.interp_engine = bpf::ExecEngine::kJit;
  const CampaignStats jit = RunParallel(options);
  EXPECT_EQ(StatsDigest(legacy), StatsDigest(decoded));
  EXPECT_EQ(StatsDigest(jit), StatsDigest(decoded));
}

// ---- JIT engine selection and the differential oracle ----

TEST(JitEngineTest, DowngradesGracefullyWhenUnavailable) {
  bpf::SetJitForceUnavailableForTest(true);
  {
    // Selecting the jit tier on a host without one must silently (modulo a
    // one-line stderr warning) behave exactly like the decoded engine.
    Kernel kernel(KernelVersion::kBpfNext, BugConfig::None());
    bpf::Bpf facade(kernel);
    facade.set_exec_engine(bpf::ExecEngine::kJit);
    EXPECT_EQ(facade.exec_engine(), bpf::ExecEngine::kDecoded);
    ProgramBuilder b;
    b.RetImm(7);
    const int fd = facade.ProgLoad(b.Build());
    ASSERT_GT(fd, 0);
    EXPECT_EQ(facade.ProgTestRun(fd).r0, 7u);
  }
  // Campaign-level: a --interp=jit campaign on a jit-less host runs on the
  // decoded engine and produces the identical digest.
  CampaignOptions options = SmallCampaign();
  options.interp_engine = bpf::ExecEngine::kJit;
  const CampaignStats downgraded = RunParallel(options);
  bpf::SetJitForceUnavailableForTest(false);
  options.interp_engine = bpf::ExecEngine::kDecoded;
  const CampaignStats decoded = RunParallel(options);
  EXPECT_EQ(StatsDigest(downgraded), StatsDigest(decoded));
}

// Builds the one program shape SetJitMiscompileForTest deliberately
// miscompiles: a 64-bit `add r0, 0x7eef` (the jit computes +0x7ef0).
FuzzCase MiscompileBaitCase() {
  FuzzCase the_case;
  ProgramBuilder b;
  b.Mov(kR0, 1);
  b.Alu(bpf::kAluAdd, kR0, 0x7eef);
  b.Ret();
  the_case.prog = b.Build();
  the_case.test_runs = 1;
  return the_case;
}

TEST(JitEngineTest, OracleCatchesInjectedMiscompile) {
  if (!bpf::JitAvailable()) {
    GTEST_SKIP() << "jit tier unavailable on this host";
  }
  bpf::SetJitMiscompileForTest(true);
  CampaignOptions options = SmallCampaign();
  options.jit_oracle = true;
  options.fault.probability = 0.0;
  options.confirm_runs = 3;
  CaseRunner runner(options);
  const FuzzCase the_case = MiscompileBaitCase();
  CaseRunner::CaseResult result = runner.RunOne(the_case, /*iteration=*/1);
  EXPECT_EQ(result.outcome, CaseOutcome::kJitDivergence);
  Finding* divergence = nullptr;
  for (Finding& finding : result.findings) {
    if (finding.indicator == 5) {
      divergence = &finding;
    }
  }
  ASSERT_NE(divergence, nullptr) << "no indicator-5 finding recorded";
  EXPECT_EQ(divergence->kind, bpf::ReportKind::kJitDivergence);
  EXPECT_NE(divergence->signature.find("jit"), std::string::npos);
  // The miscompile is deterministic, so confirmation replays must hit it
  // every time.
  runner.ConfirmFinding(*divergence, the_case, /*iteration=*/1, result.fault_log);
  EXPECT_EQ(divergence->confirmation, Confirmation::kDeterministic);
  EXPECT_EQ(divergence->confirm_hits, divergence->confirm_runs);
  bpf::SetJitMiscompileForTest(false);

  // Same case with correct codegen: the oracle stays silent.
  CaseRunner clean_runner(options);
  CaseRunner::CaseResult clean = clean_runner.RunOne(the_case, /*iteration=*/1);
  EXPECT_NE(clean.outcome, CaseOutcome::kJitDivergence);
  for (const Finding& finding : clean.findings) {
    EXPECT_NE(finding.indicator, 5);
  }
}

TEST(JitEngineTest, OracleIsNoOpWhenJitUnavailable) {
  bpf::SetJitForceUnavailableForTest(true);
  bpf::SetJitMiscompileForTest(true);  // would diverge if the oracle ran
  CampaignOptions options = SmallCampaign();
  options.jit_oracle = true;
  options.fault.probability = 0.0;
  CaseRunner runner(options);
  CaseRunner::CaseResult result = runner.RunOne(MiscompileBaitCase(), /*iteration=*/1);
  EXPECT_NE(result.outcome, CaseOutcome::kJitDivergence);
  for (const Finding& finding : result.findings) {
    EXPECT_NE(finding.indicator, 5);
  }
  bpf::SetJitMiscompileForTest(false);
  bpf::SetJitForceUnavailableForTest(false);
}

}  // namespace
}  // namespace bvf
