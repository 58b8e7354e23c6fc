// Native x86-64 execution tier (DESIGN.md §14).
//
// CompileJit lowers a DecodedProgram — the same micro-op array the decoded
// engine dispatches over — into straight-line x86-64 machine code, once, at
// BPF_PROG_LOAD time. The generated code replicates the decoded engine's
// per-uop step prologue (budget charge, watchdog countdown, witness check)
// instruction for instruction, compiles pure ops (ALU, jumps, endian,
// ld_imm64) to native sequences whose edge semantics match interp_ops.h
// bit for bit, inlines the KasanArena word-wide sanitizer fast paths
// (FastCheckedLoad/FastCheckedStore) for the bpf_asan_* micro-ops, and routes
// every side-effectful operation (helpers, kfuncs, subprogram frames, faults,
// reports) through C++ trampolines that wrap the exact shared primitives the
// interpreters use. The engine is therefore digest-invisible: ExecResult,
// reports, sanitizer stats, witness traces, and campaign digests are
// bit-identical to both interpreters (tests/interp_parity_test.cc) — and any
// divergence is itself a finding (indicator #5, the JIT differential oracle
// in src/core/fuzzer.cc).
//
// Code blobs are W^X: emitted into an RW mmap, then flipped to RX with
// mprotect before first use. Host pointers that vary per substrate (arena
// memory, shadow, page-dirty table) are never baked into code — they travel
// in the per-invocation JitRt block — so a blob is position-independent of
// the substrate that runs it.
//
// On non-x86-64 hosts, or when the W^X allocation fails, JitAvailable() is
// false / CompileJit returns null and callers fall back to the decoded
// engine; selection-time fallback (with a one-line warning) lives in
// Bpf::set_exec_engine.

#ifndef SRC_RUNTIME_JIT_PROG_H_
#define SRC_RUNTIME_JIT_PROG_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/runtime/decoded_prog.h"
#include "src/runtime/exec_context.h"

namespace bpf {

class Kernel;
class KasanArena;
class ReportSink;
struct JitRt;

// Entry point of a compiled program: runs uop 0 with the machine state in
// |rt| and returns 0 on normal exit or a JitAbort code (jit_prog.cc) on any
// abort; the wrapper (RunJit) translates codes into the interpreter's exact
// errno/abort_reason/report behavior.
using JitEntry = uint64_t (*)(JitRt* rt);

// One compiled program. Immutable after compilation and substrate-agnostic
// (no host pointers in the code), so one instance is safely shared across
// substrates, workers, and rebuilds — the same sharing rule as
// DecodedProgram.
struct JitProgram {
  JitProgram() = default;
  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;
  ~JitProgram();  // munmaps |code|

  void* code = nullptr;  // RX mapping
  size_t code_size = 0;
  JitEntry entry = nullptr;
  // Native address of every uop's step prologue, indexed by uop index.
  // Subprogram returns are dynamic (the return uop is a runtime value), so
  // the exit trampoline indexes this table; everything else is patched to
  // direct jumps at compile time.
  std::vector<uint64_t> uop_entry;
};

// One bpf-to-bpf call frame, mirroring decoded_prog.cc's DecodedFrame.
struct JitFrame {
  int32_t return_upc;
  uint64_t saved_regs[4];  // R6-R9
  uint64_t saved_fp;
  uint64_t stack_alloc;
};

// Per-invocation machine-state block. Generated code keeps a pointer to it in
// r12 and addresses the leading fields with baked-in offsetof displacements,
// which is what lets one code blob serve every substrate: anything that
// varies per kernel instance or per run (arena pointers, limits, witness)
// travels here instead of in the code. The tail past |asan_native| is only
// ever touched by the C++ trampolines.
struct JitRt {
  // ---- read/written by generated code ----
  uint64_t regs[kNumTotalRegs] = {};  // BPF register file; R_i at [r12 + 8*i]
  uint64_t steps = 0;                 // published on every exit path
  uint64_t max_insns = 0;
  uint64_t wd_reload = 0;             // watchdog countdown reload value
  WitnessTrace* witness = nullptr;
  const uint64_t* ret_table = nullptr;  // JitProgram::uop_entry.data()
  uint8_t* mem_base = nullptr;          // this substrate's arena memory
  const uint8_t* shadow_base = nullptr;
  const uint8_t* page_dirty = nullptr;  // 1 byte per 4KiB arena page
  uint64_t arena_size = 0;
  uint8_t asan_native = 0;
  // ---- trampoline-only ----
  Kernel* kernel = nullptr;
  ExecContext* ctx = nullptr;
  const ExecLimits* limits = nullptr;
  KasanArena* arena = nullptr;
  ReportSink* sink = nullptr;
  std::vector<JitFrame>* frames = nullptr;
  uint64_t call_counter = 0;
  bool watchdog_enabled = false;
  std::chrono::steady_clock::time_point deadline{};
};

// True when this build/host can execute JIT-compiled programs (x86-64 and
// W^X mappings work). Cheap after the first call.
bool JitAvailable();

// Compiles |decoded| to native code. Returns null when the JIT is
// unavailable or the code mapping cannot be created; callers fall back to
// the decoded engine (never an error).
std::shared_ptr<const JitProgram> CompileJit(const DecodedProgram& decoded);

// Executes a compiled program. Behaviorally identical to RunDecoded on the
// DecodedProgram it was compiled from.
ExecResult RunJit(Kernel& kernel, const JitProgram& jit, ExecContext& ctx,
                  const ExecLimits& limits);

// ---- Test hooks ----

// Forces JitAvailable() false / CompileJit null, exercising the graceful
// degradation path on hosts where the real JIT works.
void SetJitForceUnavailableForTest(bool unavailable);

// Deliberately miscompiles one narrow pattern (64-bit `add dst, 0x7eef`
// computes dst + 0x7ef0) so the JIT-vs-interpreter differential oracle has a
// real divergence to catch in tests. Never set outside tests.
void SetJitMiscompileForTest(bool miscompile);
bool JitMiscompileForTest();

}  // namespace bpf

#endif  // SRC_RUNTIME_JIT_PROG_H_
