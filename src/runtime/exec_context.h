// Runtime execution context of one eBPF program invocation: guest addresses
// of its context structure, packet data, and stack (with the extended region
// used by the sanitation instrumentation), plus the kernel-context flags
// helpers consult (tracepoint/irq).

#ifndef SRC_RUNTIME_EXEC_CONTEXT_H_
#define SRC_RUNTIME_EXEC_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ebpf/insn.h"
#include "src/ebpf/program.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/tracepoint.h"
#include "src/verifier/verifier.h"

namespace bpf {

// Extra stack space below the visible 512 bytes, reserved for register
// backups emitted by the sanitation pass (paper Fig. 5: "an extended stack
// space that is also invisible to the program").
inline constexpr int kExtendedStackSize = 64;

// Execution tier for verified programs. All three produce bit-identical
// observable results (ExecResult, reports, sanitizer stats, campaign
// digests); the choice is a pure throughput switch:
//  * kLegacy  — instruction-at-a-time interpretation of the raw Insn stream;
//  * kDecoded — decode-once micro-op engine (DESIGN.md §10);
//  * kJit     — single-pass x86-64 native compilation of the micro-ops
//    (DESIGN.md §14); falls back to kDecoded on unsupported hosts.
enum class ExecEngine : uint8_t { kLegacy, kDecoded, kJit };

inline const char* ExecEngineName(ExecEngine engine) {
  switch (engine) {
    case ExecEngine::kLegacy:
      return "legacy";
    case ExecEngine::kDecoded:
      return "decoded";
    case ExecEngine::kJit:
      return "jit";
  }
  return "?";
}

// Per-invocation execution guards. The step budget is the classic runaway-
// loop bound; the wall-clock watchdog additionally catches cases whose
// *per-instruction* cost explodes (pathological dispatch chains), and the
// call-depth ceiling bounds bpf-to-bpf recursion. Guard trips surface as
// classified ExecResult errors (-ELOOP / -ETIMEDOUT / -EFAULT), never hangs.
struct ExecLimits {
  uint64_t step_budget = 1u << 18;  // instructions per invocation
  uint64_t wall_budget_ms = 0;      // wall-clock watchdog (0 = off)
  int max_call_depth = 8;           // bpf-to-bpf call frames
};

// Concrete register values captured by the interpreter immediately before
// executing an instruction that carries abstract-state claims
// (InsnAux::claims). Compared offline against those claims by the
// witness-containment audit (src/analysis/state_audit.h, Indicator #3).
struct WitnessTrace {
  struct Entry {
    int32_t pc = 0;
    uint64_t regs[kClaimRegs] = {};  // R0..R9
  };

  std::vector<Entry> entries;
  uint64_t dropped = 0;  // entries not recorded once |cap| was reached
  size_t cap = 8192;

  void Clear() {
    entries.clear();
    dropped = 0;
  }
  Entry* Append(int32_t pc) {
    if (entries.size() >= cap) {
      ++dropped;
      return nullptr;
    }
    entries.emplace_back();
    entries.back().pc = pc;
    return &entries.back();
  }
};

struct ExecContext {
  uint64_t ctx_addr = 0;    // guest address of the context struct
  uint64_t fp = 0;          // frame pointer (R10): one past the stack top
  uint64_t stack_base = 0;  // low guest address of the stack allocation
  uint64_t pkt_addr = 0;
  uint32_t pkt_len = 0;

  // When set, the interpreter records per-instruction register witnesses here.
  WitnessTrace* witness = nullptr;

  // Kernel-side context of this invocation.
  bool in_tracepoint = false;
  bool in_irq = false;
  TracepointId attach_point = TracepointId::kSysEnter;

  LockContext lock_context() const {
    return in_tracepoint ? LockContext::kTracepoint : LockContext::kNormal;
  }
};

struct DecodedProgram;
struct JitProgram;

// A verified, rewritten, loadable program as stored by the syscall layer.
struct LoadedProgram {
  int id = 0;
  ProgType type = ProgType::kSocketFilter;
  Program prog;               // rewritten instruction stream
  std::vector<InsnAux> aux;   // parallel per-insn metadata
  bool offloaded = false;     // XDP device offload requested (bug #11 path)

  // Micro-op lowering of |prog| (src/runtime/decoded_prog.h), produced at
  // load time when decoded execution is enabled; null runs the legacy
  // instruction-at-a-time interpreter.
  std::shared_ptr<const DecodedProgram> decoded;

  // Native x86-64 compilation of |decoded| (src/runtime/jit_prog.h), produced
  // at load time when the JIT tier is selected and available; null falls back
  // to the decoded engine.
  std::shared_ptr<const JitProgram> jit;

  // Behavioural summary from verification (attach policy input).
  bool uses_lock_helper = false;
  bool uses_printk_helper = false;
  bool uses_signal_helper = false;
  bool uses_irqwork_helper = false;
};

struct ExecResult {
  uint64_t r0 = 0;
  // 0, -EFAULT (fault abort), -ELOOP (step budget), -ETIMEDOUT (wall-clock
  // watchdog), -ENOMEM (allocation failure on the execution path).
  int err = 0;
  uint64_t insns_executed = 0;
  std::string abort_reason;

  bool ok() const { return err == 0; }
};

}  // namespace bpf

#endif  // SRC_RUNTIME_EXEC_CONTEXT_H_
