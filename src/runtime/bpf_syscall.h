// The bpf(2) syscall surface of the simulated kernel: map creation, program
// loading (verification + rewrite + the kmemdup readback path of bug #8),
// test runs, tracepoint attachment (with the policy checks whose absence is
// bugs #4/#5), and the XDP dispatcher (bugs #7/#11).

#ifndef SRC_RUNTIME_BPF_SYSCALL_H_
#define SRC_RUNTIME_BPF_SYSCALL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/runtime/decoded_prog.h"
#include "src/runtime/exec_context.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/jit_prog.h"
#include "src/runtime/kernel.h"
#include "src/verifier/verifier.h"

namespace bpf {

class Bpf {
 public:
  explicit Bpf(Kernel& kernel) : kernel_(kernel), interp_(kernel) {}

  Kernel& kernel() { return kernel_; }

  // Installs the program-rewrite instrumentation hook (BVF's sanitation
  // "Kconfig"); must be set before ProgLoad to take effect.
  void set_instrument(std::function<void(Program&, std::vector<InsnAux>&)> hook) {
    instrument_ = std::move(hook);
  }

  // Observer invoked after every interpreter run with the run's register
  // witness trace. Installing one also makes ProgLoad collect per-instruction
  // abstract-state claims, enabling the Indicator #3 containment audit
  // (src/analysis/state_audit.h). Must be set before ProgLoad to take effect.
  using ExecObserver = std::function<void(const LoadedProgram&, const WitnessTrace&)>;
  void set_exec_observer(ExecObserver observer) { exec_observer_ = std::move(observer); }

  // Per-invocation execution guards applied to every program run through this
  // syscall surface (test runs, attach handlers, XDP).
  void set_exec_limits(const ExecLimits& limits) { exec_limits_ = limits; }
  const ExecLimits& exec_limits() const { return exec_limits_; }

  // Selects the execution tier for programs loaded through this facade:
  // kDecoded (the default) lowers the verified, rewritten program into
  // micro-ops once at load; kJit additionally compiles the micro-ops to
  // native x86-64 code; kLegacy runs the instruction-at-a-time path. All
  // three produce bit-identical results — this is a pure throughput switch.
  // Selecting kJit on a host where the JIT is unavailable (non-x86-64, or
  // W^X mappings denied) logs a one-line warning once per process and
  // downgrades to kDecoded. Affects programs loaded after the call.
  void set_exec_engine(ExecEngine engine);
  ExecEngine exec_engine() const { return engine_; }

  // Back-compat shim for the pre-JIT two-state switch.
  void set_decoded_exec(bool on) {
    set_exec_engine(on ? ExecEngine::kDecoded : ExecEngine::kLegacy);
  }
  bool decoded_exec() const { return engine_ != ExecEngine::kLegacy; }

  // Case-boundary reset for substrate reuse: unloads every program, resets fd
  // assignment and the XDP dispatcher, and rewinds the kernel substrate
  // (Kernel::ResetCaseState). After this, the facade behaves like one freshly
  // constructed over a freshly booted kernel.
  void ResetCaseState() {
    progs_.clear();
    next_prog_fd_ = 1;
    xdp_prog_fd_ = 0;
    xdp_update_window_ = false;
    kernel_.ResetCaseState();
  }

  // ---- BPF_MAP_* ----
  int MapCreate(const MapDef& def);  // returns map fd (>0) or -errno
  int MapUpdateElem(int map_fd, const void* key, const void* value);
  int MapLookupElem(int map_fd, const void* key, void* value_out);
  int MapDeleteElem(int map_fd, const void* key);
  int MapGetNextKey(int map_fd, const void* key, void* next_key);
  // Batched lookup (the syscall path carrying bug #9). Returns copied count.
  int MapLookupBatch(int map_fd, int max_count);

  // ---- BPF_PROG_LOAD / BPF_PROG_TEST_RUN / attach ----
  int ProgLoad(const Program& prog, VerifierResult* result_out = nullptr);
  ExecResult ProgTestRun(int prog_fd, uint32_t pkt_len = 64, uint64_t seed = 1);
  // Repeated test run reusing one execution context: BPF_PROG_TEST_RUN's
  // `repeat` attribute. Returns the last result with cumulative insn counts;
  // used by the overhead benchmark so interpretation dominates setup.
  ExecResult ProgTestRunRepeat(int prog_fd, int repeat, uint32_t pkt_len = 64,
                               uint64_t seed = 1);
  // Test run with caller-supplied context bytes: the seed-filled context is
  // overwritten with |ctx_bytes| (zero-padded / truncated to the context
  // size) before the program enters. Only meaningful for tracepoint/kprobe
  // programs, whose context carries no kernel-written pointer fields; the
  // conformance runner uses it to deliver a case's `-- mem` image.
  ExecResult ProgTestRunCtx(int prog_fd, const std::vector<uint8_t>& ctx_bytes,
                            uint64_t seed = 1);
  int ProgAttach(int prog_fd, TracepointId target);
  void DetachAll();

  // Simulated kernel activity that reaches attach points.
  void FireEvent(TracepointId id);

  // ---- XDP dispatcher ----
  int XdpInstall(int prog_fd);
  ExecResult XdpRun(uint32_t pkt_len = 64, uint64_t seed = 1);

  LoadedProgram* FindProg(int prog_fd);
  size_t prog_count() const { return progs_.size(); }

 private:
  // Builds/release a per-invocation execution context for |prog|.
  ExecContext MakeCtx(const LoadedProgram& prog, uint32_t pkt_len, uint64_t seed);
  void ReleaseCtx(ExecContext& ctx);
  ExecResult RunProgram(const LoadedProgram& prog, uint32_t pkt_len, uint64_t seed,
                        bool in_tracepoint, bool in_irq, TracepointId attach_point);

  Kernel& kernel_;
  Interpreter interp_;
  ExecLimits exec_limits_;
  ExecEngine engine_ = ExecEngine::kDecoded;
  std::function<void(Program&, std::vector<InsnAux>&)> instrument_;
  ExecObserver exec_observer_;
  std::vector<std::unique_ptr<LoadedProgram>> progs_;
  int next_prog_fd_ = 1;

  int xdp_prog_fd_ = 0;
  bool xdp_update_window_ = false;
};

}  // namespace bpf

#endif  // SRC_RUNTIME_BPF_SYSCALL_H_
