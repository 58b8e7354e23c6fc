// Internal verifier implementation class. Split across several translation
// units (checker.cc, check_alu.cc, check_mem.cc, check_jmp.cc, check_call.cc,
// fixup.cc) to mirror the functional areas of kernel/bpf/verifier.c.
// Not part of the public API; include src/verifier/verifier.h instead.

#ifndef SRC_VERIFIER_CHECKER_H_
#define SRC_VERIFIER_CHECKER_H_

#include <array>
#include <cstdarg>
#include <memory>
#include <utility>
#include <vector>

#include "src/verifier/verifier.h"

namespace bpf {

class Checker {
 public:
  Checker(const Program& prog, VerifierEnv& env, VerifierResult& result);

  // Runs the pipeline; returns 0 or a negative errno (also stored in result).
  int Run();

 private:
  static constexpr int kPathEnd = -1;
  static constexpr uint32_t kMaxInsnsProcessed = 131072;
  static constexpr size_t kMaxPendingStates = 2048;
  static constexpr size_t kMaxExploredPerInsn = 64;

  // --- driver (checker.cc) ---
  int CheckCfg();
  int DoCheck();
  int ProcessInsn(VerifierState& state, int idx, int* next);
  // Returns true if the path at |idx| is subsumed by an explored state.
  bool TryPrune(int idx, VerifierState& state, bool via_back_edge, int* err);
  // Back-edge arrival with the fingerprint fast path: true if an explored
  // state at |idx| equals |state|, whose fingerprint is |fp|.
  bool RepeatsExploredState(int idx, const VerifierState& state, uint64_t fp);
  // Joins the current frame's R0..R9 into aux_[idx].claims (state audit).
  void RecordStateClaims(const VerifierState& state, int idx);
  void PushBranch(int idx, VerifierState state, bool back_edge);
  // Copy of |src| that reuses a recycled dead state's heap buffers when one
  // is available (copy-assignment into warm capacity skips the allocator).
  VerifierState CloneState(const VerifierState& src);
  // Returns a finished path's state to the recycle pool.
  void RecycleState(VerifierState&& state);
  int CheckExit(VerifierState& state, int idx, int* next);

  // --- ALU (check_alu.cc) ---
  int CheckAluOp(VerifierState& state, const Insn& insn, int idx);
  int AdjustPtrAlu(VerifierState& state, const Insn& insn, int idx, RegState& dst,
                   const RegState& src_val, bool dst_is_ptr);
  void AdjustScalarAlu(VerifierState& state, const Insn& insn, RegState& dst,
                       RegState src_val);

  // --- memory (check_mem.cc) ---
  int CheckMemAccess(VerifierState& state, const Insn& insn, int idx, int ptr_regno,
                     int value_regno, bool is_store, bool is_atomic = false);
  int CheckStackAccess(VerifierState& state, const Insn& insn, int idx, const RegState& ptr,
                       int value_regno, bool is_store, bool is_atomic);
  int CheckMapValueAccess(const RegState& ptr, int off, int size, int idx);
  int CheckCtxAccess(VerifierState& state, const RegState& ptr, int off, int size,
                     bool is_store, int value_regno, int idx);
  int CheckBtfAccess(VerifierState& state, const RegState& ptr, int off, int size,
                     bool is_store, int value_regno, int idx);
  int CheckPacketAccess(const RegState& ptr, int off, int size, int idx);
  int CheckMemRegionAccess(const RegState& ptr, int off, int size, int idx);
  // Helper-argument memory check: |size| readable/writable bytes at reg.
  int CheckHelperMemArg(VerifierState& state, int regno, int size, bool is_store,
                        const char* what, int idx);

  // --- jumps (check_jmp.cc) ---
  int CheckCondJmp(VerifierState& state, const Insn& insn, int idx, int* next);
  void MarkPtrOrNull(VerifierState& state, uint32_t id, bool is_null);
  void FindGoodPktPointers(VerifierState& state, uint32_t pkt_id, uint16_t range);

  // --- calls (check_call.cc) ---
  int CheckHelperCall(VerifierState& state, const Insn& insn, int idx);
  int CheckKfuncCall(VerifierState& state, const Insn& insn, int idx);
  int CheckPseudoCall(VerifierState& state, const Insn& insn, int idx, int* next);
  int CheckCallArgs(VerifierState& state, const ArgType* args, const char* name, int idx,
                    const Map** map_out);

  // --- ld_imm64 (checker.cc) ---
  int CheckLdImm64(VerifierState& state, const Insn& insn, int idx);

  // --- fixup (fixup.cc) ---
  int Fixup();

  // --- utilities ---
  RegState& Reg(VerifierState& state, int regno) { return state.regs()[regno]; }
  int CheckRegRead(VerifierState& state, int regno, int idx);
  int CheckRegWrite(VerifierState& state, int regno, int idx);  // R10 is read-only
  const Map* FindMap(int map_id) const;
  void Log(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  void LogState(const VerifierState& state);
  uint32_t NextId() { return ++id_gen_; }

  const Program& prog_;
  VerifierEnv& env_;
  VerifierResult& res_;
  KernelFeatures features_;

  std::vector<InsnAux> aux_;
  // Pending branch states: (insn index, state, reached via back edge).
  struct Pending {
    int idx;
    VerifierState state;
    bool back_edge;
  };
  std::vector<Pending> stack_;
  // Explored states per prune point, in arrival order.
  std::vector<std::vector<VerifierState>> explored_;
  // Fingerprint index over one prune point's explored list, so a back-edge
  // arrival finds the entries that may equal it without scanning the list:
  // open addressing with linear probing over twice the list cap, so a probe
  // reaches an empty slot within a few steps. Built on the first back-edge
  // arrival at the prune point; prune points no back edge reaches — the large
  // majority — never hash anything. It covers entries [0, indexed): entries
  // appended by forward arrivals are hashed in on the next back-edge arrival.
  struct LoopIndex {
    static constexpr size_t kSlots = 2 * kMaxExploredPerInsn;  // power of two
    static_assert((kSlots & (kSlots - 1)) == 0);
    static_assert(kMaxExploredPerInsn < 255, "entry positions are stored in a byte");

    std::array<uint64_t, kSlots> fingerprint;  // read only where entry != 0
    std::array<uint8_t, kSlots> entry{};       // explored position + 1; 0 = empty
    size_t indexed = 0;

    // Indexes explored entry |indexed| under |fp|.
    void Append(uint64_t fp) {
      size_t slot = fp & (kSlots - 1);
      while (entry[slot] != 0) {
        slot = (slot + 1) & (kSlots - 1);
      }
      fingerprint[slot] = fp;
      entry[slot] = static_cast<uint8_t>(++indexed);
    }
  };
  std::vector<std::unique_ptr<LoopIndex>> loop_index_;
  std::vector<uint8_t> prune_point_;
  // Dead path states awaiting reuse by CloneState (bounded; per-program).
  std::vector<VerifierState> state_pool_;
  std::vector<uint8_t> reachable_;
  uint32_t id_gen_ = 0;
  uint32_t insns_processed_ = 0;

  friend struct CheckerTestPeer;
};

}  // namespace bpf

#endif  // SRC_VERIFIER_CHECKER_H_
