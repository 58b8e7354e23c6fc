// Whole-program verification state: register file and stack slots per call
// frame, plus acquired-reference tracking (kernel: struct bpf_verifier_state
// and bpf_func_state).

#ifndef SRC_VERIFIER_VERIFIER_STATE_H_
#define SRC_VERIFIER_VERIFIER_STATE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ebpf/insn.h"
#include "src/verifier/reg_state.h"

namespace bpf {

// One 8-byte stack slot.
enum class SlotType : uint8_t {
  kInvalid,  // never written
  kSpill,    // holds a spilled register (payload valid)
  kMisc,     // written with partial/unknown data
  kZero,     // known zero bytes
};

// Sparse spill payload for one stack slot.
struct SpillSlot {
  uint8_t slot = 0;
  RegState reg;

  bool operator==(const SpillSlot& other) const = default;
};

inline constexpr int kStackSlots = kStackSize / 8;  // 64 slots of 8 bytes
inline constexpr int kMaxCallFrames = 4;

// Per-function (call frame) state.
//
// The stack is a dense type byte per slot plus a sparse, slot-ordered vector
// of spill payloads. Explored and pending states copy a FuncState per frame
// in the verifier's hottest loop, and a dense payload array (a full RegState
// per slot) made that copy ~7x larger than the data it carried; most states
// spill into a handful of slots at most.
//
// The split must not change equality semantics. The old dense layout's
// defaulted operator== compared every slot's payload even after the slot was
// downgraded to kMisc without clearing it (the helper-argument store path
// deliberately leaves stale spill data behind). The representation therefore
// keeps the invariant
//
//   spills holds an entry for slot i  <=>  the slot's logical payload is not
//                                          a default-constructed RegState
//
// with entries sorted by slot, so memberwise comparison of (stack_types,
// spills) matches the old per-slot (type, payload) comparison exactly, stale
// data included. All writes go through the accessors below to maintain it;
// in-place payload mutation (reference/packet marking) cannot produce a
// default RegState, so it cannot break the invariant either.
struct FuncState {
  RegState regs[kNumProgRegs];
  std::array<SlotType, kStackSlots> stack_types{};
  std::vector<SpillSlot> spills;

  // Call bookkeeping.
  int callsite = -1;  // insn index of the call that entered this frame

  SlotType slot_type(int i) const { return stack_types[static_cast<size_t>(i)]; }

  // Sets the slot's type and clears its spill payload (the common store path).
  void SetSlot(int i, SlotType type) {
    stack_types[static_cast<size_t>(i)] = type;
    for (auto it = spills.begin(); it != spills.end(); ++it) {
      if (it->slot == i) {
        spills.erase(it);
        break;
      }
      if (it->slot > i) {
        break;
      }
    }
  }

  // Sets the slot's type but keeps any spill payload in place — mirrors the
  // helper-argument store, which leaves stale (still compared) data behind.
  void SetSlotKeepPayload(int i, SlotType type) {
    stack_types[static_cast<size_t>(i)] = type;
  }

  // Spills |reg| into the slot. |reg| is always a readable register, never a
  // default-constructed one, so the upsert preserves the invariant.
  void SetSpill(int i, const RegState& reg) {
    stack_types[static_cast<size_t>(i)] = SlotType::kSpill;
    auto it = spills.begin();
    while (it != spills.end() && it->slot < i) {
      ++it;
    }
    if (it != spills.end() && it->slot == i) {
      it->reg = reg;
      return;
    }
    spills.insert(it, SpillSlot{static_cast<uint8_t>(i), reg});
  }

  // Payload of slot |i|; a default RegState when none is stored.
  const RegState& SpillData(int i) const {
    for (const SpillSlot& entry : spills) {
      if (entry.slot == i) {
        return entry.reg;
      }
      if (entry.slot > i) {
        break;
      }
    }
    static const RegState kNone;
    return kNone;
  }

  bool operator==(const FuncState& other) const;
};

struct VerifierState {
  std::vector<FuncState> frames;
  // ref_obj_ids of acquired-but-unreleased kernel objects.
  std::vector<int> acquired_refs;
  // Total instructions walked along this path (loop-bound enforcement).
  int insn_path_len = 0;

  FuncState& cur() { return frames.back(); }
  const FuncState& cur() const { return frames.back(); }
  RegState* regs() { return frames.back().regs; }
  const RegState* regs() const { return frames.back().regs; }
  int frame_depth() const { return static_cast<int>(frames.size()); }

  // Creates the entry state: R1 = ctx, R10 = frame pointer, others not init.
  static VerifierState Entry();

  bool AddRef(int ref_obj_id);
  bool ReleaseRef(int ref_obj_id);

  std::string ToString() const;
};

// Pruning: true if a path continuing from |old_state| proved safe implies the
// same for |cur_state| (register and stack subsumption across all frames).
bool StateSubsumes(const VerifierState& old_state, const VerifierState& cur_state);

// Exact equality of the observable state (used for infinite-loop detection).
bool StateEqual(const VerifierState& a, const VerifierState& b);

// 64-bit fingerprint over a subset of the fields StateEqual compares:
// StateEqual(a, b) implies StateFingerprint(a) == StateFingerprint(b), so a
// fingerprint mismatch proves inequality without walking both states. The
// checker indexes the explored states of each loop head by fingerprint, so a
// back-edge arrival (the loop-detection hot path) compares in full only the
// states that share its fingerprint.
uint64_t StateFingerprint(const VerifierState& state);

}  // namespace bpf

#endif  // SRC_VERIFIER_VERIFIER_STATE_H_
