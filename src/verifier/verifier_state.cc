#include "src/verifier/verifier_state.h"

#include <algorithm>
#include <cstring>

namespace bpf {

bool FuncState::operator==(const FuncState& other) const {
  for (int i = 0; i < kNumProgRegs; ++i) {
    if (!(regs[i] == other.regs[i])) {
      return false;
    }
  }
  // The sparse-payload invariant (see the struct comment) makes this
  // memberwise comparison equivalent to the old dense per-slot one.
  return stack_types == other.stack_types && spills == other.spills &&
         callsite == other.callsite;
}

VerifierState VerifierState::Entry() {
  VerifierState state;
  state.frames.emplace_back();
  FuncState& frame = state.frames.back();
  frame.regs[kR1] = RegState::Pointer(RegType::kPtrToCtx);
  frame.regs[kR10] = RegState::Pointer(RegType::kPtrToStack);
  return state;
}

bool VerifierState::AddRef(int ref_obj_id) {
  acquired_refs.push_back(ref_obj_id);
  return true;
}

bool VerifierState::ReleaseRef(int ref_obj_id) {
  auto it = std::find(acquired_refs.begin(), acquired_refs.end(), ref_obj_id);
  if (it == acquired_refs.end()) {
    return false;
  }
  acquired_refs.erase(it);
  return true;
}

std::string VerifierState::ToString() const {
  std::string out;
  const FuncState& frame = cur();
  for (int i = 0; i < kNumProgRegs; ++i) {
    if (frame.regs[i].type == RegType::kNotInit) {
      continue;
    }
    out += " R" + std::to_string(i) + "=" + frame.regs[i].ToString();
  }
  for (int i = 0; i < kStackSlots; ++i) {
    if (frame.slot_type(i) == SlotType::kInvalid) {
      continue;
    }
    const int off = -8 * (i + 1);
    out += " fp" + std::to_string(off) + "=";
    switch (frame.slot_type(i)) {
      case SlotType::kSpill:
        out += frame.SpillData(i).ToString();
        break;
      case SlotType::kMisc:
        out += "mmmm";
        break;
      case SlotType::kZero:
        out += "0000";
        break;
      default:
        break;
    }
  }
  return out;
}

namespace {

bool SlotSubsumes(const FuncState& old_frame, const FuncState& cur_frame, int i) {
  const SlotType old_type = old_frame.slot_type(i);
  const SlotType cur_type = cur_frame.slot_type(i);
  if (old_type == SlotType::kInvalid) {
    return true;  // old path never relied on this slot
  }
  if (old_type == SlotType::kMisc) {
    // Misc admits any data except spilled pointers the program may reload.
    return cur_type == SlotType::kMisc || cur_type == SlotType::kZero ||
           (cur_type == SlotType::kSpill &&
            cur_frame.SpillData(i).type == RegType::kScalar);
  }
  if (old_type != cur_type) {
    return false;
  }
  if (old_type == SlotType::kSpill) {
    return RegSubsumes(old_frame.SpillData(i), cur_frame.SpillData(i));
  }
  return true;
}

}  // namespace

bool StateSubsumes(const VerifierState& old_state, const VerifierState& cur_state) {
  if (old_state.frames.size() != cur_state.frames.size()) {
    return false;
  }
  if (old_state.acquired_refs != cur_state.acquired_refs) {
    return false;
  }
  for (size_t f = 0; f < old_state.frames.size(); ++f) {
    const FuncState& old_frame = old_state.frames[f];
    const FuncState& cur_frame = cur_state.frames[f];
    if (old_frame.callsite != cur_frame.callsite) {
      return false;
    }
    for (int i = 0; i < kNumProgRegs; ++i) {
      if (!RegSubsumes(old_frame.regs[i], cur_frame.regs[i])) {
        return false;
      }
    }
    for (int i = 0; i < kStackSlots; ++i) {
      if (!SlotSubsumes(old_frame, cur_frame, i)) {
        return false;
      }
    }
  }
  return true;
}

bool StateEqual(const VerifierState& a, const VerifierState& b) {
  return a.frames == b.frames && a.acquired_refs == b.acquired_refs;
}

namespace {

constexpr uint64_t kFpMul = 0xff51afd7ed558ccdull;
constexpr uint64_t kFpGolden = 0x9e3779b97f4a7c15ull;

inline uint64_t Rotl(uint64_t v, int n) { return (v << n) | (v >> (64 - n)); }

// Four independent mix lanes. Each word goes to a fixed lane by its position
// in the walk, so equal states still feed equal words to equal lanes, and the
// lanes' multiplies overlap instead of forming one serial chain.
struct FingerprintLanes {
  uint64_t lane[4];

  static void Mix(uint64_t& h, uint64_t v) {
    h ^= v;
    h *= kFpMul;
    h = Rotl(h, 23);
  }

  // Four consecutive words, one per lane.
  void Mix4(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
    Mix(lane[0], a);
    Mix(lane[1], b);
    Mix(lane[2], c);
    Mix(lane[3], d);
  }

  uint64_t Finish() const {
    uint64_t h = lane[0] ^ Rotl(lane[1], 16) ^ Rotl(lane[2], 32) ^ Rotl(lane[3], 48);
    // Full avalanche, so the low bits (the checker's index slot) depend on
    // every lane.
    h ^= h >> 33;
    h *= kFpMul;
    h ^= h >> 33;
    return h;
  }
};

// One word per register from the fields that discriminate the states loops
// actually produce (the induction variable moves its value and bounds
// together): the packed type/off/id word, var_off.value and a bounds fold,
// combined by multiplies that do not depend on each other.
uint64_t RegWord(const RegState& reg) {
  const uint64_t head = static_cast<uint64_t>(reg.type) |
                        (static_cast<uint64_t>(static_cast<uint32_t>(reg.off)) << 8) |
                        (static_cast<uint64_t>(reg.id) << 40);
  return head * kFpMul + Rotl(reg.var_off.value, 21) * kFpGolden +
         (static_cast<uint64_t>(reg.smin) ^ Rotl(reg.umax, 43));
}

}  // namespace

uint64_t StateFingerprint(const VerifierState& state) {
  // Soundness rule: every value mixed in must be a deterministic function of
  // fields the member-wise operator== chains compare, in a fixed order.
  // Omitting or combining fields is fine (equal states still collide onto
  // one fingerprint, and a collision merely costs the full StateEqual
  // fallback); mixing anything outside the compared set is not. The
  // selection is deliberately slim: this runs once per back-edge arrival at
  // a prune point.
  FingerprintLanes fp{{kFpGolden, kFpGolden ^ kFpMul, ~kFpGolden,
                       state.frames.size() * kFpMul}};
  FingerprintLanes::Mix(fp.lane[3], state.acquired_refs.size());
  for (int ref : state.acquired_refs) {
    FingerprintLanes::Mix(fp.lane[3], static_cast<uint64_t>(static_cast<uint32_t>(ref)) + 0x100);
  }
  for (const FuncState& frame : state.frames) {
    const RegState* regs = frame.regs;
    static_assert(kNumProgRegs == 11);
    fp.Mix4(RegWord(regs[0]), RegWord(regs[1]), RegWord(regs[2]), RegWord(regs[3]));
    fp.Mix4(RegWord(regs[4]), RegWord(regs[5]), RegWord(regs[6]), RegWord(regs[7]));
    fp.Mix4(RegWord(regs[8]), RegWord(regs[9]), RegWord(regs[10]),
            static_cast<uint64_t>(static_cast<uint32_t>(frame.callsite)) + 1);
    // The slot types, eight per word.
    static_assert(sizeof(frame.stack_types) == 8 * 8);
    uint64_t types[8];
    std::memcpy(types, frame.stack_types.data(), sizeof(types));
    fp.Mix4(types[0], types[1], types[2], types[3]);
    fp.Mix4(types[4], types[5], types[6], types[7]);
    // Entries are slot-ordered, so equal frames mix the same values in the
    // same order; stale payloads under non-spill types are compared by
    // operator== but (soundly) omitted here.
    for (const SpillSlot& entry : frame.spills) {
      if (frame.slot_type(entry.slot) == SlotType::kSpill) {
        FingerprintLanes::Mix(fp.lane[entry.slot & 3], RegWord(entry.reg) + entry.slot);
      }
    }
  }
  return fp.Finish();
}

}  // namespace bpf
