// The prune fingerprint fast path against the plain scan it replaces.
//
// With SetPruneFingerprintEnabled(true), a back-edge arrival at a prune point
// looks its state up in a fingerprint index and confirms candidates with
// StateEqual; with (false) it scans the explored list with StateEqual. The
// two must be indistinguishable: every VerifierResult field the campaign can
// observe — verdict, log, statistics, rewritten program and per-instruction
// state claims — is compared over the golden seeds, the conformance corpus,
// a generated all-bugs corpus and hand-built loops aimed at the index's
// edge cases. The second half tests the contract the fast path rests on:
// StateEqual(a, b) implies StateFingerprint(a) == StateFingerprint(b).

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <vector>

#include "src/conformance/corpus.h"
#include "src/conformance/runner.h"
#include "src/core/structured_gen.h"
#include "src/ebpf/builder.h"
#include "src/kernel/rng.h"
#include "src/runtime/bpf_syscall.h"
#include "src/sanitizer/asan_funcs.h"
#include "src/sanitizer/instrument.h"
#include "src/verifier/verifier.h"

namespace bpf {
namespace {

// Restores the process-wide default when a test ends, pass or fail.
class PruneFingerprintTest : public ::testing::Test {
 protected:
  ~PruneFingerprintTest() override { SetPruneFingerprintEnabled(true); }
};

// A substrate like the campaign's: sanitizer instrumentation in the rewrite
// phase and state claims collected, so the rewritten program and the claims
// are part of what the two paths must agree on.
class Substrate {
 public:
  explicit Substrate(BugConfig bugs) : kernel_(KernelVersion::kBpfNext, bugs), bpf_(kernel_) {
    BpfAsan::Register(kernel_);
  }

  Bpf& bpf() { return bpf_; }

  VerifierResult Verify(const Program& prog, bool fingerprint) {
    VerifierEnv env;
    env.maps = &kernel_.maps();
    env.btf = &kernel_.btf();
    env.version = kernel_.version();
    env.bugs = kernel_.bugs();
    env.map_obj_addr = [this](int map_id) {
      Map* map = kernel_.maps().Find(map_id);
      return map != nullptr ? map->obj_addr() : 0ull;
    };
    env.btf_obj_addr = [this](int btf_id) { return kernel_.BtfObjAddr(btf_id); };
    env.instrument = sanitizer_.Hook();
    env.collect_state_claims = true;
    SetPruneFingerprintEnabled(fingerprint);
    VerifierResult result = VerifyProgram(prog, env);
    SetPruneFingerprintEnabled(true);
    return result;
  }

 private:
  Kernel kernel_;
  Bpf bpf_;
  bvf::Sanitizer sanitizer_;
};

// Verifies |prog| on both paths and compares everything; returns the
// fast-path result.
VerifierResult ExpectSamePaths(Substrate& substrate, const Program& prog,
                               const std::string& what) {
  VerifierResult on = substrate.Verify(prog, /*fingerprint=*/true);
  const VerifierResult off = substrate.Verify(prog, /*fingerprint=*/false);
  EXPECT_EQ(on.err, off.err) << what;
  EXPECT_EQ(on.log, off.log) << what;
  EXPECT_EQ(on.insns_processed, off.insns_processed) << what;
  EXPECT_EQ(on.states_pruned, off.states_pruned) << what;
  EXPECT_EQ(on.peak_states, off.peak_states) << what;
  EXPECT_EQ(on.prog.type, off.prog.type) << what;
  EXPECT_TRUE(on.prog.insns == off.prog.insns) << what << ": rewritten programs differ";
  EXPECT_EQ(on.aux.size(), off.aux.size()) << what;
  for (size_t i = 0; i < on.aux.size() && i < off.aux.size(); ++i) {
    const std::vector<RegClaim>& a = on.aux[i].claims;
    const std::vector<RegClaim>& b = off.aux[i].claims;
    EXPECT_EQ(a.size(), b.size()) << what << " insn " << i;
    for (size_t r = 0; r < a.size() && r < b.size(); ++r) {
      EXPECT_EQ(a[r].ToString(), b[r].ToString()) << what << " insn " << i << " R" << r;
    }
  }
  return on;
}

TEST_F(PruneFingerprintTest, GoldenSeedsAgree) {
  // The programs behind tests/data/golden (golden_corpus_test pins them).
  bvf::StructuredGenerator generator(KernelVersion::kBpfNext);
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    const bvf::FuzzCase the_case = generator.Generate(rng);
    Substrate substrate(BugConfig::None());
    for (const MapDef& def : the_case.maps) {
      substrate.bpf().MapCreate(def);
    }
    ExpectSamePaths(substrate, the_case.prog, "golden seed " + std::to_string(seed));
  }
}

TEST_F(PruneFingerprintTest, ConformanceCorpusAgrees) {
  std::vector<bvf::conf::ConformanceCase> corpus;
  std::string error;
  ASSERT_TRUE(bvf::conf::LoadCorpusDir(BVF_CONFORMANCE_DIR, &corpus, &error)) << error;
  ASSERT_GE(corpus.size(), 90u);
  for (const bvf::conf::ConformanceCase& c : corpus) {
    Substrate substrate(BugConfig::None());
    ExpectSamePaths(substrate, bvf::conf::ToProgram(c), c.name);
  }
}

TEST_F(PruneFingerprintTest, GeneratedAllBugsCorpusAgrees) {
  bvf::StructuredGenerator generator(KernelVersion::kBpfNext);
  Rng rng(13);
  int rejected = 0;
  for (int i = 0; i < 520; ++i) {
    const bvf::FuzzCase the_case = generator.Generate(rng);
    Substrate substrate(BugConfig::All());
    for (const MapDef& def : the_case.maps) {
      substrate.bpf().MapCreate(def);
    }
    const VerifierResult result =
        ExpectSamePaths(substrate, the_case.prog, "generated program " + std::to_string(i));
    rejected += result.ok() ? 0 : 1;
    if (HasFatalFailure()) {
      return;
    }
  }
  // Both verdicts must be represented, or the corpus compares half a path.
  EXPECT_GT(rejected, 20);
  EXPECT_LT(rejected, 500);
}

// ---- Hand-built loops ----

TEST_F(PruneFingerprintTest, LoopWalkedToTheLimit) {
  // rC = N; body; rC -= 1; if rC != 0 goto body, with N far past the limit:
  // every loop-head state is new, the list fills, and the walk ends in E2BIG.
  ProgramBuilder b;
  b.Mov(kR0, 0);
  b.Mov(kR6, 1 << 30);
  b.Mov(kR7, kR6);  // 2: loop head
  b.And(kR7, 0xff);
  b.Add(kR0, kR7);
  b.Store(kSizeDw, kR10, kR7, -8);
  b.Sub(kR6, 1);
  b.JmpIf(kJmpJne, kR6, 0, -6);
  b.Ret();
  Substrate substrate(BugConfig::All());
  const VerifierResult result = ExpectSamePaths(substrate, b.Build(), "loop to limit");
  EXPECT_EQ(result.err, -E2BIG) << result.log;
}

TEST_F(PruneFingerprintTest, RepeatingLoopStateIsDetected) {
  // r6 = (r6 + 1) & 7: the ninth loop-head state repeats the first.
  ProgramBuilder b;
  b.Mov(kR0, 0);
  b.Mov(kR6, 0);
  b.Add(kR6, 1);  // 2: loop head
  b.And(kR6, 7);
  b.JmpIf(kJmpJeq, kR6, 100, 1);  // never taken; keeps the exit reachable
  b.Jmp(-4);
  b.Ret();
  Substrate substrate(BugConfig::None());
  const VerifierResult result = ExpectSamePaths(substrate, b.Build(), "period-8 loop");
  EXPECT_EQ(result.err, -EINVAL);
  EXPECT_NE(result.log.find("infinite loop detected at insn 2"), std::string::npos)
      << result.log;
}

TEST_F(PruneFingerprintTest, RepeatAfterFullListIsDetectedAgainstAStoredState) {
  // Period 1024: the list holds the first 64 states only, but the state
  // that comes round again is the first one, which it holds.
  ProgramBuilder b;
  b.Mov(kR0, 0);
  b.Mov(kR6, 0);
  b.Add(kR6, 1);  // 2: loop head
  b.And(kR6, 1023);
  b.JmpIf(kJmpJeq, kR6, 5000, 1);
  b.Jmp(-4);
  b.Ret();
  Substrate substrate(BugConfig::None());
  const VerifierResult result = ExpectSamePaths(substrate, b.Build(), "period-1024 loop");
  EXPECT_EQ(result.err, -EINVAL);
  EXPECT_NE(result.log.find("infinite loop detected at insn 2"), std::string::npos)
      << result.log;
  EXPECT_GT(result.insns_processed, 1024u * 4);
}

TEST_F(PruneFingerprintTest, RepeatOutsideFullListWalksToTheLimit) {
  // r6 cycles with period 3 while r7 climbs to 80 and stays there: from
  // then on the loop-head states repeat, but only states the full list
  // never stored, so the repeat is invisible and the walk hits the limit.
  ProgramBuilder b;
  b.Mov(kR0, 0);
  b.Mov(kR6, 0);
  b.Mov(kR7, 0);
  b.Add(kR6, 1);  // 3: loop head
  b.JmpIf(kJmpJne, kR6, 3, 1);
  b.Mov(kR6, 0);
  b.JmpIf(kJmpJeq, kR7, 80, 1);
  b.Add(kR7, 1);
  b.JmpIf(kJmpJeq, kR6, 100, 1);  // never taken; keeps the exit reachable
  b.Jmp(-7);
  b.Ret();
  Substrate substrate(BugConfig::None());
  const VerifierResult result = ExpectSamePaths(substrate, b.Build(), "late-repeat loop");
  EXPECT_EQ(result.err, -E2BIG) << result.log;
}

TEST_F(PruneFingerprintTest, ForwardArrivalAfterTheIndexIsBuiltIsFound) {
  // The inner loop head is indexed during the first outer trip. The second
  // trip enters it by a forward arrival, and its first back-edge arrival
  // repeats exactly that state, so the repeat is only seen if the index
  // caught up with the entry the forward arrival appended.
  ProgramBuilder b;
  b.Mov(kR0, 0);
  b.Mov(kR8, 0);
  b.Mov(kR7, 2);                // 2: outer loop head
  b.JmpIf(kJmpJeq, kR7, 0, 3);  // 3: inner loop head
  b.JmpIf(kJmpJeq, kR8, 1, -2);  // second trip: spin without a change
  b.Sub(kR7, 1);
  b.Jmp(-4);
  b.Add(kR8, 1);
  b.JmpIf(kJmpJne, kR8, 2, -7);
  b.Ret();
  Substrate substrate(BugConfig::None());
  const VerifierResult result = ExpectSamePaths(substrate, b.Build(), "nested loop");
  EXPECT_EQ(result.err, -EINVAL);
  EXPECT_NE(result.log.find("infinite loop detected at insn 3"), std::string::npos)
      << result.log;
}

TEST_F(PruneFingerprintTest, UnequalStatesSharingAFingerprintStayDistinct) {
  // r7 is unknown; the fall-through of `r7 s> 100` narrows only its smax,
  // which the fingerprint leaves out. The first back-edge arrival collides
  // with the entry state yet is not equal to it, so it must be stored, not
  // reported; the second arrival repeats it and is.
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR7, kR1, 0);
  b.Mov(kR0, 0);
  b.JmpIf(kJmpJsgt, kR7, 100, 1);  // 2: loop head
  b.Jmp(-2);
  b.Ret();
  Substrate substrate(BugConfig::None());
  const VerifierResult result = ExpectSamePaths(substrate, b.Build(), "colliding loop");
  EXPECT_EQ(result.err, -EINVAL);
  EXPECT_NE(result.log.find("infinite loop detected at insn 2"), std::string::npos)
      << result.log;
  // Two trips round the two-insn loop, then the arrival that repeats.
  EXPECT_EQ(result.insns_processed, 7u) << result.log;

  // The collision itself, on the states that loop produces.
  RegState entry = RegState::Unknown();
  RegState narrowed = entry;
  RefineScalarAgainstConst(narrowed, kJmpJsle, 100, /*is32=*/false);
  VerifierState a = VerifierState::Entry();
  VerifierState c = VerifierState::Entry();
  a.regs()[kR7] = entry;
  c.regs()[kR7] = narrowed;
  EXPECT_FALSE(StateEqual(a, c));
  EXPECT_EQ(StateFingerprint(a), StateFingerprint(c));
}

// ---- The fingerprint contract ----

// A small value domain, so independently drawn states are often equal. The
// fourth value differs from the third only in smax, which the fingerprint
// leaves out.
RegState DrawReg(Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return RegState::NotInit();
    case 1:
      return RegState::Known(1);
    case 2:
      return RegState::Unknown();
    default: {
      RegState reg = RegState::Unknown();
      RefineScalarAgainstConst(reg, kJmpJsle, 100, /*is32=*/false);
      return reg;
    }
  }
}

// The helper-argument store: kMisc over a stale spill payload.
void StaleMisc(FuncState& frame, int slot, uint64_t payload) {
  frame.SetSpill(slot, RegState::Known(payload));
  frame.SetSlotKeepPayload(slot, SlotType::kMisc);
}

// Writes slots 0 and 1 in a random order through the FuncState accessors.
void DrawStack(Rng& rng, FuncState& frame) {
  const uint64_t slot0 = rng.Below(6);
  const bool stale1 = rng.Below(2) == 0;
  const bool slot1_first = rng.Below(2) == 0;
  if (slot1_first && stale1) {
    StaleMisc(frame, 1, 2);
  }
  switch (slot0) {
    case 0:
      break;  // never written
    case 1:
      frame.SetSpill(0, RegState::Known(3));
      break;
    case 2:
      frame.SetSpill(0, RegState::Pointer(RegType::kPtrToStack, -8));
      break;
    case 3:
      frame.SetSlot(0, SlotType::kMisc);
      break;
    case 4:
      StaleMisc(frame, 0, 5);
      break;
    default:
      frame.SetSlot(0, SlotType::kZero);
      break;
  }
  if (!slot1_first && stale1) {
    StaleMisc(frame, 1, 2);
  }
}

VerifierState DrawState(Rng& rng) {
  VerifierState state = VerifierState::Entry();
  state.regs()[kR0] = DrawReg(rng);
  state.regs()[kR2] = DrawReg(rng);
  DrawStack(rng, state.cur());
  if (rng.Below(3) == 0) {
    // A callee frame with a smaller domain of its own.
    state.frames.emplace_back();
    FuncState& callee = state.cur();
    callee.callsite = 3;
    callee.regs[kR10] = RegState::Pointer(RegType::kPtrToStack);
    callee.regs[kR0] = rng.Below(2) == 0 ? RegState::NotInit() : RegState::Known(1);
    if (rng.Below(2) == 0) {
      StaleMisc(callee, 0, 6);
    }
  }
  const uint64_t refs = rng.Below(3);
  for (uint64_t i = 0; i < refs; ++i) {
    state.AddRef(7 + 2 * static_cast<int>(i));
  }
  return state;
}

TEST(FingerprintContractTest, EqualStatesShareAFingerprint) {
  Rng rng(2024);
  std::vector<VerifierState> states;
  std::vector<uint64_t> fingerprints;
  for (int i = 0; i < 2500; ++i) {
    states.push_back(DrawState(rng));
    fingerprints.push_back(StateFingerprint(states.back()));
  }
  size_t equal_pairs = 0;
  size_t multi_frame_pairs = 0;
  size_t stale_pairs = 0;
  size_t ref_pairs = 0;
  size_t collisions = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    for (size_t j = i + 1; j < states.size(); ++j) {
      if (!StateEqual(states[i], states[j])) {
        collisions += fingerprints[i] == fingerprints[j] ? 1 : 0;
        continue;
      }
      ++equal_pairs;
      ASSERT_EQ(fingerprints[i], fingerprints[j])
          << "equal states, different fingerprints:\n"
          << states[i].ToString() << "\n" << states[j].ToString();
      const VerifierState& s = states[i];
      multi_frame_pairs += s.frame_depth() > 1 ? 1 : 0;
      ref_pairs += s.acquired_refs.empty() ? 0 : 1;
      for (const FuncState& frame : s.frames) {
        for (const SpillSlot& entry : frame.spills) {
          if (frame.slot_type(entry.slot) == SlotType::kMisc) {
            ++stale_pairs;
          }
        }
      }
    }
  }
  // The domain is small on purpose; make sure each feature took part.
  EXPECT_GT(equal_pairs, 1000u);
  EXPECT_GT(multi_frame_pairs, 0u);
  EXPECT_GT(stale_pairs, 0u);
  EXPECT_GT(ref_pairs, 0u);
  // Unequal states may collide, but the fingerprint must still discriminate.
  EXPECT_LT(collisions, states.size() * states.size() / 20);
}

TEST(FingerprintContractTest, EqualityPreservingRebuildsShareAFingerprint) {
  // The same logical state reached through different accessor sequences:
  // spill order, a spill later cleared, a state copied into a recycled one.
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const VerifierState a = DrawState(rng);
    VerifierState b = VerifierState::Entry();
    b.frames = a.frames;
    b.acquired_refs = a.acquired_refs;
    FuncState& frame = b.frames.back();
    // Spill into an untouched slot and clear it again: back to equal.
    frame.SetSpill(40, RegState::Known(9));
    frame.SetSlot(40, SlotType::kInvalid);
    VerifierState recycled = DrawState(rng);
    recycled = b;
    ASSERT_TRUE(StateEqual(a, recycled)) << a.ToString();
    ASSERT_EQ(StateFingerprint(a), StateFingerprint(recycled)) << a.ToString();
  }
}

}  // namespace
}  // namespace bpf
