// Verifier state machinery: subsumption/pruning, path exploration limits,
// per-version behaviour differences, fixup/rewrite outputs, and the verbose
// log format.

#include <gtest/gtest.h>

#include "src/ebpf/builder.h"
#include "src/runtime/bpf_syscall.h"
#include "src/verifier/verifier_state.h"

namespace bpf {
namespace {

// ---- StateSubsumes / StateEqual ----

TEST(VerifierStateTest, EntryStateShape) {
  const VerifierState state = VerifierState::Entry();
  EXPECT_EQ(state.frame_depth(), 1);
  EXPECT_EQ(state.regs()[kR1].type, RegType::kPtrToCtx);
  EXPECT_EQ(state.regs()[kR10].type, RegType::kPtrToStack);
  EXPECT_EQ(state.regs()[kR0].type, RegType::kNotInit);
  EXPECT_TRUE(state.acquired_refs.empty());
}

TEST(VerifierStateTest, EqualAndSubsumesReflexive) {
  const VerifierState state = VerifierState::Entry();
  EXPECT_TRUE(StateEqual(state, state));
  EXPECT_TRUE(StateSubsumes(state, state));
}

TEST(VerifierStateTest, WiderScalarSubsumesNarrower) {
  VerifierState wide = VerifierState::Entry();
  VerifierState narrow = VerifierState::Entry();
  wide.regs()[kR3] = RegState::Unknown();
  RegState bounded = RegState::Unknown();
  bounded.umin = 0;
  bounded.umax = 31;
  bounded.Sync();
  narrow.regs()[kR3] = bounded;
  EXPECT_TRUE(StateSubsumes(wide, narrow));
  EXPECT_FALSE(StateSubsumes(narrow, wide));
  EXPECT_FALSE(StateEqual(wide, narrow));
}

TEST(VerifierStateTest, PointerMismatchBlocksSubsumption) {
  VerifierState a = VerifierState::Entry();
  VerifierState b = VerifierState::Entry();
  a.regs()[kR2] = RegState::Pointer(RegType::kPtrToMapValue, 0);
  a.regs()[kR2].map_id = 1;
  b.regs()[kR2] = RegState::Pointer(RegType::kPtrToMapValue, 8);
  b.regs()[kR2].map_id = 1;
  EXPECT_FALSE(StateSubsumes(a, b));  // different fixed offsets
  b.regs()[kR2].off = 0;
  EXPECT_TRUE(StateSubsumes(a, b));
  b.regs()[kR2].map_id = 2;
  EXPECT_FALSE(StateSubsumes(a, b));  // different maps
}

TEST(VerifierStateTest, StackSlotSubsumption) {
  VerifierState old_state = VerifierState::Entry();
  VerifierState cur = VerifierState::Entry();
  // Old path never touched the slot: anything is fine.
  cur.cur().SetSlot(0, SlotType::kMisc);
  EXPECT_TRUE(StateSubsumes(old_state, cur));
  // Old path relied on a spilled pointer; current holds misc: unsafe.
  old_state.cur().SetSpill(0, RegState::Pointer(RegType::kPtrToStack));
  EXPECT_FALSE(StateSubsumes(old_state, cur));
  // Misc old-slot accepts a scalar spill.
  old_state.cur().SetSlotKeepPayload(0, SlotType::kMisc);
  cur.cur().SetSpill(0, RegState::Known(3));
  EXPECT_TRUE(StateSubsumes(old_state, cur));
}

TEST(VerifierStateTest, StaleSpillPayloadStaysObservableInEquality) {
  // The helper-argument store downgrades a spill slot to kMisc without
  // clearing its payload, and that stale payload has always been part of
  // state equality (it can delay loop-detection convergence). The sparse
  // spill representation must preserve that, not canonicalize it away.
  VerifierState a = VerifierState::Entry();
  VerifierState b = VerifierState::Entry();
  a.cur().SetSpill(0, RegState::Known(7));
  a.cur().SetSlotKeepPayload(0, SlotType::kMisc);
  b.cur().SetSlot(0, SlotType::kMisc);
  EXPECT_EQ(a.cur().slot_type(0), b.cur().slot_type(0));
  EXPECT_FALSE(StateEqual(a, b));  // stale payload still observable
  EXPECT_EQ(StateFingerprint(a), StateFingerprint(b));  // but not hashed
  a.cur().SetSlot(0, SlotType::kMisc);  // explicit clear restores equality
  EXPECT_TRUE(StateEqual(a, b));
  // And the spill payload round-trips through the sparse store.
  b.cur().SetSpill(3, RegState::Known(9));
  EXPECT_EQ(b.cur().slot_type(3), SlotType::kSpill);
  EXPECT_EQ(b.cur().SpillData(3).var_off.value, 9u);
  EXPECT_EQ(b.cur().SpillData(2).type, RegType::kNotInit);
}

TEST(VerifierStateTest, AcquiredRefsBlockSubsumption) {
  VerifierState a = VerifierState::Entry();
  VerifierState b = VerifierState::Entry();
  a.AddRef(7);
  EXPECT_FALSE(StateSubsumes(a, b));
  EXPECT_FALSE(StateEqual(a, b));
  b.AddRef(7);
  EXPECT_TRUE(StateSubsumes(a, b));
  EXPECT_TRUE(b.ReleaseRef(7));
  EXPECT_FALSE(b.ReleaseRef(7));
}

TEST(VerifierStateTest, PacketRangeSubsumption) {
  VerifierState a = VerifierState::Entry();
  VerifierState b = VerifierState::Entry();
  a.regs()[kR2] = RegState::Pointer(RegType::kPtrToPacket);
  a.regs()[kR2].id = 1;
  a.regs()[kR2].pkt_range = 8;
  b.regs()[kR2] = a.regs()[kR2];
  b.regs()[kR2].pkt_range = 16;
  // Old proved safe with range 8; new has at least that much: prunable.
  EXPECT_TRUE(StateSubsumes(a, b));
  EXPECT_FALSE(StateSubsumes(b, a));
}

// ---- Pruning and exploration limits through the public API ----

class StateExplorationTest : public ::testing::Test {
 protected:
  StateExplorationTest()
      : kernel_(KernelVersion::kBpfNext, BugConfig::None()), bpf_(kernel_) {}

  Kernel kernel_;
  Bpf bpf_;
};

TEST_F(StateExplorationTest, ConvergingBranchesGetPruned) {
  // A diamond whose sides produce identical states: the join is verified once.
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR6, kR1, 0);
  b.JmpIf(kJmpJeq, kR6, 0, 2);
  b.Mov(kR7, 1);
  b.Jmp(1);
  b.Mov(kR7, 1);  // same value on both sides
  b.Mov(kR0, kR7);
  b.Ret();
  VerifierResult result;
  ASSERT_GT(bpf_.ProgLoad(b.Build(), &result), 0) << result.log;
  EXPECT_GE(result.states_pruned, 1u);
}

TEST_F(StateExplorationTest, BranchHeavyProgramStaysBounded) {
  // 24 independent unknown branches would be 2^24 paths without pruning.
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR6, kR1, 0);
  for (int i = 0; i < 24; ++i) {
    b.JmpIf(kJmpJgt, kR6, i, 0);  // both branches converge immediately
  }
  b.RetImm(0);
  VerifierResult result;
  ASSERT_GT(bpf_.ProgLoad(b.Build(), &result), 0) << result.log;
  EXPECT_LT(result.insns_processed, 4000u);
}

TEST_F(StateExplorationTest, UnknownCounterLoopRejected) {
  // Loop bound from the context: unknown scalar, state repeats -> rejected.
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR6, kR1, 0);
  b.Alu(kAluSub, kR6, 1);
  b.JmpIf(kJmpJne, kR6, 0, -2);
  b.RetImm(0);
  VerifierResult result;
  const int err = bpf_.ProgLoad(b.Build(), &result);
  EXPECT_TRUE(err == -EINVAL || err == -E2BIG) << result.log;
}

TEST_F(StateExplorationTest, TooLargeRejectionReportsProcessedCount) {
  // A counting loop whose bound the walk cannot reach: rejected with E2BIG,
  // and the result's insns_processed is the count the log line names.
  ProgramBuilder b;
  b.Mov(kR0, 0);
  b.Mov(kR6, 1 << 30);
  b.Add(kR0, 1);
  b.Sub(kR6, 1);
  b.JmpIf(kJmpJne, kR6, 0, -3);
  b.Ret();
  VerifierResult result;
  ASSERT_EQ(bpf_.ProgLoad(b.Build(), &result), -E2BIG) << result.log;
  const size_t at = result.log.find("BPF program is too large: processed ");
  ASSERT_NE(at, std::string::npos) << result.log;
  const unsigned long logged = std::stoul(result.log.substr(at + 36));
  EXPECT_EQ(result.insns_processed, logged);
  EXPECT_GT(result.insns_processed, 131072u);
}

TEST_F(StateExplorationTest, NestedBoundedLoopsAccepted) {
  ProgramBuilder b;
  b.Mov(kR0, 0);
  b.Mov(kR6, 3);
  b.Mov(kR7, 4);           // inner reset
  b.Alu(kAluAdd, kR0, 1);
  b.Alu(kAluSub, kR7, 1);
  b.JmpIf(kJmpJne, kR7, 0, -3);
  b.Alu(kAluSub, kR6, 1);
  b.JmpIf(kJmpJne, kR6, 0, -6);
  b.Ret();
  VerifierResult result;
  const int fd = bpf_.ProgLoad(b.Build(), &result);
  ASSERT_GT(fd, 0) << result.log;
  EXPECT_EQ(bpf_.ProgTestRun(fd).r0, 12u);
}

TEST_F(StateExplorationTest, JsetRefinementOnFallThrough) {
  const int map_fd = [&] {
    MapDef def;
    def.type = MapType::kArray;
    def.key_size = 4;
    def.value_size = 16;
    def.max_entries = 1;
    return bpf_.MapCreate(def);
  }();
  // Fall-through of JSET on bit mask ~0x7: the low bits are the only ones
  // possibly set -> usable as a bounded map offset.
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR6, kR1, 0);
  b.StoreImm(kSizeW, kR10, -4, 0);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -4);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 4);
  b.JmpIf(kJmpJset, kR6, ~7, 3);  // fall-through: r6 within [0,7]
  b.Add(kR0, kR6);
  b.Load(kSizeDw, kR0, kR0, 0);   // 7 + 8 <= 16
  b.Jmp(0);
  b.RetImm(0);
  VerifierResult result;
  EXPECT_GT(bpf_.ProgLoad(b.Build(), &result), 0) << result.log;
}

// ---- Per-version verifier differences ----

TEST(VersionBehaviourTest, NullnessPropagationOnlyOnBpfNext) {
  // The Listing 2 shape must be rejected on v6.1 (feature absent) even with
  // bug #1 "enabled" — the buggy code simply does not exist there.
  for (const KernelVersion version : {KernelVersion::kV6_1, KernelVersion::kBpfNext}) {
    BugConfig bugs;
    bugs.bug1_nullness_propagation = true;
    Kernel kernel(version, bugs);
    Bpf bpf(kernel);
    MapDef def;
    def.type = MapType::kHash;
    def.key_size = 8;
    def.value_size = 16;
    def.max_entries = 8;
    const int map_fd = bpf.MapCreate(def);

    ProgramBuilder b(ProgType::kKprobe);
    b.LdBtfId(kR6, kBtfMmStruct);
    b.StoreImm(kSizeDw, kR10, -8, 7777);
    b.LdMapFd(kR1, map_fd);
    b.Mov(kR2, kR10);
    b.Add(kR2, -8);
    b.Call(kHelperMapLookupElem);
    b.JmpIfReg(kJmpJne, kR0, kR6, 1);
    b.Load(kSizeDw, kR8, kR0, 0);
    b.RetImm(0);
    const int fd = bpf.ProgLoad(b.Build());
    if (version == KernelVersion::kBpfNext) {
      EXPECT_GT(fd, 0);
    } else {
      EXPECT_EQ(fd, -EACCES);
    }
  }
}

TEST(VersionBehaviourTest, CoverageSurfaceGrowsWithVersion) {
  // Newer versions expose more helpers => more reachable verifier code.
  size_t counts[3] = {};
  int i = 0;
  for (const KernelVersion version :
       {KernelVersion::kV5_15, KernelVersion::kV6_1, KernelVersion::kBpfNext}) {
    counts[i++] = AvailableHelpers(version, ProgType::kKprobe).size() +
                  AvailableKfuncs(version).size();
  }
  EXPECT_LT(counts[0], counts[1]);
  EXPECT_LT(counts[1], counts[2]);
}

// ---- Fixup outputs ----

TEST_F(StateExplorationTest, FixupResolvesMapFds) {
  MapDef def;
  def.type = MapType::kArray;
  def.key_size = 4;
  def.value_size = 8;
  def.max_entries = 1;
  const int map_fd = bpf_.MapCreate(def);
  ProgramBuilder b;
  b.LdMapFd(kR1, map_fd);
  b.RetImm(0);
  VerifierResult result;
  const int fd = bpf_.ProgLoad(b.Build(), &result);
  ASSERT_GT(fd, 0);
  const LoadedProgram* prog = bpf_.FindProg(fd);
  // The pseudo src is cleared and the imm pair now holds the object address.
  EXPECT_EQ(prog->prog.insns[0].src, 0);
  const uint64_t addr =
      (static_cast<uint64_t>(static_cast<uint32_t>(prog->prog.insns[1].imm)) << 32) |
      static_cast<uint32_t>(prog->prog.insns[0].imm);
  EXPECT_EQ(addr, kernel_.maps().Find(map_fd)->obj_addr());
}

TEST_F(StateExplorationTest, FixupResolvesBtfIds) {
  ProgramBuilder b(ProgType::kKprobe);
  b.LdBtfId(kR6, kBtfTaskStruct);
  b.Load(kSizeW, kR0, kR6, 16);
  b.Ret();
  VerifierResult result;
  const int fd = bpf_.ProgLoad(b.Build(), &result);
  ASSERT_GT(fd, 0) << result.log;
  const ExecResult exec = bpf_.ProgTestRun(fd);
  EXPECT_EQ(exec.r0, 2u);  // the simulated current task's pid
}

TEST_F(StateExplorationTest, VerboseLogDumpsStates) {
  VerifierEnv env;
  env.maps = &kernel_.maps();
  env.btf = &kernel_.btf();
  env.version = kernel_.version();
  env.verbose_log = true;
  ProgramBuilder b;
  b.Mov(kR0, 3);
  b.Ret();
  const VerifierResult result = VerifyProgram(b.Build(), env);
  EXPECT_EQ(result.err, 0);
  EXPECT_NE(result.log.find("r0 = 3"), std::string::npos);
  EXPECT_NE(result.log.find("R0=3"), std::string::npos);
  EXPECT_NE(result.log.find("R10=fp"), std::string::npos);
}

}  // namespace
}  // namespace bpf
