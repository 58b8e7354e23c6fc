// Memory-checking behaviour in depth: stack slot tracking (spill/fill/misc/
// zero), per-program-type context matrices, BTF chains, packet ranges, and
// bounds interplay with branches.

#include <gtest/gtest.h>

#include "src/ebpf/builder.h"
#include "src/runtime/bpf_syscall.h"

namespace bpf {
namespace {

class VerifierMemTest : public ::testing::Test {
 protected:
  VerifierMemTest() : kernel_(KernelVersion::kBpfNext, BugConfig::None()), bpf_(kernel_) {}

  int Load(const Program& prog, VerifierResult* result = nullptr) {
    VerifierResult local;
    const int fd = bpf_.ProgLoad(prog, result != nullptr ? result : &local);
    return fd;
  }

  int CreateArray(uint32_t value_size = 16) {
    MapDef def;
    def.type = MapType::kArray;
    def.key_size = 4;
    def.value_size = value_size;
    def.max_entries = 4;
    return bpf_.MapCreate(def);
  }

  Kernel kernel_;
  Bpf bpf_;
};

// ---- Stack ----

TEST_F(VerifierMemTest, SpillFillPreservesPointer) {
  const int map_fd = CreateArray();
  ProgramBuilder b;
  b.LdMapFd(kR1, map_fd);
  b.Store(kSizeDw, kR10, kR1, -8);  // spill map pointer
  b.Load(kSizeDw, kR1, kR10, -8);   // fill it back
  b.StoreImm(kSizeW, kR10, -12, 0);
  b.Mov(kR2, kR10);
  b.Add(kR2, -12);
  b.Call(kHelperMapLookupElem);  // works only if the fill restored the type
  b.RetImm(0);
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, PartialReadOfSpilledPointerRejected) {
  const int map_fd = CreateArray();
  ProgramBuilder b;
  b.LdMapFd(kR1, map_fd);
  b.Store(kSizeDw, kR10, kR1, -8);
  b.Load(kSizeW, kR0, kR10, -8);  // 4-byte read of a pointer spill
  b.Ret();
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, PartialPointerSpillRejected) {
  const int map_fd = CreateArray();
  ProgramBuilder b;
  b.LdMapFd(kR1, map_fd);
  b.Store(kSizeW, kR10, kR1, -8);  // 4-byte store of a pointer
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, MisalignedPointerSpillRejected) {
  const int map_fd = CreateArray();
  ProgramBuilder b;
  b.LdMapFd(kR1, map_fd);
  b.Store(kSizeDw, kR10, kR1, -12);  // not 8-aligned
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, ScalarSpillKeepsBounds) {
  const int map_fd = CreateArray(64);
  ProgramBuilder b;
  b.Mov(kR1, 24);                  // const 24
  b.Store(kSizeDw, kR10, kR1, -8);
  b.StoreImm(kSizeW, kR10, -12, 0);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -12);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 3);
  b.Load(kSizeDw, kR3, kR10, -8);  // fill: must still be known 24
  b.Add(kR0, kR3);
  b.Load(kSizeDw, kR0, kR0, 0);    // 24 + 8 <= 64: only legal if bounds kept
  b.RetImm(0);
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, ZeroSlotReadsAsKnownZero) {
  const int map_fd = CreateArray(16);
  ProgramBuilder b;
  b.StoreImm(kSizeDw, kR10, -8, 0);  // kZero slot
  b.StoreImm(kSizeW, kR10, -12, 0);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -12);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 3);
  b.Load(kSizeDw, kR3, kR10, -8);  // known zero
  b.Add(kR0, kR3);                 // value + 0
  b.Load(kSizeDw, kR0, kR0, 8);    // 0 + 8 + 8 <= 16 only if r3 == 0 known
  b.RetImm(0);
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, MiscSlotReadsAsUnknown) {
  const int map_fd = CreateArray(16);
  ProgramBuilder b;
  b.StoreImm(kSizeW, kR10, -8, 0);  // 4-byte store -> misc, not zero
  b.StoreImm(kSizeW, kR10, -4, 0);
  b.StoreImm(kSizeW, kR10, -12, 0);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -12);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 3);
  b.Load(kSizeDw, kR3, kR10, -8);  // unknown scalar
  b.Add(kR0, kR3);
  b.Load(kSizeDw, kR0, kR0, 0);    // unbounded offset -> reject
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, StackAccessThroughCopiedPointer) {
  ProgramBuilder b;
  b.Mov(kR6, kR10);
  b.Add(kR6, -16);
  b.StoreImm(kSizeDw, kR6, 8, 7);   // writes fp-8
  b.Load(kSizeDw, kR0, kR10, -8);   // readable: same slot
  b.Ret();
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, StackOverflowViaCopiedPointer) {
  ProgramBuilder b;
  b.Mov(kR6, kR10);
  b.Add(kR6, -512);
  b.StoreImm(kSizeDw, kR6, -8, 7);  // fp-520: beyond the stack
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, AtomicOnUninitStackRejected) {
  ProgramBuilder b;
  b.Mov(kR1, 1);
  b.Raw(AtomicOp(kSizeDw, kR10, kR1, -8, kAtomicAdd));
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, AtomicSlotBecomesUnknownNotSpill) {
  const int map_fd = CreateArray(16);
  // After an atomic on a slot holding a known constant, a later fill must be
  // treated as unknown (the atomic-as-spill bug the property fuzzing caught).
  ProgramBuilder b;
  b.StoreImm(kSizeDw, kR10, -8, 4);
  b.Mov(kR1, 8);
  b.Raw(AtomicOp(kSizeDw, kR10, kR1, -8, kAtomicOr));
  b.StoreImm(kSizeW, kR10, -12, 0);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -12);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 3);
  b.Load(kSizeDw, kR3, kR10, -8);
  b.Add(kR0, kR3);
  b.Load(kSizeDw, kR0, kR0, 0);  // offset unknown -> must reject
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

// ---- Context matrices ----

struct CtxCase {
  ProgType type;
  int off;
  uint8_t size;
  bool is_store;
  bool accepted;
};

class CtxMatrixTest : public ::testing::TestWithParam<CtxCase> {};

TEST_P(CtxMatrixTest, AccessOutcome) {
  const CtxCase& c = GetParam();
  Kernel kernel(KernelVersion::kBpfNext, BugConfig::None());
  Bpf bpf(kernel);
  ProgramBuilder b(c.type);
  if (c.is_store) {
    b.Mov(kR2, 1);
    b.Store(c.size, kR1, kR2, static_cast<int16_t>(c.off));
  } else {
    b.Load(c.size, kR0, kR1, static_cast<int16_t>(c.off));
  }
  b.RetImm(0);
  VerifierResult result;
  const int fd = bpf.ProgLoad(b.Build(), &result);
  if (c.accepted) {
    EXPECT_GT(fd, 0) << result.log;
  } else {
    EXPECT_EQ(fd, -EACCES) << result.log;
  }
}

// gtest names each case by the byte dump of its CtxCase, padding included.
// A static array's padding is zero-filled, so the names are the same in every
// build; cases built inline would carry whatever was on the stack.
const CtxCase kCtxCases[] = {
    // __sk_buff
    CtxCase{ProgType::kSocketFilter, 0, kSizeW, false, true},    // len
    CtxCase{ProgType::kSocketFilter, 8, kSizeW, false, true},    // mark
    CtxCase{ProgType::kSocketFilter, 8, kSizeW, true, true},     // mark writable
    CtxCase{ProgType::kSocketFilter, 0, kSizeW, true, false},    // len read-only
    CtxCase{ProgType::kSocketFilter, 2, kSizeH, false, true},    // narrow load
    CtxCase{ProgType::kSocketFilter, 44, kSizeW, false, false},  // hole
    CtxCase{ProgType::kSocketFilter, 48, kSizeW, false, false},  // past end
    CtxCase{ProgType::kSocketFilter, 2, kSizeW, false, false},   // misaligned
    CtxCase{ProgType::kSocketFilter, 32, kSizeW, false, false},  // partial pkt field
    // xdp_md
    CtxCase{ProgType::kXdp, 24, kSizeW, false, true},   // ingress_ifindex
    CtxCase{ProgType::kXdp, 24, kSizeW, true, false},   // read-only
    CtxCase{ProgType::kXdp, 32, kSizeW, false, false},  // past end
    // pt_regs: everything readable, nothing writable
    CtxCase{ProgType::kKprobe, 0, kSizeDw, false, true},
    CtxCase{ProgType::kKprobe, 160, kSizeDw, false, true},
    CtxCase{ProgType::kKprobe, 160, kSizeDw, true, false},
    CtxCase{ProgType::kKprobe, 168, kSizeDw, false, false},
    // tracepoint args
    CtxCase{ProgType::kTracepoint, 56, kSizeDw, false, true},
    CtxCase{ProgType::kTracepoint, 64, kSizeDw, false, false},
};

INSTANTIATE_TEST_SUITE_P(Fields, CtxMatrixTest, ::testing::ValuesIn(kCtxCases));

TEST_F(VerifierMemTest, CtxPointerWithConstOffset) {
  ProgramBuilder b(ProgType::kKprobe);
  b.Mov(kR6, kR1);
  b.Add(kR6, 8);
  b.Load(kSizeDw, kR0, kR6, 0);  // effective off 8: valid pt_regs field
  b.Ret();
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, CtxPointerVariableOffsetRejected) {
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR2, kR1, 0);
  b.And(kR2, 7);
  b.Mov(kR6, kR1);
  b.Raw(AluReg(kAluAdd, kR6, kR2));
  b.Load(kSizeDw, kR0, kR6, 0);
  b.Ret();
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

// ---- BTF ----

TEST_F(VerifierMemTest, BtfChainThroughPointerFields) {
  ProgramBuilder b(ProgType::kKprobe);
  b.Call(kHelperGetCurrentTaskBtf);
  b.Load(kSizeDw, kR1, kR0, 112);  // task->parent (task_struct)
  b.Load(kSizeDw, kR2, kR1, 48);   // parent->files (file)
  b.Load(kSizeW, kR0, kR2, 0);     // file->f_mode
  b.Ret();
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, BtfWriteRejected) {
  ProgramBuilder b(ProgType::kKprobe);
  b.Call(kHelperGetCurrentTaskBtf);
  b.Mov(kR1, 0);
  b.Store(kSizeW, kR0, kR1, 16);
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, BtfNegativeOffsetRejected) {
  ProgramBuilder b(ProgType::kKprobe);
  b.Call(kHelperGetCurrentTaskBtf);
  b.Load(kSizeDw, kR0, kR0, -8);
  b.Ret();
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, BtfScalarFieldLoadIsScalar) {
  // Loading a scalar field and dereferencing it must fail.
  ProgramBuilder b(ProgType::kKprobe);
  b.Call(kHelperGetCurrentTaskBtf);
  b.Load(kSizeDw, kR1, kR0, 64);  // start_time: scalar
  b.Load(kSizeDw, kR0, kR1, 0);   // deref of scalar
  b.Ret();
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, BtfRuntimeNullLoadReadsZero) {
  // task->mm is NULL for kernel threads; PTR_TO_BTF_ID loads are exception-
  // handled, so the nested load reads 0 instead of crashing.
  ProgramBuilder b(ProgType::kKprobe);
  b.Call(kHelperGetCurrentTaskBtf);
  b.Load(kSizeDw, kR1, kR0, 40);   // task->mm == NULL at runtime
  b.Load(kSizeDw, kR0, kR1, 0);    // exception-handled: reads 0
  b.Ret();
  VerifierResult result;
  const int fd = Load(b.Build(), &result);
  ASSERT_GT(fd, 0) << result.log;
  const ExecResult exec = bpf_.ProgTestRun(fd);
  EXPECT_EQ(exec.err, 0);
  EXPECT_EQ(exec.r0, 0u);
  EXPECT_TRUE(kernel_.reports().empty());
}

// ---- Packet ranges ----

TEST_F(VerifierMemTest, PacketRangeIsPerComparedOffset) {
  ProgramBuilder b(ProgType::kXdp);
  b.Mov(kR0, 0);
  b.Load(kSizeDw, kR2, kR1, 0);
  b.Load(kSizeDw, kR3, kR1, 8);
  b.Mov(kR4, kR2);
  b.Add(kR4, 4);
  b.JmpIfReg(kJmpJgt, kR4, kR3, 1);  // verified: 4 bytes
  b.Load(kSizeDw, kR0, kR2, 0);      // needs 8 -> reject
  b.Ret();
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, PacketRangeAppliesToAllCopies) {
  ProgramBuilder b(ProgType::kXdp);
  b.Mov(kR0, 0);
  b.Load(kSizeDw, kR2, kR1, 0);
  b.Mov(kR5, kR2);                   // copy shares the packet id
  b.Load(kSizeDw, kR3, kR1, 8);
  b.Mov(kR4, kR2);
  b.Add(kR4, 8);
  b.JmpIfReg(kJmpJgt, kR4, kR3, 1);
  b.Load(kSizeDw, kR0, kR5, 0);      // the copy gained the range too
  b.Ret();
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, PacketWriteOnSkbRejected) {
  ProgramBuilder b(ProgType::kSocketFilter);
  b.Mov(kR0, 0);
  b.Load(kSizeDw, kR2, kR1, 32);
  b.Load(kSizeDw, kR3, kR1, 40);
  b.Mov(kR4, kR2);
  b.Add(kR4, 1);
  b.JmpIfReg(kJmpJgt, kR4, kR3, 2);
  b.Mov(kR5, 1);
  b.Store(kSizeB, kR2, kR5, 0);  // skb packet data is read-only
  b.Ret();
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, PacketWriteOnXdpAccepted) {
  ProgramBuilder b(ProgType::kXdp);
  b.Mov(kR0, 0);
  b.Load(kSizeDw, kR2, kR1, 0);
  b.Load(kSizeDw, kR3, kR1, 8);
  b.Mov(kR4, kR2);
  b.Add(kR4, 1);
  b.JmpIfReg(kJmpJgt, kR4, kR3, 2);
  b.Mov(kR5, 1);
  b.Store(kSizeB, kR2, kR5, 0);
  b.Ret();
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, PacketEndDerefRejected) {
  ProgramBuilder b(ProgType::kXdp);
  b.Load(kSizeDw, kR3, kR1, 8);
  b.Load(kSizeB, kR0, kR3, 0);
  b.Ret();
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

// ---- Map value bounds refinement through branches ----

TEST_F(VerifierMemTest, BranchRefinedOffsetAccepted) {
  const int map_fd = CreateArray(64);
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR6, kR1, 0);     // unknown scalar from ctx
  b.StoreImm(kSizeW, kR10, -4, 0);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -4);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 4);
  b.JmpIf(kJmpJgt, kR6, 56, 3);     // fall-through: r6 <= 56
  b.Add(kR0, kR6);
  b.Load(kSizeB, kR0, kR0, 0);      // 56 + 1 <= 64
  b.Jmp(0);
  b.RetImm(0);
  VerifierResult result;
  EXPECT_GT(Load(b.Build(), &result), 0) << result.log;
}

TEST_F(VerifierMemTest, BranchRefinementRespectsDirection) {
  const int map_fd = CreateArray(64);
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR6, kR1, 0);
  b.StoreImm(kSizeW, kR10, -4, 0);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -4);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 4);
  b.JmpIf(kJmpJlt, kR6, 56, 3);     // fall-through: r6 >= 56 -- wrong side!
  b.Add(kR0, kR6);
  b.Load(kSizeB, kR0, kR0, 0);
  b.Jmp(0);
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

TEST_F(VerifierMemTest, SignedRefinementCatchesNegative) {
  const int map_fd = CreateArray(64);
  // Unsigned-only bound: r6 <= 56 via JLE is fine, but a signed-only bound
  // (JSLE) leaves the negative range open for unsigned addition.
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR6, kR1, 0);
  b.StoreImm(kSizeW, kR10, -4, 0);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -4);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 4);
  b.JmpIf(kJmpJsgt, kR6, 56, 3);    // fall-through: r6 s<= 56 (maybe negative)
  b.Add(kR0, kR6);
  b.Load(kSizeB, kR0, kR0, 0);
  b.Jmp(0);
  b.RetImm(0);
  EXPECT_EQ(Load(b.Build()), -EACCES);
}

}  // namespace
}  // namespace bpf
