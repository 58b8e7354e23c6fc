// Interpreter semantics: ALU ops (64/32), byte swaps, memory, atomics,
// jumps, calls, subprograms, and runaway-execution handling. Programs are
// executed through the full loader so they always match what the verifier
// accepted.

#include <gtest/gtest.h>

#include "src/ebpf/builder.h"
#include "src/runtime/bpf_syscall.h"
#include "src/runtime/interp_ops.h"

namespace bpf {
namespace {

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest() : kernel_(KernelVersion::kBpfNext, BugConfig::None()), bpf_(kernel_) {}

  // Loads and runs; expects acceptance.
  uint64_t Run(const Program& prog) {
    VerifierResult result;
    const int fd = bpf_.ProgLoad(prog, &result);
    EXPECT_GT(fd, 0) << result.log;
    if (fd <= 0) {
      return 0;
    }
    const ExecResult exec = bpf_.ProgTestRun(fd);
    EXPECT_EQ(exec.err, 0) << exec.abort_reason;
    return exec.r0;
  }

  Kernel kernel_;
  Bpf bpf_;
};

// r0 = lhs; r1 = rhs; r0 op= r1; exit. Exercises the register form.
struct AluSemCase {
  uint8_t op;
  bool is64;
  int64_t lhs;
  int64_t rhs;
  uint64_t expected;
};

class AluSemanticsTest : public ::testing::TestWithParam<AluSemCase> {};

TEST_P(AluSemanticsTest, RegisterForm) {
  const AluSemCase& c = GetParam();
  Kernel kernel(KernelVersion::kBpfNext, BugConfig::None());
  Bpf bpf(kernel);
  ProgramBuilder b;
  b.LdImm64(kR0, static_cast<uint64_t>(c.lhs));
  b.LdImm64(kR1, static_cast<uint64_t>(c.rhs));
  if (c.is64) {
    b.Raw(AluReg(c.op, kR0, kR1));
  } else {
    b.Raw(Alu32Reg(c.op, kR0, kR1));
  }
  b.Ret();
  VerifierResult result;
  const int fd = bpf.ProgLoad(b.Build(), &result);
  ASSERT_GT(fd, 0) << result.log;
  EXPECT_EQ(bpf.ProgTestRun(fd).r0, c.expected);
}

// gtest names each case by the byte dump of its AluSemCase, padding included.
// A static array's padding is zero-filled, so the names are the same in every
// build; cases built inline would carry whatever was on the stack.
const AluSemCase kAluSemCases[] = {
    AluSemCase{kAluAdd, true, 3, 4, 7},
    AluSemCase{kAluAdd, true, -1, 1, 0},
    AluSemCase{kAluAdd, false, 0xffffffff, 1, 0},  // 32-bit wraps + zexts
    AluSemCase{kAluSub, true, 3, 5, static_cast<uint64_t>(-2)},
    AluSemCase{kAluSub, false, 3, 5, 0xfffffffeu},
    AluSemCase{kAluMul, true, 7, 6, 42},
    AluSemCase{kAluDiv, true, 42, 6, 7},
    AluSemCase{kAluDiv, true, 42, 0, 0},  // div-by-zero yields 0
    AluSemCase{kAluDiv, true, -1, 2, 0x7fffffffffffffffull},  // unsigned div
    AluSemCase{kAluMod, true, 42, 5, 2},
    AluSemCase{kAluMod, true, 42, 0, 42},  // mod-by-zero keeps dst
    AluSemCase{kAluAnd, true, 0xf0f0, 0xff00, 0xf000},
    AluSemCase{kAluOr, true, 0xf0, 0x0f, 0xff},
    AluSemCase{kAluXor, true, 0xff, 0x0f, 0xf0},
    AluSemCase{kAluLsh, true, 1, 40, 1ull << 40},
    AluSemCase{kAluLsh, false, 1, 31, 0x80000000u},
    AluSemCase{kAluRsh, true, 1ull << 40, 40, 1},
    AluSemCase{kAluArsh, true, -8, 1, static_cast<uint64_t>(-4)},
    AluSemCase{kAluArsh, false, 0x80000000u, 4, 0xf8000000u},
    AluSemCase{kAluMov, true, 1, 99, 99},
};

INSTANTIATE_TEST_SUITE_P(Ops, AluSemanticsTest, ::testing::ValuesIn(kAluSemCases));

TEST_F(InterpreterTest, NegAndByteSwap) {
  ProgramBuilder b;
  b.Mov(kR0, 5);
  b.Raw(Neg(kR0));
  b.Ret();
  EXPECT_EQ(Run(b.Build()), static_cast<uint64_t>(-5));

  ProgramBuilder c;
  c.LdImm64(kR0, 0x0102030405060708ull);
  Insn bswap;
  bswap.opcode = kClassAlu | kAluEnd | 0x08;  // to_be
  bswap.dst = kR0;
  bswap.imm = 64;
  c.Raw(bswap);
  c.Ret();
  EXPECT_EQ(Run(c.Build()), 0x0807060504030201ull);
}

TEST_F(InterpreterTest, Truncate16) {
  ProgramBuilder b;
  b.LdImm64(kR0, 0x12345678ull);
  Insn to_le;
  to_le.opcode = kClassAlu | kAluEnd;  // to_le == truncate on little-endian
  to_le.dst = kR0;
  to_le.imm = 16;
  b.Raw(to_le);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 0x5678u);
}

TEST_F(InterpreterTest, StackStoreLoadRoundTrip) {
  ProgramBuilder b;
  b.LdImm64(kR1, 0x1122334455667788ull);
  b.Store(kSizeDw, kR10, kR1, -8);
  b.Load(kSizeW, kR0, kR10, -8);  // low word on little-endian
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 0x55667788u);
}

TEST_F(InterpreterTest, ByteGranularStores) {
  ProgramBuilder b;
  b.StoreImm(kSizeDw, kR10, -8, 0);
  b.StoreImm(kSizeB, kR10, -8, 0xAA);
  b.StoreImm(kSizeB, kR10, -7, 0xBB);
  b.StoreImm(kSizeH, kR10, -6, 0xCCDD);
  b.Load(kSizeW, kR0, kR10, -8);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 0xCCDDBBAAu);
}

TEST_F(InterpreterTest, AtomicAddAndFetch) {
  ProgramBuilder b;
  b.StoreImm(kSizeDw, kR10, -8, 10);
  b.Mov(kR1, 5);
  b.Raw(AtomicOp(kSizeDw, kR10, kR1, -8, kAtomicAdd | kAtomicFetch));
  // r1 now holds the old value (10); memory holds 15.
  b.Load(kSizeDw, kR0, kR10, -8);
  b.Alu(kAluAdd, kR0, kR1);  // 15 + 10
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 25u);
}

TEST_F(InterpreterTest, AtomicXchgAndCmpXchg) {
  ProgramBuilder b;
  b.StoreImm(kSizeDw, kR10, -8, 7);
  b.Mov(kR1, 9);
  b.Raw(AtomicOp(kSizeDw, kR10, kR1, -8, kAtomicXchg));
  // r1 = 7 (old), slot = 9.
  b.Mov(kR0, 9);  // comparator
  b.Mov(kR2, 33);
  b.Raw(AtomicOp(kSizeDw, kR10, kR2, -8, kAtomicCmpXchg));
  // r0 = 9 (old), slot = 33 since comparator matched.
  b.Load(kSizeDw, kR3, kR10, -8);
  b.Mov(kR0, kR3);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 33u);
}

TEST_F(InterpreterTest, Atomic32BitOr) {
  ProgramBuilder b;
  b.StoreImm(kSizeDw, kR10, -8, 0);
  b.StoreImm(kSizeW, kR10, -8, 0x0f);
  b.Mov(kR1, 0xf0);
  b.Raw(AtomicOp(kSizeW, kR10, kR1, -8, kAtomicOr));
  b.Load(kSizeW, kR0, kR10, -8);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 0xffu);
}

TEST_F(InterpreterTest, ConditionalJumpsSigned) {
  // r0 = (-5 s< 3) ? 1 : 2 via JSLT.
  ProgramBuilder b;
  b.Mov(kR1, -5);
  b.Mov(kR0, 2);
  b.JmpIf(kJmpJslt, kR1, 3, 1);
  b.Jmp(1);
  b.Mov(kR0, 1);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 1u);
}

TEST_F(InterpreterTest, Jmp32ComparesSubregister) {
  // r1 = 0x1_00000000 + 5. In 64-bit compare r1 > 10; in 32-bit, wr1 == 5.
  ProgramBuilder b;
  b.LdImm64(kR1, 0x100000005ull);
  b.Mov(kR0, 0);
  b.Raw(Jmp32Imm(kJmpJlt, kR1, 10, 1));
  b.Ret();
  b.Mov(kR0, 1);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 1u);
}

TEST_F(InterpreterTest, BoundedLoopComputesSum) {
  // sum 1..5 = 15.
  ProgramBuilder b;
  b.Mov(kR6, 5);
  b.Mov(kR0, 0);
  b.Alu(kAluAdd, kR0, kR6);
  b.Alu(kAluSub, kR6, 1);
  b.JmpIf(kJmpJne, kR6, 0, -3);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 15u);
}

TEST_F(InterpreterTest, SubprogramCallPreservesCalleeSaved) {
  // main: r6 = 7; r1 = 3; call sub; r0 += r6; exit     -> (3*2) + 7 = 13
  // sub:  r6 = 99 (own copy at runtime is restored); r0 = r1 * 2; exit
  ProgramBuilder b;
  b.Mov(kR6, 7);
  b.Mov(kR1, 3);
  b.Raw(CallPseudoFunc(2));  // to sub (insn 5)
  b.Alu(kAluAdd, kR0, kR6);
  b.Ret();
  // sub begins:
  b.Mov(kR6, 99);
  b.Mov(kR0, kR1);
  b.Alu(kAluAdd, kR0, kR1);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 13u);
}

TEST_F(InterpreterTest, SubprogramHasOwnStack) {
  ProgramBuilder b;
  b.StoreImm(kSizeDw, kR10, -8, 42);
  b.Mov(kR1, 0);
  b.Raw(CallPseudoFunc(2));  // sub at insn 4
  b.Load(kSizeDw, kR0, kR10, -8);  // must still be 42
  b.Ret();
  // sub: clobbers its own fp-8.
  b.StoreImm(kSizeDw, kR10, -8, 1);
  b.Mov(kR0, 0);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 42u);
}

TEST_F(InterpreterTest, HelperCallClobbersArgRegisters) {
  // After a helper call, R1-R5 contain garbage; the verifier knows this, so
  // reading them is rejected — here we check the runtime side by observing
  // that R6-R9 survive instead.
  ProgramBuilder b(ProgType::kKprobe);
  b.Mov(kR6, 1234);
  b.Call(kHelperKtimeGetNs);
  b.Mov(kR0, kR6);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 1234u);
}

TEST_F(InterpreterTest, KtimeIsMonotonic) {
  ProgramBuilder b(ProgType::kKprobe);
  b.Call(kHelperKtimeGetNs);
  b.Mov(kR6, kR0);
  b.Call(kHelperKtimeGetNs);
  b.Alu(kAluSub, kR0, kR6);
  b.Ret();
  const uint64_t delta = Run(b.Build());
  EXPECT_GT(delta, 0u);
}

TEST_F(InterpreterTest, CtxSeedDeterminism) {
  ProgramBuilder b(ProgType::kKprobe);
  b.Load(kSizeDw, kR0, kR1, 0);
  b.Ret();
  const int fd = bpf_.ProgLoad(b.Build());
  ASSERT_GT(fd, 0);
  const uint64_t a = bpf_.ProgTestRun(fd, 64, 5).r0;
  const uint64_t b2 = bpf_.ProgTestRun(fd, 64, 5).r0;
  const uint64_t c = bpf_.ProgTestRun(fd, 64, 6).r0;
  EXPECT_EQ(a, b2);
  EXPECT_NE(a, c);
}

TEST_F(InterpreterTest, PacketBytesMatchSeed) {
  ProgramBuilder b(ProgType::kXdp);
  b.Mov(kR0, 0);
  b.Load(kSizeDw, kR2, kR1, 0);
  b.Load(kSizeDw, kR3, kR1, 8);
  b.Mov(kR4, kR2);
  b.Add(kR4, 2);
  b.JmpIfReg(kJmpJgt, kR4, kR3, 1);
  b.Load(kSizeH, kR0, kR2, 0);
  b.Ret();
  const int fd = bpf_.ProgLoad(b.Build());
  ASSERT_GT(fd, 0);
  EXPECT_EQ(bpf_.ProgTestRun(fd, 64, 1).r0, bpf_.ProgTestRun(fd, 64, 1).r0);
}

TEST_F(InterpreterTest, MapHelperRoundTrip) {
  MapDef def;
  def.type = MapType::kHash;
  def.key_size = 4;
  def.value_size = 8;
  def.max_entries = 4;
  const int map_fd = bpf_.MapCreate(def);

  // update(map, key=5 -> 777) via helper, then lookup and load.
  ProgramBuilder b(ProgType::kKprobe);
  b.StoreImm(kSizeW, kR10, -4, 5);
  b.StoreImm(kSizeDw, kR10, -16, 777);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -4);
  b.Mov(kR3, kR10);
  b.Add(kR3, -16);
  b.Mov(kR4, 0);
  b.Call(kHelperMapUpdateElem);
  b.LdMapFd(kR1, map_fd);
  b.Mov(kR2, kR10);
  b.Add(kR2, -4);
  b.Call(kHelperMapLookupElem);
  b.JmpIf(kJmpJeq, kR0, 0, 1);
  b.Load(kSizeDw, kR0, kR0, 0);
  b.Ret();
  EXPECT_EQ(Run(b.Build()), 777u);

  // Visible from user space too.
  const uint32_t key = 5;
  uint64_t value = 0;
  EXPECT_EQ(bpf_.MapLookupElem(map_fd, &key, &value), 0);
  EXPECT_EQ(value, 777u);
}

// ---------------------------------------------------------------------------
// Edge-semantics audit (ISSUE 4 satellite): the corners of AluOp32/AluOp64,
// and ExecEndian where our model could plausibly diverge from the Linux
// interpreter — shift-count masking, div/mod-by-zero, 32-bit operand
// truncation/zero-extension, and reserved byte-swap widths — pinned down in
// BOTH execution engines. Every program is loaded twice, once per engine, and
// the decoded micro-op result must equal the legacy result must equal the
// Linux-derived expectation.
// ---------------------------------------------------------------------------

class EdgeSemanticsTest : public ::testing::Test {
 protected:
  // Runs |prog| through the legacy and the decoded engine (fresh substrate
  // each, so neither leaks state into the other) and returns r0 after
  // asserting the engines agree and both runs completed cleanly.
  uint64_t RunBoth(const Program& prog) {
    uint64_t r0[2] = {0, 0};
    for (int decoded = 0; decoded < 2; ++decoded) {
      Kernel kernel(KernelVersion::kBpfNext, BugConfig::None());
      Bpf bpf(kernel);
      bpf.set_decoded_exec(decoded == 1);
      VerifierResult result;
      const int fd = bpf.ProgLoad(prog, &result);
      EXPECT_GT(fd, 0) << result.log;
      if (fd <= 0) {
        return 0;
      }
      const ExecResult exec = bpf.ProgTestRun(fd);
      EXPECT_EQ(exec.err, 0) << exec.abort_reason;
      r0[decoded] = exec.r0;
    }
    EXPECT_EQ(r0[0], r0[1]) << "legacy and decoded engines diverge";
    return r0[0];
  }

  // r0 = dst; r1 = src; r0 op= r1 (register form); exit.
  uint64_t AluBoth(uint8_t op, bool is64, uint64_t dst, uint64_t src) {
    ProgramBuilder b;
    b.LdImm64(kR0, dst);
    b.LdImm64(kR1, src);
    b.Raw(is64 ? AluReg(op, kR0, kR1) : Alu32Reg(op, kR0, kR1));
    b.Ret();
    return RunBoth(b.Build());
  }

  // r0 = value; bswap/truncate r0 with the given direction and width; exit.
  uint64_t EndianBoth(bool to_be, int32_t width, uint64_t value) {
    ProgramBuilder b;
    b.LdImm64(kR0, value);
    Insn end;
    end.opcode = kClassAlu | kAluEnd | (to_be ? 0x08 : 0x00);
    end.dst = kR0;
    end.imm = width;
    b.Raw(end);
    b.Ret();
    return RunBoth(b.Build());
  }
};

// Linux masks 64-bit shift counts to 6 bits (interpreter and JITs alike since
// 4.16): shifting by 64 is shifting by 0, by 65 is by 1, never UB.
TEST_F(EdgeSemanticsTest, Shift64CountsMaskedToSixBits) {
  EXPECT_EQ(AluBoth(kAluLsh, true, 0x1234, 64), 0x1234u);
  EXPECT_EQ(AluBoth(kAluLsh, true, 1, 66), 4u);
  EXPECT_EQ(AluBoth(kAluRsh, true, 0x80, 65), 0x40u);
  // 127 & 63 == 63: arithmetic shift propagates the sign bit all the way.
  EXPECT_EQ(AluBoth(kAluArsh, true, 0x8000000000000000ull, 127), ~0ull);
}

// 32-bit shifts mask to 5 bits and operate on the truncated subregister; the
// result is zero-extended like every other 32-bit ALU write.
TEST_F(EdgeSemanticsTest, Shift32CountsMaskedToFiveBits) {
  // Count 32 & 31 == 0: dst's low word survives, high word is zapped.
  EXPECT_EQ(AluBoth(kAluLsh, false, 0xdead000012345678ull, 32), 0x12345678u);
  EXPECT_EQ(AluBoth(kAluLsh, false, 1, 33), 2u);
  EXPECT_EQ(AluBoth(kAluRsh, false, 0x80000000u, 63), 0x1u);
  // arsh32 by 36 (& 31 == 4) keeps the 32-bit sign, then zero-extends.
  EXPECT_EQ(AluBoth(kAluArsh, false, 0x80000000u, 36), 0xf8000000u);
}

// BPF defines division by zero (dst = 0) and modulo by zero (dst unchanged)
// instead of trapping — the verifier's runtime patch semantics.
TEST_F(EdgeSemanticsTest, DivModByZero64) {
  EXPECT_EQ(AluBoth(kAluDiv, true, 42, 0), 0u);
  EXPECT_EQ(AluBoth(kAluMod, true, 0xdeadbeefcafef00dull, 0), 0xdeadbeefcafef00dull);
}

// The 32-bit forms work on truncated operands and zero-extend the result —
// including mod-by-zero, where Linux's patched sequence still writes dst via
// a 32-bit mov, so the untouched value comes back truncated and zexted.
TEST_F(EdgeSemanticsTest, DivModByZero32TruncatesAndZeroExtends) {
  EXPECT_EQ(AluBoth(kAluDiv, false, 0x1'00000005ull, 0), 0u);
  EXPECT_EQ(AluBoth(kAluMod, false, 0x1'00000005ull, 0), 5u);
  // Non-zero divisors: only the low words participate.
  EXPECT_EQ(AluBoth(kAluDiv, false, 0xffffffff'00000008ull, 0x1'00000002ull), 4u);
  EXPECT_EQ(AluBoth(kAluMod, false, 0xffffffff'00000009ull, 0x1'00000002ull), 1u);
}

TEST_F(EdgeSemanticsTest, ByteSwapValidWidths) {
  EXPECT_EQ(EndianBoth(/*to_be=*/true, 16, 0x0102ull), 0x0201u);
  EXPECT_EQ(EndianBoth(/*to_be=*/true, 32, 0x01020304ull), 0x04030201u);
  EXPECT_EQ(EndianBoth(/*to_be=*/true, 64, 0x0102030405060708ull), 0x0807060504030201ull);
  // to_le on a little-endian model is the kernel's (__uN) cast: truncation.
  EXPECT_EQ(EndianBoth(/*to_be=*/false, 16, 0xaabbccddull), 0xccddu);
  EXPECT_EQ(EndianBoth(/*to_be=*/false, 32, 0x11223344'55667788ull), 0x55667788u);
  EXPECT_EQ(EndianBoth(/*to_be=*/false, 64, 0x1122334455667788ull), 0x1122334455667788ull);
}

// Reserved swap widths never reach either engine: the front-end sanity check
// rejects them exactly like Linux's verifier ("BPF_END uses reserved fields").
TEST_F(EdgeSemanticsTest, ByteSwapReservedWidthsRejectedAtLoad) {
  for (const int32_t width : {0, 8, 24, 65, -16}) {
    for (const bool to_be : {false, true}) {
      Kernel kernel(KernelVersion::kBpfNext, BugConfig::None());
      Bpf bpf(kernel);
      ProgramBuilder b;
      b.LdImm64(kR0, 0x1234ull);
      Insn end;
      end.opcode = kClassAlu | kAluEnd | (to_be ? 0x08 : 0x00);
      end.dst = kR0;
      end.imm = width;
      b.Raw(end);
      b.Ret();
      VerifierResult result;
      EXPECT_EQ(bpf.ProgLoad(b.Build(), &result), -EINVAL)
          << "width " << width << " to_be " << to_be;
      EXPECT_NE(result.log.find("invalid ALU opcode"), std::string::npos) << result.log;
    }
  }
}

// Defensive semantics of the shared ExecEndian primitive for widths the
// loader already rejects: both engines execute this one inline helper
// (interpreter.cc and the kEndian uop), so pinning it here pins them both.
// to_be at an unknown width is a no-op (ByteSwap's default case); to_le
// masks, with width >= 64 a no-op and width <= 0 — including negatives,
// which the old open-coded mask shifted by — clearing the value.
TEST_F(EdgeSemanticsTest, ExecEndianReservedWidthSemantics) {
  EXPECT_EQ(ExecEndian(0x1234ull, /*to_be=*/true, 8), 0x1234u);
  EXPECT_EQ(ExecEndian(0x1234ull, /*to_be=*/true, 0), 0x1234u);
  EXPECT_EQ(ExecEndian(0x1234ull, /*to_be=*/true, -32), 0x1234u);
  EXPECT_EQ(ExecEndian(0xa5a5ull, /*to_be=*/false, 8), 0xa5u);
  EXPECT_EQ(ExecEndian(0x1234ull, /*to_be=*/false, 0), 0u);
  EXPECT_EQ(ExecEndian(0x1234ull, /*to_be=*/false, -16), 0u);
  EXPECT_EQ(ExecEndian(0x1234ull, /*to_be=*/false, 65), 0x1234u);
}

}  // namespace
}  // namespace bpf
