#include "src/verifier/tnum.h"

#include <cstdio>

namespace bpf {

Tnum TnumRange(uint64_t min, uint64_t max) {
  if (min > max) {
    return TnumUnknown();
  }
  const uint64_t chi = min ^ max;
  // Number of bits that differ between min and max.
  int bits = 64;
  if (chi != 0) {
    bits = 64 - __builtin_clzll(chi);
  } else {
    bits = 0;
  }
  if (bits > 63) {
    return TnumUnknown();
  }
  const uint64_t delta = (1ull << bits) - 1;
  return Tnum{min & ~delta, delta};
}

Tnum TnumLshift(Tnum a, uint8_t shift) { return Tnum{a.value << shift, a.mask << shift}; }

Tnum TnumRshift(Tnum a, uint8_t shift) { return Tnum{a.value >> shift, a.mask >> shift}; }

Tnum TnumArshift(Tnum a, uint8_t shift, uint8_t insn_bitness) {
  if (insn_bitness == 32) {
    const int32_t value = static_cast<int32_t>(a.value) >> shift;
    const int32_t mask = static_cast<int32_t>(a.mask) >> shift;
    return Tnum{static_cast<uint32_t>(value), static_cast<uint32_t>(mask)};
  }
  const int64_t value = static_cast<int64_t>(a.value) >> shift;
  const int64_t mask = static_cast<int64_t>(a.mask) >> shift;
  return Tnum{static_cast<uint64_t>(value), static_cast<uint64_t>(mask)};
}

Tnum TnumAdd(Tnum a, Tnum b) {
  const uint64_t sm = a.mask + b.mask;
  const uint64_t sv = a.value + b.value;
  const uint64_t sigma = sm + sv;
  const uint64_t chi = sigma ^ sv;
  const uint64_t mu = chi | a.mask | b.mask;
  return Tnum{sv & ~mu, mu};
}

Tnum TnumSub(Tnum a, Tnum b) {
  const uint64_t dv = a.value - b.value;
  const uint64_t alpha = dv + a.mask;
  const uint64_t beta = dv - b.mask;
  const uint64_t chi = alpha ^ beta;
  const uint64_t mu = chi | a.mask | b.mask;
  return Tnum{dv & ~mu, mu};
}

Tnum TnumAnd(Tnum a, Tnum b) {
  const uint64_t alpha = a.value | a.mask;
  const uint64_t beta = b.value | b.mask;
  const uint64_t v = a.value & b.value;
  return Tnum{v, alpha & beta & ~v};
}

Tnum TnumOr(Tnum a, Tnum b) {
  const uint64_t v = a.value | b.value;
  const uint64_t mu = a.mask | b.mask;
  return Tnum{v, mu & ~v};
}

Tnum TnumXor(Tnum a, Tnum b) {
  const uint64_t v = a.value ^ b.value;
  const uint64_t mu = a.mask | b.mask;
  return Tnum{v & ~mu, mu};
}

// Half-multiply: multiplies a by a known value (kernel: hma).
namespace {
Tnum Hma(Tnum acc, uint64_t value, uint64_t mask) {
  while (mask != 0) {
    // Fully-unknown is a fixed point of acc += {0, v} (TnumAdd folds any
    // addend into the all-ones mask), so the remaining iterations are no-ops.
    // Multiplies by unknown scalars saturate within a few bits; without this
    // exit they would walk all 64.
    if (acc.value == 0 && acc.mask == ~0ull) {
      return acc;
    }
    // Jump straight to the next set bit; the skipped iterations only shift.
    const int skip = __builtin_ctzll(mask);
    mask >>= skip;
    value <<= skip;
    acc = TnumAdd(acc, Tnum{0, value});
    mask >>= 1;
    value <<= 1;
  }
  return acc;
}
}  // namespace

Tnum TnumMul(Tnum a, Tnum b) {
  Tnum acc = TnumConst(a.value * b.value);
  acc = Hma(acc, a.mask, b.mask | b.value);
  return Hma(acc, b.mask, a.value);
}

Tnum TnumNeg(Tnum a) { return TnumSub(TnumConst(0), a); }

bool TnumIn(Tnum a, Tnum b) {
  if ((b.mask & ~a.mask) != 0) {
    return false;
  }
  return a.value == (b.value & ~a.mask);
}

Tnum TnumClearSubreg(Tnum a) { return TnumLshift(TnumRshift(a, 32), 32); }

Tnum TnumWithSubreg(Tnum reg, Tnum subreg) {
  return TnumOr(TnumClearSubreg(reg), TnumSubreg(subreg));
}

Tnum TnumConstSubreg(Tnum reg, uint32_t value) {
  return TnumWithSubreg(reg, TnumConst(value));
}

std::string Tnum::ToString() const {
  char buf[64];
  if (IsConst()) {
    snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(value));
  } else {
    snprintf(buf, sizeof(buf), "(0x%llx; 0x%llx)", static_cast<unsigned long long>(value),
             static_cast<unsigned long long>(mask));
  }
  return buf;
}

}  // namespace bpf
