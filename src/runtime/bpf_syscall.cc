#include "src/runtime/bpf_syscall.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/ebpf/insn.h"
#include "src/runtime/decoded_prog.h"

namespace bpf {

namespace {

// Deterministic packet/context filler.
uint8_t SeedByte(uint64_t seed, uint32_t i) {
  uint64_t x = seed + i * 0x9e3779b97f4a7c15ull;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ull;
  return static_cast<uint8_t>(x >> 32);
}

}  // namespace

int Bpf::MapCreate(const MapDef& def) {
  if (kernel_.ShouldInjectFault(FaultPoint::kMapCreate)) {
    return -ENOMEM;
  }
  const int id = kernel_.maps().Create(def, kernel_.bugs().bug9_bucket_iteration);
  if (id < 0) {
    return id;
  }
  Map* map = kernel_.maps().Find(id);
  const uint64_t obj = kernel_.arena().Alloc(64, "struct bpf_map");
  if (obj == 0) {
    return -ENOMEM;
  }
  map->set_obj_addr(obj);
  return id;
}

int Bpf::MapUpdateElem(int map_fd, const void* key, const void* value) {
  Map* map = kernel_.maps().Find(map_fd);
  if (map == nullptr) {
    return -EBADF;
  }
  if (kernel_.ShouldInjectFault(FaultPoint::kMapUpdate)) {
    return -ENOMEM;  // element allocation failed
  }
  return map->Update(key, value);
}

int Bpf::MapLookupElem(int map_fd, const void* key, void* value_out) {
  Map* map = kernel_.maps().Find(map_fd);
  if (map == nullptr) {
    return -EBADF;
  }
  const uint64_t addr = map->Lookup(key);
  if (addr == 0) {
    return -ENOENT;
  }
  if (!kernel_.arena().CopyOut(addr, value_out, map->value_size())) {
    return -EFAULT;
  }
  return 0;
}

int Bpf::MapDeleteElem(int map_fd, const void* key) {
  Map* map = kernel_.maps().Find(map_fd);
  return map != nullptr ? map->Delete(key) : -EBADF;
}

int Bpf::MapGetNextKey(int map_fd, const void* key, void* next_key) {
  Map* map = kernel_.maps().Find(map_fd);
  return map != nullptr ? map->GetNextKey(key, next_key) : -EBADF;
}

int Bpf::MapLookupBatch(int map_fd, int max_count) {
  Map* map = kernel_.maps().Find(map_fd);
  auto* htab = dynamic_cast<HashMap*>(map);
  if (htab == nullptr) {
    return -EINVAL;
  }
  std::vector<std::vector<uint8_t>> values;
  return htab->LookupBatch(&values, max_count);
}

void Bpf::set_exec_engine(ExecEngine engine) {
  if (engine == ExecEngine::kJit && !JitAvailable()) {
    // Graceful degradation: warn once per process, then behave exactly like
    // --interp=decoded (same digests, same findings — only throughput differs).
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "bvf: jit tier unavailable on this host; "
                   "falling back to --interp=decoded\n");
    }
    engine = ExecEngine::kDecoded;
  }
  engine_ = engine;
}

int Bpf::ProgLoad(const Program& prog, VerifierResult* result_out) {
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
  env.instrument = instrument_;
  env.collect_state_claims = static_cast<bool>(exec_observer_);

  VerifierResult result = VerifyProgram(prog, env);
  const int err = result.err;
  if (result_out != nullptr) {
    *result_out = result;
  }
  if (err != 0) {
    return err;
  }

  // Duplicate the rewritten ("xlated") instructions for later readback by
  // user space. Bug #8: this used kmemdup(); sanitation inflates programs
  // past KMALLOC_MAX, and the unchecked failure trips a WARN. The fix is
  // kvmemdup() (the paper's upstreamed primitive).
  const size_t xlated_bytes = result.prog.insns.size() * kInsnWireSize;
  std::vector<uint8_t> wire(xlated_bytes, 0);
  uint64_t dup = 0;
  if (kernel_.bugs().bug8_kmemdup) {
    dup = kernel_.alloc().Kmemdup(wire.data(), xlated_bytes, "xlated_insns");
    if (dup == 0) {
      kernel_.reports().Report(
          ReportKind::kWarn, "bpf_prog_load",
          "kmemdup of " + std::to_string(xlated_bytes) + " xlated bytes failed");
    }
  } else {
    dup = kernel_.alloc().Kvmemdup(wire.data(), xlated_bytes, "xlated_insns");
  }
  if (dup != 0) {
    kernel_.alloc().Kfree(dup);
  }

  auto loaded = std::make_unique<LoadedProgram>();
  loaded->id = next_prog_fd_++;
  loaded->type = prog.type;
  loaded->prog = std::move(result.prog);
  loaded->aux = std::move(result.aux);
  loaded->offloaded = prog.offload_requested;
  loaded->uses_lock_helper = result.uses_lock_helper;
  loaded->uses_printk_helper = result.uses_printk_helper;
  loaded->uses_signal_helper = result.uses_signal_helper;
  loaded->uses_irqwork_helper = result.uses_irqwork_helper;
  if (engine_ != ExecEngine::kLegacy) {
    loaded->decoded = DecodeProgram(loaded->prog, loaded->aux);
  }
  if (engine_ == ExecEngine::kJit && JitAvailable()) {
    // A compile failure (code mapping refused mid-run) leaves jit null: the
    // program simply runs on the decoded engine.
    loaded->jit = CompileJit(*loaded->decoded);
  }
  const int fd = loaded->id;
  progs_.push_back(std::move(loaded));
  return fd;
}

LoadedProgram* Bpf::FindProg(int prog_fd) {
  for (const auto& prog : progs_) {
    if (prog->id == prog_fd) {
      return prog.get();
    }
  }
  return nullptr;
}

ExecContext Bpf::MakeCtx(const LoadedProgram& prog, uint32_t pkt_len, uint64_t seed) {
  ExecContext ctx;
  KasanArena& arena = kernel_.arena();
  const CtxDescriptor& desc = CtxDescriptorFor(prog.type);

  ctx.ctx_addr = arena.Alloc(desc.size, "bpf_ctx");
  ctx.stack_base = arena.Alloc(kStackSize + kExtendedStackSize, "bpf_prog_stack");
  ctx.fp = ctx.stack_base + kExtendedStackSize + kStackSize;

  uint8_t* ctx_host = arena.HostPtr(ctx.ctx_addr, desc.size);
  if (ctx_host == nullptr) {
    return ctx;
  }
  std::memset(ctx_host, 0, desc.size);

  switch (prog.type) {
    case ProgType::kSocketFilter:
    case ProgType::kXdp: {
      pkt_len = pkt_len == 0 ? 1 : pkt_len;
      ctx.pkt_addr = arena.Alloc(pkt_len, "pkt_data");
      ctx.pkt_len = pkt_len;
      uint8_t* pkt = arena.HostPtr(ctx.pkt_addr, pkt_len);
      for (uint32_t i = 0; i < pkt_len && pkt != nullptr; ++i) {
        pkt[i] = SeedByte(seed, i);
      }
      const uint64_t data = ctx.pkt_addr;
      const uint64_t data_end = ctx.pkt_addr + pkt_len;
      if (prog.type == ProgType::kSocketFilter) {
        std::memcpy(ctx_host + 0, &pkt_len, 4);   // len
        std::memcpy(ctx_host + 32, &data, 8);     // data
        std::memcpy(ctx_host + 40, &data_end, 8); // data_end
      } else {
        std::memcpy(ctx_host + 0, &data, 8);
        std::memcpy(ctx_host + 8, &data_end, 8);
        std::memcpy(ctx_host + 16, &data, 8);     // data_meta == data (no meta)
      }
      break;
    }
    case ProgType::kKprobe:
    case ProgType::kTracepoint: {
      for (int off = 0; off + 8 <= desc.size; off += 8) {
        uint64_t v = 0;
        for (int b = 0; b < 8; ++b) {
          v |= static_cast<uint64_t>(SeedByte(seed, off + b)) << (b * 8);
        }
        std::memcpy(ctx_host + off, &v, 8);
      }
      break;
    }
  }
  return ctx;
}

void Bpf::ReleaseCtx(ExecContext& ctx) {
  KasanArena& arena = kernel_.arena();
  if (ctx.ctx_addr != 0) {
    arena.Free(ctx.ctx_addr);
  }
  if (ctx.stack_base != 0) {
    arena.Free(ctx.stack_base);
  }
  if (ctx.pkt_addr != 0) {
    arena.Free(ctx.pkt_addr);
  }
}

ExecResult Bpf::RunProgram(const LoadedProgram& prog, uint32_t pkt_len, uint64_t seed,
                           bool in_tracepoint, bool in_irq, TracepointId attach_point) {
  ExecContext ctx = MakeCtx(prog, pkt_len, seed);
  // Under memory pressure (arena budget guard, fault injection) the context
  // or stack allocation can fail; a real kernel returns -ENOMEM from the
  // test-run path rather than entering the program with NULL pointers.
  if (ctx.ctx_addr == 0 || ctx.stack_base == 0 || (ctx.pkt_len != 0 && ctx.pkt_addr == 0)) {
    ReleaseCtx(ctx);
    ExecResult result;
    result.err = -ENOMEM;
    result.abort_reason = "execution context allocation failed";
    return result;
  }
  ctx.in_tracepoint = in_tracepoint;
  ctx.in_irq = in_irq;
  ctx.attach_point = attach_point;
  // The trace is per-invocation (a helper can fire a tracepoint that runs
  // another program, nesting RunProgram), so it lives on this stack frame.
  WitnessTrace trace;
  if (exec_observer_) {
    ctx.witness = &trace;
  }
  ExecResult result = interp_.Run(prog, ctx, exec_limits_);
  if (exec_observer_) {
    exec_observer_(prog, trace);
  }
  ReleaseCtx(ctx);
  return result;
}

ExecResult Bpf::ProgTestRun(int prog_fd, uint32_t pkt_len, uint64_t seed) {
  LoadedProgram* prog = FindProg(prog_fd);
  if (prog == nullptr) {
    ExecResult result;
    result.err = -EBADF;
    return result;
  }
  ExecResult result = RunProgram(*prog, pkt_len, seed, /*in_tracepoint=*/false,
                                 /*in_irq=*/false, TracepointId::kSysEnter);
  // The test-run harness force-releases anything a crashed program held.
  kernel_.lockdep().Reset();
  return result;
}

ExecResult Bpf::ProgTestRunCtx(int prog_fd, const std::vector<uint8_t>& ctx_bytes,
                               uint64_t seed) {
  LoadedProgram* prog = FindProg(prog_fd);
  if (prog == nullptr) {
    ExecResult result;
    result.err = -EBADF;
    return result;
  }
  ExecContext ctx = MakeCtx(*prog, /*pkt_len=*/64, seed);
  if (ctx.ctx_addr == 0 || ctx.stack_base == 0 || (ctx.pkt_len != 0 && ctx.pkt_addr == 0)) {
    ReleaseCtx(ctx);
    ExecResult result;
    result.err = -ENOMEM;
    result.abort_reason = "execution context allocation failed";
    return result;
  }
  const CtxDescriptor& desc = CtxDescriptorFor(prog->type);
  uint8_t* ctx_host = kernel_.arena().HostPtr(ctx.ctx_addr, desc.size);
  if (ctx_host != nullptr) {
    std::memset(ctx_host, 0, desc.size);
    if (!ctx_bytes.empty()) {
      std::memcpy(ctx_host, ctx_bytes.data(),
                  std::min<size_t>(ctx_bytes.size(), static_cast<size_t>(desc.size)));
    }
  }
  WitnessTrace trace;
  if (exec_observer_) {
    ctx.witness = &trace;
  }
  ExecResult result = interp_.Run(*prog, ctx, exec_limits_);
  if (exec_observer_) {
    exec_observer_(*prog, trace);
  }
  ReleaseCtx(ctx);
  kernel_.lockdep().Reset();
  return result;
}

ExecResult Bpf::ProgTestRunRepeat(int prog_fd, int repeat, uint32_t pkt_len, uint64_t seed) {
  LoadedProgram* prog = FindProg(prog_fd);
  ExecResult result;
  if (prog == nullptr) {
    result.err = -EBADF;
    return result;
  }
  ExecContext ctx = MakeCtx(*prog, pkt_len, seed);
  if (ctx.ctx_addr == 0 || ctx.stack_base == 0 || (ctx.pkt_len != 0 && ctx.pkt_addr == 0)) {
    ReleaseCtx(ctx);
    result.err = -ENOMEM;
    result.abort_reason = "execution context allocation failed";
    return result;
  }
  WitnessTrace trace;
  uint64_t total_insns = 0;
  for (int run = 0; run < repeat; ++run) {
    if (exec_observer_) {
      trace.Clear();
      ctx.witness = &trace;
    }
    ExecResult one = interp_.Run(*prog, ctx, exec_limits_);
    if (exec_observer_) {
      exec_observer_(*prog, trace);
    }
    total_insns += one.insns_executed;
    const bool stop = run == repeat - 1 || one.err != 0;
    if (stop) {
      result = std::move(one);
      result.insns_executed = total_insns;
      break;
    }
  }
  ReleaseCtx(ctx);
  kernel_.lockdep().Reset();
  return result;
}

int Bpf::ProgAttach(int prog_fd, TracepointId target) {
  LoadedProgram* prog = FindProg(prog_fd);
  if (prog == nullptr) {
    return -EBADF;
  }
  if (prog->type != ProgType::kKprobe && prog->type != ProgType::kTracepoint) {
    return -EINVAL;
  }

  // Attach-time policy. The absence of these two checks is Table 2 bugs
  // #4 and #5: programs re-entering the very path they are attached to.
  if (target == TracepointId::kTracePrintk && prog->uses_printk_helper &&
      !kernel_.bugs().bug4_trace_printk_recursion) {
    return -EINVAL;
  }
  if (target == TracepointId::kContentionBegin && prog->uses_lock_helper &&
      !kernel_.bugs().bug5_contention_begin) {
    return -EINVAL;
  }

  const bool irq_context =
      target == TracepointId::kContentionBegin || target == TracepointId::kTracePrintk;
  const int prog_id = prog->id;
  kernel_.tracepoints().Attach(target, [this, prog_id, target, irq_context]() {
    LoadedProgram* attached = FindProg(prog_id);
    if (attached == nullptr) {
      return;
    }
    RunProgram(*attached, 64, static_cast<uint64_t>(prog_id), /*in_tracepoint=*/true,
               irq_context, target);
  });
  return 0;
}

void Bpf::DetachAll() { kernel_.tracepoints().DetachAll(); }

void Bpf::FireEvent(TracepointId id) {
  switch (id) {
    case TracepointId::kSchedSwitch:
      // Scheduler tracepoints run under the runqueue lock.
      kernel_.lockdep().Acquire(kernel_.lock_rq(), LockContext::kNormal);
      kernel_.tracepoints().Fire(id);
      kernel_.lockdep().Release(kernel_.lock_rq());
      break;
    case TracepointId::kTracePrintk:
      kernel_.lockdep().Acquire(kernel_.lock_trace_printk(), LockContext::kNormal);
      kernel_.tracepoints().Fire(id);
      kernel_.lockdep().Release(kernel_.lock_trace_printk());
      break;
    default:
      kernel_.tracepoints().Fire(id);
      break;
  }
  kernel_.lockdep().Reset();
}

int Bpf::XdpInstall(int prog_fd) {
  LoadedProgram* prog = FindProg(prog_fd);
  if (prog == nullptr) {
    return -EBADF;
  }
  if (prog->type != ProgType::kXdp) {
    return -EINVAL;
  }
  if (prog->offloaded && !kernel_.bugs().bug11_xdp_offload) {
    // Fixed kernels refuse to install a device-bound program on the generic
    // (host) dispatcher.
    return -EINVAL;
  }
  if (kernel_.bugs().bug7_dispatcher_sync) {
    // Bug #7: the dispatcher image is swapped without waiting for in-flight
    // executions; the next run can observe the torn (NULL) entry.
    xdp_update_window_ = true;
  }
  xdp_prog_fd_ = prog_fd;
  return 0;
}

ExecResult Bpf::XdpRun(uint32_t pkt_len, uint64_t seed) {
  ExecResult result;
  if (xdp_prog_fd_ == 0) {
    result.err = -ENOENT;
    return result;
  }
  if (xdp_update_window_) {
    xdp_update_window_ = false;
    kernel_.reports().Report(ReportKind::kKasanNullDeref, "bpf_dispatcher_xdp_func",
                             "execution raced with dispatcher update");
    result.err = -EFAULT;
    return result;
  }
  LoadedProgram* prog = FindProg(xdp_prog_fd_);
  if (prog == nullptr) {
    result.err = -ENOENT;
    return result;
  }
  if (prog->offloaded) {
    // Bug #11 reached: a program bound to a device executes on the host.
    kernel_.reports().Report(ReportKind::kWarn, "xdp_do_generic",
                             "device-offloaded program executed on host path");
  }
  return RunProgram(*prog, pkt_len, seed, /*in_tracepoint=*/false, /*in_irq=*/false,
                    TracepointId::kSysEnter);
}

}  // namespace bpf
