#include "cpu/cpu.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "obs/observer.h"
#include "support/bitops.h"
#include "support/crc32.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::cpu {

const char *
mcKindName(McKind kind)
{
    switch (kind) {
      case McKind::None:               return "none";
      case McKind::InvalidInst:        return "invalid-inst";
      case McKind::MisalignedFetch:    return "misaligned-fetch";
      case McKind::MisalignedData:     return "misaligned-data";
      case McKind::PrivilegedOp:       return "privileged-op";
      case McKind::SwicRange:          return "swic-range";
      case McKind::HandlerRunaway:     return "handler-runaway";
      case McKind::LineFillIncomplete: return "line-fill-incomplete";
      case McKind::IntegrityFail:      return "integrity-fail";
      case McKind::DmemRange:          return "dmem-range";
    }
    return "?";
}

using isa::Instruction;
using isa::Op;

namespace {

/**
 * Execute @p inst when its only architectural effect is a register /
 * hi / lo write: the straight-line ALU subset, shared between the full
 * interpreter switch (execute()) and the block-dispatch loops, which
 * inline it to run ALU stretches without the out-of-line call. Ops that
 * touch memory, control flow, coprocessor state or statistics return
 * false and take the full path.
 */
[[gnu::always_inline]] inline bool
executeAlu(const Instruction &inst, uint32_t *regs, uint32_t &hi,
           uint32_t &lo)
{
    auto rd = [&](unsigned r) -> uint32_t { return r == 0 ? 0 : regs[r]; };
    auto wr = [&](unsigned r, uint32_t v) {
        if (r != 0)
            regs[r] = v;
    };
    auto rs = [&] { return rd(inst.rs); };
    auto rt = [&] { return rd(inst.rt); };
    auto wr_rd = [&](uint32_t v) { wr(inst.rd, v); };
    auto wr_rt = [&](uint32_t v) { wr(inst.rt, v); };
    int32_t simm = static_cast<int16_t>(inst.imm);
    uint32_t uimm = inst.imm;

    switch (inst.op) {
      case Op::Sll: wr_rd(rt() << inst.shamt); return true;
      case Op::Srl: wr_rd(rt() >> inst.shamt); return true;
      case Op::Sra:
        wr_rd(static_cast<uint32_t>(static_cast<int32_t>(rt()) >>
                                    inst.shamt));
        return true;
      case Op::Sllv: wr_rd(rt() << (rs() & 31)); return true;
      case Op::Srlv: wr_rd(rt() >> (rs() & 31)); return true;
      case Op::Srav:
        wr_rd(static_cast<uint32_t>(static_cast<int32_t>(rt()) >>
                                    (rs() & 31)));
        return true;
      case Op::Add: case Op::Addu: wr_rd(rs() + rt()); return true;
      case Op::Sub: case Op::Subu: wr_rd(rs() - rt()); return true;
      case Op::And: wr_rd(rs() & rt()); return true;
      case Op::Or: wr_rd(rs() | rt()); return true;
      case Op::Xor: wr_rd(rs() ^ rt()); return true;
      case Op::Nor: wr_rd(~(rs() | rt())); return true;
      case Op::Slt:
        wr_rd(static_cast<int32_t>(rs()) < static_cast<int32_t>(rt()));
        return true;
      case Op::Sltu: wr_rd(rs() < rt()); return true;
      case Op::Mult: {
        int64_t prod = static_cast<int64_t>(static_cast<int32_t>(rs())) *
                       static_cast<int32_t>(rt());
        lo = static_cast<uint32_t>(prod);
        hi = static_cast<uint32_t>(prod >> 32);
        return true;
      }
      case Op::Multu: {
        uint64_t prod = static_cast<uint64_t>(rs()) * rt();
        lo = static_cast<uint32_t>(prod);
        hi = static_cast<uint32_t>(prod >> 32);
        return true;
      }
      case Op::Div: {
        int32_t a = static_cast<int32_t>(rs());
        int32_t b = static_cast<int32_t>(rt());
        if (b != 0 && !(a == INT32_MIN && b == -1)) {
            lo = static_cast<uint32_t>(a / b);
            hi = static_cast<uint32_t>(a % b);
        }
        return true;
      }
      case Op::Divu:
        if (rt() != 0) {
            lo = rs() / rt();
            hi = rs() % rt();
        }
        return true;
      case Op::Mfhi: wr_rd(hi); return true;
      case Op::Mflo: wr_rd(lo); return true;
      case Op::Mthi: hi = rs(); return true;
      case Op::Mtlo: lo = rs(); return true;

      case Op::Addi: case Op::Addiu:
        wr_rt(rs() + static_cast<uint32_t>(simm));
        return true;
      case Op::Slti:
        wr_rt(static_cast<int32_t>(rs()) < simm);
        return true;
      case Op::Sltiu:
        wr_rt(rs() < static_cast<uint32_t>(simm));
        return true;
      case Op::Andi: wr_rt(rs() & uimm); return true;
      case Op::Ori: wr_rt(rs() | uimm); return true;
      case Op::Xori: wr_rt(rs() ^ uimm); return true;
      case Op::Lui: wr_rt(uimm << 16); return true;

      default:
        return false;
    }
}

/**
 * In-block load-use stalls of instructions [from, to) of a block: bit i
 * of BlockMeta::stallMask belongs to instruction i.
 */
inline uint32_t
blockStalls(const isa::BlockMeta &meta, uint64_t from, uint64_t to)
{
    uint64_t bits = meta.stallMask & ((uint64_t{1} << to) - 1);
    return static_cast<uint32_t>(std::popcount(bits >> from));
}

} // namespace

double
RunStats::icacheMissRatio() const
{
    return ratio(icacheMisses, icacheAccesses);
}

double
RunStats::dcacheMissRatio() const
{
    return ratio(dcacheMisses, dcacheAccesses);
}

double
RunStats::cpi() const
{
    return ratio(cycles, userInsns);
}

Cpu::Cpu(const CpuConfig &config, mem::MainMemory &memory,
         const prog::LoadedImage &image)
    : config_(config), memory_(memory), image_(image),
      icache_("icache", config.icache), dcache_("dcache", config.dcache),
      predictor_(config.predictorEntries, config.predictorKind)
{
    pc_ = image.entry;
    regs_[isa::Sp] = image.stackTop;
    // A return from the entry procedure without halt lands on an invalid
    // address and is caught by the fetch path.
    regs_[isa::Ra] = 0;
    lineBuf_.resize(std::max(config.icache.lineBytes,
                             config.dcache.lineBytes));
    wbBuf_.resize(lineBuf_.size());
    if (config_.predecode)
        icache_.enablePredecode();
    if (config_.l2.enabled)
        l2_.configure(config_.l2);
}

void
Cpu::attachDecompressor(const compress::CompressedImage &cimage,
                        const runtime::HandlerBuild &handler,
                        uint32_t region_bytes)
{
    RTDC_ASSERT(!image_.decompText.empty(),
                "attachDecompressor on an image with no compressed region");
    handlerRam_.load(handler.code);
    config_.secondRegFile = handler.usesShadowRegs;
    for (size_t i = 0; i < cimage.c0.size(); ++i)
        c0_[i] = cimage.c0[i];
    compressedLo_ = image_.decompBase;
    compressedHi_ = image_.decompBase + region_bytes;
    integrityUnitBytes_ = cimage.crcUnitBytes;
    unitCrcs_ = cimage.unitCrcs;
    decompressorAttached_ = true;
}

void
Cpu::raiseMc(McKind kind, uint32_t addr, bool handler)
{
    if (handler) {
        // Latched, first fault wins; surfaced (and counted) by the
        // servicing boundary so a retried fill counts once per attempt.
        if (pendingFault_ == McKind::None) {
            pendingFault_ = kind;
            pendingFaultAddr_ = addr;
        }
        return;
    }
    if (stats_.machineCheckHalt)
        return;
    ++stats_.machineChecks;
    if (config_.observer) [[unlikely]] {
        config_.observer->machineCheck(static_cast<uint8_t>(kind), addr,
                                       stats_.cycles);
    }
    stats_.machineCheckHalt = true;
    stats_.faultKind = kind;
    stats_.faultAddr = addr;
}

bool
Cpu::cancelPoll()
{
    if (!config_.cancel)
        return false;
    if ((++cancelTick_ & 0xFFFu) != 0)
        return false;
    if (!config_.cancel->load(std::memory_order_relaxed))
        return false;
    stats_.cancelled = true;
    return true;
}

McKind
Cpu::checkIntegrity(uint32_t addr)
{
    if (unitCrcs_.empty())
        return McKind::None;
    uint32_t unit = integrityUnitBytes_;
    uint32_t base = addr & ~(unit - 1);
    uint32_t end = std::min(base + unit, compressedHi_);
    // The CRC covers the whole unit; only check once every line of it
    // is resident (the CodePack handler installs both lines of a group,
    // so in practice the unit containing the miss is always complete).
    for (uint32_t a = base; a < end; a += config_.icache.lineBytes) {
        if (!icache_.probe(a))
            return McKind::LineFillIncomplete;
    }
    size_t idx = (base - compressedLo_) / unit;
    if (idx >= unitCrcs_.size())
        return McKind::IntegrityFail;
    Crc32 crc;
    for (uint32_t a = base; a < end; a += 4)
        crc.updateWord(icache_.read32(a));
    return crc.value() == unitCrcs_[idx] ? McKind::None
                                         : McKind::IntegrityFail;
}

void
Cpu::attachProcDecompressor(const proccache::ProcCompressedImage &pimage,
                            const runtime::HandlerBuild &handler,
                            const proccache::ProcCacheConfig &config)
{
    RTDC_ASSERT(!decompressorAttached_,
                "line and procedure decompression are mutually "
                "exclusive");
    RTDC_ASSERT(pimage.entries.size() == image_.procs.size(),
                "procedure image does not match the linked program");
    handlerRam_.load(handler.code);
    config_.secondRegFile = handler.usesShadowRegs;
    procImage_ = &pimage;
    procConfig_ = config;
    procMgr_ = std::make_unique<proccache::ProcCacheManager>(
        config.capacityBytes, image_.procs.size());
}

void
Cpu::attachDataDecompressor(const dmem::DataRegion &region,
                            const runtime::HandlerBuild &handler,
                            uint32_t entry_offset, uint32_t staging_pages)
{
    RTDC_ASSERT(region.scheme != dmem::DataScheme::None &&
                    region.numPages > 0,
                "attachDataDecompressor with an empty data region");
    // In "both" mode the code decompressor already loaded the combined
    // handler image; data-only mode loads it here.
    if (!handlerRam_.loaded()) {
        handlerRam_.load(handler.code);
        config_.secondRegFile = handler.usesShadowRegs;
    }
    RTDC_ASSERT(entry_offset + 4 <= handlerRam_.sizeBytes(),
                "data handler entry outside the handler RAM");
    dregion_ = &region;
    dmemLo_ = region.base;
    dmemPageBytes_ = region.pageBytes;
    dmemPageShift_ = static_cast<uint8_t>(floorLog2(region.pageBytes));
    dmemSpan_ = region.numPages * region.pageBytes;
    dmemEntry_ = mem::HandlerRam::base + entry_offset;
    dmemStagingPages_ = staging_pages;
    dmemState_.assign(region.numPages, kPageCompressed);
    dmemFifo_.clear();
    dmemCrcs_ = region.pageCrcs;
    const compress::CompressedSegment *stream =
        region.segment(".dstream");
    RTDC_ASSERT(stream, "data region has no .dstream segment");
    c0_[isa::C0DataBase] = region.base;
    c0_[isa::C0DataStream] = stream->base;
    if (const compress::CompressedSegment *map = region.segment(".dmap"))
        c0_[isa::C0DataMap] = map->base;
    if (const compress::CompressedSegment *dict =
            region.segment(".ddict"))
        c0_[isa::C0DataDict] = dict->base;
}

void
Cpu::enableProfiling()
{
    profiling_ = true;
    procExecInsns_.assign(image_.procs.size(), 0);
    procMisses_.assign(image_.procs.size(), 0);
}

void
Cpu::noteUserPc(uint32_t pc)
{
    if (pc >= curProcLo_ && pc < curProcHi_) {
        if (curProc_ >= 0)
            ++procExecInsns_[curProc_];
        return;
    }
    int32_t prev = curProc_;
    curProc_ = image_.procAt(pc);
    if (curProc_ >= 0) {
        const prog::LinkedProc &lp = image_.procs[curProc_];
        curProcLo_ = lp.base;
        curProcHi_ = lp.base + lp.size;
        ++procExecInsns_[curProc_];
        if (prev >= 0) {
            // Inter-procedure transfer (call, return, or fallthrough):
            // the affinity signal code placement optimizes.
            ++procTransitions_[
                static_cast<uint64_t>(static_cast<uint32_t>(prev)) << 32 |
                static_cast<uint32_t>(curProc_)];
        }
    } else {
        curProcLo_ = 1;
        curProcHi_ = 0;
    }
}

RunStats
Cpu::run()
{
    stats_ = RunStats{};
    // Block dispatch is gated per run: it needs the decoded mirrors
    // (predecode), and tracing wants per-instruction output. The user
    // side additionally steps per instruction under profiling (per-PC
    // attribution) and the procedure-cache baseline (whole-procedure
    // faults can invalidate the line being executed mid-run); the
    // handler side has neither concern — handler RAM is immutable —
    // so it dispatches blocks whenever decoded text exists.
    handlerBlocks_ = config_.blockExec && config_.predecode &&
                     config_.traceInsns == 0;
    bool user_blocks = handlerBlocks_ && !profiling_ && !procMgr_;
    if (user_blocks) {
        runBlocks();
    } else {
        while (true) {
            step();
            if (stats_.halted || stats_.machineCheckHalt ||
                stats_.cancelled) {
                break;
            }
            if (config_.maxUserInsns &&
                stats_.userInsns >= config_.maxUserInsns) {
                stats_.timedOut = true;
                break;
            }
            if (cancelPoll())
                break;
        }
    }
    // Fold component statistics in.
    stats_.branchLookups = predictor_.lookups();
    stats_.branchMispredicts = predictor_.mispredicts();
    if (procMgr_) {
        stats_.procFaults = procMgr_->faults();
        stats_.procEvictions = procMgr_->evictions();
        stats_.procCompactedBytes = procMgr_->bytesCompacted();
    }
    return stats_;
}

void
Cpu::ensureProcResident(uint32_t pc)
{
    if (pc >= procCurLo_ && pc < procCurHi_)
        return;
    int32_t proc = image_.procAt(pc);
    RTDC_ASSERT(proc >= 0, "fetch outside any procedure: 0x%08x", pc);
    if (!procMgr_->resident(proc)) {
        procFault(pc, proc);
        if (stats_.machineCheckHalt || stats_.cancelled)
            return;
    } else {
        procMgr_->touch(proc);
    }
    procCurLo_ = image_.procs[proc].base;
    procCurHi_ = procCurLo_ + image_.procs[proc].size;
}

// Zero block for clearing evicted procedures' backing bytes, hoisted to
// file scope so procFault never re-runs a local-static guard per call.
constexpr uint32_t kZeroChunkBytes = 4096;
const uint8_t kZeros[kZeroChunkBytes] = {};

void
Cpu::procFault(uint32_t addr, int32_t proc)
{
    const proccache::ProcEntry &entry =
        procImage_->entries[static_cast<size_t>(proc)];
    ++stats_.exceptions;
    stats_.cycles +=
        config_.exceptionEntryPenalty + procConfig_.dispatchCycles;
    obs::Observer *obs = config_.observer;
    uint64_t obs_cycles0 = 0;
    if (obs) [[unlikely]] {
        obs->procFaultBegin(addr, stats_.cycles);
        obs_cycles0 = stats_.cycles;
    }

    // Allocate procedure-cache space: LRU eviction + compaction.
    proccache::AllocResult alloc =
        procMgr_->allocate(proc, entry.origBytes);
    for (int32_t victim : alloc.evicted) {
        const proccache::ProcEntry &ve =
            procImage_->entries[static_cast<size_t>(victim)];
        // The decompressed copy is gone: clear its backing bytes (so a
        // stale fetch fails loudly) and invalidate its I-cache lines.
        for (uint32_t off = 0; off < ve.origBytes;) {
            uint32_t chunk =
                std::min(kZeroChunkBytes, ve.origBytes - off);
            memory_.writeBlock(ve.vaBase + off, kZeros, chunk);
            off += chunk;
        }
        icache_.invalidateRange(ve.vaBase, ve.origBytes);
    }
    // Compaction copies resident procedures inside the cache: charge
    // read+write bursts per 64-byte chunk moved.
    if (alloc.bytesCompacted) {
        uint64_t chunks = (alloc.bytesCompacted + 63) / 64;
        stats_.cycles += chunks * 2 * memory_.timing().burstCycles(64);
    }

    // Run the LZRW1 runtime over the whole procedure.
    c0_[isa::C0Scratch0] = entry.streamAddr;
    c0_[isa::C0Scratch1] = entry.vaBase;
    c0_[isa::C0MapBase] = entry.origBytes;
    McKind fault = runHandler(addr, handlerRam_.entry());
    stats_.procDecompressedBytes += entry.origBytes;
    // As with serviceUserMiss: every exit reports one procFaultEnd, so
    // traced fault-begin spans always close and the
    // proc_fault_service_cycles histogram count == proc_faults.
    auto obs_fault_end = [&] {
        if (obs) [[unlikely]] {
            obs->procFaultEnd(addr, stats_.cycles,
                              stats_.cycles - obs_cycles0);
        }
    };
    if (stats_.cancelled) {
        obs_fault_end();
        return;
    }
    if (fault != McKind::None) {
        // Whole-procedure fills are not retried (the procedure cache is
        // the paper's comparison baseline, not the hardened mechanism):
        // halt with the diagnostic.
        ++stats_.machineChecks;
        if (obs) [[unlikely]] {
            obs->machineCheck(static_cast<uint8_t>(fault),
                              pendingFaultAddr_, stats_.cycles);
        }
        stats_.machineCheckHalt = true;
        stats_.faultKind = fault;
        stats_.faultAddr = pendingFaultAddr_;
        obs_fault_end();
        return;
    }

    // Coherence flush: the handler wrote code through the D-cache; the
    // I-side fetches from memory, so write the dirty lines back...
    dcache_.flushRange(
        entry.vaBase, entry.origBytes,
        [this](uint32_t line_addr, const uint8_t *data) {
            memory_.writeBlock(line_addr, data, config_.dcache.lineBytes);
            stats_.cycles +=
                memory_.timing().burstCycles(config_.dcache.lineBytes);
            ++stats_.writebacks;
        });
    // ...and invalidate I-cache lines over the written range: a line
    // straddling a procedure boundary may be validly cached for the
    // neighbouring procedure but stale for this one.
    icache_.invalidateRange(entry.vaBase, entry.origBytes);
    stats_.cycles += config_.exceptionReturnPenalty;
    obs_fault_end();

    // Verify the decompressed procedure against the linked image. This
    // is O(procedure bytes) of simulator self-checking on every fault,
    // so wall-clock benches switch it off (no effect on RunStats).
    if (config_.verifyDecompression) {
        for (uint32_t off = 0; off < entry.origBytes; off += 4) {
            uint32_t got = memory_.read32(entry.vaBase + off);
            uint32_t expect = image_.textWordAt(entry.vaBase + off);
            if (got != expect) {
                panic("lzrw1 runtime produced wrong word at 0x%08x: "
                      "0x%08x != 0x%08x", entry.vaBase + off, got,
                      expect);
            }
        }
    }
}

void
Cpu::serviceUserMiss()
{
    ++stats_.icacheMisses;
    if (profiling_ && curProc_ >= 0)
        ++procMisses_[curProc_];
    obs::Observer *obs = config_.observer;
    if (decompressorAttached_ && pc_ >= compressedLo_ &&
        pc_ < compressedHi_) {
        // Software-managed miss: flush the pipeline (swic requires a
        // non-speculative state) and run the decompressor. A machine
        // check during the fill (handler fault, unfilled line, CRC
        // mismatch) invalidates the unit and retries up to mcRetryLimit
        // times, then halts with the diagnostic.
        ++stats_.compressedMisses;
        uint64_t obs_cycles0 = 0;
        uint64_t obs_hinsns0 = 0;
        if (obs) [[unlikely]] {
            obs->missBegin(pc_, stats_.cycles, true);
            obs_cycles0 = stats_.cycles;
            obs_hinsns0 = stats_.handlerInsns;
        }
        unsigned attempt = 0;
        // Every exit from the retry loop — success, cancellation, or a
        // machine-check halt — reports one missEnd, keeping the
        // miss_service_cycles histogram count == compressedMisses and
        // every traced miss-begin paired with an end.
        auto obs_miss_end = [&] {
            if (obs) [[unlikely]] {
                obs->missEnd(pc_, stats_.cycles,
                             stats_.cycles - obs_cycles0,
                             stats_.handlerInsns - obs_hinsns0, attempt,
                             true);
            }
        };
        while (true) {
            ++stats_.exceptions;
            stats_.cycles += config_.exceptionEntryPenalty;
            McKind fault = runHandler(pc_, handlerRam_.entry());
            stats_.cycles += config_.exceptionReturnPenalty;
            if (stats_.cancelled) {
                obs_miss_end();
                return;
            }
            uint32_t faddr =
                fault != McKind::None ? pendingFaultAddr_ : pc_;
            if (fault == McKind::None && !icache_.probe(pc_))
                fault = McKind::LineFillIncomplete;
            if (fault == McKind::None)
                fault = checkIntegrity(pc_);
            if (fault == McKind::None) {
                obs_miss_end();
                return;
            }
            ++stats_.machineChecks;
            if (obs) [[unlikely]] {
                obs->machineCheck(static_cast<uint8_t>(fault), faddr,
                                  stats_.cycles);
            }
            // Drop whatever the failed fill installed.
            uint32_t unit = integrityUnitBytes_
                                ? integrityUnitBytes_
                                : config_.icache.lineBytes;
            icache_.invalidateRange(pc_ & ~(unit - 1), unit);
            if (attempt++ < config_.mcRetryLimit) {
                ++stats_.integrityRetries;
                continue;
            }
            stats_.machineCheckHalt = true;
            stats_.faultKind = fault;
            stats_.faultAddr = faddr;
            obs_miss_end();
            return;
        }
    } else {
        // Hardware fill from main memory.
        ++stats_.nativeMisses;
        uint32_t line = icache_.lineAddr(pc_);
        uint64_t burst =
            memory_.timing().burstCycles(config_.icache.lineBytes);
        if (obs) [[unlikely]]
            obs->missBegin(pc_, stats_.cycles, false);
        stats_.cycles += burst;
        memory_.readBlock(line, lineBuf_.data(),
                          config_.icache.lineBytes);
        icache_.fillLine(line, lineBuf_.data());
        if (obs) [[unlikely]]
            obs->missEnd(pc_, stats_.cycles, burst, 0, 0, false);
    }
}

void
Cpu::serviceDMiss(uint32_t addr)
{
    uint32_t page = (addr - dmemLo_) >> dmemPageShift_;
    uint32_t page_va = dmemLo_ + (page << dmemPageShift_);
    ++stats_.dmemFaults;
    obs::Observer *obs = config_.observer;
    uint64_t obs_cycles0 = 0;
    if (obs) [[unlikely]] {
        obs->dmissBegin(addr, stats_.cycles);
        obs_cycles0 = stats_.cycles;
    }
    // Make room in the staging pool before materializing a new page.
    if (dmemStagingPages_ && dmemFifo_.size() >= dmemStagingPages_)
        evictDmemPage();

    // runHandler() resumes at c0[Epc] (== the faulting *data* address
    // here, which is what the handler needs in BadVa); the interrupted
    // user instruction's pc is unaffected by a data fault. The
    // load-use interlock state is restored too: the block engines
    // precompute in-block stalls before any instruction runs, so the
    // scalar engines must charge the faulting load's consumer stall as
    // if the fault service never intervened, or RunStats diverge.
    uint32_t saved_pc = pc_;
    uint8_t saved_load_dest = lastLoadDest_;
    inDmemFault_ = true;
    dmemFaultLo_ = page_va;
    dmemFaultHi_ = page_va + dmemPageBytes_;
    unsigned attempt = 0;
    // As in serviceUserMiss(): every exit — success, cancellation, or a
    // machine-check halt — reports one dmissEnd, keeping the
    // dmiss_service_cycles histogram count == dmemFaults.
    while (true) {
        ++stats_.exceptions;
        stats_.cycles += config_.exceptionEntryPenalty;
        McKind fault = runHandler(addr, dmemEntry_);
        pc_ = saved_pc;
        stats_.cycles += config_.exceptionReturnPenalty;
        if (stats_.cancelled)
            break;
        // Coherence: the handler wrote the page through the D-cache;
        // push the bytes to backing memory, where the CRC check and any
        // later hardware refill of an evicted line read them.
        if (!config_.handlerDataUncached) {
            dcache_.flushRange(
                page_va, dmemPageBytes_,
                [this](uint32_t line_addr, const uint8_t *data) {
                    memory_.writeBlock(line_addr, data,
                                       config_.dcache.lineBytes);
                    stats_.cycles += memory_.timing().burstCycles(
                        config_.dcache.lineBytes);
                    ++stats_.writebacks;
                });
        }
        uint32_t faddr =
            fault != McKind::None ? pendingFaultAddr_ : addr;
        if (fault == McKind::None)
            fault = checkDmemPage(page);
        if (fault == McKind::None) {
            if (config_.verifyDecompression)
                verifyDmemPage(page);
            dmemState_[page] = kPageResident;
            dmemFifo_.push_back(page);
            stats_.dmemDecompressedBytes += dmemPageBytes_;
            break;
        }
        ++stats_.machineChecks;
        if (obs) [[unlikely]] {
            obs->machineCheck(static_cast<uint8_t>(fault), faddr,
                              stats_.cycles);
        }
        // Drop the failed materialization: invalidate the page's lines
        // and re-zero its backing bytes so a retry starts clean.
        dcache_.invalidateRange(page_va, dmemPageBytes_);
        for (uint32_t off = 0; off < dmemPageBytes_;) {
            uint32_t chunk =
                std::min(kZeroChunkBytes, dmemPageBytes_ - off);
            memory_.writeBlock(page_va + off, kZeros, chunk);
            off += chunk;
        }
        if (attempt++ < config_.mcRetryLimit) {
            ++stats_.integrityRetries;
            continue;
        }
        stats_.machineCheckHalt = true;
        stats_.faultKind = fault;
        stats_.faultAddr = faddr;
        break;
    }
    inDmemFault_ = false;
    dmemFaultLo_ = 0;
    dmemFaultHi_ = 0;
    lastLoadDest_ = saved_load_dest;
    if (obs) [[unlikely]] {
        obs->dmissEnd(addr, stats_.cycles, stats_.cycles - obs_cycles0);
    }
}

void
Cpu::evictDmemPage()
{
    if (dmemFifo_.empty())
        return;
    uint32_t page = dmemFifo_.front();
    dmemFifo_.erase(dmemFifo_.begin());
    uint32_t page_va = dmemLo_ + (page << dmemPageShift_);
    if (dmemState_[page] == kPageDirty) {
        // Written-to pages cannot be discarded: write the cached lines
        // back and keep the page uncompressed from here on (the image's
        // compressed copy is stale).
        dcache_.flushRange(
            page_va, dmemPageBytes_,
            [this](uint32_t line_addr, const uint8_t *data) {
                memory_.writeBlock(line_addr, data,
                                   config_.dcache.lineBytes);
                stats_.cycles += memory_.timing().burstCycles(
                    config_.dcache.lineBytes);
                ++stats_.writebacks;
            });
        dmemState_[page] = kPageSpilled;
        ++stats_.dmemSpills;
        return;
    }
    // Clean: discard the cached lines and re-zero the backing bytes so
    // a stale access faults (and re-decompresses) instead of silently
    // reading the old copy.
    dcache_.invalidateRange(page_va, dmemPageBytes_);
    for (uint32_t off = 0; off < dmemPageBytes_;) {
        uint32_t chunk = std::min(kZeroChunkBytes, dmemPageBytes_ - off);
        memory_.writeBlock(page_va + off, kZeros, chunk);
        off += chunk;
    }
    dmemState_[page] = kPageCompressed;
    ++stats_.dmemEvictions;
}

McKind
Cpu::checkDmemPage(uint32_t page)
{
    if (dmemCrcs_.empty())
        return McKind::None;
    if (page >= dmemCrcs_.size())
        return McKind::IntegrityFail;
    uint32_t page_va = dmemLo_ + (page << dmemPageShift_);
    Crc32 crc;
    for (uint32_t off = 0; off < dmemPageBytes_; off += 4)
        crc.updateWord(memory_.read32(page_va + off));
    return crc.value() == dmemCrcs_[page] ? McKind::None
                                          : McKind::IntegrityFail;
}

void
Cpu::verifyDmemPage(uint32_t page) const
{
    uint32_t page_va = dmemLo_ + (page << dmemPageShift_);
    for (uint32_t off = 0; off < dmemPageBytes_; ++off) {
        uint32_t va = page_va + off;
        size_t idx = va - image_.dataBase;
        uint8_t expect =
            idx < image_.data.size() ? image_.data[idx] : 0;
        uint8_t got = memory_.read8(va);
        if (got != expect) {
            panic("data handler produced wrong byte at 0x%08x: "
                  "0x%02x != 0x%02x", va, got, expect);
        }
    }
}

void
Cpu::markDmemDirty(uint32_t addr)
{
    uint32_t page = (addr - dmemLo_) >> dmemPageShift_;
    if (dmemState_[page] == kPageResident)
        dmemState_[page] = kPageDirty;
}

const isa::DecodedInst &
Cpu::fetchUser()
{
    // A stopped run (machine check, cancellation, misaligned pc) hands
    // back a scratch nop: the callers check the stop flags before using
    // it, and the caches never see the bad access.
    auto stopped = [this]() -> const isa::DecodedInst & {
        fetchScratch_ = isa::predecode(isa::nopWord());
        return fetchScratch_;
    };
    if ((pc_ & 3) != 0) [[unlikely]] {
        raiseMc(McKind::MisalignedFetch, pc_, false);
        return stopped();
    }
    if (procMgr_) {
        ensureProcResident(pc_);
        if (stats_.machineCheckHalt || stats_.cancelled)
            return stopped();
    }
    ++stats_.icacheAccesses;
    if (config_.predecode) {
        // Fast path: one tag lookup returns the line's decoded entry;
        // re-decode cost is paid only at fill/swic time.
        if (const isa::DecodedInst *d = icache_.accessFetch(pc_))
            return *d;
        serviceUserMiss();
        if (stats_.machineCheckHalt || stats_.cancelled)
            return stopped();
        return icache_.decodedAt(pc_);
    }
    uint32_t word;
    if (!icache_.accessRead(pc_, word)) {
        serviceUserMiss();
        if (stats_.machineCheckHalt || stats_.cancelled)
            return stopped();
        word = icache_.read32(pc_);
    }
    fetchScratch_ = isa::predecode(word);
    return fetchScratch_;
}

void
Cpu::accountInterlock(const isa::DecodedInst &d)
{
    if (lastLoadDest_ != 0) {
        for (unsigned i = 0; i < d.nsrc; ++i) {
            if (d.srcs[i] == lastLoadDest_) {
                ++stats_.cycles;
                ++stats_.loadUseStalls;
                break;
            }
        }
    }
    lastLoadDest_ = d.isLoad ? d.dest : 0;
}

void
Cpu::step()
{
    // Track the current procedure before the fetch so an I-miss is
    // attributed to the procedure being entered, not the one left.
    if (profiling_)
        noteUserPc(pc_);
    const isa::DecodedInst &d = fetchUser();
    if (stats_.machineCheckHalt || stats_.cancelled)
        return;
    if (!d.inst.valid()) {
        raiseMc(McKind::InvalidInst, pc_, false);
        return;
    }

    accountInterlock(d);

    ++stats_.cycles;
    ++stats_.userInsns;
    if (config_.traceInsns &&
        stats_.userInsns + stats_.handlerInsns <= config_.traceInsns) {
        std::fprintf(stderr, "U %08x: %s\n", pc_,
                     isa::disassemble(d.inst, pc_).c_str());
    }

    pc_ = execute(d, pc_, regs_.data(), false);
}

void
Cpu::runBlocks()
{
    if (!blockCache_) {
        blockCache_ =
            std::make_unique<isa::BlockCache>(config_.icache.lineBytes);
    }
    const uint32_t line_mask = config_.icache.lineBytes - 1;
    const uint32_t line_words = config_.icache.lineBytes / 4;
    while (true) {
        // One tag check validates the whole line-resident block:
        // residency (hit/miss exactly where the per-instruction path
        // would miss — a block never crosses a line boundary, and
        // nothing inside a block can touch the I-cache) and content
        // (the frame generation, bumped by every fill/swic/write/
        // invalidation, keyed against the block). Execution then reads
        // the validated frame's decoded mirror directly — blocks carry
        // accounting, not instruction copies.
        if ((pc_ & 3) != 0) [[unlikely]] {
            raiseMc(McKind::MisalignedFetch, pc_, false);
            break;
        }
        cache::FetchLine line;
        if (!icache_.accessFetchLine(pc_, line)) {
            serviceUserMiss();
            if (stats_.machineCheckHalt || stats_.cancelled) {
                // The fetch that missed still counts, as in fetchUser();
                // no block runs to count it.
                ++stats_.icacheAccesses;
                break;
            }
            icache_.peekFetchLine(pc_, line);
        }
        uint32_t off_words = (pc_ & line_mask) / 4;
        const isa::DecodedInst *insts = line.decoded + off_words;
        isa::DecodedBlock &b = blockCache_->slot(pc_);
        if (!b.matches(pc_, line.gen)) {
            blockCache_->build(b, pc_, line.gen, insts,
                               line_words - off_words);
            if (config_.observer) [[unlikely]]
                config_.observer->blockBuilt(b.meta.len);
        }
        uint64_t k = b.meta.len;
        if (config_.maxUserInsns) {
            // Never run past the instruction budget: the per-block adds
            // must land on exactly the counts the per-instruction loop
            // stops at.
            uint64_t remaining = config_.maxUserInsns - stats_.userInsns;
            if (k > remaining)
                k = remaining;
        }
        executeBlock(b.meta, insts, k);
        if (stats_.halted || stats_.machineCheckHalt || stats_.cancelled)
            break;
        if (config_.maxUserInsns &&
            stats_.userInsns >= config_.maxUserInsns) {
            stats_.timedOut = true;
            break;
        }
        if (cancelPoll())
            break;
    }
}

void
Cpu::executeBlock(const isa::BlockMeta &meta,
                  const isa::DecodedInst *insts, uint64_t k)
{
    if (meta.startsInvalid) {
        ++stats_.icacheAccesses;  // the faulting fetch, as in step()
        raiseMc(McKind::InvalidInst, pc_, false);
        return;
    }
    // Batched fetch accounting: the single dispatch lookup stood in for
    // k per-instruction fetches (each a hit — see runBlocks()). The
    // I-cache's own hit counter is credited once the block is done.
    stats_.icacheAccesses += k;
    // The first instruction's interlock depends on state carried in
    // from before the block; the in-block stalls are precomputed.
    if (lastLoadDest_ != 0) {
        const isa::DecodedInst &d0 = insts[0];
        for (unsigned s = 0; s < d0.nsrc; ++s) {
            if (d0.srcs[s] == lastLoadDest_) {
                ++stats_.cycles;
                ++stats_.loadUseStalls;
                break;
            }
        }
    }
    uint64_t stalls =
        k == meta.len ? meta.internalStalls : blockStalls(meta, 0, k);
    stats_.cycles += k + stalls;
    stats_.loadUseStalls += stalls;
    stats_.userInsns += k;
    lastLoadDest_ = insts[k - 1].isLoad ? insts[k - 1].dest : 0;

    // Architectural effects, plus the paths that stay per-instruction:
    // D-cache traffic, predictor updates, control-flow penalties. The
    // ALU subset runs inline (identical semantics — execute() consults
    // the same helper first); only loads, stores, control transfers and
    // system ops pay the out-of-line interpreter call.
    uint32_t pc = pc_;
    uint32_t *regs = regs_.data();
    for (uint64_t i = 0; i < k; ++i) {
        const isa::DecodedInst &d = insts[i];
        if (executeAlu(d.inst, regs, hi_, lo_)) {
            pc += 4;
        } else {
            pc = executeSlow(d, pc, regs, false);
            if (stats_.machineCheckHalt) [[unlikely]] {
                // Stop at the faulting instruction, which step() counts
                // last: take back what the batch charged past it.
                uint64_t tail = k - 1 - i;
                uint64_t tail_stalls = blockStalls(meta, i + 1, k);
                stats_.icacheAccesses -= tail;
                stats_.userInsns -= tail;
                stats_.cycles -= tail + tail_stalls;
                stats_.loadUseStalls -= tail_stalls;
                icache_.creditFetchHits(i);
                pc_ = pc;
                return;
            }
        }
    }
    icache_.creditFetchHits(k - 1);
    pc_ = pc;
}

McKind
Cpu::runHandler(uint32_t addr, uint32_t entry)
{
    RTDC_ASSERT(handlerRam_.loaded(), "miss exception with no handler");
    pendingFault_ = McKind::None;
    pendingFaultAddr_ = 0;
    c0_[isa::C0BadVa] = addr;
    c0_[isa::C0Epc] = addr;

    obs::Observer *obs = config_.observer;
    uint64_t obs_hinsns0 = 0;
    if (obs) [[unlikely]] {
        obs->handlerEnter(addr, stats_.cycles);
        obs_hinsns0 = stats_.handlerInsns;
    }

    uint32_t *regs =
        config_.secondRegFile ? shadowRegs_.data() : regs_.data();
    // The shadow file shares sp with the user file so that a non-RF
    // handler can spill to the user stack; the RF handlers never use sp.
    uint32_t hpc = entry;
    const bool predecode = config_.predecode;
    const uint64_t budget_end =
        config_.handlerInsnBudget
            ? stats_.handlerInsns + config_.handlerInsnBudget
            : 0;
    // Interlock state does not carry across the pipeline flush.
    lastLoadDest_ = 0;
    if (handlerBlocks_) {
        runHandlerBlocks(hpc, regs, budget_end);
        lastLoadDest_ = 0;
        pc_ = c0_[isa::C0Epc];
        if (obs) [[unlikely]] {
            obs->handlerIret(stats_.cycles,
                             stats_.handlerInsns - obs_hinsns0);
        }
        return pendingFault_;
    }
    // D-miss handlers run mid-instruction: the interrupted user load or
    // store still holds a reference into fetchScratch_, so this loop
    // needs its own decode scratch or the iret's decode would replace
    // the user instruction's before its writeback.
    isa::DecodedInst hscratch;
    while (true) {
        // Corrupted tables can steer a computed handler jump out of the
        // RAM; machine-check it instead of tripping the fetch asserts.
        if ((hpc & 3) != 0 || !handlerRam_.contains(hpc)) [[unlikely]] {
            raiseMc(McKind::HandlerRunaway, hpc, true);
            break;
        }
        // The handler RAM is immutable after load, so the predecoded
        // path touches no decoder at all in this loop.
        const isa::DecodedInst &d =
            predecode ? handlerRam_.fetchDecoded(hpc)
                      : (hscratch =
                             isa::predecode(handlerRam_.fetch(hpc)));
        RTDC_ASSERT(d.inst.valid(),
                    "invalid handler instruction at 0x%08x", hpc);

        accountInterlock(d);

        ++stats_.cycles;
        ++stats_.handlerInsns;
        if (config_.traceInsns &&
            stats_.userInsns + stats_.handlerInsns <=
                config_.traceInsns) {
            std::fprintf(stderr, "H %08x: %s\n", hpc,
                         isa::disassemble(d.inst, hpc).c_str());
        }

        if (d.inst.op == Op::Iret)
            break;
        hpc = execute(d, hpc, regs, true);
        if (pendingFault_ != McKind::None) [[unlikely]]
            break;
        if (budget_end && stats_.handlerInsns >= budget_end)
            [[unlikely]] {
            raiseMc(McKind::HandlerRunaway, hpc, true);
            break;
        }
        if (cancelPoll()) [[unlikely]]
            break;
    }
    lastLoadDest_ = 0;
    // Resume at the missed instruction (c0[Epc]).
    pc_ = c0_[isa::C0Epc];
    if (obs) [[unlikely]] {
        obs->handlerIret(stats_.cycles,
                         stats_.handlerInsns - obs_hinsns0);
    }
    return pendingFault_;
}

uint32_t
Cpu::runHandlerBlocks(uint32_t hpc, uint32_t *regs, uint64_t budget_end)
{
    // Handler RAM is immutable after load(), so its blocks were scanned
    // once there and need no residency or generation checks: dispatch
    // is an array read plus one batched stats add per block.
    while (true) {
        if ((hpc & 3) != 0 || !handlerRam_.contains(hpc)) [[unlikely]] {
            raiseMc(McKind::HandlerRunaway, hpc, true);
            return hpc;
        }
        if (cancelPoll()) [[unlikely]]
            return hpc;
        const isa::DecodedInst *insts;
        const isa::BlockMeta &m = handlerRam_.blockAt(hpc, insts);
        RTDC_ASSERT(!m.startsInvalid,
                    "invalid handler instruction at 0x%08x", hpc);
        // Never run past the instruction budget: like runBlocks() with
        // maxUserInsns, the block is cut to what is left of it, so the
        // batched adds land on the per-instruction loop's counts.
        uint32_t k = m.len;
        if (budget_end && stats_.handlerInsns + k > budget_end)
            k = static_cast<uint32_t>(budget_end - stats_.handlerInsns);
        if (lastLoadDest_ != 0) {
            const isa::DecodedInst &d0 = insts[0];
            for (unsigned s = 0; s < d0.nsrc; ++s) {
                if (d0.srcs[s] == lastLoadDest_) {
                    ++stats_.cycles;
                    ++stats_.loadUseStalls;
                    break;
                }
            }
        }
        uint32_t stalls =
            k == m.len ? m.internalStalls : blockStalls(m, 0, k);
        stats_.cycles += k + stalls;
        stats_.loadUseStalls += stalls;
        stats_.handlerInsns += k;
        if (k == m.len)
            lastLoadDest_ = m.lastLoadDest;
        else
            lastLoadDest_ = insts[k - 1].isLoad ? insts[k - 1].dest : 0;

        uint32_t pc = hpc;
        for (uint32_t i = 0; i < k; ++i) {
            const isa::DecodedInst &d = insts[i];
            // iret is counted (cycle + instruction + interlock) but not
            // executed, exactly as the per-instruction loop breaks —
            // also when it is the budget's last instruction.
            if (d.inst.op == Op::Iret)
                return pc;
            if (executeAlu(d.inst, regs, hi_, lo_)) {
                pc += 4;
            } else {
                pc = executeSlow(d, pc, regs, true);
                if (pendingFault_ != McKind::None) [[unlikely]] {
                    // The per-instruction loop stops counting at the
                    // faulting instruction: take back the block's tail.
                    uint32_t tail = k - 1 - i;
                    uint32_t tail_stalls = blockStalls(m, i + 1, k);
                    stats_.handlerInsns -= tail;
                    stats_.cycles -= tail + tail_stalls;
                    stats_.loadUseStalls -= tail_stalls;
                    return pc;
                }
            }
        }
        hpc = pc;
        if (budget_end && stats_.handlerInsns >= budget_end)
            [[unlikely]] {
            raiseMc(McKind::HandlerRunaway, hpc, true);
            return hpc;
        }
    }
}

void
Cpu::accountControl(const isa::DecodedInst &d, uint32_t pc, bool taken)
{
    if (d.isCondBranch) {
        bool correct = predictor_.update(pc, taken);
        if (!correct)
            stats_.cycles += config_.mispredictPenalty;
        else if (taken)
            stats_.cycles += config_.redirectPenalty;
    } else {
        // Unconditional transfers redirect fetch at decode.
        stats_.cycles += config_.redirectPenalty;
    }
}

void
Cpu::dataMissFill(uint32_t addr, bool handler)
{
    if ((addr - dmemLo_) < dmemSpan_) [[unlikely]] {
        if (handler) {
            // The D-miss handler may only touch its active fault page;
            // anything else in the compressed data region (e.g. an
            // LZRW1 copy item running past the page end) is
            // machine-checked rather than silently materialized.
            if (addr < dmemFaultLo_ || addr >= dmemFaultHi_)
                raiseMc(McKind::DmemRange, addr, true);
        } else if (dmemState_[(addr - dmemLo_) >> dmemPageShift_] ==
                   kPageCompressed) {
            serviceDMiss(addr);
        }
        // Fall through and fill even after a fault: the callers read or
        // write the line unconditionally after a miss, and the fill is
        // deterministic (a failed page's backing bytes were zeroed).
    }
    ++stats_.dcacheMisses;
    uint32_t line = dcache_.lineAddr(addr);
    bool l2_hit = false;
    if (config_.l2.enabled) [[unlikely]] {
        l2_hit = l2_.access(line);
        if (l2_hit)
            ++stats_.l2Hits;
        else
            ++stats_.l2Misses;
    }
    if (l2_hit) {
        stats_.cycles += config_.l2.hitCycles;
    } else {
        stats_.cycles +=
            memory_.timing().burstCycles(config_.dcache.lineBytes);
        // An L2 miss that fills from the compressed data region pays
        // the hardware line decompressor on the memory→L2 path.
        if (config_.l2.enabled && (line - dmemLo_) < dmemSpan_)
            [[unlikely]]
            stats_.cycles += config_.l2.decompressCycles;
    }
    memory_.readBlock(line, lineBuf_.data(), config_.dcache.lineBytes);
    cache::Eviction ev =
        dcache_.fillLine(line, lineBuf_.data(), wbBuf_.data());
    if (ev.valid && ev.dirty) {
        ++stats_.writebacks;
        stats_.cycles +=
            memory_.timing().burstCycles(config_.dcache.lineBytes);
        memory_.writeBlock(ev.addr, wbBuf_.data(),
                           config_.dcache.lineBytes);
    }
}

void
Cpu::dataAccess(uint32_t addr, bool is_store, bool handler)
{
    if (handler && config_.handlerDataUncached) {
        // Ablation: decompressor tables bypass the D-cache; every access
        // pays one bus transaction.
        stats_.cycles += memory_.timing().burstCycles(
            memory_.timing().busBytes);
        return;
    }
    (void)is_store;
    ++stats_.dcacheAccesses;
    if (dcache_.access(addr))
        return;
    dataMissFill(addr, handler);
}

uint32_t
Cpu::loadData(uint32_t addr, unsigned bytes, bool sign_extend, bool handler)
{
    uint32_t raw;
    if (handler && config_.handlerDataUncached) {
        dataAccess(addr, false, handler);
        switch (bytes) {
          case 1: raw = memory_.read8(addr); break;
          case 2: raw = memory_.read16(addr); break;
          default: raw = memory_.read32(addr); break;
        }
    } else {
        // Hot path: one combined tag lookup covers the hit/miss decision
        // and the data read, where dataAccess() + readN() paid findWay()
        // twice. Statistics and LRU update are identical.
        ++stats_.dcacheAccesses;
        if (!dcache_.accessReadBytes(addr, bytes, raw)) {
            dataMissFill(addr, handler);
            switch (bytes) {
              case 1: raw = dcache_.read8(addr); break;
              case 2: raw = dcache_.read16(addr); break;
              default: raw = dcache_.read32(addr); break;
            }
        }
    }
    if (sign_extend && bytes < 4)
        return static_cast<uint32_t>(signExtend(raw, bytes * 8));
    return raw;
}

void
Cpu::storeData(uint32_t addr, uint32_t value, unsigned bytes, bool handler)
{
    if (handler && config_.handlerDataUncached) {
        dataAccess(addr, true, handler);
        switch (bytes) {
          case 1: memory_.write8(addr, static_cast<uint8_t>(value)); break;
          case 2:
            memory_.write16(addr, static_cast<uint16_t>(value));
            break;
          default: memory_.write32(addr, value); break;
        }
        return;
    }
    // Same combined-lookup structure as loadData's hot path.
    ++stats_.dcacheAccesses;
    if (!dcache_.accessWrite(addr, value, bytes)) {
        dataMissFill(addr, handler);
        switch (bytes) {
          case 1:
            dcache_.write8(addr, static_cast<uint8_t>(value));
            break;
          case 2:
            dcache_.write16(addr, static_cast<uint16_t>(value));
            break;
          default:
            dcache_.write32(addr, value);
            break;
        }
    }
    if (!handler && (addr - dmemLo_) < dmemSpan_) [[unlikely]]
        markDmemDirty(addr);
}

void
Cpu::verifySwic(uint32_t addr, uint32_t word) const
{
    if (image_.decompText.empty())
        return;
    uint32_t base = image_.decompBase;
    if (addr < base || addr >= compressedHi_)
        panic("swic outside the compressed region: 0x%08x", addr);
    size_t idx = (addr - base) / 4;
    uint32_t expect = idx < image_.decompText.size()
                          ? image_.decompText[idx]
                          : isa::nopWord();  // group padding
    if (word != expect) {
        panic("decompressor produced wrong word at 0x%08x: got 0x%08x "
              "(%s), expected 0x%08x (%s)", addr, word,
              isa::disassembleWord(word).c_str(), expect,
              isa::disassembleWord(expect).c_str());
    }
}

uint32_t
Cpu::execute(const isa::DecodedInst &d, uint32_t pc, uint32_t *regs,
             bool handler)
{
    if (executeAlu(d.inst, regs, hi_, lo_))
        return pc + 4;
    return executeSlow(d, pc, regs, handler);
}

uint32_t
Cpu::executeSlow(const isa::DecodedInst &d, uint32_t pc, uint32_t *regs,
                 bool handler)
{
    const Instruction &inst = d.inst;
    auto rs = [&] { return readReg(regs, inst.rs); };
    auto rt = [&] { return readReg(regs, inst.rt); };
    auto wr_rd = [&](uint32_t v) { writeReg(regs, inst.rd, v); };
    auto wr_rt = [&](uint32_t v) { writeReg(regs, inst.rt, v); };
    int32_t simm = static_cast<int16_t>(inst.imm);
    uint32_t next = pc + 4;

    auto branch = [&](bool taken) {
        accountControl(d, pc, taken);
        if (taken)
            next = pc + 4 + (static_cast<uint32_t>(simm) << 2);
    };
    // Natural-alignment check for loads/stores: corrupted code (or a
    // handler fed corrupted tables) computes wild addresses; misaligned
    // ones become a machine check instead of tripping cache asserts.
    auto aligned = [&](uint32_t addr, unsigned bytes) {
        if ((addr & (bytes - 1)) != 0) [[unlikely]] {
            raiseMc(McKind::MisalignedData, addr, handler);
            return false;
        }
        return true;
    };

    switch (inst.op) {
      case Op::J:
        accountControl(d, pc, true);
        next = (pc & 0xf0000000u) | (inst.target << 2);
        break;
      case Op::Jal:
        accountControl(d, pc, true);
        writeReg(regs, isa::Ra, pc + 4);
        next = (pc & 0xf0000000u) | (inst.target << 2);
        break;
      case Op::Jr:
        accountControl(d, pc, true);
        next = rs();
        break;
      case Op::Jalr:
        accountControl(d, pc, true);
        wr_rd(pc + 4);
        next = rs();
        break;

      case Op::Beq: branch(rs() == rt()); break;
      case Op::Bne: branch(rs() != rt()); break;
      case Op::Blez: branch(static_cast<int32_t>(rs()) <= 0); break;
      case Op::Bgtz: branch(static_cast<int32_t>(rs()) > 0); break;
      case Op::Bltz: branch(static_cast<int32_t>(rs()) < 0); break;
      case Op::Bgez: branch(static_cast<int32_t>(rs()) >= 0); break;

      case Op::Lb:
        wr_rt(loadData(rs() + static_cast<uint32_t>(simm), 1, true,
                       handler));
        break;
      case Op::Lbu:
        wr_rt(loadData(rs() + static_cast<uint32_t>(simm), 1, false,
                       handler));
        break;
      case Op::Lh: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        if (aligned(addr, 2))
            wr_rt(loadData(addr, 2, true, handler));
        break;
      }
      case Op::Lhu: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        if (aligned(addr, 2))
            wr_rt(loadData(addr, 2, false, handler));
        break;
      }
      case Op::Lw: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        if (aligned(addr, 4))
            wr_rt(loadData(addr, 4, false, handler));
        break;
      }
      case Op::Lwx: {
        uint32_t addr = rs() + rt();
        if (aligned(addr, 4))
            wr_rd(loadData(addr, 4, false, handler));
        break;
      }
      case Op::Sb:
        storeData(rs() + static_cast<uint32_t>(simm), rt(), 1, handler);
        break;
      case Op::Sh: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        if (aligned(addr, 2))
            storeData(addr, rt(), 2, handler);
        break;
      }
      case Op::Sw: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        if (aligned(addr, 4))
            storeData(addr, rt(), 4, handler);
        break;
      }

      case Op::Swic: {
        uint32_t addr = rs() + static_cast<uint32_t>(simm);
        // Hardened output cursor: the install address must be word
        // aligned, and a decompression handler may only install lines
        // of the compressed region it services (a corrupted index
        // would otherwise overwrite unrelated cached code).
        if ((addr & 3) != 0 ||
            (handler && (!decompressorAttached_ ||
                         addr < compressedLo_ ||
                         addr >= compressedHi_))) [[unlikely]] {
            raiseMc(McKind::SwicRange, addr, handler);
            break;
        }
        if (handler && config_.verifyDecompression)
            verifySwic(addr, rt());
        icache_.swicWrite(addr, rt());
        if (config_.observer) [[unlikely]]
            config_.observer->swicWrite(addr, stats_.cycles);
        break;
      }
      case Op::Mfc0:
        if (inst.rd >= isa::numC0Regs) [[unlikely]] {
            raiseMc(McKind::PrivilegedOp, pc, handler);
            break;
        }
        wr_rt(c0_[inst.rd]);
        break;
      case Op::Mtc0:
        if (inst.rd >= isa::numC0Regs) [[unlikely]] {
            raiseMc(McKind::PrivilegedOp, pc, handler);
            break;
        }
        c0_[inst.rd] = rt();
        break;
      case Op::Iret:
        // Reached only from user context (the handler loops break on
        // iret before executing it): corrupted code, machine-check it.
        raiseMc(McKind::PrivilegedOp, pc, handler);
        break;

      case Op::Syscall:
      case Op::Break:
        break;  // no OS services are modeled
      case Op::Halt:
        stats_.halted = true;
        stats_.exitCode = simm;
        stats_.resultValue = readReg(regs, isa::V0);
        break;

      default:
        // The ALU subset was consumed by executeAlu() above; anything
        // else here is an invalid encoding reaching execution.
        panic("executing invalid instruction at 0x%08x", pc);
    }
    return next;
}

} // namespace rtd::cpu
