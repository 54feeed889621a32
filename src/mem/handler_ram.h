/**
 * @file
 * The on-chip exception-handler RAM.
 *
 * Paper section 4.1: "our simulations put the exception handler in its own
 * small on-chip RAM accessed in parallel with the instruction cache", so
 * the decompressor can never replace itself and never misses. Fetches
 * from this RAM cost one cycle.
 */

#ifndef RTDC_MEM_HANDLER_RAM_H
#define RTDC_MEM_HANDLER_RAM_H

#include <cstdint>
#include <vector>

#include "isa/blocks.h"
#include "isa/predecode.h"
#include "support/logging.h"
#include "support/stats.h"

namespace rtd::mem {

/** Small instruction RAM holding the decompression exception handler. */
class HandlerRam
{
  public:
    /** Base VA of the handler RAM (top of the address space). */
    static constexpr uint32_t base = 0xfff00000;

    HandlerRam() = default;

    /**
     * Load the handler program (replaces any previous contents). The
     * whole handler is predecoded here, once: the RAM is immutable
     * until the next load(), so fetchDecoded() never touches a decoder.
     */
    void load(const std::vector<uint32_t> &code);

    /** True when @p addr falls inside the loaded handler. Header-inline:
     *  the fetch-path asserts consult it per simulated instruction. */
    bool
    contains(uint32_t addr) const
    {
        return addr >= base && addr < base + sizeBytes();
    }

    // fetch()/fetchDecoded() run once per simulated handler instruction
    // (tens of millions of calls per run), so both stay in the header.

    /** Fetch the instruction word at @p addr (must be inside). */
    uint32_t
    fetch(uint32_t addr) const
    {
        RTDC_ASSERT(contains(addr), "handler fetch outside RAM: 0x%08x",
                    addr);
        RTDC_ASSERT((addr & 3) == 0, "misaligned handler fetch: 0x%08x",
                    addr);
        return code_[(addr - base) / 4];
    }

    /** Fetch the predecoded instruction at @p addr (must be inside). */
    const isa::DecodedInst &
    fetchDecoded(uint32_t addr) const
    {
        RTDC_ASSERT(contains(addr), "handler fetch outside RAM: 0x%08x",
                    addr);
        RTDC_ASSERT((addr & 3) == 0, "misaligned handler fetch: 0x%08x",
                    addr);
        return decoded_[(addr - base) / 4];
    }

    /**
     * Block dispatch in one probe: the static accounting of the block
     * entered at @p addr, with @p insts set to its predecoded
     * instructions. Handler text is immutable after load(), so the
     * blocks of every word were scanned there, once, and never need
     * invalidation.
     */
    const isa::BlockMeta &
    blockAt(uint32_t addr, const isa::DecodedInst *&insts) const
    {
        RTDC_ASSERT(contains(addr), "handler fetch outside RAM: 0x%08x",
                    addr);
        RTDC_ASSERT((addr & 3) == 0, "misaligned handler fetch: 0x%08x",
                    addr);
        size_t idx = (addr - base) / 4;
        insts = decoded_.data() + idx;
        return blockMeta_[idx];
    }

    /** Handler entry point (== base). */
    uint32_t entry() const { return base; }

    /** Size of the loaded handler in bytes. */
    uint32_t sizeBytes() const
    {
        return static_cast<uint32_t>(code_.size()) * 4;
    }

    bool loaded() const { return !code_.empty(); }

  private:
    std::vector<uint32_t> code_;
    std::vector<isa::DecodedInst> decoded_;  ///< one entry per word
    std::vector<isa::BlockMeta> blockMeta_;  ///< block starting per word
};

} // namespace rtd::mem

#endif // RTDC_MEM_HANDLER_RAM_H
