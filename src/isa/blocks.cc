#include "isa/blocks.h"

#include <bit>

namespace rtd::isa {

bool
endsBlock(const DecodedInst &d)
{
    switch (d.inst.op) {
      case Op::J: case Op::Jal: case Op::Jr: case Op::Jalr:
      case Op::Beq: case Op::Bne: case Op::Blez: case Op::Bgtz:
      case Op::Bltz: case Op::Bgez:
      case Op::Iret:
      case Op::Halt:
      case Op::Swic:
        return true;
      default:
        return false;
    }
}

void
scanBlocks(const DecodedInst *insts, uint32_t n, BlockMeta *out,
           bool swic_ends)
{
    for (uint32_t i = n; i-- > 0;) {
        const DecodedInst &d = insts[i];
        BlockMeta &meta = out[i];
        meta = BlockMeta{};
        meta.len = 1;
        if (!d.inst.valid()) {
            meta.startsInvalid = true;
            continue;
        }
        bool ends = i + 1 == n || !insts[i + 1].inst.valid() ||
                    (endsBlock(d) && (swic_ends || d.inst.op != Op::Swic));
        if (ends) {
            meta.lastLoadDest = d.isLoad ? d.dest : 0;
            continue;
        }
        // The block at i is d followed by the block at i + 1, whose
        // instruction j becomes instruction j + 1 here: its stall bits
        // shift up by one, and bit 1 is the stall d itself causes.
        const BlockMeta &next = out[i + 1];
        meta.stallMask = next.stallMask << 1;
        if (d.isLoad && d.dest != 0) {
            const DecodedInst &succ = insts[i + 1];
            for (unsigned s = 0; s < succ.nsrc; ++s) {
                if (succ.srcs[s] == d.dest) {
                    meta.stallMask |= 2u;
                    break;
                }
            }
        }
        if (next.len < kMaxBlockWords) {
            meta.len = static_cast<uint8_t>(next.len + 1);
            meta.lastLoadDest = next.lastLoadDest;
        } else {
            // Capped: the block drops the successor's last instruction
            // (its stall bit fell off the top of the shift above).
            meta.len = static_cast<uint8_t>(kMaxBlockWords);
            const DecodedInst &last = insts[i + kMaxBlockWords - 1];
            meta.lastLoadDest = last.isLoad ? last.dest : 0;
        }
        meta.internalStalls =
            static_cast<uint8_t>(std::popcount(meta.stallMask));
    }
}

} // namespace rtd::isa
