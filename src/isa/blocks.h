/**
 * @file
 * Block-structured execution: straight-line runs of predecoded
 * instructions executed with per-block (not per-instruction) fetch
 * checks and statistics.
 *
 * A block is a run of DecodedInsts starting at some PC and ending at
 * the first control-transfer instruction (or halt/iret/swic, which also
 * end dispatch regions), at an I-cache line boundary, or after
 * kMaxBlockWords instructions — whichever comes first. Because a block
 * never crosses a line boundary, one I-cache tag check at dispatch
 * validates every fetch in the block, and because nothing inside a
 * block can redirect the PC or mutate the I-cache, its per-instruction
 * bookkeeping (instruction counts, the one-cycle base cost, load-use
 * interlock stalls between in-block neighbours) is statically known and
 * applied as one batched add.
 *
 * Blocks are host-side memoization only: RunStats are byte-identical
 * with blocks on or off (tests/cpu/test_blocks.cc asserts it). A block
 * can start at any word, so its accounting is kept per word, in a
 * BlockMeta beside the word's decoded entry: in each I-cache frame
 * (cache/cache.h, rescanned after the frame's words change) and in the
 * handler RAM (scanned once at load). scanBlocks() computes a whole
 * window of them in one backward pass.
 */

#ifndef RTDC_ISA_BLOCKS_H
#define RTDC_ISA_BLOCKS_H

#include <cstdint>

#include "isa/predecode.h"

namespace rtd::isa {

/**
 * Upper bound on instructions per block: a 128-byte line, and the
 * width of BlockMeta::stallMask. Longer lines hold several blocks.
 */
constexpr uint32_t kMaxBlockWords = 32;

/**
 * True when @p d must be the last instruction of its block: anything
 * that can redirect the PC (branches, jumps, iret), end the run (halt),
 * or mutate the I-cache (swic — executing past one could run stale
 * copies of the very words it just replaced).
 */
bool endsBlock(const DecodedInst &d);

/**
 * Static accounting of the block entered at one word.
 *
 * stallMask bit i (i >= 1) is set when instruction i consumes the
 * destination of a load at instruction i-1 — the in-block load-use
 * stalls, whose count is internalStalls. Bit 0 is never set: the first
 * instruction's interlock depends on the state carried in from before
 * the block and is checked dynamically at dispatch.
 */
struct BlockMeta
{
    uint32_t stallMask = 0;     ///< in-block load-use stalls, bit-per-inst
    uint8_t len = 0;            ///< instructions in the block (>= 1)
    uint8_t internalStalls = 0; ///< popcount of stallMask
    uint8_t lastLoadDest = 0;   ///< interlock state after the last inst
    bool startsInvalid = false; ///< first word does not decode
};

/**
 * Compute the BlockMeta of every word of the window @p insts[0, n) into
 * @p out[0, n): entry i describes the block entered at word i, which
 * never runs past the window's end. One backward pass: a word that does
 * not end its block takes its successor's meta shifted by one, plus its
 * own load-use bit, capped at kMaxBlockWords.
 *
 * An undecodable word ends the block *before* itself (the
 * per-instruction path faults at its own fetch, so it must start a
 * block of its own); the undecodable word's own entry is a
 * one-instruction block flagged startsInvalid.
 *
 * @p swic_ends controls whether swic terminates a block. It must for
 * blocks fetched from the I-cache (a swic can overwrite the very words
 * the block copied), but handler-RAM blocks execute immutable text that
 * no swic can touch, so the decompressors' store-heavy inner loops stay
 * whole with swic_ends = false.
 */
void scanBlocks(const DecodedInst *insts, uint32_t n, BlockMeta *out,
                bool swic_ends);

} // namespace rtd::isa

#endif // RTDC_ISA_BLOCKS_H
