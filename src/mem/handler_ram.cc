#include "mem/handler_ram.h"

#include "support/logging.h"

namespace rtd::mem {

void
HandlerRam::load(const std::vector<uint32_t> &code)
{
    code_ = code;
    decoded_.resize(code_.size());
    for (size_t i = 0; i < code_.size(); ++i)
        decoded_[i] = isa::predecode(code_[i]);
    // Handler code is static, so its blocks are scanned once, here: a
    // block is reachable from any word (branch targets are not known
    // ahead of execution), so every word gets one.
    // swic_ends = false: handler text is immutable, so the store-heavy
    // decompression loops run as whole blocks across their swics.
    blockMeta_.resize(code_.size());
    isa::scanBlocks(decoded_.data(), static_cast<uint32_t>(code_.size()),
                    blockMeta_.data(), /*swic_ends=*/false);
}

} // namespace rtd::mem
