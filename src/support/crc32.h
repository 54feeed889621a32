/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used for the
 * optional per-line/per-group integrity metadata of compressed images
 * (DESIGN.md section 12), the serve journal's record frames and the
 * disk store's blob trailers. Dependency-free and table-driven; the
 * tables are computed at compile time, so nothing runs at start-up.
 *
 * Buffers go through slicing-by-8: eight table lookups fold eight bytes
 * per step instead of one lookup per byte. The values are the bytewise
 * ones (tests/support/test_crc32.cc pins them against each other).
 */

#ifndef RTDC_SUPPORT_CRC32_H
#define RTDC_SUPPORT_CRC32_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace rtd {

namespace detail {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/** tables[0] is the bytewise table; tables[k][i] is the CRC state of
 *  byte i followed by k zero bytes, which is what slicing-by-8 folds. */
constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
        tables[0][i] = crc;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
        }
    }
    return tables;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/** Four bytes as a little-endian word, whatever the host order. */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

} // namespace detail

/** Incremental CRC-32 over a byte stream. */
class Crc32
{
  public:
    void
    update(uint8_t byte)
    {
        state_ = (state_ >> 8) ^
                 detail::kCrc32Tables[0][(state_ ^ byte) & 0xffu];
    }

    void
    update(const uint8_t *data, size_t size)
    {
        const auto &t = detail::kCrc32Tables;
        for (; size >= 8; data += 8, size -= 8) {
            uint32_t lo = state_ ^ detail::loadLe32(data);
            uint32_t hi = detail::loadLe32(data + 4);
            state_ = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
                     t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
                     t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
                     t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
        }
        for (size_t i = 0; i < size; ++i)
            update(data[i]);
    }

    /** Feed one 32-bit word as its four little-endian bytes. */
    void
    updateWord(uint32_t word)
    {
        update(static_cast<uint8_t>(word));
        update(static_cast<uint8_t>(word >> 8));
        update(static_cast<uint8_t>(word >> 16));
        update(static_cast<uint8_t>(word >> 24));
    }

    uint32_t value() const { return ~state_; }

  private:
    uint32_t state_ = 0xFFFFFFFFu;
};

/** One-shot CRC-32 of a byte buffer. */
inline uint32_t
crc32(const uint8_t *data, size_t size)
{
    Crc32 crc;
    crc.update(data, size);
    return crc.value();
}

} // namespace rtd

#endif // RTDC_SUPPORT_CRC32_H
