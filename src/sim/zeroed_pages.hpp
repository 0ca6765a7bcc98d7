/**
 * @file
 * Zero-filled byte stores that cost nothing until written.
 */

#ifndef UTLB_SIM_ZEROED_PAGES_HPP
#define UTLB_SIM_ZEROED_PAGES_HPP

#include <cstddef>
#include <cstdint>

namespace utlb::sim {

/**
 * An anonymous private mapping of @p bytes zeros, unmapped on
 * destruction. The host OS hands its pages out zeroed on first
 * touch, so a page nothing has written is never memset and never
 * resident, whatever the size. (A calloc'd block of the same size
 * does not promise that: below glibc's dynamic mmap threshold it
 * reuses freed heap memory and memsets all of it.)
 *
 * Bytes written once stay written: a store that reuses them must
 * zero them itself.
 */
class ZeroedPages
{
  public:
    /** Map @p bytes zero bytes; none for 0. Fatal if the host
     *  refuses the mapping. */
    explicit ZeroedPages(std::size_t bytes);
    ~ZeroedPages();

    ZeroedPages(ZeroedPages &&other) noexcept;
    ZeroedPages &operator=(ZeroedPages &&other) noexcept;
    ZeroedPages(const ZeroedPages &) = delete;
    ZeroedPages &operator=(const ZeroedPages &) = delete;

    std::uint8_t *data() const { return base; }
    std::size_t size() const { return len; }
    std::uint8_t &operator[](std::size_t i) const { return base[i]; }

  private:
    std::uint8_t *base = nullptr;
    std::size_t len = 0;
};

} // namespace utlb::sim

#endif // UTLB_SIM_ZEROED_PAGES_HPP
