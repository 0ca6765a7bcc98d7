#include "sim/zeroed_pages.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "sim/log.hpp"

namespace utlb::sim {

ZeroedPages::ZeroedPages(std::size_t bytes) : len(bytes)
{
    if (bytes == 0)
        return;
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        panic("cannot map %zu zeroed bytes: %s", bytes, std::strerror(errno));
    base = static_cast<std::uint8_t *>(p);
}

ZeroedPages::~ZeroedPages()
{
    if (base)
        munmap(base, len);
}

ZeroedPages::ZeroedPages(ZeroedPages &&other) noexcept
    : base(std::exchange(other.base, nullptr)),
      len(std::exchange(other.len, 0))
{
}

ZeroedPages &
ZeroedPages::operator=(ZeroedPages &&other) noexcept
{
    if (this != &other) {
        if (base)
            munmap(base, len);
        base = std::exchange(other.base, nullptr);
        len = std::exchange(other.len, 0);
    }
    return *this;
}

} // namespace utlb::sim
