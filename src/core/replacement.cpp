#include "core/replacement.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/log.hpp"

namespace utlb::core {

using mem::Vpn;
using sim::fatal;
using sim::panic;

PolicyKind
policyFromName(const std::string &name)
{
    if (name == "lru")
        return PolicyKind::Lru;
    if (name == "mru")
        return PolicyKind::Mru;
    if (name == "lfu")
        return PolicyKind::Lfu;
    if (name == "mfu")
        return PolicyKind::Mfu;
    if (name == "fifo")
        return PolicyKind::Fifo;
    if (name == "random")
        return PolicyKind::Random;
    fatal("unknown replacement policy '%s'", name.c_str());
}

const char *
toString(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru:    return "LRU";
      case PolicyKind::Mru:    return "MRU";
      case PolicyKind::Lfu:    return "LFU";
      case PolicyKind::Mfu:    return "MFU";
      case PolicyKind::Fifo:   return "FIFO";
      case PolicyKind::Random: return "RANDOM";
    }
    return "?";
}

namespace {

/**
 * Recency-ordered policy core shared by LRU, MRU, and FIFO.
 *
 * The recency list is an intrusive doubly-linked list threaded
 * through a flat array of per-vpn nodes, indexed directly by vpn:
 * no hashing on the access path, and a chain of consecutively
 * ordered vpns (the common case after a sequential buffer touch)
 * can be re-spliced to the tail as one segment. Node storage is
 * paged in fixed chunks — dense chunk pointers for the low vpn
 * range, a sparse map beyond it — so huge or scattered address
 * spaces don't inflate memory.
 *
 * Links are stored complemented, so an all-zero node is untracked
 * with nil links. A chunk comes from calloc and no constructor fills
 * it: memory calloc takes fresh from the host is already zero, and
 * calloc does not memset it.
 */
class RecencyPolicy : public ReplacementPolicy
{
  public:
    explicit RecencyPolicy(PolicyKind k) : policyKind(k) {}

    void
    onInsert(Vpn vpn) override
    {
        Node &n = nodeFor(vpn);
        if (n.tracked)
            panic("policy onInsert of tracked page");
        n.tracked = true;
        linkTail(vpn, n);
        ++numTracked;
    }

    void
    onAccess(Vpn vpn) override
    {
        if (policyKind == PolicyKind::Fifo)
            return;  // FIFO ignores accesses
        Node *n = nodeIf(vpn);
        if (!n || !n->tracked)
            return;
        if (tail == vpn)
            return;  // already most recent
        unlink(*n);
        linkTail(vpn, *n);
    }

    void
    onAccessRange(Vpn start, std::size_t npages) override
    {
        if (policyKind == PolicyKind::Fifo || npages == 0)
            return;
        if (npages > 1 && isChain(start, npages)) {
            spliceChainToTail(start, start + npages - 1);
            return;
        }
        for (std::size_t i = 0; i < npages; ++i)
            onAccess(start + i);
    }

    void
    onRemove(Vpn vpn) override
    {
        Node *n = nodeIf(vpn);
        if (!n || !n->tracked)
            return;
        unlink(*n);
        n->tracked = false;
        n->setPrev(kNil);
        n->setNext(kNil);
        --numTracked;
    }

    std::optional<Vpn>
    victim(const Evictable &ok) const override
    {
        if (policyKind == PolicyKind::Mru) {
            for (Vpn vpn = tail; vpn != kNil; vpn = nodeIf(vpn)->prev()) {
                if (!ok || ok(vpn))
                    return vpn;
            }
        } else {
            for (Vpn vpn = head; vpn != kNil; vpn = nodeIf(vpn)->next()) {
                if (!ok || ok(vpn))
                    return vpn;
            }
        }
        return std::nullopt;
    }

    std::size_t size() const override { return numTracked; }

    bool
    contains(Vpn vpn) const override
    {
        const Node *n = nodeIf(vpn);
        return n && n->tracked;
    }

    PolicyKind kind() const override { return policyKind; }

  private:
    static constexpr Vpn kNil = ~Vpn{0};
    static constexpr std::size_t kChunkPages = 4096;
    //! vpns below kDenseChunks * kChunkPages get dense chunk slots.
    static constexpr std::size_t kDenseChunks = 4096;

    /** A list node; all zero bytes read as untracked, nil links. */
    struct Node {
        Vpn notPrev;  //!< ~prev
        Vpn notNext;  //!< ~next
        bool tracked;

        Vpn prev() const { return ~notPrev; }
        Vpn next() const { return ~notNext; }
        void setPrev(Vpn v) { notPrev = ~v; }
        void setNext(Vpn v) { notNext = ~v; }
    };
    static_assert(std::is_trivial_v<Node>,
                  "a calloc'd chunk must hold valid nodes");

    struct FreeChunk {
        void operator()(Node *chunk) const { std::free(chunk); }
    };
    /** kChunkPages nodes. */
    using Chunk = std::unique_ptr<Node[], FreeChunk>;

    static Chunk
    newChunk()
    {
        auto *nodes =
            static_cast<Node *>(std::calloc(kChunkPages, sizeof(Node)));
        if (!nodes)
            throw std::bad_alloc();
        return Chunk(nodes);
    }

    const Node *
    nodeIf(Vpn vpn) const
    {
        std::size_t c = vpn / kChunkPages;
        if (c < kDenseChunks) {
            if (c >= dense.size() || !dense[c])
                return nullptr;
            return &dense[c][vpn % kChunkPages];
        }
        auto it = sparse.find(c);
        if (it == sparse.end())
            return nullptr;
        return &it->second[vpn % kChunkPages];
    }

    Node *
    nodeIf(Vpn vpn)
    {
        return const_cast<Node *>(
            static_cast<const RecencyPolicy *>(this)->nodeIf(vpn));
    }

    Node &
    nodeFor(Vpn vpn)
    {
        std::size_t c = vpn / kChunkPages;
        if (c < kDenseChunks) {
            if (c >= dense.size())
                dense.resize(c + 1);
            if (!dense[c])
                dense[c] = newChunk();
            return dense[c][vpn % kChunkPages];
        }
        auto &chunk = sparse[c];
        if (!chunk)
            chunk = newChunk();
        return chunk[vpn % kChunkPages];
    }

    void
    unlink(Node &n)
    {
        if (n.prev() != kNil)
            nodeIf(n.prev())->setNext(n.next());
        else
            head = n.next();
        if (n.next() != kNil)
            nodeIf(n.next())->setPrev(n.prev());
        else
            tail = n.prev();
    }

    void
    linkTail(Vpn vpn, Node &n)
    {
        n.setPrev(tail);
        n.setNext(kNil);
        if (tail != kNil)
            nodeIf(tail)->setNext(vpn);
        else
            head = vpn;
        tail = vpn;
    }

    /**
     * True if [start, start + npages) are all tracked and already
     * linked consecutively (node[v].next == v + 1 for every v but the
     * last). List links only reference tracked nodes, so checking the
     * first node's tracked flag covers the whole run.
     */
    bool
    isChain(Vpn start, std::size_t npages) const
    {
        const Node *n = nodeIf(start);
        if (!n || !n->tracked)
            return false;
        for (Vpn v = start; v + 1 < start + npages; ++v) {
            if (n->next() != v + 1)
                return false;
            n = nodeIf(v + 1);
        }
        return true;
    }

    /**
     * Move the already-chained segment [first, last] to the list
     * tail in O(1). Equivalent to touching first..last in order:
     * both produce [everything else in prior order] ++ [first..last].
     */
    void
    spliceChainToTail(Vpn first, Vpn last)
    {
        if (tail == last)
            return;  // segment already ends the list
        Node *f = nodeIf(first);
        Node *l = nodeIf(last);
        if (f->prev() != kNil)
            nodeIf(f->prev())->setNext(l->next());
        else
            head = l->next();
        // l->next() != kNil since tail != last
        nodeIf(l->next())->setPrev(f->prev());
        f->setPrev(tail);
        l->setNext(kNil);
        if (tail != kNil)
            nodeIf(tail)->setNext(first);
        else
            head = first;
        tail = last;
    }

    PolicyKind policyKind;
    Vpn head = kNil;    //!< least recent
    Vpn tail = kNil;    //!< most recent
    std::size_t numTracked = 0;
    std::vector<Chunk> dense;
    std::unordered_map<std::size_t, Chunk> sparse;
};

/** Frequency-ordered policy core shared by LFU and MFU. */
class FrequencyPolicy : public ReplacementPolicy
{
  public:
    explicit FrequencyPolicy(PolicyKind k) : policyKind(k) {}

    void
    onInsert(Vpn vpn) override
    {
        if (pages.count(vpn))
            panic("policy onInsert of tracked page");
        pages.emplace(vpn, Info{1, nextStamp++});
    }

    void
    onAccess(Vpn vpn) override
    {
        auto it = pages.find(vpn);
        if (it == pages.end())
            return;
        ++it->second.freq;
        it->second.stamp = nextStamp++;
    }

    void onRemove(Vpn vpn) override { pages.erase(vpn); }

    std::optional<Vpn>
    victim(const Evictable &ok) const override
    {
        // Ties in frequency break toward the least recently used so
        // LFU degrades to LRU on uniform access, which is the
        // conventional definition.
        bool found = false;
        Vpn best = 0;
        Info best_info{};
        for (const auto &[vpn, info] : pages) {
            if (ok && !ok(vpn))
                continue;
            bool better;
            if (!found) {
                better = true;
            } else if (policyKind == PolicyKind::Lfu) {
                better = info.freq < best_info.freq
                    || (info.freq == best_info.freq
                        && info.stamp < best_info.stamp);
            } else {
                better = info.freq > best_info.freq
                    || (info.freq == best_info.freq
                        && info.stamp < best_info.stamp);
            }
            if (better) {
                found = true;
                best = vpn;
                best_info = info;
            }
        }
        if (!found)
            return std::nullopt;
        return best;
    }

    std::size_t size() const override { return pages.size(); }

    bool contains(Vpn vpn) const override { return pages.count(vpn) > 0; }

    PolicyKind kind() const override { return policyKind; }

  private:
    struct Info {
        std::uint64_t freq;
        std::uint64_t stamp;
    };

    PolicyKind policyKind;
    std::unordered_map<Vpn, Info> pages;
    std::uint64_t nextStamp = 0;
};

/** Uniform random victim selection with a seeded generator. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed) : rng(seed) {}

    void
    onInsert(Vpn vpn) override
    {
        if (slot.count(vpn))
            panic("policy onInsert of tracked page");
        slot.emplace(vpn, pages.size());
        pages.push_back(vpn);
    }

    void onAccess(Vpn) override {}

    void onAccessRange(Vpn, std::size_t) override {}

    void
    onRemove(Vpn vpn) override
    {
        auto it = slot.find(vpn);
        if (it == slot.end())
            return;
        std::size_t i = it->second;
        slot.erase(it);
        Vpn last = pages.back();
        pages.pop_back();
        if (i < pages.size()) {
            pages[i] = last;
            slot[last] = i;
        }
    }

    std::optional<Vpn>
    victim(const Evictable &ok) const override
    {
        if (pages.empty())
            return std::nullopt;
        // Random probing; falls back to a linear scan from a random
        // start so a mostly-locked set still terminates.
        std::size_t start = rng.below(pages.size());
        for (std::size_t i = 0; i < pages.size(); ++i) {
            Vpn vpn = pages[(start + i) % pages.size()];
            if (!ok || ok(vpn))
                return vpn;
        }
        return std::nullopt;
    }

    std::size_t size() const override { return pages.size(); }

    bool contains(Vpn vpn) const override { return slot.count(vpn) > 0; }

    PolicyKind kind() const override { return PolicyKind::Random; }

  private:
    mutable sim::Rng rng;
    std::vector<Vpn> pages;
    std::unordered_map<Vpn, std::size_t> slot;
};

} // namespace

std::unique_ptr<ReplacementPolicy>
ReplacementPolicy::create(PolicyKind kind, std::uint64_t seed)
{
    switch (kind) {
      case PolicyKind::Lru:
      case PolicyKind::Mru:
      case PolicyKind::Fifo:
        return std::make_unique<RecencyPolicy>(kind);
      case PolicyKind::Lfu:
      case PolicyKind::Mfu:
        return std::make_unique<FrequencyPolicy>(kind);
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(seed);
    }
    panic("unreachable policy kind");
}

} // namespace utlb::core
