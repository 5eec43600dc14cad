/**
 * @file
 * LineMap: a flat hash table keyed by a 64-bit line address (or any
 * 64-bit id), for the per-line metadata on the per-access path.
 *
 * The protocols look up per-(core, line) and per-line state on every
 * hit, miss, invalidation and persist; std::unordered_map pays one
 * heap node per insert and a pointer chase per lookup.  LineMap splits
 * the table in two:
 *
 *  - an index of (key, slot) pairs with open addressing, linear
 *    probing and backward-shift erase (no tombstones), grown by
 *    doubling at 3/4 load;
 *  - a slab of value slots in fixed-size chunks that never move or
 *    shrink, recycled through a free list.
 *
 * Values therefore live in stable slots: a reference to one value
 * survives inserts and erases of *other* keys, including index growth
 * (the protocols rely on this, e.g. SLC's upgrade keeps `Node *n`
 * across `insertResident(core, line, t)`, whose victim may unlink
 * another of the core's nodes).  Steady-state inserts and erases do not
 * touch the allocator; memory grows to the peak population and stays.
 *
 * LineMap is lookup-only: it offers no iteration.  Maps whose
 * iteration order feeds the simulation therefore stay
 * std::unordered_map, so fixed-seed stats keep their bytes:
 * AtomicGroup::members (TsoperEngine::onGranted streams lines to the
 * AGB in its order), the engines' crash overlays, and Nvm::image_
 * (part of the public API).
 */

#ifndef TSOPER_SIM_LINE_MAP_HH
#define TSOPER_SIM_LINE_MAP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace tsoper
{

template <typename V>
class LineMap
{
  public:
    LineMap() = default;
    LineMap(const LineMap &) = delete;
    LineMap &operator=(const LineMap &) = delete;

    LineMap(LineMap &&other) noexcept { swap(other); }

    LineMap &
    operator=(LineMap &&other) noexcept
    {
        LineMap(std::move(other)).swap(*this);
        return *this;
    }

    ~LineMap()
    {
        for (const Bucket &b : index_) {
            if (b.slot != emptySlot)
                slot(b.slot).value()->~V();
        }
    }

    void
    swap(LineMap &other) noexcept
    {
        index_.swap(other.index_);
        chunks_.swap(other.chunks_);
        freeSlots_.swap(other.freeSlots_);
        std::swap(size_, other.size_);
        std::swap(mask_, other.mask_);
        std::swap(shift_, other.shift_);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    V *
    find(LineAddr key)
    {
        const std::size_t i = locate(key);
        return i == npos ? nullptr : slot(index_[i].slot).value();
    }

    const V *
    find(LineAddr key) const
    {
        return const_cast<LineMap *>(this)->find(key);
    }

    bool contains(LineAddr key) const { return locate(key) != npos; }

    /** The value for @p key, constructed from @p args if absent.
     *  @return the value and whether it was inserted. */
    template <typename... Args>
    std::pair<V *, bool>
    tryEmplace(LineAddr key, Args &&...args)
    {
        if ((size_ + 1) * 4 > index_.size() * 3)
            grow();
        std::size_t i = home(key);
        while (index_[i].slot != emptySlot) {
            if (index_[i].key == key)
                return {slot(index_[i].slot).value(), false};
            i = (i + 1) & mask_;
        }
        const std::uint32_t s = allocSlot();
        V *v = ::new (slot(s).storage) V(std::forward<Args>(args)...);
        index_[i] = Bucket{key, s};
        ++size_;
        return {v, true};
    }

    /** The value for @p key, value-initialized if absent. */
    V &operator[](LineAddr key) { return *tryEmplace(key).first; }

    /** Erase @p key. @return whether it was present. */
    bool
    erase(LineAddr key)
    {
        std::size_t i = locate(key);
        if (i == npos)
            return false;
        const std::uint32_t s = index_[i].slot;
        slot(s).value()->~V();
        freeSlots_.push_back(s);
        --size_;
        // Backward-shift: pull later members of the probe run into the
        // hole unless that would move them before their home bucket.
        for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
            if (index_[j].slot == emptySlot)
                break;
            const std::size_t h = home(index_[j].key);
            if (((j - h) & mask_) < ((j - i) & mask_))
                continue; // Home lies in (i, j]: stays put.
            index_[i] = index_[j];
            i = j;
        }
        index_[i].slot = emptySlot;
        return true;
    }

  private:
    static constexpr std::uint32_t emptySlot = ~std::uint32_t{0};
    static constexpr std::size_t npos = ~std::size_t{0};
    static constexpr std::size_t minBuckets = 16;
    /** Slots per slab chunk: a power of two (the slot index splits
     *  with a shift), about 4 KiB of values and at least 8. */
    static constexpr std::size_t
    chunkSlotsFor(std::size_t valueBytes)
    {
        std::size_t n = 8;
        while (n * 2 * valueBytes <= 4096)
            n *= 2;
        return n;
    }
    static constexpr std::size_t chunkSlots = chunkSlotsFor(sizeof(V));

    struct Bucket
    {
        LineAddr key = 0;
        std::uint32_t slot = emptySlot;
    };

    struct Slot
    {
        alignas(V) std::byte storage[sizeof(V)];
        V *value() { return std::launder(reinterpret_cast<V *>(storage)); }
    };

    std::size_t
    home(LineAddr key) const
    {
        // Fibonacci hashing: line addresses are often sequential or
        // strided, so take the well-mixed high bits of the product.
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    std::size_t
    locate(LineAddr key) const
    {
        if (size_ == 0)
            return npos;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (index_[i].slot == emptySlot)
                return npos;
            if (index_[i].key == key)
                return i;
        }
    }

    Slot &
    slot(std::uint32_t s)
    {
        return chunks_[s / chunkSlots][s % chunkSlots];
    }

    std::uint32_t
    allocSlot()
    {
        if (freeSlots_.empty()) {
            const std::size_t base = chunks_.size() * chunkSlots;
            // Default-initialized: slots are raw storage until used.
            chunks_.push_back(std::unique_ptr<Slot[]>(new Slot[chunkSlots]));
            freeSlots_.reserve(chunks_.size() * chunkSlots);
            // Hand slots out lowest-first.
            for (std::size_t k = chunkSlots; k-- > 0;)
                freeSlots_.push_back(static_cast<std::uint32_t>(base + k));
        }
        const std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        return s;
    }

    void
    grow()
    {
        const std::size_t buckets =
            index_.empty() ? minBuckets : index_.size() * 2;
        std::vector<Bucket> old(buckets);
        old.swap(index_);
        mask_ = buckets - 1;
        shift_ = 64;
        for (std::size_t b = buckets; b > 1; b >>= 1)
            --shift_;
        for (const Bucket &b : old) {
            if (b.slot == emptySlot)
                continue;
            std::size_t i = home(b.key);
            while (index_[i].slot != emptySlot)
                i = (i + 1) & mask_;
            index_[i] = b;
        }
    }

    std::vector<Bucket> index_;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::vector<std::uint32_t> freeSlots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

/** Value type of a LineMap used as a set of lines. */
struct LineSetTag
{
};

using LineSet = LineMap<LineSetTag>;

} // namespace tsoper

#endif // TSOPER_SIM_LINE_MAP_HH
