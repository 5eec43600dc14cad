/**
 * @file
 * Callback<Sig, Capacity>: a move-only, allocation-free replacement
 * for std::function on the per-access path; InlineCallback is the
 * event kernel's `void()` instance.
 *
 * std::function heap-allocates any capture larger than its small
 * buffer (16 bytes on libstdc++) — and nearly every event and
 * completion in this simulator captures at least (this, line,
 * continuation), so a load or store paid several malloc/free pairs.
 * Callback stores the callable in fixed in-place storage of
 * `Capacity` bytes, a compile-time constant chosen per use (e.g.
 * CoherenceProtocol::LoadDone, LineSerializer::Body).  A capture that
 * does not fit is a compile error, not a silent allocation: grow the
 * capacity deliberately or shrink the capture.
 *
 * Being move-only, a completion is *moved* along its path — load() ->
 * transaction body -> reply leg — and never copied.  Nesting costs
 * storage: a callable that captures a Callback needs that Callback's
 * whole sizeof(), capacity + 8 bytes.  InlineCallback::capacity (120
 * bytes) bounds every scheduled event; the largest are Nvm::write's
 * completion (this + line + a cacheline of words + its done + a cycle)
 * and Llc::accessAsync's (a cycle + a memory fill's continuation).
 */

#ifndef TSOPER_SIM_CALLBACK_HH
#define TSOPER_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tsoper
{

template <typename Sig, std::size_t Capacity>
class Callback;

template <typename R, typename... Args, std::size_t Capacity>
class Callback<R(Args...), Capacity>
{
  public:
    /** In-place storage, in bytes; see canHold<F>. */
    static constexpr std::size_t capacity = Capacity;

    /** Storage alignment: pointer-sized, so a Callback nested in a
     *  capture costs exactly capacity + 8 bytes, with no padding. */
    static constexpr std::size_t alignment = alignof(void *);

    /** Whether a callable of type @p F fits the in-place storage;
     *  the constructor static_asserts this, tests assert both ways. */
    template <typename F>
    static constexpr bool canHold =
        sizeof(std::decay_t<F>) <= capacity &&
        alignof(std::decay_t<F>) <= alignment;

    Callback() = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, Callback> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    Callback(F &&fn) // NOLINT: implicit, mirrors std::function
    {
        static_assert(sizeof(D) <= capacity,
                      "lambda capture exceeds the Callback's capacity; "
                      "shrink the capture or grow the storage "
                      "deliberately (sim/callback.hh)");
        static_assert(alignof(D) <= alignment,
                      "over-aligned capture in Callback");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "Callback requires nothrow-movable callables "
                      "(events relocate between buckets)");
        ::new (static_cast<void *>(storage_)) D(std::forward<F>(fn));
        ops_ = &OpsImpl<D>::ops;
    }

    Callback(Callback &&other) noexcept { moveFrom(std::move(other)); }

    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(std::move(other));
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    R
    operator()(Args... args)
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return ops_ != nullptr; }

  private:
    struct Ops
    {
        R (*invoke)(void *self, Args &&...args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename D>
    struct OpsImpl
    {
        static R
        invoke(void *self, Args &&...args)
        {
            return (*static_cast<D *>(self))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *src, void *dst) noexcept
        {
            ::new (dst) D(std::move(*static_cast<D *>(src)));
            static_cast<D *>(src)->~D();
        }
        static void
        destroy(void *self) noexcept
        {
            static_cast<D *>(self)->~D();
        }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    void
    moveFrom(Callback &&other) noexcept
    {
        if (other.ops_) {
            other.ops_->relocate(other.storage_, storage_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    alignas(alignment) std::byte storage_[capacity];
    const Ops *ops_ = nullptr;
};

/** The event kernel's callback: every scheduled event is one. */
using InlineCallback = Callback<void(), 120>;

} // namespace tsoper

#endif // TSOPER_SIM_CALLBACK_HH
