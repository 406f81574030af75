/**
 * @file
 * Small-buffer, non-allocating move-only callable.
 *
 * The event kernel and the L2/ring one-shot callbacks capture at most
 * a few pointers plus a BusRequest; std::function heap-allocates once
 * the capture exceeds its (implementation-defined, typically 16-byte)
 * inline buffer, which put an allocation on every transaction. An
 * InplaceFunction stores the callable inline and refuses — at compile
 * time — anything that does not fit, so the per-reference path stays
 * allocation-free by construction.
 */

#ifndef CMPCACHE_COMMON_INPLACE_FUNCTION_HH
#define CMPCACHE_COMMON_INPLACE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cmpcache
{

template <typename Sig, std::size_t N = 48>
class InplaceFunction;

template <typename R, typename... Args, std::size_t N>
class InplaceFunction<R(Args...), N>
{
  public:
    /** Does a callable of type F fit in this InplaceFunction? */
    template <typename F>
    static constexpr bool fits =
        sizeof(F) <= N && alignof(F) <= alignof(std::max_align_t)
        && std::is_nothrow_move_constructible_v<F>;

    InplaceFunction() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InplaceFunction>>>
    InplaceFunction(F &&f) // NOLINT: implicit like std::function
    {
        emplace(std::forward<F>(f));
    }

    InplaceFunction(InplaceFunction &&other) noexcept { steal(other); }

    /**
     * Destroy the held callable, if any, and construct @p f in the
     * buffer in its place (no temporary, no move).
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable signature mismatch");
        static_assert(sizeof(Fn) <= N,
                      "capture too large for this InplaceFunction; "
                      "raise N or capture less");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "capture over-aligned for the inline buffer");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "captures must be nothrow-movable");
        reset();
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        invoke_ = [](void *b, Args... args) -> R {
            return (*static_cast<Fn *>(b))(
                std::forward<Args>(args)...);
        };
        manage_ = [](void *dst, void *src) {
            if (src) // move src into dst, then destroy src
                ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            Fn *victim = static_cast<Fn *>(src ? src : dst);
            victim->~Fn();
        };
    }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            steal(other);
        }
        return *this;
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        return invoke_(buf_, std::forward<Args>(args)...);
    }

    void
    reset()
    {
        if (manage_) {
            manage_(buf_, nullptr); // destroy in place
            manage_ = nullptr;
            invoke_ = nullptr;
        }
    }

  private:
    void
    steal(InplaceFunction &other) noexcept
    {
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        if (other.manage_) {
            other.manage_(buf_, other.buf_); // move + destroy source
            other.manage_ = nullptr;
            other.invoke_ = nullptr;
        }
    }

    using Invoke = R (*)(void *, Args...);
    /** manage(dst, src): src != null → move src into dst and destroy
     *  src; src == null → destroy dst. */
    using Manage = void (*)(void *, void *);

    alignas(std::max_align_t) unsigned char buf_[N];
    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
};

} // namespace cmpcache

#endif // CMPCACHE_COMMON_INPLACE_FUNCTION_HH
