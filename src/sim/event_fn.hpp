// Small-buffer-optimized, move-only callable for the simulator hot path.
//
// Every closure the emulated testbed schedules — packet deliveries, link
// serialization completions, RRC timers, charging boundaries — fits the
// 48-byte inline buffer, so the event loop never touches the heap per
// event. Larger captures (only seen in tests) fall back to a single heap
// allocation, preserving std::function-like generality.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tlc::sim {

class EventFn {
 public:
  /// Largest capture stored inline. Chosen to cover every closure in the
  /// tree (max today: the eNodeB's [this, Served{Imsi, Packet}] and
  /// [this, Packet, context] at 48 bytes) while keeping sizeof(EventFn)
  /// at one cache line.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    init(std::forward<F>(fn));
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(storage_); }

  /// Destroys the held callable (if any) and returns to the empty state.
  void reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op { kDestroy, kMove };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* dst, void* src);

  template <typename F>
  struct InlineHandler {
    static void invoke(void* s) { (*std::launder(reinterpret_cast<F*>(s)))(); }
    static void manage(Op op, void* dst, void* src) {
      if (op == Op::kDestroy) {
        std::launder(reinterpret_cast<F*>(dst))->~F();
      } else {
        F* from = std::launder(reinterpret_cast<F*>(src));
        ::new (dst) F(std::move(*from));
        from->~F();
      }
    }
  };

  template <typename F>
  struct HeapHandler {
    static F*& ptr(void* s) { return *std::launder(reinterpret_cast<F**>(s)); }
    static void invoke(void* s) { (*ptr(s))(); }
    static void manage(Op op, void* dst, void* src) {
      if (op == Op::kDestroy) {
        delete ptr(dst);
      } else {
        ::new (dst) F*(ptr(src));
      }
    }
  };

  template <typename F>
  void init(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
                  std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      // Trivial inline: moved by memcpy, destroyed for free. This is the
      // hot case — plain lambdas capturing pointers and PODs.
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      invoke_ = &InlineHandler<D>::invoke;
      manage_ = nullptr;
    } else if constexpr (sizeof(D) <= kInlineSize &&
                         alignof(D) <= kInlineAlign &&
                         std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      invoke_ = &InlineHandler<D>::invoke;
      manage_ = &InlineHandler<D>::manage;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      invoke_ = &HeapHandler<D>::invoke;
      manage_ = &HeapHandler<D>::manage;
    }
  }

  void move_from(EventFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_ != nullptr) {
      if (manage_ == nullptr) {
        std::memcpy(storage_, other.storage_, kInlineSize);
      } else {
        manage_(Op::kMove, storage_, other.storage_);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize] = {};
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
};

}  // namespace tlc::sim
