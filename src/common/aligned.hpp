#pragma once

/**
 * @file
 * Over-aligned storage for dense operands.  The SIMD kernels in
 * src/kernels issue wide loads/stores against DenseMatrix rows; giving
 * the backing allocation cache-line alignment keeps the first row of
 * every matrix on a 64-byte boundary (rows after the first are aligned
 * whenever cols * sizeof(Value) is a multiple of the alignment, e.g.
 * K = 16 or 32 floats) and guarantees vector loads never straddle a
 * page for the aligned-K fast paths.
 */

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace hottiles {

/** Cache-line alignment used for dense matrix storage. */
inline constexpr std::size_t kDenseAlign = 64;

/**
 * Minimal std::allocator drop-in returning @p Align-aligned memory.
 * Propagates through std::vector; equality is stateless.  Construction
 * without arguments default-initializes, so `std::vector<T, A>(n)`
 * leaves trivial elements uninitialized (DenseMatrix::uninitialized);
 * a value-filling constructor still writes every element.
 */
template <typename T, std::size_t Align = kDenseAlign>
class AlignedAllocator
{
  public:
    using value_type = T;
    static constexpr std::align_val_t kAlign{Align};

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T* allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }

    void deallocate(T* p, std::size_t) noexcept
    {
        ::operator delete(p, kAlign);
    }

    template <typename U>
    void construct(U* p)
    {
        ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }

    friend bool operator==(const AlignedAllocator&, const AlignedAllocator&)
    {
        return true;
    }
    friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&)
    {
        return false;
    }
};

/** True when @p p sits on a @p align-byte boundary. */
inline bool
isAligned(const void* p, std::size_t align = kDenseAlign)
{
    return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

} // namespace hottiles
