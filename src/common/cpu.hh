/**
 * @file
 * The instruction-set level the hot kernels run at, probed once per
 * process.
 *
 * A kernel that gains from newer x86-64 instructions (the chip's
 * layer step, snn::packed's dot loop) is built as ordinary functions,
 * one per level, each marked with a SUSHI_TARGET_* attribute; the
 * scalar levels share one always-inline source, so only code
 * generation differs. The caller picks a function through hostIsa()
 * once (keep the result in a function-local static) and calls it for
 * a whole loop, never per element. There is no ifunc resolver, so
 * sanitizer builds run the same dispatch as release builds. Non-x86-64
 * builds have only Isa::Default.
 */

#ifndef SUSHI_COMMON_CPU_HH
#define SUSHI_COMMON_CPU_HH

namespace sushi {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SUSHI_X86_KERNELS 1
/** The POPCNT instruction. */
#define SUSHI_TARGET_POPCNT __attribute__((target("popcnt")))
/** AVX-512 F/BW/VL with the vector popcount (VPOPCNTDQ). */
#define SUSHI_TARGET_AVX512                                          \
    __attribute__((target(                                           \
        "popcnt,avx512f,avx512bw,avx512vl,avx512vpopcntdq")))
#endif

/** Kernel instruction-set levels, each a superset of the last. */
enum class Isa
{
    Default, ///< whatever the build's -march allows
    Popcnt,  ///< + POPCNT
    Avx512,  ///< + AVX-512 F/BW/VL and VPOPCNTDQ
};

/** The highest level this CPU (and its OS) runs. */
inline Isa
hostIsa()
{
    static const Isa isa = [] {
#ifdef SUSHI_X86_KERNELS
        // Every feature the Avx512 kernels are compiled for; GCC's
        // and Clang's probes also require the OS to save the ZMM
        // state.
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512bw") &&
            __builtin_cpu_supports("avx512vl") &&
            __builtin_cpu_supports("avx512vpopcntdq") &&
            __builtin_cpu_supports("popcnt"))
            return Isa::Avx512;
        if (__builtin_cpu_supports("popcnt"))
            return Isa::Popcnt;
#endif
        return Isa::Default;
    }();
    return isa;
}

} // namespace sushi

#endif // SUSHI_COMMON_CPU_HH
