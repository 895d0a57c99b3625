"""The native kernel library (GF(2^8) and CRC-32) and the backend seam.

One GF entry point, ``repro_gf_apply``, computes ``ops @ stack(inputs)``
for an ``(nrows, ncols)`` op table: 0 skips a column, 1 XORs it in,
any other value multiplies by that coefficient.  It walks the output
rows in groups of four.  Per chunk of the block it loads each live
column once, folds it into every group row's register accumulator by
that row's op, and stores each output byte once.  XOR columns ride the
multiplies' loads, so a local parity plus a global one is a single
pass, with no numpy XOR stage and no zero fill.

The kernel has three tiers.  ``repro_gf_simd_tier`` picks the best the
CPU runs, once, by ``__builtin_cpu_supports`` and ``cpuid``, so one
compiled library serves any host and nothing is configured.  Each tier
is also exported under its own name (``repro_gf_apply_gfni`` /
``_avx2`` / ``_portable``) so the tests can hold every one the CPU has
to the numpy reference.  Rates are bytes of input per second
at 1 MiB blocks on a 2-vCPU Intel Xeon (GFNI, AVX-512) with gcc 12:

* **gfni-avx512** — a multiply is one ``vgf2p8affineqb`` per 64 bytes,
  by the coefficient's 8x8 bit matrix broadcast as a qword.  The affine
  form works for any polynomial; ``gf2p8mulb`` is fixed to 0x11B, and
  this field's is 0x11D.  Block tails run under AVX-512 byte masks.
  Heptagon-local's 4 x 40 parity map runs at 14.4 GB/s and rs(14,10)'s
  4 x 10 at 14.0 GB/s.  The 256-bit form was 20–25 % slower.
* **avx2** — a multiply is two ``vpshufb`` nibble lookups per 32 bytes.
  GF(2^8) multiplication is linear over XOR, so
  ``MUL[c][b] == MUL[c][b & 15] ^ MUL[c][b & 0xf0]``; this is the
  ISA-L-style technique.  The same two maps run at 7.5 and 6.3 GB/s.
* **portable** — 8-byte words: an XOR column costs one word XOR.  Row
  groups with a multiply pack, per column, the rows' products of each
  input byte into one ``uint32`` (1 KiB per column, L1-resident), so
  there is one gather per input byte and column: 1.4 and 1.6 GB/s on
  the same two maps, against 0.9 and 0.6 GB/s for the word loop alone.

An XOR-only row (20 x 1 MiB) runs at ~21 GB/s on either SIMD tier,
against ~15 GB/s for numpy's pass-per-buffer loop.  ``repro_gf_init``
builds the product table once at load, by shift-and-add modulo the
field polynomial 0x11D (the products :data:`repro.gf.tables.MUL_TABLE`
holds, which ``tests/test_gf_native.py`` pins through every tier), and
derives the nibble and bit-matrix tables from it, so every tier XORs
the bytes the other backends do and loading the library needs no
numpy.  Tiers the compiler cannot target are left out by a
preprocessor guard; the library still builds.

The same library carries the block checksum, ``repro_crc32``: zlib's
CRC-32 (the two chain into each other) by carry-less multiply — four
128-bit lanes folded 64 bytes per ``pclmulqdq`` round, then one lane
in 16-byte steps and a Barrett reduction (Intel, "Fast CRC Computation
for Generic Polynomials Using PCLMULQDQ Instruction"); under 64 bytes,
the ``len % 16`` tail and hosts without ``pclmul`` take a byte table.
~4 µs per 64 KiB on the reference container against zlib's 15.4;
:func:`crc32` below is the one caller.

It also carries the group simulator's event loop, ``repro_sim_group``:
:func:`repro.reliability.simulate.simulate_group_mttd_total` runs its
reference Python loop there for codes of up to 24 slots.  The loop
stops, resumably, whenever it needs the next block of random variates
or the verdict of a failed-slot mask it has not seen; the Python side
supplies both, so the C loop consumes the Python loop's stream and
returns the same float.  The build turns off FMA contraction
(``-ffp-contract=off``) so no sum rounds differently, and the loop
sits outside every ``target(...)`` attribute.

This module is also the backend seam, and it imports no numpy: the
backend choice (``REPRO_GF_BACKEND``, :func:`set_backend`,
:func:`active_backend`), the block checksum :func:`crc32` and the
datanode's partial parity :func:`combine` live here, so a datanode
daemon runs on the library without loading numpy or the coding stack.
:mod:`repro.gf.kernels` re-exports the first three.  Each of the two
per-block functions is bound on first use — the library's entry point
closed over ``ffi.from_buffer``, or the numpy-side fallback — and the
binding is dropped by :func:`set_backend` and :func:`reset`.

The extension is built lazily on first use: the C source below is
compiled with the host's C compiler (``$CC``, else ``cc``/``gcc``/
``clang``) into a cached shared library and loaded through cffi's
out-of-line ABI mode (``ffi.dlopen``), which needs no setuptools
machinery and adds nothing at import time.  The declarations
(``_CDEF``) are parsed once per cache, not once per process: beside
the library sits the Python module cffi generates for them
(``set_source(name, None)`` + ``compile()``); a process imports it
through :mod:`importlib` and opens the library with its
``ffi.dlopen``.  That loads cffi's C backend only — neither its Python
package nor pycparser — in ~3 ms, against ~50 ms for a ``cdef``
parse.  ``cdef`` still runs where the module is missing (a cold
cache, or one an older tree left with only the library) or does not
import (truncated, or rejected by this cffi); a directory whose
module cannot be rebuilt is skipped like one whose library cannot be
built.  Hosts without cffi or a working compiler degrade gracefully:
:func:`load` returns ``None``, :func:`error` says why, and the numpy
reference serves every caller (selection: :func:`active_backend`
below).

The cache directory is ``$REPRO_NATIVE_CACHE``, else
``~/.cache/repro-native``, else a per-user tmpdir.  The library file
name embeds a hash of the C source, and the module's name the same
hash plus cffi's version, so edits and cffi upgrades rebuild
automatically; concurrent builders (pool workers racing on a cold
cache) land on the same files via atomic renames.

``$REPRO_NATIVE_SANITIZE=address,undefined`` builds the kernels with
``-fsanitize=address,undefined -fno-omit-frame-pointer`` instead (see
:func:`sanitize_profile`); the sanitize set is part of the cache key,
so instrumented and plain builds coexist.  CI runs the
``tests/test_gf_native.py`` fuzz suite and the group simulator's
``tests/test_group_simulation.py`` under that profile.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import shutil
import subprocess
import tempfile
import threading
import warnings
import zlib

#: Bumped whenever the C ABI below changes incompatibly; checked
#: against the loaded library so a stale cached build can never be
#: called with mismatched signatures.
ABI_VERSION = 6

#: What ``repro_gf_simd_tier()`` answers, by value.
TIERS = ("portable", "avx2", "gfni-avx512")

# The group simulator's resumable state, shared by the cdef and the C
# source.  ``repro_sim_group`` answers one of the statuses: every trial
# is done, it needs the next variate block (``cursor == block``), it
# needs the verdict of ``mask``, or the event budget ran out.
_SIM_DECLS = """
enum {
    REPRO_SIM_DONE, REPRO_SIM_NEED_BLOCK, REPRO_SIM_NEED_VERDICT,
    REPRO_SIM_BUDGET
};
typedef struct {
    int64_t trial;          /* trials finished */
    int64_t events;         /* events walked, all trials */
    int64_t cursor;         /* next unread variate of the blocks */
    double clock;           /* this trial's time so far */
    double total;           /* summed absorption time of finished trials */
    uint32_t mask;          /* failed slots */
    int32_t down;           /* failed slot count */
    int32_t pending;        /* 1: the verdict of mask is still to read */
    int32_t live[32];       /* the live slots, in swap-remove order */
    int32_t downs[32];      /* the failed slots, likewise */
} repro_sim_state;
"""

# Every apply entry point takes the same arguments: an (nrows, ncols)
# op table (0 skips the column, 1 XORs it in, anything else multiplies
# by that coefficient), ncols input pointers, the byte count n, and an
# (nrows, n) C-contiguous output array it overwrites.
_CDEF = """
int repro_gf_native_abi(void);
void repro_gf_init(void);
int repro_gf_simd_tier(void);
void repro_gf_apply(const uint8_t *ops, const uint8_t **inputs,
                    size_t ncols, size_t n, uint8_t *out, size_t nrows);
void repro_gf_apply_portable(const uint8_t *ops, const uint8_t **inputs,
                             size_t ncols, size_t n, uint8_t *out,
                             size_t nrows);
void repro_gf_apply_avx2(const uint8_t *ops, const uint8_t **inputs,
                         size_t ncols, size_t n, uint8_t *out, size_t nrows);
void repro_gf_apply_gfni(const uint8_t *ops, const uint8_t **inputs,
                         size_t ncols, size_t n, uint8_t *out, size_t nrows);
uint32_t repro_crc32(const uint8_t *buf, size_t len, uint32_t crc);
""" + _SIM_DECLS + """
int repro_sim_group(repro_sim_state *s, int32_t length, int64_t trials,
                    double lam, double mu, int32_t parallel,
                    int64_t max_events, const int8_t *verdicts,
                    const double *holding, const double *chooser,
                    const double *picker, int64_t block);
"""


def _crc32_table() -> str:
    """The reflected IEEE CRC-32 byte table, as a C initialiser."""
    entries = []
    for byte in range(256):
        for _ in range(8):
            byte = (byte >> 1) ^ (0xEDB88320 if byte & 1 else 0)
        entries.append(f"0x{byte:08x}u")
    return ",".join(entries)


# Each tier walks the output rows in groups of GROUP_ROWS: per chunk
# of the block it loads every live column once, folds it into each
# group row's register accumulator by that row's op, and stores each
# row once.  The row loops are specialised per group size (1..4) so the
# accumulators stay in registers; ``#pragma GCC unroll`` spells out the
# fixed-count loops, so -O2 runs them as fast as -O3 and compiles in a
# quarter of the time (0.7 s vs 2.7 s with gcc 12).
_SOURCE = f"""
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>
{_SIM_DECLS}
int repro_gf_native_abi(void) {{ return {ABI_VERSION}; }}

/* Per coefficient c: MUL_TABLE[c], the products of the 16 low then the
 * 16 high nibbles, and the 8x8 bit matrix of x -> c * x.  Built once by
 * repro_gf_init, before any kernel runs, so every tier XORs the bytes
 * the other backends do. */
static uint8_t gf_mul[256][256];
static uint8_t gf_nib[256][32];
static uint64_t gf_bits[256];

/* The field polynomial x^8 + x^4 + x^3 + x^2 + 1 (repro.gf.tables). */
#define GF_POLY 0x11D

void repro_gf_init(void)
{{
    for (unsigned c = 0; c < 256; ++c)
        for (unsigned x = 0; x < 256; ++x) {{
            unsigned a = c, product = 0;
            for (unsigned b = x; b; b >>= 1) {{      /* shift and add */
                if (b & 1)
                    product ^= a;
                a <<= 1;
                if (a & 0x100)
                    a ^= GF_POLY;
            }}
            gf_mul[c][x] = (uint8_t)product;
        }}
    for (int c = 0; c < 256; ++c) {{
        uint64_t bits = 0;
        for (int x = 0; x < 16; ++x) {{
            gf_nib[c][x] = gf_mul[c][x];
            gf_nib[c][16 + x] = gf_mul[c][x << 4];
        }}
        /* vgf2p8affineqb: output bit i is the parity of input & byte 7-i */
        for (int i = 0; i < 8; ++i)
            for (int j = 0; j < 8; ++j)
                bits |= (uint64_t)((gf_mul[c][1 << j] >> i) & 1)
                        << (8 * (7 - i) + j);
        gf_bits[c] = bits;
    }}
}}

#define GROUP_ROWS 4
#define INLINE static inline __attribute__((always_inline))
#define ROWS_SWITCH(nr, f, ...) switch (nr) {{                               \\
    case 1:  f(__VA_ARGS__, 1); break;                                        \\
    case 2:  f(__VA_ARGS__, 2); break;                                        \\
    case 3:  f(__VA_ARGS__, 3); break;                                        \\
    default: f(__VA_ARGS__, 4); break;                                        \\
    }}
#define DEF_TIER(name, group)                                                 \\
void name(const uint8_t *ops, const uint8_t **in, size_t ncols, size_t n,     \\
          uint8_t *out, size_t nrows)                                         \\
{{                                                                            \\
    for (size_t g = 0; g < nrows; g += GROUP_ROWS)                            \\
        group(ops + g * ncols, in, ncols, n, out + g * n,                     \\
              nrows - g < GROUP_ROWS ? nrows - g : GROUP_ROWS);               \\
}}

/* Nonzero when some row of the group uses column op[0]: 1 when every
 * such row XORs it in, 2 when one multiplies. */
INLINE int column_use(const uint8_t *op, size_t ncols, const int nr)
{{
    int use = 0;
    #pragma GCC unroll 8
    for (int r = 0; r < nr; ++r)
        use |= op[r * ncols] > 1 ? 2 : op[r * ncols];
    return use;
}}

/* Bytes [lo, hi): eight at a time as one word (an XOR column costs one
 * word XOR, a multiply eight MUL_TABLE gathers), then byte by byte. */
INLINE void portable_rows(const uint8_t *ops, const uint8_t **in,
                          size_t ncols, size_t lo, size_t hi, size_t n,
                          uint8_t *out, const int nr)
{{
    size_t i = lo;
    for (; i + 8 <= hi; i += 8) {{
        uint64_t acc[GROUP_ROWS] = {{0}};
        for (size_t c = 0; c < ncols; ++c) {{
            if (!column_use(ops + c, ncols, nr))
                continue;
            uint64_t x;
            memcpy(&x, in[c] + i, 8);
            #pragma GCC unroll 8
            for (int r = 0; r < nr; ++r) {{
                unsigned op = ops[r * ncols + c];
                if (op == 1) {{
                    acc[r] ^= x;
                }} else if (op) {{
                    const uint8_t *t = gf_mul[op];
                    #pragma GCC unroll 8
                    for (unsigned b = 0; b < 64; b += 8)
                        acc[r] ^= (uint64_t)t[(x >> b) & 0xff] << b;
                }}
            }}
        }}
        #pragma GCC unroll 8
        for (int r = 0; r < nr; ++r)
            memcpy(out + r * n + i, &acc[r], 8);
    }}
    for (; i < hi; ++i)
        #pragma GCC unroll 8
        for (int r = 0; r < nr; ++r) {{
            uint8_t v = 0;          /* MUL_TABLE[0] is 0, MUL_TABLE[1] is x */
            for (size_t c = 0; c < ncols; ++c)
                v ^= gf_mul[ops[r * ncols + c]][in[c][i]];
            out[r * n + i] = v;
        }}
}}

/* Bytes [lo, n) of nr rows; the SIMD tiers finish their tails here. */
static void portable_span(const uint8_t *ops, const uint8_t **in,
                          size_t ncols, size_t lo, size_t n, uint8_t *out,
                          size_t nr)
{{
    ROWS_SWITCH(nr, portable_rows, ops, in, ncols, lo, n, n, out)
}}

/* A group of rows with a multiply packs, per column, the rows' products
 * of each input byte into one uint32 (1 KiB per column, L1-resident):
 * one gather per input byte and column, whatever the row count.  One
 * row, XOR-only groups, blocks under 2 KiB and a failed allocation take
 * the word loop.  Building the tables costs 256 products per row and
 * column, which 2 KiB of input repays (gcc 12, Xeon, us per call, table
 * vs word loop): 4 x 40 parity rows 67 vs 80 at 2 KiB, 51 vs 40 at
 * 1 KiB; 4 x 10 19 vs 35 at 2 KiB; at 1 MiB 29 vs 47 ms and 6.4 vs
 * 18.4 ms. */
static void portable_group(const uint8_t *ops, const uint8_t **in,
                           size_t ncols, size_t n, uint8_t *out, size_t nr)
{{
    int multiplies = 0;
    for (size_t j = 0; j < nr * ncols; ++j)
        multiplies |= ops[j] > 1;
    uint32_t (*tab)[256] = multiplies && nr > 1 && n >= 2048
                           ? malloc(ncols * sizeof *tab) : NULL;
    if (tab == NULL) {{
        portable_span(ops, in, ncols, 0, n, out, nr);
        return;
    }}
    for (size_t c = 0; c < ncols; ++c)
        for (unsigned x = 0; x < 256; ++x) {{
            uint32_t t = 0;
            for (size_t r = 0; r < nr; ++r)
                t |= (uint32_t)gf_mul[ops[r * ncols + c]][x] << (8 * r);
            tab[c][x] = t;
        }}
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {{           /* four gathers in flight */
        uint32_t v[4] = {{0}};
        for (size_t c = 0; c < ncols; ++c)
            #pragma GCC unroll 8
            for (int b = 0; b < 4; ++b)
                v[b] ^= tab[c][in[c][i + b]];
        for (size_t r = 0; r < nr; ++r)
            #pragma GCC unroll 8
            for (int b = 0; b < 4; ++b)
                out[r * n + i + b] = (uint8_t)(v[b] >> (8 * r));
    }}
    free(tab);
    portable_span(ops, in, ncols, i, n, out, nr);
}}

DEF_TIER(repro_gf_apply_portable, portable_group)

static int tier = -1;

#if defined(__GNUC__) && defined(__x86_64__)
#define REPRO_GF_X86 1
#include <cpuid.h>
#include <immintrin.h>

/* Bytes [i, i + 32 * w) into nr rows; a multiply is two vpshufb nibble
 * lookups per 32 bytes. */
__attribute__((target("avx2")))
INLINE void avx2_step(const uint8_t *ops, const uint8_t **in, size_t ncols,
                      size_t i, size_t n, uint8_t *out, const int nr,
                      const int w)
{{
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    __m256i acc[GROUP_ROWS][2], x[2], lo[2], hi[2];
    #pragma GCC unroll 8
    for (int r = 0; r < nr; ++r)
        #pragma GCC unroll 8
        for (int v = 0; v < w; ++v)
            acc[r][v] = _mm256_setzero_si256();
    for (size_t c = 0; c < ncols; ++c) {{
        int use = column_use(ops + c, ncols, nr);
        if (!use)
            continue;
        #pragma GCC unroll 8
        for (int v = 0; v < w; ++v) {{
            x[v] = _mm256_loadu_si256((const __m256i *)(in[c] + i + 32 * v));
            lo[v] = hi[v] = x[v];
            if (use > 1) {{     /* the nibbles only a multiply looks up */
                lo[v] = _mm256_and_si256(x[v], low_mask);
                hi[v] = _mm256_and_si256(_mm256_srli_epi16(x[v], 4), low_mask);
            }}
        }}
        #pragma GCC unroll 8
        for (int r = 0; r < nr; ++r) {{
            unsigned op = ops[r * ncols + c];
            if (op == 1) {{
                #pragma GCC unroll 8
                for (int v = 0; v < w; ++v)
                    acc[r][v] = _mm256_xor_si256(acc[r][v], x[v]);
            }} else if (op) {{
                const __m128i *t = (const __m128i *)gf_nib[op];
                __m256i tl = _mm256_broadcastsi128_si256(_mm_loadu_si128(t));
                __m256i th = _mm256_broadcastsi128_si256(_mm_loadu_si128(t + 1));
                #pragma GCC unroll 8
                for (int v = 0; v < w; ++v)
                    acc[r][v] = _mm256_xor_si256(acc[r][v], _mm256_xor_si256(
                        _mm256_shuffle_epi8(tl, lo[v]),
                        _mm256_shuffle_epi8(th, hi[v])));
            }}
        }}
    }}
    #pragma GCC unroll 8
    for (int r = 0; r < nr; ++r)
        #pragma GCC unroll 8
        for (int v = 0; v < w; ++v)
            _mm256_storeu_si256((__m256i *)(out + r * n + i + 32 * v),
                                acc[r][v]);
}}

/* 64 bytes per step; the portable loop takes the last n % 64. */
__attribute__((target("avx2")))
INLINE void avx2_rows(const uint8_t *ops, const uint8_t **in, size_t ncols,
                      size_t n, uint8_t *out, const int nr)
{{
    for (size_t i = 0; i + 64 <= n; i += 64)
        avx2_step(ops, in, ncols, i, n, out, nr, 2);
}}

__attribute__((target("avx2")))
static void avx2_group(const uint8_t *ops, const uint8_t **in, size_t ncols,
                       size_t n, uint8_t *out, size_t nr)
{{
    ROWS_SWITCH(nr, avx2_rows, ops, in, ncols, n, out)
    portable_span(ops, in, ncols, n & ~(size_t)63, n, out, nr);
}}

DEF_TIER(repro_gf_apply_avx2, avx2_group)

/* Built only where the compiler knows the instruction (no second build). */
#if defined(__has_builtin)
#if __has_builtin(__builtin_ia32_vgf2p8affineqb_v64qi)
#define REPRO_GF_GFNI 1

/* 64-byte vectors per step: with four rows, 16 accumulators, 4 inputs
 * and a bit matrix fit the 32 zmm registers, and a column's op checks
 * are paid once per 256 bytes. */
#define GFNI_VECTORS 4

/* Bytes [i, i + 64 * GFNI_VECTORS) into nr rows, each 64-byte vector
 * under a byte mask (all ones but at the tail); a multiply is one
 * vgf2p8affineqb per 64 bytes by the coefficient's bit matrix
 * (gf2p8mulb is fixed to the 0x11B polynomial, this field's is 0x11D). */
__attribute__((target("avx512f,avx512bw,gfni")))
INLINE void gfni_step(const uint8_t *ops, const uint8_t **in, size_t ncols,
                      size_t i, size_t n, uint8_t *out, const int nr,
                      const __mmask64 mask[GFNI_VECTORS])
{{
    __m512i acc[GROUP_ROWS][GFNI_VECTORS], x[GFNI_VECTORS];
    #pragma GCC unroll 8
    for (int r = 0; r < nr; ++r)
        #pragma GCC unroll 8
        for (int v = 0; v < GFNI_VECTORS; ++v)
            acc[r][v] = _mm512_setzero_si512();
    for (size_t c = 0; c < ncols; ++c) {{
        if (!column_use(ops + c, ncols, nr))
            continue;
        #pragma GCC unroll 8
        for (int v = 0; v < GFNI_VECTORS; ++v)
            x[v] = _mm512_maskz_loadu_epi8(mask[v], in[c] + i + 64 * v);
        #pragma GCC unroll 8
        for (int r = 0; r < nr; ++r) {{
            unsigned op = ops[r * ncols + c];
            if (op == 1) {{
                #pragma GCC unroll 8
                for (int v = 0; v < GFNI_VECTORS; ++v)
                    acc[r][v] = _mm512_xor_si512(acc[r][v], x[v]);
            }} else if (op) {{
                __m512i bits = _mm512_set1_epi64((long long)gf_bits[op]);
                #pragma GCC unroll 8
                for (int v = 0; v < GFNI_VECTORS; ++v)
                    acc[r][v] = _mm512_xor_si512(acc[r][v],
                        _mm512_gf2p8affine_epi64_epi8(x[v], bits, 0));
            }}
        }}
    }}
    #pragma GCC unroll 8
    for (int r = 0; r < nr; ++r)
        #pragma GCC unroll 8
        for (int v = 0; v < GFNI_VECTORS; ++v)
            _mm512_mask_storeu_epi8(out + r * n + i + 64 * v, mask[v],
                                    acc[r][v]);
}}

/* The bytes of [lo, lo + 64) below n, as a load/store mask. */
static inline __mmask64 tail_mask(size_t lo, size_t n)
{{
    return lo >= n ? 0 : n - lo >= 64 ? ~(__mmask64)0
                       : ((__mmask64)1 << (n - lo)) - 1;
}}

__attribute__((target("avx512f,avx512bw,gfni")))
INLINE void gfni_rows(const uint8_t *ops, const uint8_t **in, size_t ncols,
                      size_t n, uint8_t *out, const int nr)
{{
    __mmask64 mask[GFNI_VECTORS];
    for (int v = 0; v < GFNI_VECTORS; ++v)
        mask[v] = ~(__mmask64)0;
    size_t i = 0;
    for (; i + 64 * GFNI_VECTORS <= n; i += 64 * GFNI_VECTORS)
        gfni_step(ops, in, ncols, i, n, out, nr, mask);
    if (i < n) {{
        for (int v = 0; v < GFNI_VECTORS; ++v)
            mask[v] = tail_mask(i + 64 * v, n);
        gfni_step(ops, in, ncols, i, n, out, nr, mask);
    }}
}}

__attribute__((target("avx512f,avx512bw,gfni")))
static void gfni_group(const uint8_t *ops, const uint8_t **in, size_t ncols,
                       size_t n, uint8_t *out, size_t nr)
{{
    ROWS_SWITCH(nr, gfni_rows, ops, in, ncols, n, out)
}}

DEF_TIER(repro_gf_apply_gfni, gfni_group)

static int has_gfni(void)
{{
    unsigned a, b, c, d;
    return __get_cpuid_count(7, 0, &a, &b, &c, &d) && (c >> 8) & 1;
}}
#endif
#endif

int repro_gf_simd_tier(void)
{{
    if (tier < 0) {{
        tier = __builtin_cpu_supports("avx2") ? 1 : 0;
#ifdef REPRO_GF_GFNI
        if (__builtin_cpu_supports("avx512bw") && has_gfni())
            tier = 2;
#endif
    }}
    return tier;
}}

static int have_pclmul(void)
{{
    static int cached = -1;
    if (cached < 0)
        cached = (__builtin_cpu_supports("pclmul")
                  && __builtin_cpu_supports("sse4.1")) ? 1 : 0;
    return cached;
}}

/* x.lo * k.lo ^ x.hi * k.hi over GF(2)[x]: one 128-bit lane folded
 * across the distance the constant pair k was derived for. */
#define CRC_FOLD(x, k) _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),        \\
                                     _mm_clmulepi64_si128(x, k, 0x11))

/* The inverted CRC state of the whole 16-byte blocks of buf, len >= 64;
 * the caller finishes len % 16 by table. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc32_fold(const uint8_t *buf, size_t len, uint32_t crc)
{{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    const __m128i *in = (const __m128i *)buf;
    __m128i x0 = _mm_xor_si128(_mm_loadu_si128(in), _mm_cvtsi32_si128((int)crc));
    __m128i x1 = _mm_loadu_si128(in + 1);
    __m128i x2 = _mm_loadu_si128(in + 2);
    __m128i x3 = _mm_loadu_si128(in + 3), t;
    for (in += 4, len -= 64; len >= 64; in += 4, len -= 64) {{
        x0 = _mm_xor_si128(CRC_FOLD(x0, k1k2), _mm_loadu_si128(in));
        x1 = _mm_xor_si128(CRC_FOLD(x1, k1k2), _mm_loadu_si128(in + 1));
        x2 = _mm_xor_si128(CRC_FOLD(x2, k1k2), _mm_loadu_si128(in + 2));
        x3 = _mm_xor_si128(CRC_FOLD(x3, k1k2), _mm_loadu_si128(in + 3));
    }}
    x0 = _mm_xor_si128(CRC_FOLD(x0, k3k4), x1);
    x0 = _mm_xor_si128(CRC_FOLD(x0, k3k4), x2);
    x0 = _mm_xor_si128(CRC_FOLD(x0, k3k4), x3);
    for (; len >= 16; ++in, len -= 16)
        x0 = _mm_xor_si128(CRC_FOLD(x0, k3k4), _mm_loadu_si128(in));
    /* 128 -> 64 bits, then 64 -> 32 by Barrett reduction */
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
    t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return (uint32_t)_mm_extract_epi32(_mm_xor_si128(x0, t), 1);
}}
#else
int repro_gf_simd_tier(void) {{ return tier = 0; }}
#endif

void repro_gf_apply(const uint8_t *ops, const uint8_t **in, size_t ncols,
                    size_t n, uint8_t *out, size_t nrows)
{{
    switch (repro_gf_simd_tier()) {{
#ifdef REPRO_GF_GFNI
    case 2:  repro_gf_apply_gfni(ops, in, ncols, n, out, nrows); return;
#endif
#ifdef REPRO_GF_X86
    case 1:  repro_gf_apply_avx2(ops, in, ncols, n, out, nrows); return;
#endif
    default: repro_gf_apply_portable(ops, in, ncols, n, out, nrows);
    }}
}}

static const uint32_t crc32_bytes[256] = {{{_crc32_table()}}};

uint32_t repro_crc32(const uint8_t *buf, size_t len, uint32_t crc)
{{
    crc = ~crc;
#ifdef REPRO_GF_X86
    if (len >= 64 && have_pclmul()) {{
        crc = crc32_fold(buf, len, crc);
        buf += len & ~(size_t)15;
        len &= 15;
    }}
#endif
    for (; len; --len)
        crc = (crc >> 8) ^ crc32_bytes[(crc ^ *buf++) & 0xff];
    return ~crc;
}}

/* The group simulator's event loop: the reference loop in
 * repro.reliability.simulate, operation for operation (the build turns
 * FMA contraction off), so the same variates give the same total.  It
 * stops, resumably, for the caller's next variate block or the verdict
 * of s->mask; the verdict table holds 0 (not known yet), 1 (the code
 * recovers) or 2 (data lost) per failed-slot mask. */
int repro_sim_group(repro_sim_state *s, int32_t length, int64_t trials,
                    double lam, double mu, int32_t parallel,
                    int64_t max_events, const int8_t *verdicts,
                    const double *holding, const double *chooser,
                    const double *picker, int64_t block)
{{
    for (;;) {{
        if (s->pending) {{
            int8_t verdict = verdicts[s->mask];
            if (verdict == 0)
                return REPRO_SIM_NEED_VERDICT;
            s->pending = 0;
            if (verdict == 2) {{                     /* data lost */
                s->total += s->clock;
                if (++s->trial == trials)
                    return REPRO_SIM_DONE;
                s->clock = 0.0;                     /* all slots live again */
                s->mask = 0;
                s->down = 0;
                for (int32_t slot = 0; slot < length; ++slot)
                    s->live[slot] = slot;
            }}
        }}
        if (s->cursor == block)
            return REPRO_SIM_NEED_BLOCK;
        if (++s->events > max_events)
            return REPRO_SIM_BUDGET;
        double fail = (double)(length - s->down) * lam;
        double out = fail + (parallel ? (double)s->down * mu
                                      : s->down ? mu : 0.0);
        s->clock += holding[s->cursor] / out;
        double pick = picker[s->cursor];
        if (chooser[s->cursor++] * out < fail) {{   /* a live slot fails */
            int32_t live = length - s->down;
            int32_t i = (int32_t)(pick * live), slot = s->live[i];
            s->live[i] = s->live[live - 1];
            s->downs[s->down++] = slot;
            s->mask |= (uint32_t)1 << slot;
            s->pending = 1;
        }} else {{                                    /* a failed one returns */
            int32_t i = (int32_t)(pick * s->down), slot = s->downs[i];
            s->downs[i] = s->downs[--s->down];
            s->live[length - s->down - 1] = slot;
            s->mask &= ~((uint32_t)1 << slot);
        }}
    }}
}}
"""


class NativeKernels:
    """Handle on the loaded library: ``.ffi``, ``.lib`` and ``.apply``.

    ``apply(ops, inputs, length, out, nrows=1)`` writes
    ``ops @ stack(inputs)`` — the ``(nrows, len(inputs))`` op table,
    row-major — into ``out`` as ``nrows`` rows of ``length`` bytes, in
    one call of ``repro_gf_apply``.  ``inputs`` are C-contiguous buffers
    of at least ``length`` bytes, ``out`` a writable one of ``nrows *
    length``; lengths are not checked.  A buffer C cannot read in place
    (a strided numpy array) raises ``ValueError`` before the call.  It
    is the one Python call path into the GF kernels:
    :class:`repro.gf.kernels.BatchedLinearMap`,
    :func:`repro.gf.kernels.linear_combine` and :func:`combine` all
    run on it.
    """

    def __init__(self, ffi, lib) -> None:
        self.ffi = ffi
        self.lib = lib
        from_buffer, gf_apply = ffi.from_buffer, lib.repro_gf_apply
        byte_array = ffi.typeof("uint8_t[]")    # resolved once, not per buffer

        def apply(ops, inputs, length, out, nrows=1):
            gf_apply(ops, [from_buffer(byte_array, data) for data in inputs],
                     len(inputs), length, from_buffer(byte_array, out),
                     nrows)

        self.apply = apply


_LOCK = threading.Lock()
_LOADED: NativeKernels | None = None
_ERROR: str | None = None
_ATTEMPTED = False

#: What :func:`crc32` and :func:`combine` bound against this load
#: outcome and backend; :func:`set_backend` and :func:`reset` drop them.
crc32_binding = None
combine_binding = None

#: Environment variable selecting the execution backend.
BACKEND_ENV = "REPRO_GF_BACKEND"

#: Valid backend names (``auto`` resolves to the best available).
BACKEND_NAMES = ("auto", "native", "numpy")

#: Process-wide override installed by :func:`set_backend` (takes
#: precedence over the environment).
_FORCED_BACKEND: str | None = None

_FALLBACK_WARNED = False


def sanitize_profile() -> tuple[str, ...]:
    """Sanitizers requested via ``$REPRO_NATIVE_SANITIZE``.

    A comma-separated list (``address,undefined``) compiled into the
    kernels as ``-fsanitize=...`` instrumentation; empty by default.
    The profile is part of the cache key, so sanitized and plain
    builds never collide, and it participates in the load outcome —
    call :func:`reset` after changing the variable.

    Note that dlopen'ing an ASan-instrumented library into an
    uninstrumented python requires the ASan runtime preloaded
    (``LD_PRELOAD=$(cc -print-file-name=libasan.so)``); the CI
    ``native-sanitizers`` job wires this up.
    """
    env = os.environ.get("REPRO_NATIVE_SANITIZE", "").strip()
    if not env:
        return ()
    return tuple(sorted({part.strip() for part in env.split(",")
                         if part.strip()}))


def _source_digest() -> str:
    sanitize = ",".join(sanitize_profile())
    payload = f"{ABI_VERSION}\n{sanitize}\n{_CDEF}\n{_SOURCE}".encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _candidate_cache_dirs() -> list[pathlib.Path]:
    dirs: list[pathlib.Path] = []
    env = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if env:
        dirs.append(pathlib.Path(env))
    dirs.append(pathlib.Path.home() / ".cache" / "repro-native")
    dirs.append(pathlib.Path(tempfile.gettempdir())
                / f"repro-native-{os.getuid() if hasattr(os, 'getuid') else 0}")
    return dirs


def _compilers() -> list[str]:
    env = os.environ.get("CC", "").strip()
    candidates = ([env] if env else []) + ["cc", "gcc", "clang"]
    seen: list[str] = []
    for name in candidates:
        if name not in seen:
            seen.append(name)
    return seen


def _build_library(so_path: pathlib.Path) -> str | None:
    """Compile the shared library; returns an error string on failure."""
    cache_dir = so_path.parent
    last_error = "no C compiler candidates"
    sanitize = sanitize_profile()
    sanitize_flags = ([f"-fsanitize={','.join(sanitize)}",
                       "-fno-omit-frame-pointer", "-g"]
                      if sanitize else [])
    for compiler in _compilers():
        tmp = cache_dir / f".{so_path.name}.{os.getpid()}.tmp"
        # Source on stdin: a .c file shared in the cache gets truncated
        # by one racing builder while another's compiler is reading it.
        # No FMA contraction: the group simulator's sums must round as
        # the Python reference loop's do.
        command = [compiler, "-O2", "-std=gnu99", "-fPIC", "-shared",
                   "-ffp-contract=off",
                   *sanitize_flags, "-x", "c", "-", "-o", str(tmp)]
        try:
            result = subprocess.run(command, input=_SOURCE,
                                    capture_output=True, text=True,
                                    timeout=120)
        except FileNotFoundError:
            last_error = f"compiler {compiler!r} not found"
            continue
        except (OSError, subprocess.TimeoutExpired) as exc:
            last_error = f"{compiler}: {exc}"
            continue
        if result.returncode != 0:
            tail = (result.stderr or result.stdout or "").strip()[-400:]
            last_error = f"{compiler} failed ({result.returncode}): {tail}"
            continue
        try:
            os.replace(tmp, so_path)   # atomic vs concurrent builders
        except OSError as exc:
            return f"cannot install built library: {exc}"
        return None
    return last_error


def _ffi_module_path(cache_dir: pathlib.Path, digest: str,
                     cffi_version: str) -> pathlib.Path:
    """Where the out-of-line module for this source and this cffi
    lives: next to the library, named by both."""
    version = "".join(c if c.isalnum() else "_" for c in cffi_version)
    return cache_dir / f"repro_gf_ffi_{digest}_cffi_{version}.py"


def _write_ffi_module(path: pathlib.Path) -> None:
    """Parse :data:`_CDEF` — the one ``cdef`` — and write cffi's
    out-of-line ABI module for it to ``path``, through a private
    staging directory and an atomic rename, as the library is built."""
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(_CDEF)
    ffi.set_source(path.stem, None)
    staging = tempfile.mkdtemp(prefix=f".{path.stem}.", dir=path.parent)
    try:
        ffi.compile(tmpdir=staging, verbose=0)
        os.replace(os.path.join(staging, path.name), path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _import_ffi(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi


def _load_ffi(path: pathlib.Path):
    """The library's declarations, parsed: imported from the module
    at ``path``, which is (re)generated when it is missing or does not
    import (truncated, or rejected by this cffi backend)."""
    if path.exists():
        try:
            return _import_ffi(path)
        except Exception:       # truncated, or from another cffi
            pass
    _write_ffi_module(path)
    return _import_ffi(path)


def _load_uncached() -> tuple[NativeKernels | None, str | None]:
    try:
        import _cffi_backend
    except ImportError as exc:
        return None, f"cffi unavailable: {exc}"
    digest = _source_digest()
    errors: list[str] = []
    for cache_dir in _candidate_cache_dirs():
        so_path = cache_dir / f"repro_gf_native_{digest}.so"
        if not so_path.exists():
            try:
                cache_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                errors.append(f"{cache_dir}: {exc}")
                continue
            build_error = _build_library(so_path)
            if build_error is not None:
                errors.append(build_error)
                continue
        module_path = _ffi_module_path(cache_dir, digest,
                                       _cffi_backend.__version__)
        try:
            ffi = _load_ffi(module_path)
        except Exception as exc:    # the next directory may serve
            errors.append(f"{module_path}: {exc!r}")
            continue
        try:
            lib = ffi.dlopen(str(so_path))
        except OSError as exc:
            errors.append(f"dlopen {so_path}: {exc}")
            continue
        if lib.repro_gf_native_abi() != ABI_VERSION:
            errors.append(f"{so_path}: ABI mismatch")
            continue
        lib.repro_gf_init()
        return NativeKernels(ffi, lib), None
    return None, "; ".join(errors) or "no usable cache directory"


def load() -> NativeKernels | None:
    """The loaded native library, building it on first call.

    Returns ``None`` when the extension cannot be built or loaded (no
    compiler, no cffi, unwritable cache, ...); the failure reason is
    then available from :func:`error`.  The outcome is cached — at
    most one build attempt per process.
    """
    global _LOADED, _ERROR, _ATTEMPTED
    if _ATTEMPTED:
        return _LOADED
    with _LOCK:
        if not _ATTEMPTED:
            _LOADED, _ERROR = _load_uncached()
            _ATTEMPTED = True
    return _LOADED


def error() -> str | None:
    """Why the native library is unavailable (``None`` when it loaded)."""
    load()
    return _ERROR


def simd_tier() -> str | None:
    """The kernel tier the loaded library runs on this CPU — one of
    :data:`TIERS` — or ``None`` when the library is not loaded."""
    kernels = load()
    return TIERS[kernels.lib.repro_gf_simd_tier()] if kernels else None


def simd_active() -> bool:
    """True when the loaded library runs a SIMD tier (AVX2 or GFNI)."""
    return simd_tier() not in (None, "portable")


def reset() -> None:
    """Forget the cached load outcome (tests simulate missing compilers)."""
    global _LOADED, _ERROR, _ATTEMPTED, crc32_binding, combine_binding
    with _LOCK:
        _LOADED = None
        _ERROR = None
        _ATTEMPTED = False
        crc32_binding = combine_binding = None


# ----------------------------------------------------------------------
# Backend choice
# ----------------------------------------------------------------------
def _check_backend_name(name: str) -> str:
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown GF backend {name!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}")
    return name


def set_backend(name: str | None) -> None:
    """Force the kernel backend for this process.

    ``None`` (or ``"auto"``) restores the default resolution order:
    ``$REPRO_GF_BACKEND``, else ``native`` when the extension builds,
    else ``numpy``.  Tests and bit-identity checks use it to hold the
    native kernels to the ``numpy`` reference in one process; it takes
    effect on the next kernel application (dispatch is per call, never
    baked into a kernel), :func:`crc32` and :func:`combine` (re-bound).
    """
    global _FORCED_BACKEND, crc32_binding, combine_binding
    if name is None or name == "auto":
        _FORCED_BACKEND = None
    else:
        _FORCED_BACKEND = _check_backend_name(name)
    crc32_binding = combine_binding = None   # they follow the backend


def requested_backend() -> str:
    """The configured backend before availability resolution."""
    if _FORCED_BACKEND is not None:
        return _FORCED_BACKEND
    env = os.environ.get(BACKEND_ENV, "").strip().lower()
    if env:
        return _check_backend_name(env)
    return "auto"


def active_backend() -> str:
    """The backend new kernel applications will actually run on:
    ``native`` (the C kernels) or ``numpy`` (the per-row reference).

    ``native``/``auto`` requests degrade to ``numpy`` when the
    extension cannot be built (one warning when native was explicitly
    requested; silent for ``auto``).  The first call may trigger the
    lazy native build.
    """
    global _FALLBACK_WARNED
    requested = requested_backend()
    if requested == "numpy":
        return requested
    if load() is not None:
        return "native"
    if requested == "native" and not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(
            f"{BACKEND_ENV}=native requested but the native GF kernels "
            f"are unavailable ({error()}); falling back to the "
            f"numpy backend", RuntimeWarning, stacklevel=2)
    return "numpy"


# ----------------------------------------------------------------------
# The two per-block functions a datanode runs
# ----------------------------------------------------------------------
def _bind_crc32():
    """The native kernel closed over ``ffi.from_buffer``, or zlib's."""
    global crc32_binding
    kernels = load() if active_backend() == "native" else None
    if kernels is None:
        bound = zlib.crc32
    else:
        from_buffer, native_crc32 = kernels.ffi.from_buffer, kernels.lib.repro_crc32

        def bound(data, value=0):
            raw = from_buffer(data)
            return native_crc32(raw, len(raw), value)

    crc32_binding = bound
    return bound


def crc32(data, value: int = 0) -> int:
    """``zlib.crc32(data, value)`` for any buffer, bit for bit on every
    backend: CRCs travel in ``put`` replies, ``commit-write`` and the
    scrub, and a daemon with no compiler must agree with one that has.
    Bound on first use, dropped only by :func:`set_backend` /
    :func:`reset`: per block, an environment read, a lock or a
    ``load()`` cost more than the hashing they select.  What C cannot
    read in place (a strided array, a list) is gathered by numpy."""
    bound = crc32_binding or _bind_crc32()
    try:
        return bound(data, value)
    except (TypeError, ValueError, BufferError):
        import numpy as np

        from .field import GF256
        return bound(np.ascontiguousarray(GF256.asarray(data)), value)


def _bind_combine():
    """One native pass into a ``bytearray`` on the native backend, else
    :func:`repro.gf.kernels.linear_combine` (numpy, imported here)."""
    global combine_binding
    kernels = load() if active_backend() == "native" else None
    if kernels is None:
        from .kernels import linear_combine

        def bound(coefficients, blocks):
            return linear_combine(coefficients, blocks).tobytes()
    else:
        apply = kernels.apply

        def bound(coefficients, blocks):
            if len(coefficients) != len(blocks):
                raise ValueError("coefficient/buffer count mismatch")
            if not blocks:
                raise ValueError("cannot infer output length from empty input")
            length = len(blocks[0])
            if any(len(block) != length for block in blocks):
                raise ValueError("buffers must share a common length")
            out = bytearray(length)
            apply(coefficients, blocks, length, out)
            return bytes(out)

    combine_binding = bound
    return bound


def combine(coefficients: bytes, blocks) -> bytes:
    """``sum_i c_i * block_i`` over GF(2^8) as new ``bytes``: a
    datanode's partial parity.

    ``coefficients`` is the one-row op table (one field element per
    block, as ``bytes``); ``blocks`` are equal-length ``bytes`` (any
    C-contiguous byte buffer).  On the native backend every vector,
    all-ones included, is one call of the op-table entry point, inputs
    read in place.  Elsewhere it is :func:`repro.gf.kernels.linear_combine`,
    imported on the first call: the only way numpy enters a datanode's
    data path.  Both refuse a count mismatch, unequal lengths and an
    empty input with the same ``ValueError``.
    Bound like :func:`crc32`.
    """
    bound = combine_binding or _bind_combine()
    return bound(coefficients, blocks)
