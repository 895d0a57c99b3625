"""Lazy build/load of the native kernel library: GF(2^8) and CRC-32.

The GF kernels fuse the gather + XOR + per-row scatter that the numpy
backend performs as separate full-array passes through scratch
buffers: one call per row group walks the input blocks once,
accumulating every output row of the group in registers.

Two table shapes back the C loops, both tiny views of the same
:data:`repro.gf.tables.MUL_TABLE` products that build the numpy
backend's 64K-entry packed tables — so every path computes identical
bytes:

* **byte tables** — per column, 256 ``uint32`` entries mapping one
  input byte to the packed product bytes of up to four group rows
  (1 KiB per column, L1-resident).  The numpy path's 64K-entry
  two-byte tables halve *gather count*, which is the right trade for
  numpy's fixed ~2.4 ns/element fancy-index; in C the gathers
  themselves are the cost, and on the reference container the 64K
  tables (0.25–0.5 MiB per column, several MiB per kernel) fall out
  of L2 and run at memory latency — measured slower than numpy.  The
  256-entry form keeps every gather in L1 (~1.3 GB/s vs ~0.5 GB/s
  for either 64K-table loop ordering).
* **nibble tables** — per (column, row), two 16-byte lookup vectors
  (products of the low/high nibble; GF(2^8) multiplication is linear
  over XOR, so ``MUL[c][b] == MUL[c][b & 15] ^ MUL[c][b & 0xf0]``).
  These feed the SIMD path: on x86-64 with AVX2, ``vpshufb`` performs
  32 nibble lookups per instruction (the standard technique in
  ISA-L-style erasure-code libraries), measured ~8 GB/s on the
  reference container.  The AVX2 path is selected per call at runtime
  (``__builtin_cpu_supports``), so one compiled library serves any
  x86-64 host; non-x86 hosts use the portable byte-table loop.

The same library carries the block checksum, ``repro_crc32``: zlib's
CRC-32 (the two chain into each other) by carry-less multiply — four
128-bit lanes folded 64 bytes per ``pclmulqdq`` round, then one lane
in 16-byte steps and a Barrett reduction (Intel, "Fast CRC Computation
for Generic Polynomials Using PCLMULQDQ Instruction"); under 64 bytes,
the ``len % 16`` tail and hosts without ``pclmul`` take a byte table.
~4 µs per 64 KiB on the reference container against zlib's 15.4;
:func:`repro.gf.kernels.crc32` is the one caller.

The extension is built lazily on first use: the C source below is
compiled with the host's C compiler (``$CC``, else ``cc``/``gcc``/
``clang``) into a cached shared library and loaded through cffi's ABI
mode (``ffi.dlopen``), which needs no setuptools machinery and adds
nothing at import time.  Hosts without cffi or a working compiler
degrade gracefully: :func:`load` returns ``None``, :func:`error`
says why, and the numpy backend serves every caller (selection lives
in :func:`repro.gf.kernels.active_backend`).

The cache directory is ``$REPRO_NATIVE_CACHE``, else
``~/.cache/repro-native``, else a per-user tmpdir; the library file
name embeds a hash of the C source, so edits rebuild automatically
and concurrent builders (pool workers racing on a cold cache) land on
the same file via an atomic rename.

``$REPRO_NATIVE_SANITIZE=address,undefined`` builds the kernels with
``-fsanitize=address,undefined -fno-omit-frame-pointer`` instead (see
:func:`sanitize_profile`); the sanitize set is part of the cache key,
so instrumented and plain builds coexist.  CI runs the
``tests/test_gf_native.py`` fuzz suite under that profile.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import tempfile
import threading

#: Bumped whenever the C ABI below changes incompatibly; checked
#: against the loaded library so a stale cached build can never be
#: called with mismatched signatures.
ABI_VERSION = 3

_CDEF = """
int repro_gf_native_abi(void);
int repro_gf_simd(void);
void repro_gf_apply_group(const uint32_t **byte_tables,
                          const uint8_t *nib_tables,
                          const uint8_t **inputs,
                          size_t ncols, size_t n,
                          uint8_t **out_rows, size_t nrows);
void repro_gf_combine_u8(const uint8_t **mul_rows,
                         const uint8_t **inputs,
                         size_t nparts, size_t n,
                         uint8_t *out, int accumulate);
uint32_t repro_crc32(const uint8_t *buf, size_t len, uint32_t crc);
"""


def _crc32_table() -> str:
    """The reflected IEEE CRC-32 byte table, as a C initialiser."""
    entries = []
    for byte in range(256):
        for _ in range(8):
            byte = (byte >> 1) ^ (0xEDB88320 if byte & 1 else 0)
        entries.append(f"0x{byte:08x}u")
    return ",".join(entries)


# The scalar loops are specialised per row count (1..4) so the lane
# scatter unrolls; output rows are always XOR-accumulated (callers
# zero-fill untouched rows first), which removes a per-element branch.
# The 4-way word unroll keeps several independent L1 gathers in
# flight per iteration.
_SOURCE = f"""
#include <stdint.h>
#include <stddef.h>

int repro_gf_native_abi(void) {{ return {ABI_VERSION}; }}

#define DEF_APPLY_BYTES(NR)                                                   \\
static void apply_bytes_r##NR(const uint32_t **tables,                        \\
                              const uint8_t **inputs, size_t ncols,           \\
                              size_t lo, size_t hi, uint8_t **out_rows)       \\
{{                                                                            \\
    size_t i = lo;                                                            \\
    for (; i + 4 <= hi; i += 4) {{                                            \\
        uint32_t v0 = tables[0][inputs[0][i]];                                \\
        uint32_t v1 = tables[0][inputs[0][i + 1]];                            \\
        uint32_t v2 = tables[0][inputs[0][i + 2]];                            \\
        uint32_t v3 = tables[0][inputs[0][i + 3]];                            \\
        for (size_t c = 1; c < ncols; ++c) {{                                 \\
            const uint32_t *t = tables[c];                                    \\
            const uint8_t *in = inputs[c];                                    \\
            v0 ^= t[in[i]];     v1 ^= t[in[i + 1]];                           \\
            v2 ^= t[in[i + 2]]; v3 ^= t[in[i + 3]];                           \\
        }}                                                                    \\
        for (int r = 0; r < NR; ++r) {{                                       \\
            uint8_t *o = out_rows[r];                                         \\
            unsigned s = (unsigned)(8 * r);                                   \\
            o[i] ^= (uint8_t)(v0 >> s);     o[i + 1] ^= (uint8_t)(v1 >> s);   \\
            o[i + 2] ^= (uint8_t)(v2 >> s); o[i + 3] ^= (uint8_t)(v3 >> s);   \\
        }}                                                                    \\
    }}                                                                        \\
    for (; i < hi; ++i) {{                                                    \\
        uint32_t v = tables[0][inputs[0][i]];                                 \\
        for (size_t c = 1; c < ncols; ++c)                                    \\
            v ^= tables[c][inputs[c][i]];                                     \\
        for (int r = 0; r < NR; ++r)                                          \\
            out_rows[r][i] ^= (uint8_t)(v >> (unsigned)(8 * r));              \\
    }}                                                                        \\
}}

DEF_APPLY_BYTES(1)
DEF_APPLY_BYTES(2)
DEF_APPLY_BYTES(3)
DEF_APPLY_BYTES(4)

static void apply_bytes(const uint32_t **tables, const uint8_t **inputs,
                        size_t ncols, size_t lo, size_t hi,
                        uint8_t **out_rows, size_t nrows)
{{
    if (lo >= hi || ncols == 0)
        return;
    switch (nrows) {{
    case 1:  apply_bytes_r1(tables, inputs, ncols, lo, hi, out_rows); break;
    case 2:  apply_bytes_r2(tables, inputs, ncols, lo, hi, out_rows); break;
    case 3:  apply_bytes_r3(tables, inputs, ncols, lo, hi, out_rows); break;
    default: apply_bytes_r4(tables, inputs, ncols, lo, hi, out_rows); break;
    }}
}}

#if defined(__GNUC__) && defined(__x86_64__)
#define REPRO_GF_AVX2 1
#include <immintrin.h>

/* nib_tables layout: [ncols][nrows][2][16] — per (column, row) the
 * 16 products of the low nibble then the 16 of the high nibble. */
#define DEF_APPLY_AVX2(NR)                                                    \\
__attribute__((target("avx2")))                                               \\
static void apply_avx2_r##NR(const uint8_t *nib, const uint8_t **inputs,      \\
                             size_t ncols, size_t n, uint8_t **out_rows)      \\
{{                                                                            \\
    const __m256i low_mask = _mm256_set1_epi8(0x0f);                          \\
    for (size_t i = 0; i + 32 <= n; i += 32) {{                               \\
        __m256i acc[NR];                                                      \\
        for (int r = 0; r < NR; ++r) acc[r] = _mm256_setzero_si256();         \\
        const uint8_t *t = nib;                                               \\
        for (size_t c = 0; c < ncols; ++c, t += (size_t)NR * 32) {{           \\
            __m256i in = _mm256_loadu_si256(                                  \\
                (const __m256i *)(inputs[c] + i));                            \\
            __m256i lo = _mm256_and_si256(in, low_mask);                      \\
            __m256i hi = _mm256_and_si256(                                    \\
                _mm256_srli_epi16(in, 4), low_mask);                          \\
            for (int r = 0; r < NR; ++r) {{                                   \\
                __m256i tl = _mm256_broadcastsi128_si256(                     \\
                    _mm_loadu_si128((const __m128i *)(t + 32 * r)));          \\
                __m256i th = _mm256_broadcastsi128_si256(                     \\
                    _mm_loadu_si128((const __m128i *)(t + 32 * r + 16)));     \\
                acc[r] = _mm256_xor_si256(acc[r], _mm256_xor_si256(           \\
                    _mm256_shuffle_epi8(tl, lo),                              \\
                    _mm256_shuffle_epi8(th, hi)));                            \\
            }}                                                                \\
        }}                                                                    \\
        for (int r = 0; r < NR; ++r) {{                                       \\
            __m256i prev = _mm256_loadu_si256(                                \\
                (const __m256i *)(out_rows[r] + i));                          \\
            _mm256_storeu_si256((__m256i *)(out_rows[r] + i),                 \\
                                _mm256_xor_si256(prev, acc[r]));              \\
        }}                                                                    \\
    }}                                                                        \\
}}

DEF_APPLY_AVX2(1)
DEF_APPLY_AVX2(2)
DEF_APPLY_AVX2(3)
DEF_APPLY_AVX2(4)

static int have_avx2(void)
{{
    static int cached = -1;
    if (cached < 0)
        cached = __builtin_cpu_supports("avx2") ? 1 : 0;
    return cached;
}}

int repro_gf_simd(void) {{ return have_avx2(); }}

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
#define CRC_FOLD(x, k) _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),        \
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
int repro_gf_simd(void) {{ return 0; }}
#endif

static const uint32_t crc32_bytes[256] = {{{_crc32_table()}}};

uint32_t repro_crc32(const uint8_t *buf, size_t len, uint32_t crc)
{{
    crc = ~crc;
#ifdef REPRO_GF_AVX2
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

void repro_gf_apply_group(const uint32_t **byte_tables,
                          const uint8_t *nib_tables,
                          const uint8_t **inputs,
                          size_t ncols, size_t n,
                          uint8_t **out_rows, size_t nrows)
{{
    if (ncols == 0 || nrows == 0)
        return;
#ifdef REPRO_GF_AVX2
    if (have_avx2()) {{
        size_t main = n & ~(size_t)31;
        switch (nrows) {{
        case 1:  apply_avx2_r1(nib_tables, inputs, ncols, main, out_rows); break;
        case 2:  apply_avx2_r2(nib_tables, inputs, ncols, main, out_rows); break;
        case 3:  apply_avx2_r3(nib_tables, inputs, ncols, main, out_rows); break;
        default: apply_avx2_r4(nib_tables, inputs, ncols, main, out_rows); break;
        }}
        apply_bytes(byte_tables, inputs, ncols, main, n, out_rows, nrows);
        return;
    }}
#else
    (void)nib_tables;
#endif
    apply_bytes(byte_tables, inputs, ncols, 0, n, out_rows, nrows);
}}

void repro_gf_combine_u8(const uint8_t **mul_rows, const uint8_t **inputs,
                         size_t nparts, size_t n,
                         uint8_t *out, int accumulate)
{{
    for (size_t i = 0; i < n; ++i) {{
        uint8_t v = accumulate ? out[i] : 0;
        for (size_t p = 0; p < nparts; ++p)
            v ^= mul_rows[p][inputs[p][i]];
        out[i] = v;
    }}
}}
"""


class NativeKernels:
    """Handle on the loaded library: ``.ffi`` and ``.lib``."""

    def __init__(self, ffi, lib) -> None:
        self.ffi = ffi
        self.lib = lib


_LOCK = threading.Lock()
_LOADED: NativeKernels | None = None
_ERROR: str | None = None
_ATTEMPTED = False

#: What :func:`repro.gf.kernels.crc32` bound against this load outcome
#: (``lib.repro_crc32`` in a closure, or zlib's); :func:`reset` drops it.
crc32_binding = None


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
        command = [compiler, "-O3", "-std=gnu99", "-fPIC", "-shared",
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


def _load_uncached() -> tuple[NativeKernels | None, str | None]:
    try:
        from cffi import FFI
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
        ffi = FFI()
        ffi.cdef(_CDEF)
        try:
            lib = ffi.dlopen(str(so_path))
        except OSError as exc:
            errors.append(f"dlopen {so_path}: {exc}")
            continue
        if lib.repro_gf_native_abi() != ABI_VERSION:
            errors.append(f"{so_path}: ABI mismatch")
            continue
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


def simd_active() -> bool:
    """True when the loaded library will use its SIMD (AVX2) path."""
    kernels = load()
    return bool(kernels and kernels.lib.repro_gf_simd())


def reset() -> None:
    """Forget the cached load outcome (tests simulate missing compilers)."""
    global _LOADED, _ERROR, _ATTEMPTED, crc32_binding
    with _LOCK:
        _LOADED = None
        _ERROR = None
        _ATTEMPTED = False
        crc32_binding = None
