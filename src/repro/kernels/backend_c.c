/* Compiled SG-DIA kernels for the "c" backend (see backend_c.py).
 *
 * SOA payloads: data[d][i][j][k] for scalar operators, and
 * data[d][i][j][k][a][b] (one contiguous m x m block per cell) for block
 * operators with m = ncomp >= 2.  Each offset's plane is C-contiguous and
 * the planes are `stride` values apart, padded by repro.sgdia.layout so
 * that they do not start at power-of-two distances: the 7 to 27 planes a
 * kernel streams at once then fall in distinct cache sets, and every kernel
 * reads its coefficients in place.  Every kernel is generated once per
 * (storage, compute) pair by DEFINE_KERNELS / DEFINE_BLOCK_KERNELS below;
 * the suffix names the pair (h = fp16 stored as uint16, f = float,
 * d = double), e.g. repro_spmv_hf, repro_bspmv_hf.  The scalar SpMV and
 * sweep also have one kernel per radius-1 stencil with compile-time offsets
 * (DEFINE_STENCIL, e.g. repro_spmv_3d27_hf, repro_gs_sweep_3d27_hf).
 *
 * Bit parity with the numpy reference is the contract:
 *   - each cell accumulates over stencil offsets in ascending order,
 *     skipping out-of-grid neighbours: y = 0; y += c*x  (SpMV) and
 *     acc = b; acc -= c*x; x = acc*dinv  (sweeps, SpTRSV);
 *   - a coefficient is converted to the compute type before it is
 *     multiplied ((T)c * x), which is what numpy computes for upcasts
 *     (exact) and for downcasts (convert first);
 *   - a block term is the row product p = 0; p += c[a][b]*x[b] over b in
 *     ascending order, then applied as one value (y += p, acc -= p), and
 *     the block diagonal inverse likewise (x = p): the numpy reference's
 *     block_contract order;
 *   - build with -ffp-contract=off and never -ffast-math, so no FMA
 *     contraction or reassociation changes a rounding.
 * Vectorization runs across the cells of one grid row (scalar kernels) or
 * across the k right-hand-side columns (block kernels), never across the
 * terms of one sum, so it changes no operation order.
 *
 * Masked row ends.  The per-stencil kernels run every cell of an interior
 * grid row (every (dx, dy) neighbour row in the grid) in vectors of KW
 * cells, the row's first vector at 0 and its last at nz - KW, overlapping
 * the one before.  Only the dz = -1 terms of cell 0 and the dz = +1 terms
 * of cell nz-1 leave the grid there.  Those two vectors load such a term's
 * x from inside the neighbour row and move it one lane, so no load reads
 * outside the row, and a bitwise blend keeps the accumulator of the lane
 * whose term is missing: the reference's skip, bit for bit (summing the
 * product anyway would differ: -0 - 0 is -0 but -0 - -0 is +0, and 0 * inf
 * is NaN).
 *
 * A sweep is one call, not one per color.  The reference runs the 8
 * parity colors (c0, c1, c2) one after another in COLORS8 order; they pair
 * up into four row classes (c0, c1), the grid rows (i, j) with i % 2 == c0
 * and j % 2 == c1.  With a radius-1 stencil two cells of one row class
 * couple only inside their own grid row (equal i and j parity within
 * distance 1 means di = dj = 0), so a grid row can run its two colors, c2 =
 * 0 then 1 (swapped backward), as soon as the rows it reads are as COLORS8
 * order would leave them.  A cell of row class (c0, c1) must read a
 * neighbour row of another class as updated if that class comes first in
 * COLORS8 order, and as not yet updated otherwise; the classes order by c0
 * first.  So every neighbour plane i +- 1 must be done before plane i when
 * i is odd and not started when i is even, and within a plane the same
 * holds for rows j +- 1 by the parity of j.  The lagged order, planes 0, 2,
 * 1, 4, 3, 6, 5, ... and rows within each plane likewise, runs every even
 * plane (row) before both its odd neighbours and every odd one after both
 * its even neighbours.  Backward, where the classes run in reverse, planes
 * and rows run 1, 0, 3, 2, 5, 4, ...: every odd one before both its even
 * neighbours and every even one after both.  (The forward sequence
 * reversed would do too, but walking memory upwards measured 10% faster.)
 * Every cell then reads the same neighbour values as when each color covers
 * the whole grid before the next starts, and the sweep streams the
 * coefficients once.  The first color finishes its whole row before the
 * second starts, because a second-color cell at the end of one vector reads
 * its first-color neighbour at the start of the next.  Each vector computes
 * KW contiguous cells of both parities and a bitwise blend stores only the
 * color's lanes into x; a cell computed by two overlapping vectors gets the
 * same value from both, since within one color pass no cell reads another
 * of its color.  The one-color mode (mode 2 + c) runs color c alone on the
 * rows of its class, in any order: what each rank of the distributed engine
 * calls between halo exchanges.
 */
#include <float.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__F16C__)
#include <immintrin.h>
#endif

/* Cells per row chunk: bounds the on-stack conversion buffers, not the
 * row length (rows of any length are processed chunk by chunk).  The
 * Galerkin kernel's intermediates are buffered in chunks of GCH. */
#define CH 512
#define GCH 256
#define ND 27 /* most stencil offsets (every radius-1 stencil fits) */
#define KW 8  /* cells (scalar kernels) or columns (block kernels) per vector */

int repro_has_f16c(void)
{
#if defined(__F16C__)
    return 1;
#else
    return 0;
#endif
}

static inline long lmax(long a, long b) { return a > b ? a : b; }
static inline long lmin(long a, long b) { return a < b ? a : b; }

/* ---- storage -> compute conversion of n <= CH contiguous values ----
 * Each returns the pointer to read the converted values from: the source
 * itself when no conversion is needed, else the caller's buffer. */

static inline const float *ld_ff(const float *restrict s, float *restrict buf, long n)
{
    (void)buf; (void)n;
    return s;
}

static inline const double *ld_dd(const double *restrict s, double *restrict buf, long n)
{
    (void)buf; (void)n;
    return s;
}

static inline const float *ld_df(const double *restrict s, float *restrict buf, long n)
{
    for (long k = 0; k < n; k++)
        buf[k] = (float)s[k];
    return buf;
}

static inline const double *ld_fd(const float *restrict s, double *restrict buf, long n)
{
    for (long k = 0; k < n; k++)
        buf[k] = (double)s[k];
    return buf;
}

#if defined(__F16C__)
/* F16C: 8 halves -> 8 floats per vcvtph2ps; the upcast is exact. */
static inline const float *ld_hf(const uint16_t *restrict s, float *restrict buf, long n)
{
    long k = 0;
    for (; k + 8 <= n; k += 8)
        _mm256_storeu_ps(buf + k,
                         _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)(s + k))));
    if (k < n && n >= 8)  /* overlapping last vector instead of a scalar tail */
        _mm256_storeu_ps(buf + n - 8,
                         _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)(s + n - 8))));
    else
        for (; k < n; k++)
            buf[k] = _cvtsh_ss(s[k]);
    return buf;
}

static inline const double *ld_hd(const uint16_t *restrict s, double *restrict buf, long n)
{
    float tmp[CH];
    ld_hf(s, tmp, n);
    for (long k = 0; k < n; k++)
        buf[k] = (double)tmp[k];
    return buf;
}

/* y[k] += (float)c[k] * x[k], converting 8 halves per vcvtph2ps in registers */
static inline void madd_hf(float *restrict y, const uint16_t *restrict c,
                           const float *restrict x, long n)
{
    long k = 0;
    for (; k + 8 <= n; k += 8) {
        __m256 p = _mm256_mul_ps(
            _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)(c + k))),
            _mm256_loadu_ps(x + k));
        _mm256_storeu_ps(y + k, _mm256_add_ps(_mm256_loadu_ps(y + k), p));
    }
    for (; k < n; k++)
        y[k] += _cvtsh_ss(c[k]) * x[k];
}

static inline float cv_hf(uint16_t v) { return _cvtsh_ss(v); }
static inline double cv_hd(uint16_t v) { return (double)_cvtsh_ss(v); }
#endif

static inline float cv_ff(float v) { return v; }
static inline double cv_dd(double v) { return v; }
static inline float cv_df(double v) { return (float)v; }
static inline double cv_fd(float v) { return (double)v; }

/* y[k] += (T)c[k] * x[k] for n <= CH values, through the ld_ conversion */
#define DEFINE_MADD(SUF, S, T)                                                 \
static inline void madd_##SUF(T *restrict y, const S *restrict c,             \
                              const T *restrict x, long n)                     \
{                                                                              \
    T buf[CH];                                                                 \
    const T *restrict cc = ld_##SUF(c, buf, n);                                \
    for (long k = 0; k < n; k++)                                               \
        y[k] += cc[k] * x[k];                                                  \
}

DEFINE_MADD(ff, float, float)
DEFINE_MADD(dd, double, double)
DEFINE_MADD(df, double, float)
DEFINE_MADD(fd, float, double)
#if defined(__F16C__)
DEFINE_MADD(hd, uint16_t, double)
#endif

typedef float f8_t __attribute__((vector_size(KW * sizeof(float))));
typedef double d8_t __attribute__((vector_size(KW * sizeof(double))));
/* lane masks of the same widths (each lane all ones or all zeros) */
typedef int i8_t __attribute__((vector_size(KW * sizeof(int))));
typedef long l8_t __attribute__((vector_size(KW * sizeof(long))));

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* kc <= KW consecutive values into (out of) the lanes of one vector; a
 * whole vector is the fast case.  On whole vectors of KW = 8 lanes:
 * vup/vdown move every lane up/down by one (lane q takes lane q-1/q+1; the
 * emptied lane keeps its own value), and vpick takes the bits of `a` in the
 * lanes of `m` and those of `b` elsewhere. */
#define DEFINE_LANES(T, V, M)                                                  \
ALWAYS_INLINE V vld_##V(const T *p, long kc)                                   \
{                                                                              \
    V v = {0};                                                                 \
    if (kc == KW)                                                              \
        __builtin_memcpy(&v, p, sizeof v);                                     \
    else                                                                       \
        for (long q = 0; q < kc; q++)                                          \
            v[q] = p[q];                                                       \
    return v;                                                                  \
}                                                                              \
                                                                               \
ALWAYS_INLINE void vst_##V(T *p, V v, long kc)                                 \
{                                                                              \
    if (kc == KW)                                                              \
        __builtin_memcpy(p, &v, sizeof v);                                     \
    else                                                                       \
        for (long q = 0; q < kc; q++)                                          \
            p[q] = v[q];                                                       \
}                                                                              \
                                                                               \
ALWAYS_INLINE V vup_##V(V v)                                                   \
{                                                                              \
    return __builtin_shuffle(v, (M){0, 0, 1, 2, 3, 4, 5, 6});                  \
}                                                                              \
                                                                               \
ALWAYS_INLINE V vdown_##V(V v)                                                 \
{                                                                              \
    return __builtin_shuffle(v, (M){1, 2, 3, 4, 5, 6, 7, 7});                  \
}                                                                              \
                                                                               \
ALWAYS_INLINE V vpick_##V(M m, V a, V b)                                       \
{                                                                              \
    return (V)(((M)a & m) | ((M)b & ~m));                                      \
}

DEFINE_LANES(float, f8_t, i8_t)
DEFINE_LANES(double, d8_t, l8_t)

/* KW consecutive stored coefficients, converted to the compute type in
 * registers (F16C for fp16: 8 halves per vcvtph2ps). */
ALWAYS_INLINE f8_t vcv_ff(const float *p) { return vld_f8_t(p, KW); }
ALWAYS_INLINE d8_t vcv_dd(const double *p) { return vld_d8_t(p, KW); }
ALWAYS_INLINE f8_t vcv_df(const double *p)
{
    return __builtin_convertvector(vld_d8_t(p, KW), f8_t);
}
ALWAYS_INLINE d8_t vcv_fd(const float *p)
{
    return __builtin_convertvector(vld_f8_t(p, KW), d8_t);
}
#if defined(__F16C__)
ALWAYS_INLINE f8_t vcv_hf(const uint16_t *p)
{
    return (f8_t)_mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)p));
}
ALWAYS_INLINE d8_t vcv_hd(const uint16_t *p)
{
    return __builtin_convertvector(vcv_hf(p), d8_t);
}
#endif

/* The in-grid terms of grid row (i, j): the coefficient row's first value
 * (planes `stride` values apart, mm values per cell), the neighbour row's
 * first cell and the cell range [lo, hi) whose neighbour is in the grid, in
 * ascending offset order, skipping offset `skip` (-1: none).  Returns the
 * count. */
static inline int row_terms(const int *restrict offs, int ndiag, int skip,
                            long i, long j, long nx, long ny, long nz,
                            long stride, long mm,
                            long *restrict cofs, long *restrict xofs,
                            long *restrict lo, long *restrict hi)
{
    int nt = 0;
    for (int d = 0; d < ndiag; d++) {
        const long ii = i + offs[3 * d], jj = j + offs[3 * d + 1];
        const long ok = offs[3 * d + 2];
        if (d == skip || ii < 0 || ii >= nx || jj < 0 || jj >= ny)
            continue;
        cofs[nt] = d * stride + (i * ny + j) * nz * mm;
        xofs[nt] = (ii * ny + jj) * nz + ok;
        lo[nt] = lmax(0, -ok);
        hi[nt] = lmin(nz, nz - ok);
        nt++;
    }
    return nt;
}

/* The sweep order (see the head of this file): the t-th of n planes, or of
 * the n rows of a plane.  mode 1 (forward): the lagged order 0, 2, 1, 4, 3,
 * ...; mode 0 (backward): 1, 0, 3, 2, 5, 4, ...; mode 2 + c (color c
 * alone): the t-th index of parity `bit`, of walk_len of them. */
static inline long walk_len(long n, int mode, int bit)
{
    return mode >= 2 ? (n - bit + 1) / 2 : n;
}

static inline long walk_at(long t, long n, int mode, int bit)
{
    if (mode >= 2)
        return bit + 2 * t;
    if (mode == 0)
        return (t ^ 1) < n ? t ^ 1 : t;
    return t == 0 ? 0 : t % 2 ? lmin(t + 1, n - 1) : t - 1;
}

/* Whether grid row (i, j) takes the per-stencil row body: every (dx, dy)
 * neighbour row in the grid, and at least one vector of cells. */
static inline int row_body(long i, long j, long nx, long ny, long nz)
{
    return i > 0 && i < nx - 1 && j > 0 && j < ny - 1 && nz >= KW;
}

/* Per-stencil scalar kernels: repro_spmv_<stencil>_<pair> and
 * repro_gs_sweep_<stencil>_<pair>, instantiated by DEFINE_KERNELS below,
 * are repro_spmv_<pair> and repro_gs_sweep_<pair> for one radius-1 stencil
 * of repro.grid.stencil, whose offsets (the 27 radius-1 offsets in
 * lexicographic order, kept where IN_<stencil> holds for |dx|+|dy|+|dz|)
 * are compile-time constants.  Every interior grid row (0 < i < nx-1,
 * 0 < j < ny-1) of at least KW cells runs through the row body, all of its
 * cells in vectors; the other rows run the generic kernels' run-time
 * terms.  backend_c.py hands these kernels only the offset tables of their
 * stencils. */
#define IN_3d7(n) ((n) <= 1)
#define IN_3d15(n) ((n) != 2)
#define IN_3d19(n) ((n) <= 2)
#define IN_3d27(n) 1
#define IABS(v) ((v) < 0 ? -(v) : (v))

/* X(o, ...) for each radius-1 offset o = 9 (dx+1) + 3 (dy+1) + (dz+1), in
 * lexicographic order: straight-line code, every test and index a constant. */
#define EACH_OFFSET(X, ...)                                                    \
    X(0, __VA_ARGS__) X(1, __VA_ARGS__) X(2, __VA_ARGS__) X(3, __VA_ARGS__)    \
    X(4, __VA_ARGS__) X(5, __VA_ARGS__) X(6, __VA_ARGS__) X(7, __VA_ARGS__)    \
    X(8, __VA_ARGS__) X(9, __VA_ARGS__) X(10, __VA_ARGS__) X(11, __VA_ARGS__)  \
    X(12, __VA_ARGS__) X(13, __VA_ARGS__) X(14, __VA_ARGS__)                   \
    X(15, __VA_ARGS__) X(16, __VA_ARGS__) X(17, __VA_ARGS__)                   \
    X(18, __VA_ARGS__) X(19, __VA_ARGS__) X(20, __VA_ARGS__)                   \
    X(21, __VA_ARGS__) X(22, __VA_ARGS__) X(23, __VA_ARGS__)                   \
    X(24, __VA_ARGS__) X(25, __VA_ARGS__) X(26, __VA_ARGS__)
#define OX(o) ((o) / 9 - 1)
#define OY(o) ((o) / 3 % 3 - 1)
#define OZ(o) ((o) % 3 - 1)

/* Offset o's term in the row body, if stencil NAME has it: its coefficient
 * plane d (its position in the stencil) and neighbour row; the sweep skips
 * the diagonal, o = 13. */
#define ROW_TERM(o, NAME, SUF)                                                 \
    if (IN_##NAME(IABS(OX(o)) + IABS(OY(o)) + IABS(OZ(o)))) {                  \
        acc = term_##SUF(c + d * stride + k, x + OX(o) * sx + OY(o) * sy + k,  \
                         acc, OZ(o), sweep && (o) == 13, sweep, edge);         \
        d++;                                                                   \
    }

#define DEFINE_STENCIL(NAME, SUF, S, T, V)                                     \
                                                                               \
/* The row body: acc plus (sweep 0, the SpMV) or minus (sweep 1) every term   \
 * of cells [k, k + KW) of an interior grid row, in ascending offset order;  \
 * c and x point at the row's first cell, the neighbour rows sx and sy       \
 * values away, and edge marks the row's first and last vectors (term_). */  \
ALWAYS_INLINE V                                                                \
terms_##NAME##_##SUF(const S *restrict c, long stride, const T *x, long sx,    \
                     long sy, long k, V acc, int sweep, int edge)              \
{                                                                              \
    int d = 0;                                                                 \
    EACH_OFFSET(ROW_TERM, NAME, SUF)                                           \
    return acc;                                                                \
}                                                                              \
                                                                               \
/* A whole interior row of nz >= KW cells (pointers at its first cell):       \
 * y = A x (sweep 0), or color c2 of the sweep's x = dinv (b - ...) (sweep 1, \
 * y = x).  Vectors start at 0, then two at a time through the middle (the    \
 * last pair clamped to nz-1-KW, so it may overlap the one before), then at   \
 * nz - KW: a cell computed twice gets the same value. */                     \
ALWAYS_INLINE void                                                             \
row_##NAME##_##SUF(const S *restrict c, long stride, const T *x, T *y,         \
                   const T *restrict b, const T *restrict dinv, long sx,       \
                   long sy, long nz, int sweep, int c2)                        \
{                                                                              \
    if (nz == KW) {                                                            \
        put_##SUF(y, dinv, 0, terms_##NAME##_##SUF(c, stride, x, sx, sy, 0,    \
                  start_##SUF(b, 0, sweep), sweep, 3), sweep, c2);             \
        return;                                                                \
    }                                                                          \
    put_##SUF(y, dinv, 0, terms_##NAME##_##SUF(c, stride, x, sx, sy, 0,        \
              start_##SUF(b, 0, sweep), sweep, 1), sweep, c2);                 \
    for (long k = KW; k < nz - KW; k += 2 * KW) {                              \
        const long kb = lmin(k + KW, nz - 1 - KW);                             \
        const V a0 = terms_##NAME##_##SUF(c, stride, x, sx, sy, k,             \
                                          start_##SUF(b, k, sweep), sweep, 0); \
        const V a1 = terms_##NAME##_##SUF(c, stride, x, sx, sy, kb,            \
                                          start_##SUF(b, kb, sweep), sweep, 0);\
        put_##SUF(y, dinv, k, a0, sweep, c2);                                  \
        put_##SUF(y, dinv, kb, a1, sweep, c2);                                 \
    }                                                                          \
    put_##SUF(y, dinv, nz - KW, terms_##NAME##_##SUF(c, stride, x, sx, sy,     \
              nz - KW, start_##SUF(b, nz - KW, sweep), sweep, 2), sweep, c2);  \
}                                                                              \
                                                                               \
void repro_spmv_##NAME##_##SUF(const S *restrict data, long stride,           \
                               const int *restrict offs, int ndiag,            \
                               const T *restrict x, T *restrict y,             \
                               long nx, long ny, long nz)                      \
{                                                                              \
    for (long i = 0; i < nx; i++)                                              \
        for (long j = 0; j < ny; j++) {                                        \
            const long row = (i * ny + j) * nz;                                \
            if (row_body(i, j, nx, ny, nz))                                    \
                row_##NAME##_##SUF(data + row, stride, x + row, y + row, NULL, \
                                   NULL, ny * nz, nz, nz, 0, 0);               \
            else                                                               \
                spmv_row_##SUF(data, stride, offs, ndiag, x, y, nx, ny, nz, i, \
                               j);                                             \
        }                                                                      \
}                                                                              \
                                                                               \
static void                                                                    \
gs_row_##NAME##_##SUF(const S *restrict data, long stride,                     \
                      const int *restrict offs, int ndiag, int diag,           \
                      const T *restrict b, const T *restrict dinv, T *x,       \
                      long nx, long ny, long nz, long i, long j, int c2,       \
                      int np)                                                  \
{                                                                              \
    if (!row_body(i, j, nx, ny, nz)) {                                         \
        gs_row_##SUF(data, stride, offs, ndiag, diag, b, dinv, x, nx, ny, nz,  \
                     i, j, c2, np);                                            \
        return;                                                                \
    }                                                                          \
    const long row = (i * ny + j) * nz;                                        \
    for (int p = 0; p < np; p++, c2 = 1 - c2)                                  \
        row_##NAME##_##SUF(data + row, stride, x + row, x + row, b + row,      \
                           dinv + row, ny * nz, nz, nz, 1, c2);                \
}                                                                              \
                                                                               \
void repro_gs_sweep_##NAME##_##SUF(const S *restrict data, long stride,       \
                                   const int *restrict offs, int ndiag,        \
                                   int diag, const T *restrict b,              \
                                   const T *restrict dinv, T *x, long nx,      \
                                   long ny, long nz, int mode)                 \
{                                                                              \
    gs_walk_##SUF(gs_row_##NAME##_##SUF, data, stride, offs, ndiag, diag, b,   \
                  dinv, x, nx, ny, nz, mode);                                  \
}

#define DEFINE_KERNELS(SUF, S, T, V, M)                                        \
                                                                               \
/* y = A x on grid row (i, j), from zero: chunk by chunk, each in-grid term   \
 * added across the chunk in ascending offset order. */                       \
static void spmv_row_##SUF(const S *restrict data, long stride,                \
                           const int *restrict offs, int ndiag,                \
                           const T *restrict x, T *restrict y, long nx,        \
                           long ny, long nz, long i, long j)                   \
{                                                                              \
    const long row = (i * ny + j) * nz;                                        \
    T *restrict yr = y + row;                                                  \
    for (long k0 = 0; k0 < nz; k0 += CH) {                                     \
        const long k1 = lmin(k0 + CH, nz);                                     \
        for (long k = k0; k < k1; k++)                                         \
            yr[k] = 0;                                                         \
        for (int d = 0; d < ndiag; d++) {                                      \
            const long ii = i + offs[3 * d], jj = j + offs[3 * d + 1];         \
            const long ok = offs[3 * d + 2];                                   \
            if (ii < 0 || ii >= nx || jj < 0 || jj >= ny)                      \
                continue;                                                      \
            const long lo = lmax(k0, -ok), hi = lmin(k1, nz - ok);             \
            if (lo >= hi)                                                      \
                continue;                                                      \
            madd_##SUF(yr + lo, data + d * stride + row + lo,                  \
                       x + (ii * ny + jj) * nz + ok + lo, hi - lo);            \
        }                                                                      \
    }                                                                          \
}                                                                              \
                                                                               \
/* y = A x over the whole grid (every y cell is written). */                   \
void repro_spmv_##SUF(const S *restrict data, long stride,                    \
                      const int *restrict offs, int ndiag,                     \
                      const T *restrict x, T *restrict y,                      \
                      long nx, long ny, long nz)                               \
{                                                                              \
    for (long i = 0; i < nx; i++)                                              \
        for (long j = 0; j < ny; j++)                                          \
            spmv_row_##SUF(data, stride, offs, ndiag, x, y, nx, ny, nz, i, j); \
}                                                                              \
                                                                               \
/* One term of the row body (DEFINE_STENCIL) on cells [k, k + KW): acc plus   \
 * (sweep 0) or minus (sweep 1) (T)c * x, c and xn at cell k of the term's    \
 * coefficient plane and neighbour row, dz its offset along the row; acc as   \
 * it is if skip.  Only a dz = +-1 neighbour leaves the grid of an interior   \
 * row: in its first vector (edge & 1) lane 0 has no dz = -1 term, in its     \
 * last (edge & 2) lane KW-1 no dz = +1 term.  Such a term's x is loaded from \
 * inside the neighbour row, [k, k + KW), and moved one lane, and a blend     \
 * keeps the missing lane's accumulator bits: the reference's skip, bit for   \
 * bit. */                                                                    \
ALWAYS_INLINE V term_##SUF(const S *restrict c, const T *xn, V acc, int dz,    \
                           int skip, int sweep, int edge)                      \
{                                                                              \
    const M first = {-1}, last = {0, 0, 0, 0, 0, 0, 0, -1};                    \
    if (skip)                                                                  \
        return acc;                                                            \
    const int lo = dz < 0 && (edge & 1), hi = dz > 0 && (edge & 2);            \
    const V xv = lo ? vup_##V(vld_##V(xn, KW))                                 \
               : hi ? vdown_##V(vld_##V(xn, KW)) : vld_##V(xn + dz, KW);       \
    const V p = vcv_##SUF(c) * xv;                                             \
    const V next = sweep ? acc - p : acc + p;                                  \
    return lo ? vpick_##V(first, acc, next)                                    \
              : hi ? vpick_##V(last, acc, next) : next;                        \
}                                                                              \
                                                                               \
/* A row vector's start: zero (SpMV) or b (sweep). */                          \
ALWAYS_INLINE V start_##SUF(const T *restrict b, long k, int sweep)            \
{                                                                              \
    return sweep ? vld_##V(b + k, KW) : (V){0};                                \
}                                                                              \
                                                                               \
/* A row vector's result: y (SpMV), or acc * dinv into the lanes of color c2  \
 * of x = y, the other lanes rewritten with their own bits (sweep). */        \
ALWAYS_INLINE void put_##SUF(T *y, const T *restrict dinv, long k, V acc,      \
                             int sweep, int c2)                                \
{                                                                              \
    const M even = {-1, 0, -1, 0, -1, 0, -1, 0};                               \
    if (sweep)                                                                 \
        acc = vpick_##V((k + c2) % 2 ? ~even : even,                           \
                        acc * vld_##V(dinv + k, KW), vld_##V(y + k, KW));      \
    vst_##V(y + k, acc, KW);                                                   \
}                                                                              \
                                                                               \
/* Color c2, then, if np == 2, color 1 - c2 of grid row (i, j) on run-time    \
 * terms.  The cells of [v0, v1), where every term's neighbour is in the      \
 * grid, run two vectors of KW at a time, the last ones overlapping those     \
 * before, each vector's color lanes blended into x; the color's other cells  \
 * (the row ends, or every cell when [v0, v1) is shorter than a vector) run   \
 * one at a time. */                                                          \
static void gs_row_##SUF(const S *restrict data, long stride,                  \
                         const int *restrict offs, int ndiag, int diag,        \
                         const T *restrict b, const T *restrict dinv, T *x,    \
                         long nx, long ny, long nz, long i, long j, int c2,    \
                         int np)                                               \
{                                                                              \
    long cofs[ND], xofs[ND], lo[ND], hi[ND];                                   \
    const int nt = row_terms(offs, ndiag, diag, i, j, nx, ny, nz, stride, 1,   \
                             cofs, xofs, lo, hi);                              \
    long v0 = 0, v1 = nz;                                                      \
    for (int t = 0; t < nt; t++) {                                             \
        v0 = lmax(v0, lo[t]);                                                  \
        v1 = lmin(v1, hi[t]);                                                  \
    }                                                                          \
    if (v1 - v0 < KW)                                                          \
        v0 = v1 = nz;                                                          \
    const long row = (i * ny + j) * nz;                                        \
    for (int p = 0; p < np; p++, c2 = 1 - c2) {                                \
        for (long kk = v0; kk < v1; kk += 2 * KW) {                            \
            const long ka = lmin(kk, v1 - KW), kb = lmin(kk + KW, v1 - KW);    \
            V a0 = vld_##V(b + row + ka, KW), a1 = vld_##V(b + row + kb, KW);  \
            for (int t = 0; t < nt; t++) {                                     \
                const S *c = data + cofs[t];                                   \
                const T *xt = x + xofs[t];                                     \
                a0 -= vcv_##SUF(c + ka) * vld_##V(xt + ka, KW);                \
                a1 -= vcv_##SUF(c + kb) * vld_##V(xt + kb, KW);                \
            }                                                                  \
            put_##SUF(x + row, dinv + row, ka, a0, 1, c2);                     \
            put_##SUF(x + row, dinv + row, kb, a1, 1, c2);                     \
        }                                                                      \
        for (long k = c2; k < nz; k += 2) {                                    \
            if (k >= v0 && k < v1)                                             \
                continue;                                                      \
            T acc = b[row + k];                                                \
            for (int t = 0; t < nt; t++)                                       \
                if (k >= lo[t] && k < hi[t])                                   \
                    acc -= cv_##SUF(data[cofs[t] + k]) * x[xofs[t] + k];       \
            x[row + k] = acc * dinv[row + k];                                  \
        }                                                                      \
    }                                                                          \
}                                                                              \
                                                                               \
typedef void gs_row_fn_##SUF(const S *restrict, long, const int *restrict,     \
                             int, int, const T *restrict, const T *restrict,   \
                             T *, long, long, long, long, long, int, int);     \
                                                                               \
/* The 8-color Gauss-Seidel sweep, in place on x, row by row in the order of   \
 * walk_at: mode 1 (forward) or 0 (backward) runs each row's two colors,       \
 * c2 = 0 first forward and 1 first backward; mode 2 + c runs color c alone  \
 * (c = 4 c0 + 2 c1 + c2) on the rows of its row class. */                    \
static void gs_walk_##SUF(gs_row_fn_##SUF *row, const S *restrict data,        \
                          long stride, const int *restrict offs, int ndiag,    \
                          int diag, const T *restrict b,                       \
                          const T *restrict dinv, T *x, long nx, long ny,      \
                          long nz, int mode)                                   \
{                                                                              \
    const int one = mode >= 2, c = mode - 2;                                   \
    const int c0 = one ? c >> 2 : 0, c1 = one ? (c >> 1) & 1 : 0;              \
    for (long ti = 0; ti < walk_len(nx, mode, c0); ti++) {                     \
        const long i = walk_at(ti, nx, mode, c0);                              \
        for (long tj = 0; tj < walk_len(ny, mode, c1); tj++)                   \
            row(data, stride, offs, ndiag, diag, b, dinv, x, nx, ny, nz, i,    \
                walk_at(tj, ny, mode, c1), one ? c & 1 : !mode, one ? 1 : 2);  \
    }                                                                          \
}                                                                              \
                                                                               \
void repro_gs_sweep_##SUF(const S *restrict data, long stride,                \
                          const int *restrict offs, int ndiag, int diag,       \
                          const T *restrict b, const T *restrict dinv, T *x,   \
                          long nx, long ny, long nz, int mode)                 \
{                                                                              \
    gs_walk_##SUF(gs_row_##SUF, data, stride, offs, ndiag, diag, b, dinv, x,   \
                  nx, ny, nz, mode);                                           \
}                                                                              \
                                                                               \
/* Triangular solve x = (D + L)^{-1} b (lower) or (D + U)^{-1} b (upper) over  \
 * the offsets used[0..nused), in lexicographic (lower) or reverse           \
 * lexicographic (upper) cell order: every strictly-lower radius-1 offset      \
 * points to a lexicographically smaller cell, so each neighbour is final      \
 * when read, exactly as in the wavefront schedule. */                         \
void repro_sptrsv_##SUF(const S *restrict data, long stride,                  \
                        const int *restrict offs,                              \
                        const int *restrict used, int nused,                   \
                        const T *restrict b, const T *restrict dinv,           \
                        T *restrict x, long nx, long ny, long nz, int lower)   \
{                                                                              \
    const S *cr[27];                                                           \
    const T *xr[27];                                                           \
    long lo[27], hi[27];                                                       \
    int nt;                                                                    \
    for (long ia = 0; ia < nx; ia++)                                           \
        for (long ja = 0; ja < ny; ja++) {                                     \
            const long i = lower ? ia : nx - 1 - ia;                           \
            const long j = lower ? ja : ny - 1 - ja;                           \
            const long row = (i * ny + j) * nz;                                \
            nt = 0;                                                            \
            for (int t = 0; t < nused; t++) {                                  \
                const int d = used[t];                                         \
                const long ii = i + offs[3 * d], jj = j + offs[3 * d + 1];     \
                const long ok = offs[3 * d + 2];                               \
                if (ii < 0 || ii >= nx || jj < 0 || jj >= ny)                  \
                    continue;                                                  \
                cr[nt] = data + d * stride + row;                              \
                xr[nt] = x + (ii * ny + jj) * nz + ok;                         \
                lo[nt] = lmax(0, -ok);                                         \
                hi[nt] = lmin(nz, nz - ok);                                    \
                nt++;                                                          \
            }                                                                  \
            for (long la = 0; la < nz; la++) {                                 \
                const long l = lower ? la : nz - 1 - la;                       \
                T a = b[row + l];                                              \
                for (int t = 0; t < nt; t++)                                   \
                    if (l >= lo[t] && l < hi[t])                               \
                        a -= cv_##SUF(cr[t][l]) * xr[t][l];                    \
                x[row + l] = a * dinv[row + l];                                \
            }                                                                  \
        }                                                                      \
}                                                                              \
                                                                               \
DEFINE_STENCIL(3d7, SUF, S, T, V)                                              \
DEFINE_STENCIL(3d15, SUF, S, T, V)                                             \
DEFINE_STENCIL(3d19, SUF, S, T, V)                                             \
DEFINE_STENCIL(3d27, SUF, S, T, V)

DEFINE_KERNELS(ff, float, float, f8_t, i8_t)
DEFINE_KERNELS(dd, double, double, d8_t, l8_t)
DEFINE_KERNELS(df, double, float, f8_t, i8_t)
DEFINE_KERNELS(fd, float, double, d8_t, l8_t)
#if defined(__F16C__)
DEFINE_KERNELS(hf, uint16_t, float, f8_t, i8_t)
DEFINE_KERNELS(hd, uint16_t, double, d8_t, l8_t)
#endif


/* ---- block kernels (m = ncomp in 2..4) -------------------------------
 * Vectors are v[cell][a][q] with K >= 1 right-hand-side columns (an
 * unbatched vector is K = 1).  Per cell, each in-grid term's m x m block is
 * converted once (F16C for fp16) and applied to every column, KW = 8
 * columns per pass held in one vector value per block row (one AVX
 * register of floats).  A last pass of kc < 8 columns loads them into
 * zeroed lanes and stores only those: lanes never interact, so the pass
 * width changes no result. */

#define MB 4  /* largest block size */

/* The bounds of the on-stack block buffers.  backend_c.py reads them here
 * and keeps operators with larger blocks or more offsets on numpy. */
void repro_block_limits(int *mb, int *nd)
{
    *mb = MB;
    *nd = ND;
}

/* Calls BODY(args..., m) with the block size as a compile-time constant, so
 * the per-cell loops over a and b unroll into straight-line vector code.
 * Against one body taking m at run time this costs ~3 s more build and
 * cuts solid-batch8's solve_s from 0.30 to 0.25 s (2-core AVX-512 VM). */
#define BLOCK_SIZES(BODY, ...)                                                 \
    do {                                                                       \
        if (m == 2)                                                            \
            BODY(__VA_ARGS__, 2);                                              \
        else if (m == 3)                                                       \
            BODY(__VA_ARGS__, 3);                                              \
        else                                                                   \
            BODY(__VA_ARGS__, 4);                                              \
    } while (0)

/* A term's block row product, p = 0; p += c[a][b] * v[b] for b ascending,
 * is one expression in both bodies below. */
#define DEFINE_BLOCK_KERNELS(SUF, S, T, V)                                     \
                                                                               \
/* The terms of cell l: blocks converted into cbuf, neighbour vectors. */      \
ALWAYS_INLINE int                                                              \
cell_terms_##SUF(const S *restrict data, const T *x, int nt,                   \
                 const long *cofs, const long *xofs, const long *lo,           \
                 const long *hi, long l, long mm, long mK,                     \
                 T *restrict cbuf, const T **cb, const T **xu)                 \
{                                                                              \
    int nu = 0;                                                                \
    for (int t = 0; t < nt; t++) {                                             \
        if (l < lo[t] || l >= hi[t])                                           \
            continue;                                                          \
        cb[nu] = ld_##SUF(data + cofs[t] + l * mm, cbuf + nu * mm, mm);        \
        xu[nu] = x + (xofs[t] + l) * mK;                                       \
        nu++;                                                                  \
    }                                                                          \
    return nu;                                                                 \
}                                                                              \
                                                                               \
ALWAYS_INLINE void                                                             \
bspmv_body_##SUF(const S *restrict data, long stride,                         \
                 const int *restrict offs, int ndiag, const T *restrict x,     \
                 T *restrict y, long nx, long ny, long nz, long K, int m)      \
{                                                                              \
    const long mm = (long)m * m, mK = m * K;                                   \
    long cofs[ND], xofs[ND], lo[ND], hi[ND];                                   \
    const T *cb[ND], *xu[ND];                                                  \
    T cbuf[ND * MB * MB];                                                      \
    for (long i = 0; i < nx; i++)                                              \
        for (long j = 0; j < ny; j++) {                                        \
            const int nt = row_terms(offs, ndiag, -1, i, j, nx, ny, nz,        \
                                     stride, mm, cofs, xofs, lo, hi);          \
            for (long l = 0; l < nz; l++) {                                    \
                const int nu = cell_terms_##SUF(data, x, nt, cofs, xofs, lo,   \
                                                hi, l, mm, mK, cbuf, cb, xu);  \
                T *yc = y + ((i * ny + j) * nz + l) * mK;                      \
                for (long k0 = 0; k0 < K; k0 += KW) {                          \
                    const long kc = lmin(KW, K - k0);                          \
                    V acc[MB], v[MB];                                          \
                    for (int a = 0; a < m; a++)                                \
                        acc[a] = (V){0};                                       \
                    for (int u = 0; u < nu; u++) {                             \
                        for (int e = 0; e < m; e++)                            \
                            v[e] = vld_##V(xu[u] + e * K + k0, kc);            \
                        for (int a = 0; a < m; a++) {                          \
                            V p = {0};                                         \
                            for (int e = 0; e < m; e++)                        \
                                p += cb[u][a * m + e] * v[e];                  \
                            acc[a] += p;                                       \
                        }                                                      \
                    }                                                          \
                    for (int a = 0; a < m; a++)                                \
                        vst_##V(yc + a * K + k0, acc[a], kc);                  \
                }                                                              \
            }                                                                  \
        }                                                                      \
}                                                                              \
                                                                               \
/* y = A x for an m x m block operator and K columns (every y is written). */ \
void repro_bspmv_##SUF(const S *restrict data, long stride,                   \
                       const int *restrict offs, int ndiag, int m, long K,     \
                       const T *restrict x, T *restrict y,                     \
                       long nx, long ny, long nz)                              \
{                                                                              \
    BLOCK_SIZES(bspmv_body_##SUF, data, stride, offs, ndiag, x, y, nx, ny, nz, \
                K);                                                            \
}                                                                              \
                                                                               \
ALWAYS_INLINE void                                                             \
bgs_body_##SUF(const S *restrict data, long stride, const int *restrict offs,  \
               int ndiag, int diag, const T *restrict b, const T *restrict dinv, \
               T *restrict x, long nx, long ny, long nz, int c0, int c1,       \
               int c2, long K, int m)                                          \
{                                                                              \
    const long mm = (long)m * m, mK = m * K;                                   \
    long cofs[ND], xofs[ND], lo[ND], hi[ND];                                   \
    const T *cb[ND], *xu[ND];                                                  \
    T cbuf[ND * MB * MB];                                                      \
    for (long i = c0; i < nx; i += 2)                                          \
        for (long j = c1; j < ny; j += 2) {                                    \
            const int nt = row_terms(offs, ndiag, diag, i, j, nx, ny, nz,      \
                                     stride, mm, cofs, xofs, lo, hi);          \
            for (long l = c2; l < nz; l += 2) {                                \
                const int nu = cell_terms_##SUF(data, x, nt, cofs, xofs, lo,   \
                                                hi, l, mm, mK, cbuf, cb, xu);  \
                const long cell = (i * ny + j) * nz + l;                       \
                const T *dc = dinv + cell * mm;                                \
                for (long k0 = 0; k0 < K; k0 += KW) {                          \
                    const long kc = lmin(KW, K - k0);                          \
                    V acc[MB], v[MB];                                          \
                    for (int a = 0; a < m; a++)                                \
                        acc[a] = vld_##V(b + cell * mK + a * K + k0, kc);      \
                    for (int u = 0; u < nu; u++) {                             \
                        for (int e = 0; e < m; e++)                            \
                            v[e] = vld_##V(xu[u] + e * K + k0, kc);            \
                        for (int a = 0; a < m; a++) {                          \
                            V p = {0};                                         \
                            for (int e = 0; e < m; e++)                        \
                                p += cb[u][a * m + e] * v[e];                  \
                            acc[a] -= p;                                       \
                        }                                                      \
                    }                                                          \
                    for (int a = 0; a < m; a++) {                              \
                        V p = {0};                                             \
                        for (int e = 0; e < m; e++)                            \
                            p += dc[a * m + e] * acc[e];                       \
                        vst_##V(x + cell * mK + a * K + k0, p, kc);            \
                    }                                                          \
                }                                                              \
            }                                                                  \
        }                                                                      \
}                                                                              \
                                                                               \
/* The 8-color block Gauss-Seidel sweep, in place on x: the colors in COLORS8  \
 * order (mode 1) or reversed (mode 0), or color c alone (mode 2 + c), each    \
 * over the whole grid; per cell acc = b - (the off-diagonal terms), then      \
 * x = Dinv acc. */                                                            \
void repro_bgs_sweep_##SUF(const S *restrict data, long stride,               \
                           const int *restrict offs,                           \
                           int ndiag, int diag, int m, long K,                 \
                           const T *restrict b, const T *restrict dinv,        \
                           T *restrict x, long nx, long ny, long nz,           \
                           int mode)                                           \
{                                                                              \
    for (int q = 0; q < (mode >= 2 ? 1 : 8); q++) {                            \
        const int c = mode >= 2 ? mode - 2 : mode ? q : 7 - q;                 \
        BLOCK_SIZES(bgs_body_##SUF, data, stride, offs, ndiag, diag, b, dinv,  \
                    x, nx, ny, nz, c >> 2, (c >> 1) & 1, c & 1, K);            \
    }                                                                          \
}

DEFINE_BLOCK_KERNELS(ff, float, float, f8_t)
DEFINE_BLOCK_KERNELS(dd, double, double, d8_t)
DEFINE_BLOCK_KERNELS(df, double, float, f8_t)
DEFINE_BLOCK_KERNELS(fd, float, double, d8_t)
#if defined(__F16C__)
DEFINE_BLOCK_KERNELS(hf, uint16_t, float, f8_t)
DEFINE_BLOCK_KERNELS(hd, uint16_t, double, d8_t)
#endif

/* ---- grid transfers: restrict and prolong as stencils -----------------
 * y = (Mx (x) My (x) Mz (x) I_e) x, with M the 1-D matrices of one direction
 * (P1 to prolong, P1^T to restrict) and e = ncomp * K contiguous values per
 * cell.  Each axis is a table of segments (rho_out, rho_src, shift, k0, k1)
 * with weight w: output index Fo*k + rho_out takes w times source index
 * Fs*(k + shift) + rho_src, for k in [k0, k1).  The segments of an axis are
 * sorted by source offset Fs*shift + rho_src, so every output value sums
 * its terms in ascending flattened source index, from zero, each with tap
 * (T)((wx*wy)*wz): the order and values of a CSR matvec on the Kronecker-
 * assembled matrix (repro.kernels.coarsening, which holds the reference).
 * geo = (dst cells[3], src cells[3], Fo[3], Fs[3]).
 *
 * Per output plane i (zeroed first), each x term and pair of (y, z)
 * segments applies one tap to a 2-D range of the plane: the loops run over
 * whole segments, not per output row. */

/* The source index that segment g gives output index o, or -1 if g skips o. */
static inline long seg_source(const long *restrict g, long fo, long fs, long o)
{
    const long k = o / fo;
    if (o % fo != g[0] || k < g[3] || k >= g[4])
        return -1;
    return fs * (k + g[2]) + g[1];
}

/* o[j * oj + k * so] += tap * s[j * sj + k * ss] for j < nj, k < nk, each
 * of e contiguous values; the scalar strides of restriction (1, 2),
 * prolongation (2, 1) and a factor-1 axis (1, 1) are spelled out so the
 * loops vectorize. */
#define DEFINE_TRANSFER(SUF, T)                                                \
ALWAYS_INLINE void                                                             \
tap_plane_##SUF(T *restrict o, const T *restrict s, T tap, long nj, long oj,   \
                long sj, long nk, long so, long ss, long e)                    \
{                                                                              \
    if (e == 1 && so == 1 && ss == 1)                                          \
        for (long j = 0; j < nj; j++)                                          \
            for (long k = 0; k < nk; k++)                                      \
                o[j * oj + k] += tap * s[j * sj + k];                          \
    else if (e == 1 && so == 1 && ss == 2)                                     \
        for (long j = 0; j < nj; j++)                                          \
            for (long k = 0; k < nk; k++)                                      \
                o[j * oj + k] += tap * s[j * sj + 2 * k];                      \
    else if (e == 1 && so == 2 && ss == 1)                                     \
        for (long j = 0; j < nj; j++)                                          \
            for (long k = 0; k < nk; k++)                                      \
                o[j * oj + 2 * k] += tap * s[j * sj + k];                      \
    else                                                                       \
        for (long j = 0; j < nj; j++)                                          \
            for (long k = 0; k < nk; k++)                                      \
                for (long q = 0; q < e; q++)                                   \
                    o[j * oj + k * so * e + q] += tap * s[j * sj + k * ss * e + q]; \
}                                                                              \
                                                                               \
void repro_transfer_##SUF(const T *restrict src, T *restrict dst, long e,      \
                          const long *restrict geo, const long *restrict seg,  \
                          const double *restrict w, const int *restrict nseg)  \
{                                                                              \
    const long *nd = geo, *ns = geo + 3, *fo = geo + 6, *fs = geo + 9;         \
    const long *gx = seg, *gy = seg + 5 * nseg[0];                             \
    const long *gz = gy + 5 * nseg[1];                                         \
    const double *wx = w, *wy = w + nseg[0], *wz = wy + nseg[1];               \
    const long plane = nd[1] * nd[2] * e, splane = ns[1] * ns[2] * e;          \
    for (long i = 0; i < nd[0]; i++) {                                         \
        T *restrict o = dst + i * plane;                                       \
        for (long q = 0; q < plane; q++)                                       \
            o[q] = 0;                                                          \
        for (int a = 0; a < nseg[0]; a++) {                                    \
            const long si = seg_source(gx + 5 * a, fo[0], fs[0], i);           \
            if (si < 0)                                                        \
                continue;                                                      \
            for (int b = 0; b < nseg[1]; b++) {                                \
                const long *gb = gy + 5 * b;                                   \
                const long oj = fo[1] * gb[3] + gb[0];                         \
                const long sj = fs[1] * (gb[3] + gb[2]) + gb[1];               \
                const double wxy = wx[a] * wy[b];                              \
                for (int c = 0; c < nseg[2]; c++) {                            \
                    const long *gc = gz + 5 * c;                               \
                    const long oz = fo[2] * gc[3] + gc[0];                     \
                    const long sz = fs[2] * (gc[3] + gc[2]) + gc[1];           \
                    tap_plane_##SUF(o + (oj * nd[2] + oz) * e,                 \
                                    src + si * splane + (sj * ns[2] + sz) * e, \
                                    (T)(wxy * wz[c]), gb[4] - gb[3],           \
                                    fo[1] * nd[2] * e, fs[1] * ns[2] * e,      \
                                    gc[4] - gc[3], fo[2], fs[2], e);           \
                }                                                              \
            }                                                                  \
        }                                                                      \
    }                                                                          \
}

DEFINE_TRANSFER(f, float)
DEFINE_TRANSFER(d, double)

/* ---- Galerkin coarsening: one rest group of one 1-D pass, in FP64 -----
 * The fine arrays a[] of the group are viewed as (outer, n, inner) and the
 * coarse outputs out[] as (outer, nc, inner), the pass axis in the middle;
 * bt is the (width, nc) transpose of the band of 1-D weights
 * (repro.coarsen.galerkin), so bt[k * nc + I] = band[I][k].
 * ra rows (slot, array, s, lo, hi, k): R A term t[slot][I] += band[I][k] *
 * a[array][f*I + s] for coarse I in [lo, hi); the rows of one slot are in
 * ascending s.  outs rows (oc, lo, hi, r0, r1): output out[m] sums the
 * (R A) P terms rap[r0..r1), rows (slot, k), for I in [lo, hi) as
 * out[I] += t[slot][I] * band[I + oc][k], and is zero elsewhere.  Every
 * value starts from zero and adds its terms in row order: the reference's
 * numpy slice arithmetic, operation for operation (a product is the same
 * value in either operand order).
 *
 * Blocking keeps the R A intermediates in cache.  With a long inner axis
 * (the x and y passes) each coarse row I is done in chunks of GCH inner
 * values, all slots of a chunk in a buffer; with a short one (the z pass,
 * inner = 1 or one block) a whole row of every slot is buffered and the
 * loops run along the pass axis. */

/* acc[I*inner + q] += w[I] * s[I*step + q] for I in [lo, hi), q < inner */
static inline void band_axpy(double *restrict acc, const double *restrict w,
                             const double *restrict s, long lo, long hi,
                             long inner, long step)
{
    if (inner == 1)
        for (long I = lo; I < hi; I++)
            acc[I] += w[I] * s[I * step];
    else
        for (long I = lo; I < hi; I++)
            for (long q = 0; q < inner; q++)
                acc[I * inner + q] += w[I] * s[I * step + q];
}

/* Returns nonzero if the buffer could not be allocated. */
int repro_galerkin_group(const double *const *a, double *const *out,
                         const double *restrict bt, long outer, long n,
                         long nc, long inner, long f,
                         const long *restrict ra, int nra,
                         const long *restrict outs, int nout,
                         const long *restrict rap, int nslot)
{
    const int chunked = inner >= GCH / 4;
    const long row = nc * inner, tw = chunked ? GCH : row;
    double *restrict t = malloc(sizeof(double) * nslot * tw);
    if (t == NULL)
        return 1;
    for (long o = 0; o < outer; o++) {
        if (!chunked) {
            for (long q = 0; q < nslot * row; q++)
                t[q] = 0;
            for (int r = 0; r < nra; r++) {
                const long *g = ra + 6 * r;
                band_axpy(t + g[0] * row, bt + g[5] * nc,
                          a[g[1]] + (o * n + g[2]) * inner, g[3], g[4], inner,
                          f * inner);
            }
            for (int m = 0; m < nout; m++) {
                const long *h = outs + 5 * m;
                double *restrict d = out[m] + o * row;
                for (long q = 0; q < row; q++)
                    d[q] = 0;
                for (long r = h[3]; r < h[4]; r++)
                    band_axpy(d, bt + rap[2 * r + 1] * nc + h[0],
                              t + rap[2 * r] * row, h[1], h[2], inner, inner);
            }
            continue;
        }
        for (long I = 0; I < nc; I++)
            for (long c0 = 0; c0 < inner; c0 += GCH) {
                const long cw = lmin(GCH, inner - c0);
                for (int sl = 0; sl < nslot; sl++)
                    for (long q = 0; q < cw; q++)
                        t[sl * GCH + q] = 0;
                for (int r = 0; r < nra; r++) {
                    const long *g = ra + 6 * r;
                    if (I < g[3] || I >= g[4])
                        continue;
                    const double wv = bt[g[5] * nc + I];
                    const double *restrict s =
                        a[g[1]] + (o * n + f * I + g[2]) * inner + c0;
                    double *restrict acc = t + g[0] * GCH;
                    for (long q = 0; q < cw; q++)
                        acc[q] += wv * s[q];
                }
                for (int m = 0; m < nout; m++) {
                    const long *h = outs + 5 * m;
                    double *restrict d = out[m] + (o * nc + I) * inner + c0;
                    for (long q = 0; q < cw; q++)
                        d[q] = 0;
                    if (I < h[1] || I >= h[2])
                        continue;
                    for (long r = h[3]; r < h[4]; r++) {
                        const double wv = bt[rap[2 * r + 1] * nc + I + h[0]];
                        const double *restrict acc = t + rap[2 * r] * GCH;
                        for (long q = 0; q < cw; q++)
                            d[q] += acc[q] * wv;
                    }
                }
            }
    }
    free(t);
    return 0;
}

/* ---- setup: Algorithm 1's per-level scale, range audit and truncation ---
 * One pass over a level's FP64 SOA coefficients, data[d][i][j][k] with an
 * m x m block per cell (m = 1 for a scalar grid), each array's planes its
 * own stride apart (sa for the input, ss and so for the scaled values and
 * the payload); repro.kernels.truncate
 * holds the numpy references, whose arithmetic this reproduces:
 *   - with a per-dof weight w (NULL: none), the two-sided scaling W A W of
 *     SGDIAMatrix.scaled_two_sided: an entry whose neighbour is in the grid
 *     becomes a * (w[cell][p] * w[neighbour][q]), any other is copied as it
 *     is.  The scaled values go to `scaled`;
 *   - the range audit of the values (scaled or not) against one format's
 *     thresholds thr = (max, tiny, min_normal), as repro.precision's
 *     range_counts takes it: counts[] of nonzero, non-finite, finite
 *     |v| > max, |v| < tiny and |v| < min_normal values, and the largest
 *     finite |v|.  The counts are integers and the maximum is exact, so
 *     their order of accumulation does not matter;
 *   - the truncation of the values into `out`: kind 8 copies (FP64), kind 4
 *     is the hardware cast to FP32 and kind 2 rounds to FP16 (kind 0 writes
 *     no payload).  FP64 -> FP32 -> FP16 would round twice and differ from
 *     numpy's direct rounding on values just past an FP16 midpoint, so the
 *     FP32 step rounds to odd: the nearest-even cast, moved one ulp toward
 *     zero where it rounded away, with its last bit set where it was
 *     inexact.  FP32 keeps more than two bits below FP16's last one, so
 *     F16C's nearest-even conversion of that float is the correctly
 *     rounded FP16 value, overflow to inf included.  A quiet NaN keeps
 *     numpy's bits (sign and leading payload bits); the hardware quiets a
 *     signaling NaN, which numpy's cast passes through.
 * A grid row is done in chunks of at most CH values, each scaled into a
 * buffer (or into `scaled`), audited and converted while it is in L1. */

#define ABS_BITS 0x7fffffffffffffffL

enum { A_NONZERO, A_NONFINITE, A_OVER, A_TINY, A_NORMAL, A_N };

ALWAYS_INLINE d8_t vabs(d8_t v) { return (d8_t)((l8_t)v & ABS_BITS); }

/* Audit n values; each count is kept per lane as a sum of -1s. */
static inline void audit_chunk(const double *restrict v, long n,
                               const double *restrict thr,
                               l8_t *restrict acc, d8_t *restrict mx)
{
    const l8_t lane = {0, 1, 2, 3, 4, 5, 6, 7};
    const double big = thr[0], tiny = thr[1], normal = thr[2];
    for (long q = 0; q < n; q += KW) {
        const long kc = lmin(KW, n - q);
        const l8_t live = lane < kc;  /* lanes past n hold zeros */
        const d8_t a = vabs(vld_d8_t(v + q, kc));
        const l8_t fin = a <= DBL_MAX;
        const l8_t up = fin & (a > *mx);
        acc[A_NONZERO] += a != 0;
        acc[A_NONFINITE] += ~fin;
        acc[A_OVER] += fin & (a > big);
        acc[A_TINY] += live & (a < tiny);
        acc[A_NORMAL] += live & (a < normal);
        *mx = (d8_t)(((l8_t)a & up) | ((l8_t)*mx & ~up));
    }
}

#if defined(__F16C__)
/* FP64 -> FP16, rounded once (see above), KW values per pass */
static inline void put_h(uint16_t *restrict o, const double *restrict v, long n)
{
    for (long q = 0; q < n; q += KW) {
        const long kc = lmin(KW, n - q);
        const d8_t x = vld_d8_t(v + q, kc);
        const f8_t f = __builtin_convertvector(x, f8_t);
        const d8_t back = __builtin_convertvector(f, d8_t);
        i8_t b = (i8_t)f;
        b += __builtin_convertvector(vabs(back) > vabs(x), i8_t);
        b |= __builtin_convertvector(back != x, i8_t) & 1;
        const __m128i h = _mm256_cvtps_ph((__m256)b, _MM_FROUND_TO_NEAREST_INT);
        if (kc == KW) {
            _mm_storeu_si128((__m128i *)(o + q), h);
        } else {
            uint16_t tmp[KW];
            _mm_storeu_si128((__m128i *)tmp, h);
            __builtin_memcpy(o + q, tmp, kc * sizeof *tmp);
        }
    }
}
#endif

/* cells [k0, k1) of one grid row (pointers at cell 0) into dst (at cell
 * k0): cells [s0, s1) scaled by their row and neighbour weights, the rest
 * copied; wn is the neighbour row's weight at the neighbour of cell 0. */
static inline void scale_chunk(double *restrict dst, const double *restrict a,
                               const double *restrict wr,
                               const double *restrict wn, long k0, long s0,
                               long s1, long k1, int m)
{
    const long mm = (long)m * m;
    double *restrict o = dst - k0 * mm;
    for (long q = k0 * mm; q < s0 * mm; q++)
        o[q] = a[q];
    if (m == 1)
        for (long k = s0; k < s1; k++)
            o[k] = a[k] * (wr[k] * wn[k]);
    else
        for (long k = s0; k < s1; k++)
            for (int p = 0; p < m; p++)
                for (int q = 0; q < m; q++)
                    o[(k * m + p) * m + q] =
                        a[(k * m + p) * m + q] * (wr[k * m + p] * wn[k * m + q]);
    for (long q = s1 * mm; q < k1 * mm; q++)
        o[q] = a[q];
}

/* Returns nonzero for a payload kind this library cannot write. */
int repro_truncate_audit(const double *restrict a, long sa,
                         const double *restrict w,
                         const int *restrict offs, int ndiag, int m,
                         long nx, long ny, long nz, double *restrict scaled,
                         long ss, void *restrict out, long so, int kind,
                         const double *restrict thr, long *restrict counts,
                         double *restrict max_abs)
{
#if !defined(__F16C__)
    if (kind == 2)
        return 1;
#endif
    if (kind != 0 && kind != 2 && kind != 4 && kind != 8)
        return 1;
    const long mm = (long)m * m, row = nz * mm, cells = CH / mm;
    l8_t acc[A_N] = {{0}};
    d8_t mx = {0};
    double buf[CH];
    for (int d = 0; d < ndiag; d++) {
        const long ox = offs[3 * d], oy = offs[3 * d + 1], oz = offs[3 * d + 2];
        const long lo = lmax(0, -oz), hi = lmax(lo, lmin(nz, nz - oz));
        for (long i = 0; i < nx; i++)
            for (long j = 0; j < ny; j++) {
                const long ii = i + ox, jj = j + oy;
                const int inside = ii >= 0 && ii < nx && jj >= 0 && jj < ny;
                const long cell = (i * ny + j) * row;
                const double *ar = a + d * sa + cell;
                const double *wr = NULL, *wn = NULL;
                if (w != NULL && inside) {
                    wr = w + (i * ny + j) * nz * m;
                    wn = w + ((ii * ny + jj) * nz + oz) * m;
                }
                for (long k0 = 0; k0 < nz; k0 += cells) {
                    const long k1 = lmin(k0 + cells, nz), n = (k1 - k0) * mm;
                    const double *v = ar + k0 * mm;
                    if (w != NULL) {
                        double *dst = scaled ? scaled + d * ss + cell + k0 * mm
                                             : buf;
                        const long s0 = wr ? lmin(lmax(k0, lo), k1) : k1;
                        scale_chunk(dst, ar, wr, wn, k0, s0,
                                    wr ? lmax(s0, lmin(k1, hi)) : k1, k1, m);
                        v = dst;
                    }
                    audit_chunk(v, n, thr, acc, &mx);
                    const long at = d * so + cell + k0 * mm;
                    if (kind == 8)
                        __builtin_memcpy((double *)out + at, v, n * sizeof *v);
                    else if (kind == 4)
                        for (long q = 0; q < n; q++)
                            ((float *)out)[at + q] = (float)v[q];
#if defined(__F16C__)
                    else if (kind == 2)
                        put_h((uint16_t *)out + at, v, n);
#endif
                }
            }
    }
    double best = 0;
    for (int c = 0; c < A_N; c++) {
        long s = 0;
        for (int q = 0; q < KW; q++)
            s -= acc[c][q];
        counts[c] = s;
    }
    for (int q = 0; q < KW; q++)
        best = mx[q] > best ? mx[q] : best;
    *max_abs = best;
    return 0;
}

/* Theorem 4.1's max |a_ij| / (sqrt(a_ii) * sqrt(a_jj)) over the entries
 * whose neighbour is in the grid, from sd = sqrt of the per-dof diagonal,
 * as SGDIAMatrix.max_scaled_ratio takes it: an entry that is not > 0
 * (zero, NaN) gives 0; per offset the maximum, which is NaN if any ratio
 * is (numpy's max), and an offset whose maximum is NaN does not count.
 * The ratios of up to CH values of a row go to a buffer, then into a
 * per-lane maximum and NaN flag. */
double repro_scaled_ratio(const double *restrict a, long sa,
                          const double *restrict sd,
                          const int *restrict offs, int ndiag, int m,
                          long nx, long ny, long nz)
{
    const long mm = (long)m * m, row = nz * mm, cells = CH / mm;
    double best = 0, r[CH];
    for (int d = 0; d < ndiag; d++) {
        const long ox = offs[3 * d], oy = offs[3 * d + 1], oz = offs[3 * d + 2];
        const long lo = lmax(0, -oz), hi = lmin(nz, nz - oz);
        d8_t mx = {0};
        l8_t nan = {0};
        for (long i = 0; i < nx; i++)
            for (long j = 0; j < ny; j++) {
                const long ii = i + ox, jj = j + oy;
                if (ii < 0 || ii >= nx || jj < 0 || jj >= ny)
                    continue;
                const double *ar = a + d * sa + (i * ny + j) * row;
                const double *sr = sd + (i * ny + j) * nz * m;
                const double *sn = sd + ((ii * ny + jj) * nz + oz) * m;
                for (long k0 = lo; k0 < hi; k0 += cells) {
                    const long k1 = lmin(k0 + cells, hi), n = (k1 - k0) * mm;
                    if (m == 1)
                        for (long k = k0; k < k1; k++) {
                            const double v = __builtin_fabs(ar[k]);
                            r[k - k0] = v > 0 ? v / (sr[k] * sn[k]) : 0;
                        }
                    else
                        for (long k = k0; k < k1; k++)
                            for (int p = 0; p < m; p++)
                                for (int q = 0; q < m; q++) {
                                    const long e = (k * m + p) * m + q;
                                    const double v = __builtin_fabs(ar[e]);
                                    r[e - k0 * mm] =
                                        v > 0 ? v / (sr[k * m + p] * sn[k * m + q]) : 0;
                                }
                    for (long q = 0; q < n; q += KW) {
                        const d8_t x = vld_d8_t(r + q, lmin(KW, n - q));
                        const l8_t up = x > mx;
                        nan |= x != x;
                        mx = (d8_t)(((l8_t)x & up) | ((l8_t)mx & ~up));
                    }
                }
            }
        double dmax = 0;
        int any_nan = 0;
        for (int q = 0; q < KW; q++) {
            any_nan |= nan[q] != 0;
            dmax = mx[q] > dmax ? mx[q] : dmax;
        }
        if (!any_nan && dmax > best)
            best = dmax;
    }
    return best;
}
