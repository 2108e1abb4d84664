/* Compiled SG-DIA kernels for the "c" backend (see backend_c.py).
 *
 * Scalar (ncomp == 1) SOA C-contiguous payloads only: data[d][i][j][k].
 * Every kernel is generated once per (storage, compute) pair by
 * DEFINE_KERNELS below; the suffix names the pair (h = fp16 stored as
 * uint16, f = float, d = double), e.g. repro_spmv_hf.
 *
 * Bit parity with the numpy reference is the contract:
 *   - each cell accumulates over stencil offsets in ascending order,
 *     skipping out-of-grid neighbours: y = 0; y += c*x  (SpMV) and
 *     acc = b; acc -= c*x; x = acc*dinv  (sweeps, SpTRSV);
 *   - a coefficient is converted to the compute type before it is
 *     multiplied ((T)c * x), which is what numpy computes for upcasts
 *     (exact) and for downcasts (convert first);
 *   - build with -ffp-contract=off and never -ffast-math, so no FMA
 *     contraction or reassociation changes a rounding.
 * Vectorization runs across the cells of one grid row, never across the
 * terms of one cell, so it changes no operation order.
 */
#include <stdint.h>

#if defined(__F16C__)
#include <immintrin.h>
#endif

/* Cells per row chunk: bounds the on-stack conversion buffers, not the
 * row length (rows of any length are processed chunk by chunk). */
#define CH 512

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

#define DEFINE_KERNELS(SUF, S, T)                                              \
                                                                               \
/* y = A x over the whole grid (every y cell is written). */                   \
void repro_spmv_##SUF(const S *restrict data, const int *restrict offs,       \
                      int ndiag, const T *restrict x, T *restrict y,           \
                      long nx, long ny, long nz)                               \
{                                                                              \
    const long n = nx * ny * nz;                                               \
    for (long i = 0; i < nx; i++)                                              \
        for (long j = 0; j < ny; j++) {                                        \
            const long row = (i * ny + j) * nz;                                \
            T *restrict yr = y + row;                                          \
            for (long k0 = 0; k0 < nz; k0 += CH) {                             \
                const long k1 = lmin(k0 + CH, nz);                             \
                for (long k = k0; k < k1; k++)                                 \
                    yr[k] = 0;                                                 \
                for (int d = 0; d < ndiag; d++) {                              \
                    const long ii = i + offs[3 * d], jj = j + offs[3 * d + 1]; \
                    const long ok = offs[3 * d + 2];                           \
                    if (ii < 0 || ii >= nx || jj < 0 || jj >= ny)              \
                        continue;                                              \
                    const long lo = lmax(k0, -ok), hi = lmin(k1, nz - ok);     \
                    if (lo >= hi)                                              \
                        continue;                                              \
                    madd_##SUF(yr + lo, data + d * n + row + lo,               \
                               x + (ii * ny + jj) * nz + ok + lo, hi - lo);    \
                }                                                              \
            }                                                                  \
        }                                                                      \
}                                                                              \
                                                                               \
/* One color (c0, c1, c2) of the 8-color Gauss-Seidel sweep, in place on x.    \
 * Same-color cells never couple, so the cell order inside a color is free. */ \
void repro_gs_color_##SUF(const S *restrict data, const int *restrict offs,   \
                          int ndiag, int diag, const T *restrict b,            \
                          const T *restrict dinv, T *restrict x,               \
                          long nx, long ny, long nz, int c0, int c1, int c2)   \
{                                                                              \
    const long n = nx * ny * nz;                                               \
    const long cnt = (nz - c2 + 1) / 2; /* color cells per row */              \
    T acc[CH / 2], buf[CH];                                                    \
    for (long i = c0; i < nx; i += 2)                                          \
        for (long j = c1; j < ny; j += 2) {                                    \
            const long row = (i * ny + j) * nz + c2;                           \
            for (long m0 = 0; m0 < cnt; m0 += CH / 2) {                        \
                const long m1 = lmin(m0 + CH / 2, cnt);                        \
                for (long m = m0; m < m1; m++)                                 \
                    acc[m - m0] = b[row + 2 * m];                              \
                for (int d = 0; d < ndiag; d++) {                              \
                    if (d == diag)                                             \
                        continue;                                              \
                    const long ii = i + offs[3 * d], jj = j + offs[3 * d + 1]; \
                    const long ok = offs[3 * d + 2];                           \
                    if (ii < 0 || ii >= nx || jj < 0 || jj >= ny)              \
                        continue;                                              \
                    /* cells l = c2 + 2m with 0 <= l + ok < nz */              \
                    const long lo = lmax(m0, (-ok - c2 + 1) / 2);              \
                    const long hi = lmin(m1, (nz - ok - c2 + 1) / 2);          \
                    if (lo >= hi)                                              \
                        continue;                                              \
                    const T *restrict c = ld_##SUF(                            \
                        data + d * n + row + 2 * lo, buf, 2 * (hi - lo) - 1);  \
                    const T *restrict xr =                                     \
                        x + ((ii * ny + jj) * nz + c2 + ok) + 2 * lo;          \
                    T *restrict ac = acc + (lo - m0);                          \
                    for (long m = 0; m < hi - lo; m++)                         \
                        ac[m] -= c[2 * m] * xr[2 * m];                         \
                }                                                              \
                for (long m = m0; m < m1; m++)                                 \
                    x[row + 2 * m] = acc[m - m0] * dinv[row + 2 * m];          \
            }                                                                  \
        }                                                                      \
}                                                                              \
                                                                               \
/* Triangular solve x = (D + L)^{-1} b (lower) or (D + U)^{-1} b (upper) over  \
 * the offsets used[0..nused), in lexicographic (lower) or reverse           \
 * lexicographic (upper) cell order: every strictly-lower radius-1 offset      \
 * points to a lexicographically smaller cell, so each neighbour is final      \
 * when read, exactly as in the wavefront schedule. */                         \
void repro_sptrsv_##SUF(const S *restrict data, const int *restrict offs,     \
                        const int *restrict used, int nused,                   \
                        const T *restrict b, const T *restrict dinv,           \
                        T *restrict x, long nx, long ny, long nz, int lower)   \
{                                                                              \
    const long n = nx * ny * nz;                                               \
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
                cr[nt] = data + d * n + row;                                   \
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
}

DEFINE_KERNELS(ff, float, float)
DEFINE_KERNELS(dd, double, double)
DEFINE_KERNELS(df, double, float)
DEFINE_KERNELS(fd, float, double)
#if defined(__F16C__)
DEFINE_KERNELS(hf, uint16_t, float)
DEFINE_KERNELS(hd, uint16_t, double)
#endif
