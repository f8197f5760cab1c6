/* The compiled row loops of repro.sparse.CSRMatrix (see native.py).
 *
 * Two loops over a CSR matrix (displ, ind, val), each for float and
 * double, on C-contiguous row-major slabs of `width` columns:
 *
 *   gather:   y[r, :]   = sum over k in row r of val[k] * x[ind[k], :]
 *   scatter8: x[ind, :] += val[k] * y[r, :], rows r ascending, 8 columns
 *
 * Each output element is summed from +0 in exactly the order of scipy's
 * csr_matvecs (gather) and csc_matvecs over the same arrays (scatter):
 * one product, then one add, nonzero by nonzero.  Built with
 * -ffp-contract=off and never -ffast-math, so no fused multiply-add and
 * no reassociation: the results are scipy's bit for bit.  The width-8
 * and width-16 gathers keep the row's sums in registers; wider slabs
 * accumulate into the output row, one vectorised column loop per
 * nonzero.
 */
#include <stdint.h>

#define GATHER_FIXED(T, W)                                                  \
    for (int64_t r = 0; r < rows; r++) {                                    \
        T acc[W] = {0};                                                     \
        for (int64_t k = displ[r]; k < displ[r + 1]; k++) {                 \
            const T a = val[k];                                             \
            const T *restrict xk = x + (int64_t)ind[k] * W;                 \
            for (int c = 0; c < W; c++)                                     \
                acc[c] += a * xk[c];                                        \
        }                                                                   \
        T *restrict yr = y + r * W;                                         \
        for (int c = 0; c < W; c++)                                         \
            yr[c] = acc[c];                                                 \
    }

#define ROW_LOOPS(T, SUFFIX)                                                \
    void gather_##SUFFIX(int64_t rows, int64_t width,                       \
                         const int64_t *restrict displ,                     \
                         const int32_t *restrict ind,                       \
                         const T *restrict val, const T *restrict x,        \
                         T *restrict y)                                     \
    {                                                                       \
        if (width == 8) {                                                   \
            GATHER_FIXED(T, 8)                                              \
            return;                                                         \
        }                                                                   \
        if (width == 16) {                                                  \
            GATHER_FIXED(T, 16)                                             \
            return;                                                         \
        }                                                                   \
        for (int64_t r = 0; r < rows; r++) {                                \
            T *restrict yr = y + r * width;                                 \
            for (int64_t c = 0; c < width; c++)                             \
                yr[c] = 0;                                                  \
            for (int64_t k = displ[r]; k < displ[r + 1]; k++) {             \
                const T a = val[k];                                         \
                const T *restrict xk = x + (int64_t)ind[k] * width;         \
                for (int64_t c = 0; c < width; c++)                         \
                    yr[c] += a * xk[c];                                     \
            }                                                               \
        }                                                                   \
    }                                                                       \
                                                                            \
    void scatter8_##SUFFIX(int64_t rows, const int64_t *restrict displ,     \
                           const int32_t *restrict ind,                     \
                           const T *restrict val, const T *restrict y,      \
                           T *restrict x)                                   \
    {                                                                       \
        for (int64_t r = 0; r < rows; r++) {                                \
            const T *restrict yr = y + r * 8;                               \
            for (int64_t k = displ[r]; k < displ[r + 1]; k++) {             \
                const T a = val[k];                                         \
                T *restrict xk = x + (int64_t)ind[k] * 8;                   \
                for (int c = 0; c < 8; c++)                                 \
                    xk[c] += a * yr[c];                                     \
            }                                                               \
        }                                                                   \
    }

ROW_LOOPS(float, f32)
ROW_LOOPS(double, f64)
