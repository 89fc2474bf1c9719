/**
 * @file
 * Implementation body of the fast LML evaluator, included once per
 * target ISA by fast_lml.cpp with CLITE_FAST_LML_NS set to the
 * variant's namespace name (the AVX2 inclusion sits inside a
 * #pragma GCC target("avx2") region).
 *
 * Everything here is element-wise IEEE arithmetic: explicit generic
 * vectors whose lane k always computes the same scalar expression,
 * scalar libm for the few per-matrix calls (log of the factor
 * diagonal). With contraction disabled for the translation unit the
 * compiled variants are bit-identical regardless of vector width,
 * which is what lets the runtime dispatch stay invisible to
 * reproducibility.
 */

#ifndef CLITE_FAST_LML_NS
#error "fast_lml_impl.h is included by fast_lml.cpp with CLITE_FAST_LML_NS set"
#endif
#ifndef CLITE_FAST_LML_FMA
#error "fast_lml.cpp defines CLITE_FAST_LML_FMA per inclusion"
#endif

namespace CLITE_FAST_LML_NS {

typedef double V4 __attribute__((vector_size(32)));
typedef long long V4i __attribute__((vector_size(32)));

/** Broadcast a scalar across the four lanes. */
inline V4
vsplat(double x)
{
    return (V4){x, x, x, x};
}

/**
 * Correctly-rounded fused multiply-add, lane-wise. Both ISA variants
 * compute the identical IEEE fma value: the wide variant as one
 * vfmaddpd, the baseline through libm's fma (which glibc resolves to
 * the hardware instruction when present and to the exact software
 * path otherwise). This is what lets the hot loops run fused without
 * the two variants drifting apart.
 */
inline V4
vfma(V4 a, V4 b, V4 c)
{
#if CLITE_FAST_LML_FMA
    return __builtin_ia32_vfmaddpd256(a, b, c);
#else
    return (V4){__builtin_fma(a[0], b[0], c[0]),
                __builtin_fma(a[1], b[1], c[1]),
                __builtin_fma(a[2], b[2], c[2]),
                __builtin_fma(a[3], b[3], c[3])};
#endif
}

/** Scalar twin of vfma. */
inline double
sfma(double a, double b, double c)
{
    return __builtin_fma(a, b, c);
}

/**
 * Correctly-rounded square root, lane-wise. IEEE requires sqrt to be
 * exactly rounded, so one vsqrtpd and four scalar sqrts agree bit for
 * bit — fusing the sqrt into a consumer loop never costs the
 * cross-variant identity.
 */
inline V4
vsqrt(V4 a)
{
#if CLITE_FAST_LML_FMA
    return __builtin_ia32_sqrtpd256(a);
#else
    return (V4){__builtin_sqrt(a[0]), __builtin_sqrt(a[1]),
                __builtin_sqrt(a[2]), __builtin_sqrt(a[3])};
#endif
}

constexpr double kLog2e = 1.4426950408889634074;
/// ln(2) split hi/lo for exact argument reduction.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
/**
 * 1.5·2^52 + 1023: adding it to y rounds y to the nearest integer in
 * the low mantissa bits AND leaves the IEEE-biased exponent of 2^y
 * sitting there (y + 1023 is positive over the whole live domain), so
 * the scale factor is one left-shift of the bit pattern — no
 * float-to-int conversion anywhere.
 */
constexpr double kExpMagicBias = 6755399441056767.0;
/// exp underflows to an exact 0.0 below this (keeps 2^e normal).
constexpr double kExpCutoff = -708.0;
constexpr double kLog2Pi = 1.8378770664093453;

/** Scalar exp over the negative domain; twin of expNeg4 lane math. */
inline double
expNeg(double x)
{
    double live = x > kExpCutoff ? 1.0 : 0.0;
    double xx = x > kExpCutoff ? x : kExpCutoff;
    double t = sfma(xx, kLog2e, kExpMagicBias);
    double nd = t - kExpMagicBias;
    double r = sfma(-nd, kLn2Hi, xx);
    r = sfma(-nd, kLn2Lo, r);
    unsigned long long tb;
    __builtin_memcpy(&tb, &t, 8);
    unsigned long long sb = tb << 52;
    double scale;
    __builtin_memcpy(&scale, &sb, 8);
    // Taylor tail on [-ln2/2, ln2/2]; max dropped term < 1 ulp.
    double q = 1.0 / 479001600.0;
    q = sfma(q, r, 1.0 / 39916800.0);
    q = sfma(q, r, 1.0 / 3628800.0);
    q = sfma(q, r, 1.0 / 362880.0);
    q = sfma(q, r, 1.0 / 40320.0);
    q = sfma(q, r, 1.0 / 5040.0);
    q = sfma(q, r, 1.0 / 720.0);
    q = sfma(q, r, 1.0 / 120.0);
    q = sfma(q, r, 1.0 / 24.0);
    q = sfma(q, r, 1.0 / 6.0);
    q = sfma(q, r, 0.5);
    double p = sfma(r * r, q, 1.0 + r);
    return p * scale * live;
}

/** Four-lane exp over the negative domain (x[k] <= 0 for all k). */
inline V4
expNeg4(V4 x)
{
    const V4 vcut = {kExpCutoff, kExpCutoff, kExpCutoff, kExpCutoff};
    const V4 vone = {1.0, 1.0, 1.0, 1.0};
    const V4 vzero = {0.0, 0.0, 0.0, 0.0};
    V4 live = x > vcut ? vone : vzero;
    V4 xx = x > vcut ? x : vcut;
    V4 t = vfma(xx, vsplat(kLog2e), vsplat(kExpMagicBias));
    V4 nd = t - kExpMagicBias;
    V4 r = vfma(-nd, vsplat(kLn2Hi), xx);
    r = vfma(-nd, vsplat(kLn2Lo), r);
    V4i tb;
    __builtin_memcpy(&tb, &t, 32);
    V4i sb = tb << 52;
    V4 scale;
    __builtin_memcpy(&scale, &sb, 32);
    V4 q = vsplat(1.0 / 479001600.0);
    q = vfma(q, r, vsplat(1.0 / 39916800.0));
    q = vfma(q, r, vsplat(1.0 / 3628800.0));
    q = vfma(q, r, vsplat(1.0 / 362880.0));
    q = vfma(q, r, vsplat(1.0 / 40320.0));
    q = vfma(q, r, vsplat(1.0 / 5040.0));
    q = vfma(q, r, vsplat(1.0 / 720.0));
    q = vfma(q, r, vsplat(1.0 / 120.0));
    q = vfma(q, r, vsplat(1.0 / 24.0));
    q = vfma(q, r, vsplat(1.0 / 6.0));
    q = vfma(q, r, vsplat(0.5));
    V4 p = vfma(r * r, q, vone + r);
    return p * scale * live;
}

/**
 * Dot product over two four-lane accumulators (eight independent
 * chains — the fma feeding each accumulator has 4-cycle latency, so a
 * single chain would cap at one fma per four cycles); the reduction
 * tree is fixed by the source, so the value does not depend on the
 * vector width the compiler picks.
 */
inline double
dot4(const double* a, const double* b, size_t m)
{
    V4 acc0 = {0.0, 0.0, 0.0, 0.0};
    V4 acc1 = {0.0, 0.0, 0.0, 0.0};
    size_t k = 0;
    for (; k + 8 <= m; k += 8) {
        V4 va0, vb0, va1, vb1;
        __builtin_memcpy(&va0, a + k, 32);
        __builtin_memcpy(&vb0, b + k, 32);
        __builtin_memcpy(&va1, a + k + 4, 32);
        __builtin_memcpy(&vb1, b + k + 4, 32);
        acc0 = vfma(va0, vb0, acc0);
        acc1 = vfma(va1, vb1, acc1);
    }
    if (k + 4 <= m) {
        V4 va, vb;
        __builtin_memcpy(&va, a + k, 32);
        __builtin_memcpy(&vb, b + k, 32);
        acc0 = vfma(va, vb, acc0);
        k += 4;
    }
    V4 acc = acc0 + acc1;
    double s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (; k < m; ++k)
        s = sfma(a[k], b[k], s);
    return s;
}

/**
 * Packed-row Cholesky (row i at offset i(i+1)/2), processed four rows
 * at a time: the block's entries for column j live in the four lanes
 * of one vector, accumulated from a transposed copy of the in-flight
 * rows (@p panel, 4-lane-major) against broadcasts of row j — no
 * horizontal reductions in the O(n³) part, and the four rows' divide
 * chains overlap. Divisions go through the reciprocal diagonal
 * @p invd (also consumed by the forward solve). Returns false on a
 * non-positive or non-finite pivot, mirroring the exact factor's
 * failure test so the jitter ladder engages at the same points.
 * (An eight-row variant was measured no faster here: the sweep is as
 * store/extract-bound as it is load-bound, so halving the broadcasts
 * does not shorten the critical resource.)
 */
inline bool
factorPacked(const double* k_lower, double diag, size_t n, double* l,
             double* invd, double* panel)
{
    size_t i0 = 0;
    for (; i0 + 4 <= n; i0 += 4) {
        double* li[4];
        const double* krow[4];
        for (size_t r = 0; r < 4; ++r) {
            const size_t i = i0 + r;
            li[r] = l + i * (i + 1) / 2;
            krow[r] = k_lower + i * (i - 1) / 2;
        }
        // Panel: columns j < i0 for all four rows at once. Four
        // accumulator chains keep the fma pipes full (see dot4).
        for (size_t j = 0; j < i0; ++j) {
            const double* lj = l + j * (j + 1) / 2;
            V4 sa = {0.0, 0.0, 0.0, 0.0};
            V4 sb = {0.0, 0.0, 0.0, 0.0};
            V4 sc2 = {0.0, 0.0, 0.0, 0.0};
            V4 sd = {0.0, 0.0, 0.0, 0.0};
            size_t k = 0;
            for (; k + 4 <= j; k += 4) {
                V4 p0, p1, p2, p3;
                __builtin_memcpy(&p0, panel + k * 4, 32);
                __builtin_memcpy(&p1, panel + (k + 1) * 4, 32);
                __builtin_memcpy(&p2, panel + (k + 2) * 4, 32);
                __builtin_memcpy(&p3, panel + (k + 3) * 4, 32);
                sa = vfma(p0, vsplat(lj[k]), sa);
                sb = vfma(p1, vsplat(lj[k + 1]), sb);
                sc2 = vfma(p2, vsplat(lj[k + 2]), sc2);
                sd = vfma(p3, vsplat(lj[k + 3]), sd);
            }
            for (; k < j; ++k) {
                V4 p0;
                __builtin_memcpy(&p0, panel + k * 4, 32);
                sa = vfma(p0, vsplat(lj[k]), sa);
            }
            V4 s = (sa + sb) + (sc2 + sd);
            V4 kv = {krow[0][j], krow[1][j], krow[2][j], krow[3][j]};
            V4 e = (kv - s) * invd[j];
            li[0][j] = e[0];
            li[1][j] = e[1];
            li[2][j] = e[2];
            li[3][j] = e[3];
            __builtin_memcpy(panel + j * 4, &e, 32);
        }
        // 4x4 diagonal corner: pivots and the entries under them. The
        // dots of all four rows against row c run through the panel
        // transpose in one lane-parallel sweep (k < i0, a multiple of
        // four), plus a short scalar tail over the corner columns
        // already produced by earlier c iterations.
        for (size_t c = 0; c < 4; ++c) {
            const size_t jc = i0 + c;
            const double* lc = li[c];
            V4 sa = {0.0, 0.0, 0.0, 0.0};
            V4 sb = {0.0, 0.0, 0.0, 0.0};
            V4 sc2 = {0.0, 0.0, 0.0, 0.0};
            V4 sd = {0.0, 0.0, 0.0, 0.0};
            for (size_t k = 0; k + 4 <= i0; k += 4) {
                V4 p0, p1, p2, p3;
                __builtin_memcpy(&p0, panel + k * 4, 32);
                __builtin_memcpy(&p1, panel + (k + 1) * 4, 32);
                __builtin_memcpy(&p2, panel + (k + 2) * 4, 32);
                __builtin_memcpy(&p3, panel + (k + 3) * 4, 32);
                sa = vfma(p0, vsplat(lc[k]), sa);
                sb = vfma(p1, vsplat(lc[k + 1]), sb);
                sc2 = vfma(p2, vsplat(lc[k + 2]), sc2);
                sd = vfma(p3, vsplat(lc[k + 3]), sd);
            }
            const V4 s = (sa + sb) + (sc2 + sd);
            double tot[4];
            for (size_t r = 0; r < 4; ++r) {
                double t = s[r];
                for (size_t k = i0; k < jc; ++k)
                    t = sfma(li[r][k], lc[k], t);
                tot[r] = t;
            }
            double pivot = diag - tot[c];
            if (pivot <= 0.0 || !std::isfinite(pivot))
                return false;
            const double d = std::sqrt(pivot);
            li[c][jc] = d;
            invd[jc] = 1.0 / d;
            for (size_t r = c + 1; r < 4; ++r)
                li[r][jc] = (krow[r][jc] - tot[r]) * invd[jc];
        }
        // Refresh the panel transpose with the corner columns so the
        // next block's k-loop covers them.
        for (size_t c = 0; c < 4; ++c) {
            const size_t jc = i0 + c;
            for (size_t r = 0; r < 4; ++r)
                panel[jc * 4 + r] = r >= c ? li[r][jc] : 0.0;
        }
    }
    // Ragged tail rows, one at a time.
    for (size_t i = i0; i < n; ++i) {
        const double* krow = k_lower + i * (i - 1) / 2;
        double* lrow = l + i * (i + 1) / 2;
        for (size_t j = 0; j < i; ++j) {
            const double* lj = l + j * (j + 1) / 2;
            lrow[j] = (krow[j] - dot4(lrow, lj, j)) * invd[j];
        }
        double pivot = diag - dot4(lrow, lrow, i);
        if (pivot <= 0.0 || !std::isfinite(pivot))
            return false;
        lrow[i] = std::sqrt(pivot);
        invd[i] = 1.0 / lrow[i];
    }
    return true;
}

/** Negative log marginal likelihood; see fast_lml.h for the contract. */
double
negLogMarginal(const clite::gp::FastLmlProblem& pr, const double* p,
               size_t np, clite::gp::FastLmlScratch& sc)
{
    using clite::gp::RadialForm;

    // Same parameter gate as the exact objective.
    for (size_t i = 0; i < np; ++i)
        if (!std::isfinite(p[i]) || std::fabs(p[i]) > 12.0)
            return 1e12;

    const size_t n = pr.n;
    const size_t npairs = n * (n - 1) / 2;
    const double sv = std::exp(p[0]);
    const double noise = std::exp(p[np - 1]);
    const double diag = sv + noise;

    // Scaled squared distances r² = Σ_d (Δx_d)² / ℓ_d².
    sc.r2.resize(npairs);
    double* r2 = sc.r2.data();
    if (pr.isotropic) {
        const double l = std::exp(p[1]);
        const double inv = 1.0 / (l * l);
        const double* sqd = pr.pair_sqdist;
        for (size_t i = 0; i < npairs; ++i)
            r2[i] = sqd[i] * inv;
    } else {
        // ARD via the weighted-Gram identity: with w_k = 1/ℓ_k² and
        // q_i = Σ_k w_k x_ik², r²_ij = q_i + q_j − 2 Σ_k w_k x_ik x_jk.
        // The contraction reads only the d×n training panel (L1-hot)
        // instead of an O(n²d) per-pair difference table. Cancellation
        // for near-coincident points costs relative accuracy in tiny
        // r² values, but every radial form this tier serves has zero
        // derivative in r at 0, so kernel values stay accurate; the
        // max(·, 0) guard absorbs the negative-roundoff corner.
        sc.inv_l2.resize(pr.dims);
        for (size_t k = 0; k < pr.dims; ++k) {
            const double l = std::exp(p[1 + k]);
            sc.inv_l2[k] = 1.0 / (l * l);
        }
        const size_t d = pr.dims;
        const double* w = sc.inv_l2.data();
        sc.q.resize(n);
        double* q = sc.q.data();
        for (size_t i = 0; i < n; ++i)
            q[i] = 0.0;
        for (size_t k = 0; k < d; ++k) {
            const double* col = pr.x_t + k * n;
            const double wk = w[k];
            for (size_t i = 0; i < n; ++i)
                q[i] = sfma(wk * col[i], col[i], q[i]);
        }
        // Scalar Gram entry: G_ij with row i's weights folded in.
        auto gramAt = [&](const double* a, size_t j) {
            double s = 0.0;
            for (size_t k = 0; k < d; ++k)
                s = sfma(a[k], pr.x_t[k * n + j], s);
            return s;
        };
        // Rows in blocks of four so each loaded column chunk feeds
        // four accumulators; the head rows (i < 4) and the ragged tail
        // go through the scalar entry path.
        sc.wa.resize(5 * d);
        double* a = sc.wa.data();
        double* ai = sc.wa.data() + 4 * d;
        size_t i0 = 4;
        for (; i0 + 4 <= n; i0 += 4) {
            for (size_t r = 0; r < 4; ++r)
                for (size_t k = 0; k < d; ++k)
                    a[r * d + k] = w[k] * pr.x_t[k * n + (i0 + r)];
            double* row[4];
            for (size_t r = 0; r < 4; ++r)
                row[r] = r2 + (i0 + r) * (i0 + r - 1) / 2;
            // Shared j-range [0, i0) — a multiple of 4, no tail. The
            // k-loop is bound by the load ports (each vsplat is a
            // broadcast-load), so columns are tiled by eight: one
            // weight broadcast then feeds two column vectors, and the
            // per-column load traffic drops by ~40%. Lane math is
            // unchanged by the tiling — each (row, j) chain is the
            // same k-ascending vfma sequence.
            const V4 vz = {0.0, 0.0, 0.0, 0.0};
            auto finish4 = [&](size_t jc, V4 g0, V4 g1, V4 g2, V4 g3) {
                V4 qj;
                __builtin_memcpy(&qj, q + jc, 32);
                V4 e0 = (q[i0 + 0] + qj) - 2.0 * g0;
                V4 e1 = (q[i0 + 1] + qj) - 2.0 * g1;
                V4 e2 = (q[i0 + 2] + qj) - 2.0 * g2;
                V4 e3 = (q[i0 + 3] + qj) - 2.0 * g3;
                e0 = e0 > vz ? e0 : vz;
                e1 = e1 > vz ? e1 : vz;
                e2 = e2 > vz ? e2 : vz;
                e3 = e3 > vz ? e3 : vz;
                __builtin_memcpy(row[0] + jc, &e0, 32);
                __builtin_memcpy(row[1] + jc, &e1, 32);
                __builtin_memcpy(row[2] + jc, &e2, 32);
                __builtin_memcpy(row[3] + jc, &e3, 32);
            };
            size_t j = 0;
            for (; j + 8 <= i0; j += 8) {
                V4 g0a = vz, g1a = vz, g2a = vz, g3a = vz;
                V4 g0b = vz, g1b = vz, g2b = vz, g3b = vz;
                for (size_t k = 0; k < d; ++k) {
                    V4 va, vb;
                    __builtin_memcpy(&va, pr.x_t + k * n + j, 32);
                    __builtin_memcpy(&vb, pr.x_t + k * n + j + 4, 32);
                    const V4 w0 = vsplat(a[0 * d + k]);
                    const V4 w1 = vsplat(a[1 * d + k]);
                    const V4 w2 = vsplat(a[2 * d + k]);
                    const V4 w3 = vsplat(a[3 * d + k]);
                    g0a = vfma(va, w0, g0a);
                    g0b = vfma(vb, w0, g0b);
                    g1a = vfma(va, w1, g1a);
                    g1b = vfma(vb, w1, g1b);
                    g2a = vfma(va, w2, g2a);
                    g2b = vfma(vb, w2, g2b);
                    g3a = vfma(va, w3, g3a);
                    g3b = vfma(vb, w3, g3b);
                }
                finish4(j, g0a, g1a, g2a, g3a);
                finish4(j + 4, g0b, g1b, g2b, g3b);
            }
            for (; j + 4 <= i0; j += 4) {
                V4 g0 = vz, g1 = vz, g2 = vz, g3 = vz;
                for (size_t k = 0; k < d; ++k) {
                    V4 v;
                    __builtin_memcpy(&v, pr.x_t + k * n + j, 32);
                    g0 = vfma(v, vsplat(a[0 * d + k]), g0);
                    g1 = vfma(v, vsplat(a[1 * d + k]), g1);
                    g2 = vfma(v, vsplat(a[2 * d + k]), g2);
                    g3 = vfma(v, vsplat(a[3 * d + k]), g3);
                }
                finish4(j, g0, g1, g2, g3);
            }
            // Triangle corner within the block: j in [i0, i).
            for (size_t r = 1; r < 4; ++r) {
                const size_t i = i0 + r;
                for (size_t j = i0; j < i; ++j) {
                    const double v =
                        (q[i] + q[j]) - 2.0 * gramAt(a + r * d, j);
                    row[r][j] = v > 0.0 ? v : 0.0;
                }
            }
        }
        // Head rows 1..3 and the ragged tail rows.
        auto scalarRow = [&](size_t i) {
            for (size_t k = 0; k < d; ++k)
                ai[k] = w[k] * pr.x_t[k * n + i];
            double* row = r2 + i * (i - 1) / 2;
            for (size_t j = 0; j < i; ++j) {
                const double v = (q[i] + q[j]) - 2.0 * gramAt(ai, j);
                row[j] = v > 0.0 ? v : 0.0;
            }
        };
        for (size_t i = 1; i < (n < 4 ? n : size_t(4)); ++i)
            scalarRow(i);
        for (size_t i = i0; i < n; ++i)
            scalarRow(i);
    }

    // Kernel values per pair. The Matérn forms share the structure
    // σ_f² · poly(s) · exp(−s) with s = c·r; RBF is σ_f²·exp(−r²/2).
    sc.kv.resize(npairs);
    double* kv = sc.kv.data();
    if (pr.form == RadialForm::Rbf) {
        size_t i = 0;
        for (; i + 4 <= npairs; i += 4) {
            V4 v;
            __builtin_memcpy(&v, r2 + i, 32);
            V4 e = expNeg4(-0.5 * v);
            V4 out = sv * e;
            __builtin_memcpy(kv + i, &out, 32);
        }
        for (; i < npairs; ++i)
            kv[i] = sv * expNeg(-0.5 * r2[i]);
    } else {
        const double c = pr.form == RadialForm::Matern52
                             ? 2.2360679774997896  // √5
                             : 1.7320508075688772; // √3
        const bool m52 = pr.form == RadialForm::Matern52;
        const V4 vone = {1.0, 1.0, 1.0, 1.0};
        size_t i = 0;
        for (; i + 4 <= npairs; i += 4) {
            V4 v;
            __builtin_memcpy(&v, r2 + i, 32);
            V4 s = c * vsqrt(v);
            V4 e = expNeg4(-s);
            V4 poly =
                m52 ? vfma(s * s, vsplat(1.0 / 3.0), vone + s) : vone + s;
            V4 out = sv * poly * e;
            __builtin_memcpy(kv + i, &out, 32);
        }
        for (; i < npairs; ++i) {
            double s = c * std::sqrt(r2[i]);
            double e = expNeg(-s);
            double poly = m52 ? sfma(s * s, 1.0 / 3.0, 1.0 + s) : 1.0 + s;
            kv[i] = sv * poly * e;
        }
    }

    // Factor with the exact path's jitter ladder: plain attempt, then
    // decades jitter … max_jitter; total failure scores like the
    // exact objective's caught factorization error.
    sc.factor.resize(n * (n + 1) / 2);
    sc.invd.resize(n);
    sc.panel.resize(4 * n);
    double* l = sc.factor.data();
    bool ok = factorPacked(kv, diag, n, l, sc.invd.data(),
                           sc.panel.data());
    for (double j = 1e-10; !ok && j <= 1e-2; j *= 10.0)
        ok = factorPacked(kv, diag + j, n, l, sc.invd.data(),
                          sc.panel.data());
    if (!ok)
        return 1e12;

    // Data fit through one forward solve: y'K⁻¹y = ‖L⁻¹y‖².
    sc.z.resize(n);
    double* z = sc.z.data();
    for (size_t i = 0; i < n; ++i) {
        const double* lrow = l + i * (i + 1) / 2;
        z[i] = (pr.ys_std[i] - dot4(lrow, z, i)) * sc.invd[i];
    }
    const double data_fit = dot4(z, z, n);

    double half_logdet = 0.0;
    for (size_t i = 0; i < n; ++i)
        half_logdet += std::log(l[i * (i + 1) / 2 + i]);

    return 0.5 * data_fit + half_logdet + 0.5 * double(n) * kLog2Pi;
}

} // namespace CLITE_FAST_LML_NS
