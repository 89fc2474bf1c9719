#include "gp/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/arena.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "gp/fast_lml.h"
#include "linalg/trsm.h"
#include "opt/nelder_mead.h"

namespace clite {
namespace gp {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

/** Half-width of the uniform log-parameter perturbation per restart. */
constexpr double kRestartLogRange = 2.0;

} // namespace

double
Prediction::stddev() const
{
    return std::sqrt(std::max(0.0, variance));
}

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel,
                                 double noise_variance)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance)
{
    CLITE_CHECK(kernel_ != nullptr, "GaussianProcess needs a kernel");
    CLITE_CHECK(noise_variance_ > 0.0,
                "noise variance must be > 0, got " << noise_variance_);
}

GaussianProcess::GaussianProcess(const GaussianProcess& other)
    : kernel_(other.kernel_->clone()),
      noise_variance_(other.noise_variance_),
      x_(other.x_),
      y_raw_(other.y_raw_),
      y_mean_(other.y_mean_),
      y_scale_(other.y_scale_),
      ys_std_(other.ys_std_),
      pair_sqdist_(other.pair_sqdist_),
      pair_sqdiff_(other.pair_sqdiff_),
      chol_(other.chol_),
      alpha_(other.alpha_),
      warm_hyper_(other.warm_hyper_),
      warm_scale_(other.warm_scale_),
      fit_stats_(other.fit_stats_)
{
    // pair_sqdiff_t_ is deliberately NOT copied: it is a pure
    // transpose of pair_sqdiff_, rebuilt on demand by refit(), and
    // carrying it would nearly double a copy's heap footprint —
    // enough to push the copy-then-extend pattern (snapshots, the
    // incremental-extend benchmark) over the allocator's mmap
    // threshold and turn every extension into fresh page faults.
}

GaussianProcess&
GaussianProcess::operator=(const GaussianProcess& other)
{
    if (this != &other) {
        kernel_ = other.kernel_->clone();
        noise_variance_ = other.noise_variance_;
        x_ = other.x_;
        y_raw_ = other.y_raw_;
        y_mean_ = other.y_mean_;
        y_scale_ = other.y_scale_;
        ys_std_ = other.ys_std_;
        pair_sqdist_ = other.pair_sqdist_;
        pair_sqdiff_ = other.pair_sqdiff_;
        pair_sqdiff_t_.clear();
        sqdiff_t_valid_ = false;
        chol_ = other.chol_;
        alpha_ = other.alpha_;
        warm_hyper_ = other.warm_hyper_;
        warm_scale_ = other.warm_scale_;
        fit_stats_ = other.fit_stats_;
    }
    return *this;
}

void
GaussianProcess::fit(const std::vector<linalg::Vector>& x,
                     const std::vector<double>& y)
{
    CLITE_CHECK(x.size() == y.size(), "fit: " << x.size() << " inputs vs "
                                              << y.size() << " targets");
    CLITE_CHECK(!x.empty(), "fit needs at least one training point");
    for (const auto& xi : x)
        CLITE_CHECK(xi.size() == kernel_->dims(),
                    "fit input of dim " << xi.size() << ", kernel expects "
                                        << kernel_->dims());

    x_ = x;
    y_raw_ = y;
    updateStandardization();
    rebuildDistanceCache();
    refit();
}

void
GaussianProcess::addSample(const linalg::Vector& x, double y)
{
    CLITE_CHECK(fitted(), "addSample called before fit");
    CLITE_CHECK(x.size() == kernel_->dims(),
                "addSample input of dim " << x.size()
                                          << ", kernel expects "
                                          << kernel_->dims());
    const size_t n = x_.size();
    appendDistanceCache(x);
    x_.push_back(x);
    y_raw_.push_back(y);
    updateStandardization();

    // Kernel row of the new point against the existing set, from the
    // just-appended cache entries so the values match what refit()
    // would compute for the same pairs.
    const std::vector<double> inv_l2 = inverseSquaredLengthscales();
    const size_t base = n * (n - 1) / 2;
    linalg::Vector krow(n);
    for (size_t j = 0; j < n; ++j)
        krow[j] = kernel_->fromScaledDistance(
            cachedScaledDistance(base + j, inv_l2));
    const double c =
        kernel_->fromScaledDistance(0.0) + noise_variance_;

    if (chol_->appendRow(krow, c)) {
        // Standardization shifts with the new target, so α must be
        // recomputed in full — but through the cached factor: O(n²).
        alpha_ = ys_std_;
        chol_->solveInPlace(alpha_);
    } else {
        // Nearly duplicate point: the appended pivot went non-positive.
        // Refactor from scratch so the jitter search can engage.
        refit();
    }
}

void
GaussianProcess::fitIncremental(const std::vector<linalg::Vector>& x,
                                const std::vector<double>& y)
{
    CLITE_CHECK(x.size() == y.size(), "fitIncremental: " << x.size()
                                          << " inputs vs " << y.size()
                                          << " targets");
    CLITE_CHECK(!x.empty(), "fitIncremental needs at least one point");
    if (!fitted() || x.size() < x_.size()) {
        fit(x, y);
        return;
    }
    for (size_t i = 0; i < x_.size(); ++i) {
        if (x[i] != x_[i] || y[i] != y_raw_[i]) {
            // The shared prefix diverged (a sample was removed,
            // reordered, or re-scored — e.g. quarantined by the fault
            // path): incremental extension would silently keep the
            // dropped point in the factor, so refit from scratch.
            fit(x, y);
            return;
        }
    }
    for (size_t i = x_.size(); i < x.size(); ++i)
        addSample(x[i], y[i]);
}

void
GaussianProcess::updateStandardization()
{
    // Standardize targets; guard against a constant target vector.
    double mean = 0.0;
    for (double v : y_raw_)
        mean += v;
    mean /= double(y_raw_.size());
    double var = 0.0;
    for (double v : y_raw_)
        var += (v - mean) * (v - mean);
    var /= double(y_raw_.size());
    y_mean_ = mean;
    y_scale_ = (var > 1e-12) ? std::sqrt(var) : 1.0;

    ys_std_.resize(y_raw_.size());
    for (size_t i = 0; i < y_raw_.size(); ++i)
        ys_std_[i] = standardize(y_raw_[i]);
}

void
GaussianProcess::rebuildDistanceCache()
{
    const size_t n = x_.size();
    const size_t d = kernel_->dims();
    const bool ard = !kernel_->isotropic();
    pair_sqdist_.clear();
    pair_sqdist_.reserve(n * (n - 1) / 2);
    pair_sqdiff_.clear();
    if (ard)
        pair_sqdiff_.reserve(n * (n - 1) / 2 * d);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < i; ++j) {
            double sum = 0.0;
            for (size_t k = 0; k < d; ++k) {
                double diff = x_[i][k] - x_[j][k];
                double sq = diff * diff;
                sum += sq;
                if (ard)
                    pair_sqdiff_.push_back(sq);
            }
            pair_sqdist_.push_back(sum);
        }
    }
    sqdiff_t_valid_ = false;
}

void
GaussianProcess::appendDistanceCache(const linalg::Vector& x)
{
    const size_t d = kernel_->dims();
    const bool ard = !kernel_->isotropic();
    for (const auto& xj : x_) {
        double sum = 0.0;
        for (size_t k = 0; k < d; ++k) {
            double diff = x[k] - xj[k];
            double sq = diff * diff;
            sum += sq;
            if (ard)
                pair_sqdiff_.push_back(sq);
        }
        pair_sqdist_.push_back(sum);
    }
    sqdiff_t_valid_ = false;
}

std::vector<double>
GaussianProcess::inverseSquaredLengthscales() const
{
    const size_t d = kernel_->dims();
    std::vector<double> inv_l2(d);
    for (size_t k = 0; k < d; ++k) {
        double l = kernel_->lengthscale(k);
        inv_l2[k] = 1.0 / (l * l);
    }
    return inv_l2;
}

double
GaussianProcess::cachedScaledDistance(
    size_t pair, const std::vector<double>& inv_l2) const
{
    double r2;
    if (kernel_->isotropic()) {
        r2 = pair_sqdist_[pair] * inv_l2[0];
    } else {
        const size_t d = inv_l2.size();
        const double* sq = &pair_sqdiff_[pair * d];
        r2 = 0.0;
        for (size_t k = 0; k < d; ++k)
            r2 += sq[k] * inv_l2[k];
    }
    return std::sqrt(r2);
}

void
GaussianProcess::refit()
{
    const size_t n = x_.size();
    const std::vector<double> inv_l2 = inverseSquaredLengthscales();
    const double diag =
        kernel_->fromScaledDistance(0.0) + noise_variance_;
    gram_.reshape(n, n);
    // Batched Gram rebuild: scaled distances for every cached pair
    // (the exact arithmetic of cachedScaledDistance), then one
    // fromScaledDistanceBatch call — whose per-element loop is
    // documented bit-identical to the scalar fromScaledDistance —
    // then a scatter into the symmetric matrix. Same values as the
    // per-pair scalar loop, one virtual call instead of n(n-1)/2.
    const size_t npairs = n * (n - 1) / 2;
    ScratchArena& arena = ScratchArena::forCurrentThread();
    ScratchArena::Frame frame(arena);
    double* r = arena.doubles(npairs);
    double* kv = arena.doubles(npairs);
    if (kernel_->isotropic()) {
        const double inv = inv_l2[0];
        for (size_t pair = 0; pair < npairs; ++pair)
            r[pair] = std::sqrt(pair_sqdist_[pair] * inv);
    } else {
        // k-ascending accumulation across the dimension-major
        // transpose: each r[pair] sums the same terms in the same
        // order as cachedScaledDistance, but the inner loop runs
        // across independent pairs instead of one pair's chained
        // adds.
        const size_t d = inv_l2.size();
        if (!sqdiff_t_valid_) {
            pair_sqdiff_t_.resize(npairs * d);
            for (size_t pair = 0; pair < npairs; ++pair)
                for (size_t k = 0; k < d; ++k)
                    pair_sqdiff_t_[k * npairs + pair] =
                        pair_sqdiff_[pair * d + k];
            sqdiff_t_valid_ = true;
        }
        for (size_t pair = 0; pair < npairs; ++pair)
            r[pair] = 0.0;
        for (size_t k = 0; k < d; ++k) {
            const double* col = pair_sqdiff_t_.data() + k * npairs;
            const double iv = inv_l2[k];
            for (size_t pair = 0; pair < npairs; ++pair)
                r[pair] += col[pair] * iv;
        }
        for (size_t pair = 0; pair < npairs; ++pair)
            r[pair] = std::sqrt(r[pair]);
    }
    kernel_->fromScaledDistanceBatch(r, kv, npairs);
    size_t pair = 0;
    for (size_t i = 0; i < n; ++i) {
        gram_(i, i) = diag;
        for (size_t j = 0; j < i; ++j, ++pair) {
            gram_(i, j) = kv[pair];
            gram_(j, i) = kv[pair];
        }
    }
    // Refactor into the existing factor storage (allocation-free in
    // steady state — the hyper-fit probe loop lives here). A failed
    // factorization restores the "not fitted" invariant the emplace
    // path used to provide before rethrowing.
    if (chol_.has_value()) {
        try {
            chol_->refactor(gram_);
        } catch (...) {
            chol_.reset();
            throw;
        }
    } else {
        chol_.emplace(gram_);
    }
    alpha_ = ys_std_;
    chol_->solveInPlace(alpha_);
}

double
GaussianProcess::standardize(double y) const
{
    return (y - y_mean_) / y_scale_;
}

double
GaussianProcess::destandardizeMean(double m) const
{
    return m * y_scale_ + y_mean_;
}

double
GaussianProcess::destandardizeVar(double v) const
{
    return v * y_scale_ * y_scale_;
}

Prediction
GaussianProcess::predict(const linalg::Vector& x) const
{
    CLITE_CHECK(fitted(), "predict called before fit");
    CLITE_CHECK(x.size() == kernel_->dims(),
                "predict input of dim " << x.size() << ", kernel expects "
                                        << kernel_->dims());
    const size_t n = x_.size();
    linalg::Vector kstar(n);
    for (size_t i = 0; i < n; ++i)
        kstar[i] = (*kernel_)(x, x_[i]);

    double mean_s = linalg::dot(kstar, alpha_);
    linalg::Vector v = chol_->solveLower(kstar);
    double var_s = (*kernel_)(x, x) - linalg::dot(v, v);
    var_s = std::max(0.0, var_s);

    Prediction p;
    p.mean = destandardizeMean(mean_s);
    p.variance = destandardizeVar(var_s);
    return p;
}

void
GaussianProcess::predictBatch(const std::vector<linalg::Vector>& xs,
                              size_t begin, size_t count, double* means,
                              double* variances) const
{
    CLITE_CHECK(fitted(), "predictBatch called before fit");
    CLITE_CHECK(begin <= xs.size() && count <= xs.size() - begin,
                "predictBatch range [" << begin << ", " << begin + count
                                       << ") out of " << xs.size());
    if (count == 0)
        return;
    const size_t n = x_.size();
    const size_t d = kernel_->dims();
    for (size_t c = 0; c < count; ++c)
        CLITE_CHECK(xs[begin + c].size() == d,
                    "predictBatch input of dim " << xs[begin + c].size()
                                                 << ", kernel expects "
                                                 << d);

    ScratchArena& arena = ScratchArena::forCurrentThread();
    ScratchArena::Frame frame(arena);

    // Structure-of-arrays pack of the candidate block: dimension-major
    // so the panel fill's inner loops run contiguously across
    // candidates.
    double* soa = arena.doubles(d * count);
    for (size_t c = 0; c < count; ++c) {
        const double* x = xs[begin + c].data();
        for (size_t k = 0; k < d; ++k)
            soa[k * count + c] = x[k];
    }
    // Cross-covariance panel: row i holds k(cand_c, x_i) for all c.
    double* panel = arena.doubles(n * count);
    double* r_scratch = arena.doubles(count);
    for (size_t i = 0; i < n; ++i)
        kernel_->crossCovarianceRow(soa, count, x_[i].data(), r_scratch,
                                    panel + i * count);

    // Posterior mean: k*ᵀα, i ascending exactly like linalg::dot.
    double* mean_s = arena.doubles(count);
    linalg::panelDotRows(panel, n, count, alpha_.data(), mean_s);

    // One blocked TRSM replaces `count` forward substitutions.
    linalg::solveLowerPanel(chol_->lowerData(), chol_->stride(),
                            chol_->size(), panel, count);

    // Posterior variance: k(x,x) − ‖L⁻¹k*‖² per candidate. The scalar
    // path evaluates the kernel at distance 0 for the diagonal; that
    // is one deterministic value, hoisted.
    double* vv = arena.doubles(count);
    linalg::panelColumnSquaredNorms(panel, n, count, vv);
    const double diag = kernel_->fromScaledDistance(0.0);
    for (size_t c = 0; c < count; ++c) {
        double var_s = diag - vv[c];
        var_s = std::max(0.0, var_s);
        means[c] = destandardizeMean(mean_s[c]);
        variances[c] = destandardizeVar(var_s);
    }
}

std::vector<Prediction>
GaussianProcess::predictBatch(const std::vector<linalg::Vector>& xs) const
{
    std::vector<Prediction> out(xs.size());
    if (xs.empty())
        return out;
    ScratchArena& arena = ScratchArena::forCurrentThread();
    ScratchArena::Frame frame(arena);
    double* means = arena.doubles(xs.size());
    double* vars = arena.doubles(xs.size());
    predictBatch(xs, 0, xs.size(), means, vars);
    for (size_t i = 0; i < xs.size(); ++i) {
        out[i].mean = means[i];
        out[i].variance = vars[i];
    }
    return out;
}

double
GaussianProcess::logMarginalLikelihood() const
{
    CLITE_CHECK(fitted(), "logMarginalLikelihood called before fit");
    const size_t n = x_.size();
    double data_fit = -0.5 * linalg::dot(ys_std_, alpha_);
    double complexity = -0.5 * chol_->logDet();
    double norm = -0.5 * double(n) * kLog2Pi;
    return data_fit + complexity + norm;
}

void
GaussianProcess::seedWarmStart(std::vector<double> hyper, double scale)
{
    warm_hyper_ = std::move(hyper);
    warm_scale_ = scale;
}

void
GaussianProcess::clearWarmStart()
{
    warm_hyper_.clear();
    warm_scale_ = 0.0;
}

std::vector<size_t>
GaussianProcess::probeSubsetIndices(size_t m) const
{
    const size_t n = x_.size();
    CLITE_ASSERT(m >= 2 && m < n, "probe subset must be a strict subset");

    // Stratify by standardized score: sort sample indices by (score,
    // index) — the index tie-break makes the order, and therefore the
    // subset, independent of how the scores were produced — then take
    // one member per stratum. The extreme strata contain the best and
    // worst observed configurations, so the incumbent region always
    // survives the thinning.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         if (ys_std_[a] != ys_std_[b])
                             return ys_std_[a] < ys_std_[b];
                         return a < b;
                     });

    // Seed-stable pick inside each stratum: the choice depends only on
    // (n, stratum), never on an external RNG stream, so the same
    // history yields the same subset on every thread count and every
    // rerun.
    std::vector<size_t> subset(m);
    for (size_t s = 0; s < m; ++s) {
        const size_t lo = s * n / m;
        const size_t hi = (s + 1) * n / m;
        SplitMix64 pick(0x5be5eedd15b5e7a1ULL ^ (uint64_t(n) << 20) ^ s);
        subset[s] = order[lo + pick.next() % (hi - lo)];
    }
    std::sort(subset.begin(), subset.end());
    return subset;
}

double
GaussianProcess::optimizeHyperparameters(Rng& rng,
                                         const GpFitOptions& options)
{
    CLITE_CHECK(fitted(), "optimizeHyperparameters called before fit");
    fit_stats_ = GpFitStats{};

    const bool fit_noise = options.fit_noise;
    std::vector<double> start = kernel_->logParams();
    if (fit_noise)
        start.push_back(std::log(noise_variance_));

    auto objective = [&](const std::vector<double>& p) {
        // Reject absurd parameter magnitudes to keep Cholesky healthy.
        for (double v : p)
            if (!std::isfinite(v) || std::fabs(v) > 12.0)
                return 1e12;
        std::vector<double> kp(p.begin(),
                               p.begin() + long(kernel_->numParams()));
        kernel_->setLogParams(kp);
        if (fit_noise)
            noise_variance_ = std::exp(p.back());
        try {
            refit();
        } catch (const Error&) {
            return 1e12;
        }
        return -logMarginalLikelihood();
    };

    opt::NmOptions nm;
    nm.max_iters = options.max_iters;

    // Restart starting points up front, perturbations drawn from the
    // caller's stream in exactly the order the former serial loop
    // drew them (nothing else consumes the generator in between), so
    // the stream position after this call is unchanged.
    std::vector<std::vector<double>> starts;
    starts.reserve(size_t(options.restarts) + 1);
    starts.push_back(start);
    for (int restart = 0; restart < options.restarts; ++restart) {
        std::vector<double> s = start;
        for (double& v : s)
            v += rng.uniform(-kRestartLogRange, kRestartLogRange);
        starts.push_back(std::move(s));
    }

    // Probe tier: the vectorized LML evaluator over the kernel's
    // radial form. Fast probes agree with the exact value to roundoff
    // but are not bit-identical; only the winner is re-evaluated — and
    // the model refit — through the exact path.
    //
    // From kSubsetThreshold samples on, probes rank hyper-vectors by
    // the LML of a deterministic score-stratified subset (O(m³) per
    // evaluation instead of O(n³)), the persisted warm simplex is
    // probed first and the restarts run only when it regresses, and
    // the winner must finally beat the current exact LML before the
    // refit is kept. That branch returns on its own below; everything
    // past it is the full-history path.
    const RadialForm form = radialFormFor(kernel_->name());
    if (x_.size() >= kSubsetThreshold) {
        const size_t m_sub = kSubsetSize;
        fit_stats_.subset_used = true;

        // Materialize the subset problem: packed pair distances pulled
        // from the full-set cache at pair index i(i-1)/2+j, targets
        // standardized by the FULL set (ranking only — absolute level
        // does not matter, relative curvature does), and a d×m panel
        // for ARD kernels.
        const std::vector<size_t> sub = probeSubsetIndices(m_sub);
        FastLmlProblem sp;
        sp.n = m_sub;
        sp.dims = kernel_->dims();
        sp.isotropic = kernel_->isotropic();
        sp.fit_noise = fit_noise;
        sp.form = form;
        sp.noise_variance = noise_variance_;
        std::vector<double> sub_sqd(m_sub * (m_sub - 1) / 2);
        {
            size_t pair = 0;
            for (size_t i = 0; i < m_sub; ++i)
                for (size_t j = 0; j < i; ++j, ++pair) {
                    const size_t gi = sub[i], gj = sub[j];
                    sub_sqd[pair] =
                        pair_sqdist_[gi * (gi - 1) / 2 + gj];
                }
        }
        sp.pair_sqdist = sub_sqd.data();
        std::vector<double> sub_ys(m_sub);
        for (size_t i = 0; i < m_sub; ++i)
            sub_ys[i] = ys_std_[sub[i]];
        sp.ys_std = sub_ys.data();
        std::vector<double> sub_xt;
        if (!sp.isotropic) {
            const size_t d = sp.dims;
            sub_xt.resize(d * m_sub);
            for (size_t i = 0; i < m_sub; ++i)
                for (size_t k = 0; k < d; ++k)
                    sub_xt[k * m_sub + i] = x_[sub[i]][k];
            sp.x_t = sub_xt.data();
        }

        auto subset_obj = [&sp](const std::vector<double>& p) {
            static thread_local FastLmlScratch scratch;
            return fastNegLogMarginal(sp, p.data(), p.size(), scratch);
        };

        // Warm probe first: one Nelder-Mead descent from the last
        // winning hyper-vector, simplex sized to the move that won it.
        // It wins when it beats the subset objective at the current
        // parameters; only a regression spends the restart budget.
        // (The restart perturbations were already drawn above either
        // way, so the caller's stream position never depends on which
        // branch ran.)
        std::vector<double> cand = start;
        double cand_val;
        bool have_cand = false;
        const double base = subset_obj(start);
        fit_stats_.probe_evals += 1;
        if (warm_hyper_.size() == start.size()) {
            opt::NmOptions wnm = nm;
            wnm.initial_scale =
                std::clamp(warm_scale_, 0.05, nm.initial_scale);
            opt::NmResult wr =
                opt::nelderMeadMinimize(subset_obj, warm_hyper_, wnm);
            fit_stats_.probe_evals += uint64_t(wr.evaluations);
            if (wr.value < base) {
                fit_stats_.warm_hit = true;
                cand = std::move(wr.x);
                cand_val = wr.value;
                have_cand = true;
            }
        }
        if (!have_cand) {
            auto make_subset_objective = [&sp](size_t) {
                return std::function<double(const std::vector<double>&)>(
                    [&sp](const std::vector<double>& p) {
                        static thread_local FastLmlScratch scratch;
                        return fastNegLogMarginal(sp, p.data(), p.size(),
                                                  scratch);
                    });
            };
            const std::vector<opt::NmResult> runs =
                opt::nelderMeadMultiStart(make_subset_objective, starts, nm,
                                          &globalPool());
            cand_val = runs[0].f0;
            for (const opt::NmResult& r : runs) {
                fit_stats_.probe_evals += uint64_t(r.evaluations);
                if (r.value < cand_val) {
                    cand_val = r.value;
                    cand = r.x;
                    have_cand = true;
                }
            }
        }
        if (!have_cand) {
            // Nothing beat the current parameters even on the subset;
            // the model state already reflects them (subset probes are
            // stateless), so keep the fit as is.
            return logMarginalLikelihood();
        }

        // Full-fidelity guard: the subset ranked the candidate above
        // the incumbent, but only the exact objective decides. A
        // candidate that regresses the exact LML is discarded and the
        // entry parameters re-applied (the probes never touched model
        // state, but objective() below does, so the restore must run
        // through it too).
        const double entry_lml = logMarginalLikelihood();
        const double final_neg = objective(cand);
        if (!std::isfinite(final_neg) || -final_neg <= entry_lml) {
            const double restored = objective(start);
            CLITE_ASSERT(std::isfinite(restored),
                         "entry hyper-parameters no longer evaluable");
            // The persisted warm vector just lost at full fidelity;
            // drop it so the next refit spends restarts again instead
            // of trusting a stale simplex.
            clearWarmStart();
            return -restored;
        }
        fit_stats_.improved = true;
        double step = 0.0;
        for (size_t i = 0; i < cand.size(); ++i)
            step = std::max(step, std::fabs(cand[i] - start[i]));
        warm_hyper_ = cand;
        warm_scale_ = std::clamp(step, 0.05, 0.5);
        return -final_neg;
    }

    FastLmlProblem problem;
    problem.n = x_.size();
    problem.dims = kernel_->dims();
    problem.isotropic = kernel_->isotropic();
    problem.fit_noise = fit_noise;
    problem.form = form;
    problem.noise_variance = noise_variance_;
    problem.pair_sqdist = pair_sqdist_.data();
    problem.ys_std = ys_std_.data();
    // ARD: dimension-major copy of the training panel, built once
    // per search — each probe contracts length-scales against this
    // d×n block via the weighted-Gram identity.
    std::vector<double> x_t;
    if (!problem.isotropic) {
        const size_t d = problem.dims;
        const size_t n = x_.size();
        x_t.resize(d * n);
        for (size_t i = 0; i < n; ++i)
            for (size_t k = 0; k < d; ++k)
                x_t[k * n + i] = x_[i][k];
        problem.x_t = x_t.data();
    }

    // The probes are pure (per-thread scratch, shared immutable
    // problem), so the restarts fan out across the pool; results
    // come back in start order regardless of thread count. Scratch
    // is thread-local — a run only ever evaluates on the thread
    // that claimed it, and scratch contents never affect values —
    // so repeated searches are allocation-free in steady state.
    auto make_objective = [&problem](size_t) {
        return std::function<double(const std::vector<double>&)>(
            [&problem](const std::vector<double>& p) {
                static thread_local FastLmlScratch scratch;
                return fastNegLogMarginal(problem, p.data(), p.size(),
                                          scratch);
            });
    };
    const std::vector<opt::NmResult> runs = opt::nelderMeadMultiStart(
        make_objective, starts, nm, &globalPool());

    // Winner by strict improvement in start order — the tie-break the
    // serial loop applied. The baseline to beat is the objective at
    // the unperturbed start, which run 0 already evaluated as vertex 0
    // of its initial simplex (runs are never empty: starts[0] = start).
    std::vector<double> best_p = start;
    double best_neg = runs[0].f0;
    bool improved = false;
    for (const opt::NmResult& r : runs) {
        fit_stats_.probe_evals += uint64_t(r.evaluations);
        if (r.value < best_neg) {
            best_neg = r.value;
            best_p = r.x;
            improved = true;
        }
    }
    fit_stats_.improved = improved;

    // When no run strictly beat the start, the winner IS the current
    // hyper-parameters — and the model state still reflects them
    // (probes are stateless, and the class invariant keeps chol_/α
    // consistent with the current kernel at entry), so re-applying
    // them would rebuild byte-identical state. Skip the O(n³) refit
    // and report the current fit's likelihood.
    if (!improved)
        return logMarginalLikelihood();

    // Apply the winner and leave the model refit with it.
    double final_neg = objective(best_p);
    CLITE_ASSERT(std::isfinite(final_neg),
                 "best hyper-parameters no longer evaluable");
    return -final_neg;
}

} // namespace gp
} // namespace clite
