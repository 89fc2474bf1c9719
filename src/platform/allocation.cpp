#include "platform/allocation.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/error.h"
#include "opt/simplex.h"

namespace clite {
namespace platform {

Allocation::Allocation(size_t njobs, const ServerConfig& config)
    : njobs_(njobs)
{
    CLITE_CHECK(njobs_ >= 1, "allocation needs >= 1 job");
    units_per_resource_.reserve(config.resourceCount());
    for (size_t r = 0; r < config.resourceCount(); ++r) {
        int units = config.resource(r).units;
        CLITE_CHECK(size_t(units) >= njobs_,
                    "resource " << resourceName(config.resource(r).kind)
                                << " has " << units << " units, cannot give "
                                << njobs_ << " jobs one each");
        units_per_resource_.push_back(units);
    }
    cells_.assign(njobs_ * units_per_resource_.size(), 1);
}

Allocation
Allocation::equalShare(size_t njobs, const ServerConfig& config)
{
    Allocation a(njobs, config);
    for (size_t r = 0; r < a.resources(); ++r) {
        int units = a.units_per_resource_[r];
        int base = units / int(njobs);
        int extra = units % int(njobs);
        for (size_t j = 0; j < njobs; ++j)
            a.set(j, r, base + (int(j) < extra ? 1 : 0));
    }
    a.validate();
    return a;
}

Allocation
Allocation::maxFor(size_t favoured, size_t njobs, const ServerConfig& config)
{
    CLITE_CHECK(favoured < njobs, "favoured job " << favoured << " out of "
                                      << njobs);
    Allocation a(njobs, config);
    for (size_t r = 0; r < a.resources(); ++r) {
        int units = a.units_per_resource_[r];
        for (size_t j = 0; j < njobs; ++j)
            a.set(j, r, j == favoured ? units - int(njobs) + 1 : 1);
    }
    a.validate();
    return a;
}

int
Allocation::get(size_t j, size_t r) const
{
    CLITE_CHECK(j < njobs_ && r < resources(),
                "allocation index (" << j << "," << r << ") out of "
                                     << njobs_ << "x" << resources());
    return cells_[j * resources() + r];
}

std::vector<int>
Allocation::row(size_t j) const
{
    CLITE_CHECK(j < njobs_, "job " << j << " out of " << njobs_);
    const auto first = cells_.begin() + std::ptrdiff_t(j * resources());
    return std::vector<int>(first, first + std::ptrdiff_t(resources()));
}

void
Allocation::set(size_t j, size_t r, int units)
{
    CLITE_CHECK(j < njobs_ && r < resources(),
                "allocation index (" << j << "," << r << ") out of "
                                     << njobs_ << "x" << resources());
    cells_[j * resources() + r] = units;
}

int
Allocation::resourceUnits(size_t r) const
{
    CLITE_CHECK(r < resources(), "resource index " << r << " out of "
                                     << resources());
    return units_per_resource_[r];
}

int
Allocation::columnSum(size_t r) const
{
    int sum = 0;
    for (size_t j = 0; j < njobs_; ++j)
        sum += get(j, r);
    return sum;
}

bool
Allocation::valid() const
{
    for (size_t r = 0; r < resources(); ++r) {
        if (columnSum(r) != units_per_resource_[r])
            return false;
        for (size_t j = 0; j < njobs_; ++j)
            if (get(j, r) < 1)
                return false;
    }
    return true;
}

void
Allocation::validate() const
{
    for (size_t r = 0; r < resources(); ++r) {
        CLITE_CHECK(columnSum(r) == units_per_resource_[r],
                    "resource " << r << " allocates " << columnSum(r)
                                << " of " << units_per_resource_[r]
                                << " units");
        for (size_t j = 0; j < njobs_; ++j)
            CLITE_CHECK(get(j, r) >= 1, "job " << j << " has "
                                               << get(j, r)
                                               << " units of resource "
                                               << r);
    }
}

bool
Allocation::transferUnit(size_t r, size_t from, size_t to)
{
    if (get(from, r) <= 1)
        return false;
    set(from, r, get(from, r) - 1);
    set(to, r, get(to, r) + 1);
    return true;
}

Allocation
Allocation::withJobAdded() const
{
    const size_t old_jobs = njobs_;
    const size_t new_jobs = old_jobs + 1;
    Allocation out = *this;
    out.njobs_ = new_jobs;
    out.cells_.resize(new_jobs * resources(), 0);

    for (size_t r = 0; r < resources(); ++r) {
        int units = units_per_resource_[r];
        CLITE_CHECK(size_t(units) >= new_jobs,
                    "resource " << r << " has " << units
                                << " units, cannot host " << new_jobs
                                << " jobs");
        // The newcomer's fair share, but never so much that a donor
        // would drop below 1 unit.
        int want = std::max(1, units / int(new_jobs));
        int have = 0;
        while (have < want) {
            size_t richest = 0;
            for (size_t j = 1; j < old_jobs; ++j)
                if (out.get(j, r) > out.get(richest, r))
                    richest = j;
            if (out.get(richest, r) <= 1)
                break;
            out.set(richest, r, out.get(richest, r) - 1);
            ++have;
        }
        CLITE_CHECK(have >= 1, "resource " << r
                                           << " cannot give the new job a "
                                              "unit");
        out.set(old_jobs, r, have);
    }
    out.validate();
    return out;
}

Allocation
Allocation::withJobRemoved(size_t j) const
{
    CLITE_CHECK(njobs_ >= 2, "cannot remove the only job");
    CLITE_CHECK(j < njobs_, "job " << j << " out of " << njobs_);
    const size_t new_jobs = njobs_ - 1;
    Allocation out = *this;
    out.njobs_ = new_jobs;
    out.cells_.clear();
    out.cells_.reserve(new_jobs * resources());
    for (size_t jj = 0; jj < njobs_; ++jj) {
        if (jj == j)
            continue;
        for (size_t r = 0; r < resources(); ++r)
            out.cells_.push_back(get(jj, r));
    }
    // Hand the departed job's units to the currently poorest survivors
    // (ties to the lowest index), keeping the shape balanced.
    for (size_t r = 0; r < resources(); ++r) {
        int freed = get(j, r);
        while (freed-- > 0) {
            size_t poorest = 0;
            for (size_t jj = 1; jj < new_jobs; ++jj)
                if (out.get(jj, r) < out.get(poorest, r))
                    poorest = jj;
            out.set(poorest, r, out.get(poorest, r) + 1);
        }
    }
    out.validate();
    return out;
}

std::vector<double>
Allocation::flattenNormalized() const
{
    std::vector<double> flat(flatSize());
    for (size_t j = 0; j < njobs_; ++j)
        for (size_t r = 0; r < resources(); ++r)
            flat[j * resources() + r] =
                double(get(j, r)) / double(units_per_resource_[r]);
    return flat;
}

Allocation
Allocation::fromFlatNormalized(const std::vector<double>& flat, size_t njobs,
                               const ServerConfig& config)
{
    Allocation a(njobs, config);
    CLITE_CHECK(flat.size() == a.flatSize(),
                "flat vector of length " << flat.size() << ", expected "
                                         << a.flatSize());
    const size_t nres = a.resources();
    for (size_t r = 0; r < nres; ++r) {
        int units = a.units_per_resource_[r];
        std::vector<double> col(njobs);
        std::vector<int> lo(njobs, 1);
        std::vector<int> hi(njobs, units - int(njobs) + 1);
        for (size_t j = 0; j < njobs; ++j)
            col[j] = flat[j * nres + r] * double(units);
        std::vector<int> rounded =
            opt::roundToIntegerComposition(col, units, lo, hi);
        for (size_t j = 0; j < njobs; ++j)
            a.set(j, r, rounded[j]);
    }
    a.validate();
    return a;
}

std::string
Allocation::key() const
{
    std::ostringstream oss;
    for (size_t j = 0; j < njobs_; ++j) {
        if (j)
            oss << '|';
        for (size_t r = 0; r < resources(); ++r) {
            if (r)
                oss << ',';
            oss << get(j, r);
        }
    }
    return oss.str();
}

bool
Allocation::operator==(const Allocation& other) const
{
    return njobs_ == other.njobs_ &&
           units_per_resource_ == other.units_per_resource_ &&
           cells_ == other.cells_;
}

} // namespace platform
} // namespace clite
