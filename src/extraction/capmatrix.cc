#include "extraction/capmatrix.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "la/lu.hh"
#include "util/logging.hh"

namespace nanobus {

CapacitanceMatrix::CapacitanceMatrix(unsigned n)
    : n_(n), ground_(n, 0.0), coupling_(n, n, 0.0)
{
    if (n == 0)
        fatal("CapacitanceMatrix: bus must have at least one wire");
}

CapacitanceMatrix
CapacitanceMatrix::fromMaxwell(const Matrix &maxwell)
{
    if (maxwell.rows() != maxwell.cols())
        fatal("CapacitanceMatrix::fromMaxwell: matrix is %zux%zu",
              maxwell.rows(), maxwell.cols());
    const auto n = static_cast<unsigned>(maxwell.rows());
    CapacitanceMatrix cm(n);
    for (unsigned i = 0; i < n; ++i) {
        double row_sum = 0.0;
        for (unsigned j = 0; j < n; ++j) {
            row_sum += maxwell(i, j);
            if (i == j)
                continue;
            // Symmetrize and negate: coupling c_ij = -M_ij.
            double value = -0.5 * (maxwell(i, j) + maxwell(j, i));
            if (value < 0.0)
                value = 0.0; // numerical noise on far pairs
            cm.coupling_(i, j) = value;
            cm.coupling_(j, i) = value;
        }
        if (row_sum < 0.0) {
            warn("fromMaxwell: wire %u has negative ground cap %g; "
                 "clamping to 0", i, row_sum);
            row_sum = 0.0;
        }
        cm.ground_[i] = row_sum;
    }
    return cm;
}

Result<CapacitanceMatrix>
CapacitanceMatrix::tryFromMaxwell(const Matrix &maxwell,
                                  MaxwellValidation *validation)
{
    MaxwellValidation local;
    MaxwellValidation &report = validation ? *validation : local;
    report = MaxwellValidation();

    auto reject = [](ErrorCode code, std::string message) {
        return Result<CapacitanceMatrix>::failure(code,
                                                  std::move(message));
    };

    if (maxwell.rows() != maxwell.cols())
        return reject(ErrorCode::InvalidArgument,
                      "Maxwell matrix is " +
                          std::to_string(maxwell.rows()) + "x" +
                          std::to_string(maxwell.cols()) +
                          ", not square");
    const auto n = static_cast<unsigned>(maxwell.rows());
    if (n == 0)
        return reject(ErrorCode::InvalidArgument,
                      "Maxwell matrix is empty");

    double max_abs = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
            double v = maxwell(i, j);
            if (!std::isfinite(v))
                return reject(ErrorCode::NonFinite,
                              "Maxwell matrix has a non-finite entry");
            max_abs = std::max(max_abs, std::fabs(v));
        }
    }

    char buf[160];

    // Symmetry: M_ij must equal M_ji. Noise-level asymmetry is
    // expected from the BEM collocation; anything beyond tolerance
    // is repaired by averaging (fromMaxwell symmetrizes) and flagged.
    // Healthy extractions measure up to 1.1e-7 * max|M| at the
    // default 8 panels per width and 7.3e-7 at 4 (130-45 nm, 2-34
    // wires), above this tolerance, so they are flagged too.
    report.max_asymmetry = maxwell.asymmetry();
    const double sym_tol = 1e-9 * max_abs;
    if (report.max_asymmetry > sym_tol) {
        report.symmetrized = true;
        std::snprintf(buf, sizeof(buf),
                      "Maxwell matrix asymmetry %.3g exceeds tolerance "
                      "%.3g; repaired by symmetrization",
                      report.max_asymmetry, sym_tol);
        report.warnings.push_back(buf);
        warn("tryFromMaxwell: %s", buf);
    }

    // Diagonal dominance: each row sum is the wire's ground
    // capacitance and must be non-negative, up to rounding.
    const double dominance_tol = 1e-9 * max_abs;
    for (unsigned i = 0; i < n; ++i) {
        double row_sum = 0.0;
        for (unsigned j = 0; j < n; ++j)
            row_sum += maxwell(i, j);
        if (row_sum < -dominance_tol)
            ++report.dominance_violations;
    }
    if (report.dominance_violations > 0) {
        std::snprintf(buf, sizeof(buf),
                      "%u row(s) violate diagonal dominance (negative "
                      "implied ground capacitance); clamped to 0",
                      report.dominance_violations);
        report.warnings.push_back(buf);
    }

    // Conditioning: an ill-conditioned extraction means the coupling
    // structure downstream models consume is mostly noise.
    Matrix symmetric(n, n);
    for (unsigned i = 0; i < n; ++i)
        for (unsigned j = 0; j < n; ++j)
            symmetric(i, j) = 0.5 * (maxwell(i, j) + maxwell(j, i));
    Result<LuFactorization> lu = LuFactorization::tryFactor(
        std::move(symmetric));
    if (!lu.ok()) {
        report.rcond = 0.0;
        std::snprintf(buf, sizeof(buf),
                      "Maxwell matrix is singular to working precision "
                      "(%s)", lu.error().message.c_str());
        report.warnings.push_back(buf);
        warn("tryFromMaxwell: %s", buf);
    } else {
        report.rcond = lu.value().reciprocalCondition();
        if (report.rcond < 1e-12) {
            std::snprintf(buf, sizeof(buf),
                          "Maxwell matrix is ill-conditioned "
                          "(rcond estimate %.3g)", report.rcond);
            report.warnings.push_back(buf);
            warn("tryFromMaxwell: %s", buf);
        }
    }

    return Result<CapacitanceMatrix>(fromMaxwell(maxwell));
}

const std::vector<double> &
CapacitanceMatrix::defaultNonAdjacentRatios()
{
    // CC2/CC1, CC3/CC1, CC4/CC1 from BEM extraction of the 130 nm
    // ITRS co-planar geometry; consistent with the ~8-10 % total
    // non-adjacent share of Fig 1(b).
    static const std::vector<double> ratios = {0.090, 0.030, 0.011};
    return ratios;
}

CapacitanceMatrix
CapacitanceMatrix::analytical(const TechnologyNode &tech, unsigned n,
                              const std::vector<double> &ratios)
{
    CapacitanceMatrix cm(n);
    const double c_line = tech.c_line.raw();
    const double c_inter = tech.c_inter.raw();
    for (unsigned i = 0; i < n; ++i)
        cm.ground_[i] = c_line;

    // Geometric decay factor for separations beyond the ratio table.
    double decay = 1.0 / 3.0;
    if (ratios.size() >= 2 && ratios[ratios.size() - 2] > 0.0)
        decay = ratios.back() / ratios[ratios.size() - 2];

    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = i + 1; j < n; ++j) {
            unsigned sep = j - i; // 1 = adjacent
            double value;
            if (sep == 1) {
                value = c_inter;
            } else if (sep - 2 < ratios.size()) {
                value = c_inter * ratios[sep - 2];
            } else {
                double tail = ratios.empty() ? 0.0 : ratios.back();
                value = c_inter * tail *
                    std::pow(decay,
                             static_cast<double>(sep - 1 -
                                                 ratios.size()));
            }
            cm.coupling_(i, j) = value;
            cm.coupling_(j, i) = value;
        }
    }
    return cm;
}

FaradsPerMeter
CapacitanceMatrix::ground(unsigned i) const
{
    if (i >= n_)
        panic("CapacitanceMatrix::ground: wire %u out of %u", i, n_);
    return FaradsPerMeter{ground_[i]};
}

void
CapacitanceMatrix::setGround(unsigned i, FaradsPerMeter value)
{
    if (i >= n_)
        panic("CapacitanceMatrix::setGround: wire %u out of %u", i, n_);
    if (value.raw() < 0.0)
        fatal("CapacitanceMatrix::setGround: negative capacitance %g",
              value.raw());
    ground_[i] = value.raw();
}

FaradsPerMeter
CapacitanceMatrix::coupling(unsigned i, unsigned j) const
{
    if (i >= n_ || j >= n_)
        panic("CapacitanceMatrix::coupling: (%u, %u) out of %u",
              i, j, n_);
    return FaradsPerMeter{coupling_(i, j)};
}

void
CapacitanceMatrix::setCoupling(unsigned i, unsigned j,
                               FaradsPerMeter value)
{
    if (i >= n_ || j >= n_)
        panic("CapacitanceMatrix::setCoupling: (%u, %u) out of %u",
              i, j, n_);
    if (i == j)
        fatal("CapacitanceMatrix::setCoupling: i == j == %u", i);
    if (value.raw() < 0.0)
        fatal("CapacitanceMatrix::setCoupling: negative capacitance %g",
              value.raw());
    coupling_(i, j) = value.raw();
    coupling_(j, i) = value.raw();
}

FaradsPerMeter
CapacitanceMatrix::total(unsigned i) const
{
    if (i >= n_)
        panic("CapacitanceMatrix::total: wire %u out of %u", i, n_);
    double sum = ground_[i];
    for (unsigned j = 0; j < n_; ++j)
        sum += coupling_(i, j);
    return FaradsPerMeter{sum};
}

CapacitanceMatrix::Distribution
CapacitanceMatrix::distribution(unsigned i) const
{
    if (i >= n_)
        panic("CapacitanceMatrix::distribution: wire %u out of %u",
              i, n_);
    double cgnd = ground_[i];
    double cc1 = 0.0, cc2 = 0.0, cc3 = 0.0, ccrest = 0.0;
    for (unsigned j = 0; j < n_; ++j) {
        if (j == i)
            continue;
        unsigned sep = j > i ? j - i : i - j;
        double value = coupling_(i, j);
        if (sep == 1)
            cc1 += value;
        else if (sep == 2)
            cc2 += value;
        else if (sep == 3)
            cc3 += value;
        else
            ccrest += value;
    }
    double tot = cgnd + cc1 + cc2 + cc3 + ccrest;
    Distribution d;
    if (tot <= 0.0)
        return d;
    d.cgnd = cgnd / tot;
    d.cc1 = cc1 / tot;
    d.cc2 = cc2 / tot;
    d.cc3 = cc3 / tot;
    d.ccrest = ccrest / tot;
    return d;
}

CapacitanceMatrix
CapacitanceMatrix::calibratedTo(const TechnologyNode &tech) const
{
    const unsigned centre = n_ / 2;
    double centre_ground = ground_[centre];
    double centre_adjacent = centre + 1 < n_
        ? coupling_(centre, centre + 1)
        : (centre > 0 ? coupling_(centre, centre - 1) : 0.0);
    if (centre_ground <= 0.0)
        fatal("calibratedTo: centre wire has no ground capacitance");
    if (centre_adjacent <= 0.0 && n_ > 1)
        fatal("calibratedTo: centre wire has no adjacent coupling");

    double ground_scale = tech.c_line.raw() / centre_ground;
    double coupling_scale = n_ > 1
        ? tech.c_inter.raw() / centre_adjacent
        : 1.0;

    CapacitanceMatrix out(n_);
    for (unsigned i = 0; i < n_; ++i) {
        out.ground_[i] = ground_[i] * ground_scale;
        for (unsigned j = 0; j < n_; ++j)
            out.coupling_(i, j) = coupling_(i, j) * coupling_scale;
    }
    return out;
}

} // namespace nanobus
