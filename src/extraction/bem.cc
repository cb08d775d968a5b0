#include "extraction/bem.hh"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "la/lu.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace nanobus {

namespace {

/**
 * Columns (U12 solve) or rows (trailing update) per pool chunk of the
 * collocation LU: a multiple of the LU's 4-row tile, and small enough
 * that the last block columns still split across a few threads.
 */
constexpr size_t kLuGrain = 64;

/**
 * Antiderivative of ln(sqrt(s^2 + w^2)) with respect to s. w may be 0,
 * in which case the integrand has an integrable singularity at s = 0.
 */
double
lnAntiderivative(double s, double w)
{
    if (s == 0.0)
        return 0.0;
    if (w == 0.0)
        return s * std::log(std::fabs(s)) - s;
    return 0.5 * s * std::log(s * s + w * w) - s +
        w * std::atan(s / w);
}

} // anonymous namespace

BemExtractor::BemExtractor(const BusGeometry &geometry)
    : BemExtractor(geometry, Options())
{
}

BemExtractor::BemExtractor(const BusGeometry &geometry,
                           const Options &options)
    : geometry_(geometry),
      eps_(geometry.epsilon_r * units::epsilon0),
      pool_(options.pool)
{
    geometry_.validate();

    Options opts = options;
    if (opts.panels_per_width < 2)
        opts.panels_per_width = 2;

    // Shrink the resolution if the requested discretization would
    // exceed the panel budget.
    for (;;) {
        double aspect = geometry_.thickness / geometry_.width;
        unsigned nw = opts.panels_per_width;
        unsigned nh = std::max(
            2u, static_cast<unsigned>(std::lround(nw * aspect)));
        size_t per_wire = 2ull * nw + 2ull * nh;
        if (per_wire * geometry_.num_wires <= opts.max_total_panels ||
            nw <= 2) {
            break;
        }
        --opts.panels_per_width;
    }

    for (unsigned wire = 0; wire < geometry_.num_wires; ++wire)
        panelizeWire(wire, opts);

    if (panels_.size() > opts.max_total_panels)
        fatal("BemExtractor: %zu panels exceed the budget of %u; "
              "reduce panels_per_width or wire count",
              panels_.size(), opts.max_total_panels);
}

void
BemExtractor::panelizeWire(unsigned wire, const Options &options)
{
    // Panel coordinates are the BEM collocation boundary: raw from
    // here down.
    const double left = geometry_.wireLeft(wire).raw();
    const double right = left + geometry_.width.raw();
    const double bottom = geometry_.height.raw();
    const double top = bottom + geometry_.thickness.raw();

    const double aspect = geometry_.thickness / geometry_.width;
    const unsigned nw = options.panels_per_width;
    const unsigned nh = std::max(
        2u, static_cast<unsigned>(std::lround(nw * aspect)));

    addSide(wire, left, bottom, right, bottom, nw);  // bottom
    addSide(wire, left, top, right, top, nw);        // top
    addSide(wire, left, bottom, left, top, nh);      // left
    addSide(wire, right, bottom, right, top, nh);    // right
}

void
BemExtractor::addSide(unsigned conductor, double x0, double y0,
                      double x1, double y1, unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        double t0 = static_cast<double>(i) / count;
        double t1 = static_cast<double>(i + 1) / count;
        Panel p;
        p.conductor = conductor;
        p.x0 = x0 + (x1 - x0) * t0;
        p.y0 = y0 + (y1 - y0) * t0;
        p.x1 = x0 + (x1 - x0) * t1;
        p.y1 = y0 + (y1 - y0) * t1;
        p.cx = 0.5 * (p.x0 + p.x1);
        p.cy = 0.5 * (p.y0 + p.y1);
        p.length = std::hypot(p.x1 - p.x0, p.y1 - p.y0);
        panels_.push_back(p);
    }
}

double
BemExtractor::lnIntegral(const Panel &panel, double px, double py,
                         bool mirror)
{
    // Mirroring the panel across y = 0 is equivalent to mirroring the
    // observation point; reflect the panel for clarity.
    double x0 = panel.x0, y0 = panel.y0;
    double x1 = panel.x1, y1 = panel.y1;
    if (mirror) {
        y0 = -y0;
        y1 = -y1;
    }
    const double len = panel.length;
    const double dx = (x1 - x0) / len;
    const double dy = (y1 - y0) / len;

    // Local panel frame: u along the panel, w perpendicular.
    const double vx = px - x0;
    const double vy = py - y0;
    const double u = vx * dx + vy * dy;
    const double w = std::fabs(vx * dy - vy * dx);

    return lnAntiderivative(len - u, w) - lnAntiderivative(-u, w);
}

double
BemExtractor::pointPotential(double x, double y, double qx, double qy,
                             double eps)
{
    double r_direct = std::hypot(x - qx, y - qy);
    double r_image = std::hypot(x - qx, y + qy);
    return std::log(r_image / r_direct) / (2.0 * M_PI * eps);
}

Matrix
BemExtractor::solveMaxwell() const
{
    const size_t np = panels_.size();
    const unsigned nc = geometry_.num_wires;
    exec::ThreadPool &pool =
        pool_ ? *pool_ : exec::ThreadPool::global();

    // Collocation matrix: potential at panel i's midpoint from unit
    // total charge (per metre of bus) on panel j, ground plane via
    // the image term. Assembly is row-parallel: every (i, j) entry
    // is written by exactly the task owning row block i, so the
    // matrix is bit-identical at any pool size. Uninitialized
    // backing store on purpose — the assembly below writes every
    // element, and with pinned workers each row block's pages then
    // first-touch onto the node that assembles (and later reads)
    // them instead of the caller's node.
    Matrix p = Matrix::uninitialized(np, np);
    const double scale = 1.0 / (2.0 * M_PI * eps_);
    exec::parallelFor(pool, np, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            const Panel &obs = panels_[i];
            for (size_t j = 0; j < np; ++j) {
                const Panel &src = panels_[j];
                double direct =
                    lnIntegral(src, obs.cx, obs.cy, false);
                double image = lnIntegral(src, obs.cx, obs.cy, true);
                p(i, j) = scale * (image - direct) / src.length;
            }
        }
    });

    // Factor once. The blocked elimination runs its U12 solves and
    // trailing updates over fixed chunks of kLuGrain columns/rows on
    // the pool; every element keeps one owner and its ascending
    // elimination order, so the factors are bit-identical at any
    // pool size (la/lu.hh). Then run the nc independent RHS solves in
    // parallel. LuFactorization::solve is const and pure, and each
    // conductor k owns column k of the Maxwell matrix, with its
    // accumulation order over panels fixed — bit-identical again.
    auto on_pool = [&pool](size_t count,
                           LuFactorization::RangeBody body) {
        exec::parallelFor(pool, count, body, kLuGrain);
    };
    LuFactorization lu(std::move(p), on_pool);

    Matrix maxwell(nc, nc);
    exec::parallelFor(
        pool, nc,
        [&](size_t begin, size_t end) {
            std::vector<double> rhs(np);
            for (size_t k = begin; k < end; ++k) {
                for (size_t i = 0; i < np; ++i)
                    rhs[i] = panels_[i].conductor == k ? 1.0 : 0.0;
                std::vector<double> charge = lu.solve(rhs);
                for (size_t i = 0; i < np; ++i)
                    maxwell(panels_[i].conductor,
                            static_cast<unsigned>(k)) += charge[i];
            }
        },
        1);
    return maxwell;
}

CapacitanceMatrix
BemExtractor::extract() const
{
    return CapacitanceMatrix::fromMaxwell(solveMaxwell());
}

} // namespace nanobus
