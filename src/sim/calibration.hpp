/**
 * @file
 * Calibrated cost curves.
 *
 * Several of the paper's cost inputs are published as measurements at
 * a handful of operand sizes (Tables 1 and 2: costs at 1, 2, 4, 8,
 * 16, 32 pages/entries). CalCurve reproduces such a measurement
 * exactly at the published points, interpolates linearly between
 * them, and extrapolates linearly beyond the last point using the
 * final segment's slope. This keeps every microbenchmark anchored to
 * the paper while still defining costs for arbitrary batch sizes.
 *
 * The hot paths price small operands (a bitmap check over a few
 * pages, a pin of one page) on every call, so the tick value of each
 * n below kTabulated is computed once, at construction, with the
 * same usToTicks(at(n)) a lookup would make.
 */

#ifndef UTLB_SIM_CALIBRATION_HPP
#define UTLB_SIM_CALIBRATION_HPP

#include <array>
#include <initializer_list>
#include <vector>

#include "sim/log.hpp"
#include "sim/types.hpp"

namespace utlb::sim {

/** A piecewise-linear curve through measured (size, microsecond)
 *  points. */
class CalCurve
{
  public:
    struct Point {
        std::size_t n;
        double us;
    };

    /** Operands n < kTabulated read ticksAt() from a table. */
    static constexpr std::size_t kTabulated = 64;

    /** Points must be in strictly increasing n order. */
    CalCurve(std::initializer_list<Point> pts) : points(pts)
    {
        if (points.empty())
            panic("CalCurve requires at least one point");
        for (std::size_t i = 1; i < points.size(); ++i) {
            if (points[i].n <= points[i - 1].n)
                panic("CalCurve points must increase in n");
        }
        for (std::size_t n = 0; n < kTabulated; ++n)
            smallTicks[n] = usToTicks(at(n));
    }

    /** Curve value at @p n, in microseconds. */
    double
    at(std::size_t n) const
    {
        if (n <= points.front().n)
            return points.front().us;
        for (std::size_t i = 1; i < points.size(); ++i) {
            if (n <= points[i].n) {
                const Point &lo = points[i - 1];
                const Point &hi = points[i];
                double t = static_cast<double>(n - lo.n)
                    / static_cast<double>(hi.n - lo.n);
                return lo.us + t * (hi.us - lo.us);
            }
        }
        if (points.size() == 1)
            return points.front().us;
        const Point &lo = points[points.size() - 2];
        const Point &hi = points.back();
        double slope = (hi.us - lo.us)
            / static_cast<double>(hi.n - lo.n);
        return hi.us + slope * static_cast<double>(n - hi.n);
    }

    /** Curve value at @p n, converted to ticks. */
    Tick
    ticksAt(std::size_t n) const
    {
        return n < kTabulated ? smallTicks[n] : usToTicks(at(n));
    }

  private:
    std::vector<Point> points;
    std::array<Tick, kTabulated> smallTicks{};
};

} // namespace utlb::sim

#endif // UTLB_SIM_CALIBRATION_HPP
