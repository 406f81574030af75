/**
 * @file
 * Equivalence of the Eytzinger-layout branchless Zipf inversion with
 * the sorted-table std::lower_bound it replaced. The workload
 * generators consume these samples, so any divergence -- even on tie
 * or boundary values -- would change every simulated figure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.hh"

using namespace cmpcache;

namespace
{

/** The legacy sampler: std::lower_bound over the sorted CDF. */
class SortedZipf
{
  public:
    SortedZipf(std::size_t n, double exponent) : cdf_(n)
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += 1.0
                   / std::pow(static_cast<double>(i + 1), exponent);
            cdf_[i] = acc;
        }
        for (auto &c : cdf_)
            c /= acc;
    }

    std::size_t
    sampleAt(double u) const
    {
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return it == cdf_.end()
                   ? cdf_.size() - 1
                   : static_cast<std::size_t>(it - cdf_.begin());
    }

    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
};

} // namespace

TEST(ZipfEytzinger, MatchesLowerBoundOnSeededDraws)
{
    for (const std::size_t n : {1ul, 2ul, 3ul, 7ul, 64ul, 1000ul,
                                65536ul}) {
        for (const double s : {0.0, 0.5, 0.9, 1.0, 1.5}) {
            ZipfSampler eyt(n, s);
            SortedZipf sorted(n, s);
            Rng rng(n * 31 + static_cast<std::uint64_t>(s * 8));
            for (int i = 0; i < 20000; ++i) {
                const double u = rng.real();
                ASSERT_EQ(eyt.sampleAt(u), sorted.sampleAt(u))
                    << "n=" << n << " s=" << s << " u=" << u;
            }
        }
    }
}

TEST(ZipfEytzinger, MatchesLowerBoundOnExactTableValues)
{
    // Exact CDF values and their neighbourhoods exercise the >= vs >
    // boundary of lower_bound; the Eytzinger descent must land on the
    // same slot for each.
    constexpr std::size_t N = 513; // non-power-of-two tree shape
    ZipfSampler eyt(N, 0.9);
    SortedZipf sorted(N, 0.9);
    for (const double c : sorted.cdf()) {
        for (const double u :
             {c, std::nextafter(c, 0.0), std::nextafter(c, 2.0)}) {
            ASSERT_EQ(eyt.sampleAt(u), sorted.sampleAt(u)) << "u=" << u;
        }
    }
}

TEST(ZipfEytzinger, BoundaryDraws)
{
    for (const std::size_t n : {1ul, 5ul, 256ul}) {
        ZipfSampler eyt(n, 1.0);
        SortedZipf sorted(n, 1.0);
        // u = 0 selects rank 0; u just below 1.0 must stay in range;
        // u >= max CDF value falls back to the last rank.
        EXPECT_EQ(eyt.sampleAt(0.0), sorted.sampleAt(0.0));
        EXPECT_EQ(eyt.sampleAt(0.0), 0u);
        const double top = std::nextafter(1.0, 0.0);
        EXPECT_EQ(eyt.sampleAt(top), sorted.sampleAt(top));
        EXPECT_EQ(eyt.sampleAt(1.0), n - 1);
        EXPECT_LT(eyt.sampleAt(top), n);
    }
}

TEST(ZipfEytzinger, SampleStreamUnchangedByLayout)
{
    // End-to-end: the rank stream drawn through sample(Rng&) equals
    // the legacy stream for the same seed.
    ZipfSampler eyt(4096, 0.9);
    SortedZipf sorted(4096, 0.9);
    Rng a(123), b(123);
    for (int i = 0; i < 50000; ++i)
        ASSERT_EQ(eyt.sample(a), sorted.sampleAt(b.real()));
}

TEST(ZipfEytzinger, ZeroExponentIsUniformish)
{
    ZipfSampler eyt(100, 0.0);
    EXPECT_EQ(eyt.population(), 100u);
    EXPECT_EQ(eyt.exponent(), 0.0);
    // With s = 0 the CDF is linear: u in the middle of the range maps
    // near rank n/2.
    const std::size_t mid = eyt.sampleAt(0.5);
    EXPECT_NEAR(static_cast<double>(mid), 50.0, 2.0);
}

TEST(ZipfEytzinger, CopiesShareOneTable)
{
    // A copy is another view of the same CDF table: it draws exactly
    // what the original draws, on any thread, for any lifetime.
    std::vector<ZipfSampler> copies;
    {
        const ZipfSampler original(4096, 0.9);
        copies.assign(3, original);
    }
    SortedZipf sorted(4096, 0.9);
    for (std::size_t c = 0; c < copies.size(); ++c) {
        Rng a(77), b(77);
        for (int i = 0; i < 5000; ++i)
            ASSERT_EQ(copies[c].sample(a), sorted.sampleAt(b.real()));
    }
}
