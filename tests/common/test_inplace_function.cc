/**
 * @file
 * InplaceFunction: the non-allocating callable used by the event
 * kernel and the L2/ring one-shot callbacks.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/inplace_function.hh"

using namespace cmpcache;

TEST(InplaceFunction, EmptyAndAssigned)
{
    InplaceFunction<int()> f;
    EXPECT_FALSE(static_cast<bool>(f));

    f = InplaceFunction<int()>([] { return 42; });
    ASSERT_TRUE(static_cast<bool>(f));
    EXPECT_EQ(f(), 42);

    f.reset();
    EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InplaceFunction, CapturesUpToTheBuffer)
{
    // A capture that exactly fills the default 48-byte buffer.
    struct Fat
    {
        std::uint64_t a[6];
    };
    static_assert(sizeof(Fat) == 48);
    const Fat fat{{1, 2, 3, 4, 5, 6}};
    InplaceFunction<std::uint64_t()> f([fat] {
        std::uint64_t s = 0;
        for (const auto v : fat.a)
            s += v;
        return s;
    });
    EXPECT_EQ(f(), 21u);
}

TEST(InplaceFunction, FitsTraitRejectsOversizedCaptures)
{
    struct Small
    {
        std::uint64_t a[2];
        std::uint64_t operator()() const { return a[0]; }
    };
    struct Huge
    {
        std::uint64_t a[9]; // 72 bytes > 48
        std::uint64_t operator()() const { return a[0]; }
    };
    using F = InplaceFunction<std::uint64_t(), 48>;
    static_assert(F::fits<Small>);
    // Constructing F from Huge is a compile error (static_assert in
    // the converting constructor); the fits<> trait is the queryable
    // form of the same bound.
    static_assert(!F::fits<Huge>);
    SUCCEED();
}

TEST(InplaceFunction, ArgumentsAndReturn)
{
    InplaceFunction<int(int, int)> add([](int a, int b) {
        return a + b;
    });
    EXPECT_EQ(add(2, 3), 5);

    int hits = 0;
    InplaceFunction<void(int)> bump([&hits](int by) { hits += by; });
    bump(10);
    bump(1);
    EXPECT_EQ(hits, 11);
}

TEST(InplaceFunction, MoveOnlyCapture)
{
    auto p = std::make_unique<int>(31);
    InplaceFunction<int()> f([p = std::move(p)] { return *p; });
    EXPECT_EQ(f(), 31);

    // Move construction transfers the capture (and empties the
    // source).
    InplaceFunction<int()> g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f)); // NOLINT: post-move probe
    ASSERT_TRUE(static_cast<bool>(g));
    EXPECT_EQ(g(), 31);

    // Move assignment over an engaged target destroys the old
    // callable first.
    InplaceFunction<int()> h([] { return -1; });
    h = std::move(g);
    EXPECT_FALSE(static_cast<bool>(g)); // NOLINT: post-move probe
    EXPECT_EQ(h(), 31);
}

TEST(InplaceFunction, DestructorRunsCaptureDestructors)
{
    auto counter = std::make_shared<int>(0);
    EXPECT_EQ(counter.use_count(), 1);
    {
        InplaceFunction<int()> f([counter] { return *counter; });
        EXPECT_EQ(counter.use_count(), 2);
        EXPECT_EQ(f(), 0);
    }
    EXPECT_EQ(counter.use_count(), 1);

    // reset() likewise.
    InplaceFunction<int()> g([counter] { return *counter; });
    EXPECT_EQ(counter.use_count(), 2);
    g.reset();
    EXPECT_EQ(counter.use_count(), 1);

    // emplace() over a held callable destroys it first.
    InplaceFunction<int()> e([counter] { return 2; });
    EXPECT_EQ(counter.use_count(), 2);
    e.emplace([] { return 3; });
    EXPECT_EQ(counter.use_count(), 1);
    EXPECT_EQ(e(), 3);

    // Moved-from sources must not double-destroy.
    {
        InplaceFunction<int()> a([counter] { return 1; });
        InplaceFunction<int()> b(std::move(a));
        EXPECT_EQ(counter.use_count(), 2);
    }
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(InplaceFunction, SelfMoveAssignIsSafe)
{
    auto counter = std::make_shared<int>(5);
    InplaceFunction<int()> f([counter] { return *counter; });
    auto &ref = f;
    f = std::move(ref);
    ASSERT_TRUE(static_cast<bool>(f));
    EXPECT_EQ(f(), 5);
    EXPECT_EQ(counter.use_count(), 2);
}

TEST(InplaceFunction, ReassignmentReleasesPreviousCapture)
{
    auto first = std::make_shared<int>(1);
    auto second = std::make_shared<int>(2);
    InplaceFunction<int()> f([first] { return *first; });
    EXPECT_EQ(first.use_count(), 2);
    f = InplaceFunction<int()>([second] { return *second; });
    EXPECT_EQ(first.use_count(), 1);
    EXPECT_EQ(second.use_count(), 2);
    EXPECT_EQ(f(), 2);
}
