/** @file Exhaustive tests of the coherence protocol transitions. */

#include <gtest/gtest.h>

#include <vector>

#include "coherence/protocol.hh"

using namespace cmpcache;
using namespace cmpcache::protocol;

namespace
{

const std::vector<LineState> AllStates = {
    LineState::Invalid,  LineState::Shared, LineState::SharedLast,
    LineState::Exclusive, LineState::Tagged, LineState::Modified,
};

const std::vector<BusCmd> DemandCmds = {BusCmd::Read, BusCmd::ReadExcl,
                                        BusCmd::Upgrade};

} // namespace

TEST(State, Predicates)
{
    EXPECT_FALSE(isValid(LineState::Invalid));
    EXPECT_TRUE(isValid(LineState::Shared));
    EXPECT_TRUE(isDirty(LineState::Modified));
    EXPECT_TRUE(isDirty(LineState::Tagged));
    EXPECT_FALSE(isDirty(LineState::Shared));
    EXPECT_FALSE(isDirty(LineState::Exclusive));
    EXPECT_TRUE(canIntervene(LineState::SharedLast));
    EXPECT_TRUE(canIntervene(LineState::Exclusive));
    EXPECT_FALSE(canIntervene(LineState::Shared));
    EXPECT_TRUE(canSilentStore(LineState::Modified));
    EXPECT_TRUE(canSilentStore(LineState::Exclusive));
    // Tagged is dirty but shared: stores need an Upgrade first.
    EXPECT_FALSE(canSilentStore(LineState::Tagged));
    EXPECT_FALSE(canSilentStore(LineState::Shared));
}

TEST(State, Names)
{
    EXPECT_STREQ(toString(LineState::Invalid), "I");
    EXPECT_STREQ(toString(LineState::SharedLast), "SL");
    EXPECT_STREQ(toString(LineState::Tagged), "T");
    EXPECT_STREQ(toString(BusCmd::WbClean), "WbClean");
    EXPECT_STREQ(toString(CombinedResp::WbSnarfed), "WbSnarfed");
}

TEST(Snoop, InvalidRespondsNothing)
{
    for (const auto cmd : DemandCmds) {
        const auto r = l2Snoop(LineState::Invalid, cmd);
        EXPECT_FALSE(r.hasLine);
        EXPECT_FALSE(r.canSupply);
        EXPECT_FALSE(r.retry);
    }
}

TEST(Snoop, DirtyOwnerSuppliesReads)
{
    for (const auto st : {LineState::Modified, LineState::Tagged}) {
        const auto r = l2Snoop(st, BusCmd::Read);
        EXPECT_TRUE(r.hasLine);
        EXPECT_TRUE(r.hasDirty);
        EXPECT_TRUE(r.canSupply);
    }
}

TEST(Snoop, SharedLastAndExclusiveSupplyCleanInterventions)
{
    for (const auto st :
         {LineState::SharedLast, LineState::Exclusive}) {
        const auto r = l2Snoop(st, BusCmd::Read);
        EXPECT_TRUE(r.canSupply);
        EXPECT_FALSE(r.hasDirty);
    }
}

TEST(Snoop, PlainSharedCannotSupply)
{
    const auto r = l2Snoop(LineState::Shared, BusCmd::Read);
    EXPECT_TRUE(r.hasLine);
    EXPECT_FALSE(r.canSupply);
}

TEST(Snoop, UpgradeGetsNoData)
{
    for (const auto st : AllStates) {
        const auto r = l2Snoop(st, BusCmd::Upgrade);
        EXPECT_FALSE(r.canSupply) << toString(st);
    }
}

TEST(AfterSnoop, ReadSnoopTransitions)
{
    EXPECT_EQ(l2AfterSnoop(LineState::Modified, BusCmd::Read),
              LineState::Tagged);
    EXPECT_EQ(l2AfterSnoop(LineState::Tagged, BusCmd::Read),
              LineState::Tagged);
    EXPECT_EQ(l2AfterSnoop(LineState::Exclusive, BusCmd::Read),
              LineState::Shared);
    EXPECT_EQ(l2AfterSnoop(LineState::SharedLast, BusCmd::Read),
              LineState::Shared);
    EXPECT_EQ(l2AfterSnoop(LineState::Shared, BusCmd::Read),
              LineState::Shared);
}

TEST(AfterSnoop, OwnershipTransfersInvalidateEverything)
{
    for (const auto st : AllStates) {
        for (const auto cmd : {BusCmd::ReadExcl, BusCmd::Upgrade}) {
            const auto next = l2AfterSnoop(st, cmd);
            if (st == LineState::Invalid)
                EXPECT_EQ(next, LineState::Invalid);
            else
                EXPECT_EQ(next, LineState::Invalid)
                    << toString(st) << " " << toString(cmd);
        }
    }
}

TEST(AfterSnoop, WriteBacksDoNotDisturbPeers)
{
    for (const auto st : AllStates) {
        EXPECT_EQ(l2AfterSnoop(st, BusCmd::WbClean), st);
        EXPECT_EQ(l2AfterSnoop(st, BusCmd::WbDirty), st);
    }
}

TEST(Fill, ReadFromMemory)
{
    EXPECT_EQ(fillState(BusCmd::Read, CombinedResp::MemData, false,
                        false),
              LineState::Exclusive);
    EXPECT_EQ(fillState(BusCmd::Read, CombinedResp::MemData, true,
                        false),
              LineState::SharedLast);
}

TEST(Fill, ReadFromL3BecomesSharedLast)
{
    EXPECT_EQ(fillState(BusCmd::Read, CombinedResp::L3Data, false,
                        false),
              LineState::SharedLast);
    EXPECT_EQ(fillState(BusCmd::Read, CombinedResp::L3Data, true,
                        false),
              LineState::SharedLast);
}

TEST(Fill, ReadFromPeer)
{
    // Clean supplier hands over the SL role.
    EXPECT_EQ(fillState(BusCmd::Read, CombinedResp::L2Data, true,
                        false),
              LineState::SharedLast);
    // Dirty supplier stays Tagged; we take plain Shared.
    EXPECT_EQ(fillState(BusCmd::Read, CombinedResp::L2Data, true, true),
              LineState::Shared);
}

TEST(Fill, StoresAlwaysFillModified)
{
    for (const auto from :
         {CombinedResp::MemData, CombinedResp::L3Data,
          CombinedResp::L2Data}) {
        EXPECT_EQ(fillState(BusCmd::ReadExcl, from, true, true),
                  LineState::Modified);
    }
    EXPECT_EQ(fillState(BusCmd::Upgrade, CombinedResp::Upgraded, true,
                        false),
              LineState::Modified);
}

TEST(Fill, SnarfStates)
{
    EXPECT_EQ(snarfFillState(false, false), LineState::SharedLast);
    EXPECT_EQ(snarfFillState(false, true), LineState::SharedLast);
    EXPECT_EQ(snarfFillState(true, false), LineState::Modified);
    // A Tagged writer's dirty victim: clean sharers survive, so the
    // recipient is the dirty *owner*, not an exclusive Modified.
    EXPECT_EQ(snarfFillState(true, true), LineState::Tagged);
}

TEST(WriteBackPolicy, EveryValidVictimWritesBack)
{
    // The studied system writes back clean *and* dirty victims.
    EXPECT_FALSE(needsWriteBack(LineState::Invalid));
    for (const auto st : AllStates) {
        if (st != LineState::Invalid) {
            EXPECT_TRUE(needsWriteBack(st)) << toString(st);
        }
    }
}

// Invariant sweep: for every (state, demand cmd), the snoop response
// and the post-transition state must be mutually consistent.
class ProtocolSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ProtocolSweep, ResponseConsistentWithTransition)
{
    const auto st = AllStates[std::get<0>(GetParam())];
    const auto cmd = DemandCmds[std::get<1>(GetParam())];
    const auto resp = l2Snoop(st, cmd);
    const auto next = l2AfterSnoop(st, cmd);

    // Responding hasLine requires having the line.
    EXPECT_EQ(resp.hasLine, isValid(st));
    // Suppliers must actually hold the line.
    if (resp.canSupply) {
        EXPECT_TRUE(isValid(st));
    }
    // Dirty data never becomes silently clean-shared at the peer:
    // after a Read snoop a dirty owner must remain dirty (Tagged).
    if (isDirty(st) && cmd == BusCmd::Read) {
        EXPECT_TRUE(isDirty(next));
    }
    // After ownership transfer nothing remains.
    if (cmd != BusCmd::Read) {
        EXPECT_EQ(next, LineState::Invalid);
    }
    // Transitions never invent validity.
    if (!isValid(st)) {
        EXPECT_EQ(next, LineState::Invalid);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ProtocolSweep,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 3)));
