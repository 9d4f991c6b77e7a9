// Field-by-field equality of two campaign tallies, for the identity tests
// that pin serial, threaded, forked and resumed campaigns to one another.
// A verdict field added to check::CampaignTally gets one line here.
#pragma once

#include <gtest/gtest.h>

#include "check/chaos.hpp"

inline void expect_same_tally(const pcieb::check::CampaignTally& a,
                              const pcieb::check::CampaignTally& b) {
  EXPECT_EQ(a.digests.serialize(), b.digests.serialize());
  EXPECT_EQ(a.trials_recovered, b.trials_recovered);
  EXPECT_EQ(a.trials_quarantined, b.trials_quarantined);
  EXPECT_EQ(a.perturbed_victims, b.perturbed_victims);
  EXPECT_EQ(a.device_wide_actions, b.device_wide_actions);
  EXPECT_EQ(a.overload_offered, b.overload_offered);
  EXPECT_EQ(a.overload_delivered, b.overload_delivered);
  EXPECT_EQ(a.overload_dropped, b.overload_dropped);
}
