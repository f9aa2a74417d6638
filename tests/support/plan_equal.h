// Field-by-field, step-by-step RecoveryPlan comparison for the planner's
// differential tests (production arena view against the classic oracles).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "recovery/plan.h"

namespace car::oracle {

inline void expect_plan_equal(const recovery::RecoveryPlan& a,
                              const recovery::RecoveryPlan& b) {
  EXPECT_EQ(a.replacement, b.replacement);
  EXPECT_EQ(a.replacement_rack, b.replacement_rack);
  EXPECT_EQ(a.chunk_size, b.chunk_size);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    const auto& x = a.steps[i];
    const auto& y = b.steps[i];
    EXPECT_EQ(x.id, y.id) << "step " << i;
    EXPECT_EQ(x.kind, y.kind) << "step " << i;
    EXPECT_EQ(x.stripe, y.stripe) << "step " << i;
    EXPECT_EQ(x.deps, y.deps) << "step " << i;
    EXPECT_EQ(x.src, y.src) << "step " << i;
    EXPECT_EQ(x.dst, y.dst) << "step " << i;
    EXPECT_EQ(x.payload, y.payload) << "step " << i;
    EXPECT_EQ(x.cross_rack, y.cross_rack) << "step " << i;
    EXPECT_EQ(x.node, y.node) << "step " << i;
    EXPECT_EQ(x.bytes, y.bytes) << "step " << i;
    ASSERT_EQ(x.inputs.size(), y.inputs.size()) << "step " << i;
    for (std::size_t j = 0; j < x.inputs.size(); ++j) {
      EXPECT_EQ(x.inputs[j].buffer, y.inputs[j].buffer) << "step " << i;
      EXPECT_EQ(x.inputs[j].coeff, y.inputs[j].coeff) << "step " << i;
    }
  }
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    EXPECT_EQ(a.outputs[i].stripe, b.outputs[i].stripe);
    EXPECT_EQ(a.outputs[i].chunk_index, b.outputs[i].chunk_index);
    EXPECT_EQ(a.outputs[i].step_id, b.outputs[i].step_id);
  }
}

}  // namespace car::oracle
