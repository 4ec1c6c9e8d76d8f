// Tests for the LPT scheduler, batch serving model, and checkpointing.
#include "transformer/latency.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fabric/scheduler.hpp"
#include "transformer/checkpoint.hpp"

namespace bfpsim {
namespace {

TEST(Scheduler, EmptyAndSingle) {
  const ScheduleResult empty = schedule_lpt({}, 4);
  EXPECT_EQ(empty.makespan, 0u);
  const ScheduleResult one = schedule_lpt({{"a", 100}}, 4);
  EXPECT_EQ(one.makespan, 100u);
  EXPECT_NEAR(one.utilization, 0.25, 1e-9);
}

TEST(Scheduler, BalancesUnequalItems) {
  // Items 9,7,6,5,4 on 2 units: LPT places 9+5=14 / 7+6+4=17 ->
  // makespan 17 (optimal 16; LPT stays within its 4/3 bound).
  const std::vector<WorkItem> items = {
      {"a", 9}, {"b", 7}, {"c", 6}, {"d", 5}, {"e", 4}};
  const ScheduleResult s = schedule_lpt(items, 2);
  EXPECT_EQ(s.makespan, 17u);
  EXPECT_LE(s.makespan, (31u * 4u) / (3u * 2u) + 1u);  // 4/3 bound-ish
  // All items placed exactly once.
  std::size_t placed = 0;
  for (const auto& u : s.units) placed += u.items.size();
  EXPECT_EQ(placed, items.size());
}

TEST(Scheduler, PerfectBalanceForIdenticalItems) {
  const std::vector<WorkItem> items(30, {"img", 1000});
  const ScheduleResult s = schedule_lpt(items, 15);
  EXPECT_EQ(s.makespan, 2000u);
  EXPECT_DOUBLE_EQ(s.utilization, 1.0);
}

TEST(Scheduler, DegenerateUnitCountIsWellDefined) {
  // num_units <= 0 is a well-defined empty schedule, not a throw (and not
  // a division by zero) — sweeps and config-driven callers can probe the
  // edge without wrapping every call. Full coverage in test_fabric.cpp.
  const ScheduleResult none = schedule_lpt({{"a", 10}}, 0);
  EXPECT_TRUE(none.units.empty());
  EXPECT_EQ(none.makespan, 0u);
  EXPECT_DOUBLE_EQ(none.utilization, 0.0);
}

TEST(BatchServing, ThroughputScalesUpToUnitCount) {
  const AcceleratorSystem sys;
  const VitConfig cfg = deit_small();
  const BatchResult b1 = batch_transformer_throughput(cfg, sys, 1);
  const BatchResult b15 = batch_transformer_throughput(cfg, sys, 15);
  const BatchResult b30 = batch_transformer_throughput(cfg, sys, 30);
  // Per-image latency is batch-independent (each image owns one unit).
  EXPECT_EQ(b1.per_image_cycles, b15.per_image_cycles);
  // Throughput scales linearly to 15 images, then holds (two rounds).
  EXPECT_NEAR(b15.images_per_second / b1.images_per_second, 15.0, 0.01);
  EXPECT_NEAR(b30.images_per_second, b15.images_per_second, 1e-6);
  EXPECT_DOUBLE_EQ(b15.utilization, 1.0);
}

TEST(BatchServing, PartialBatchWastesUnits) {
  const AcceleratorSystem sys;
  const BatchResult b20 =
      batch_transformer_throughput(deit_small(), sys, 20);
  // 20 images on 15 units: two rounds, 10 units idle in round 2.
  EXPECT_NEAR(b20.utilization, 20.0 / 30.0, 1e-9);
}

TEST(Checkpoint, WeightsRoundTrip) {
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 5);
  std::stringstream ss;
  save_weights(ss, w);
  const VitWeights back = load_weights(ss);
  EXPECT_EQ(back.cfg.embed_dim, cfg.embed_dim);
  EXPECT_EQ(back.blocks.size(), w.blocks.size());
  for (std::size_t i = 0; i < w.blocks.size(); ++i) {
    ASSERT_EQ(back.blocks[i].qkv_w, w.blocks[i].qkv_w);
    ASSERT_EQ(back.blocks[i].fc2_b, w.blocks[i].fc2_b);
  }
  EXPECT_EQ(back.head_w, w.head_w);
}

TEST(Checkpoint, WeightsFileRoundTripAndForwardEquivalence) {
  const VitConfig cfg = vit_test_tiny();
  const VitWeights w = random_weights(cfg, 6);
  const std::string path = "/tmp/bfpsim_test_weights.bin";
  save_weights_file(path, w);
  const VitModel a{w};
  const VitModel b{load_weights_file(path)};
  const auto x = random_embeddings(cfg, 9);
  const auto ya = a.forward_reference(x);
  const auto yb = b.forward_reference(x);
  for (std::size_t i = 0; i < ya.size(); ++i) ASSERT_EQ(ya[i], yb[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptHeader) {
  std::stringstream ss;
  ss << "garbage-not-a-checkpoint";
  EXPECT_THROW(load_weights(ss), Error);
}

TEST(Checkpoint, BfpMatrixRoundTrip) {
  Rng rng(7);
  const auto data = rng.normal_vec(40 * 24, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, 40, 24, bfp8_format());
  std::stringstream ss;
  save_bfp_matrix(ss, m);
  const BfpMatrix back = load_bfp_matrix(ss);
  EXPECT_EQ(back.rows, m.rows);
  EXPECT_EQ(back.cols, m.cols);
  ASSERT_EQ(back.blocks.size(), m.blocks.size());
  for (std::size_t i = 0; i < m.blocks.size(); ++i) {
    ASSERT_EQ(back.blocks[i].expb, m.blocks[i].expb);
    ASSERT_EQ(back.blocks[i].man, m.blocks[i].man);
  }
}

TEST(Checkpoint, BfpMatrixWideMantissaRoundTrip) {
  Rng rng(8);
  BfpFormat fmt = bfp8_format();
  fmt.mant_bits = 12;
  const auto data = rng.normal_vec(16 * 16, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, 16, 16, fmt);
  std::stringstream ss;
  save_bfp_matrix(ss, m);
  const BfpMatrix back = load_bfp_matrix(ss);
  for (std::size_t i = 0; i < m.blocks.size(); ++i) {
    ASSERT_EQ(back.blocks[i].man, m.blocks[i].man);
  }
}

TEST(Checkpoint, BfpImageBytesMatchesStream) {
  Rng rng(9);
  const auto data = rng.normal_vec(16 * 16, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, 16, 16, bfp8_format());
  std::stringstream ss;
  save_bfp_matrix(ss, m);
  EXPECT_EQ(ss.str().size(), bfp_image_bytes(m));
}

TEST(Checkpoint, BfpMatrixRejectsTruncation) {
  Rng rng(10);
  const auto data = rng.normal_vec(16 * 16, 0.0F, 1.0F);
  const BfpMatrix m = quantize_matrix(data, 16, 16, bfp8_format());
  std::stringstream ss;
  save_bfp_matrix(ss, m);
  std::string s = ss.str();
  s.resize(s.size() / 2);
  std::stringstream cut(s);
  EXPECT_THROW(load_bfp_matrix(cut), Error);
}

}  // namespace
}  // namespace bfpsim
