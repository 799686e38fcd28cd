// The channel timing model: per-channel serialization, cross-channel
// overlap, queue-depth accounting, partial drains, the batch-window timing
// of FlashDevice, and a differential check against the sort-and-drain
// pipeline the FIFO model replaced.

#include "flash/channel_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "flash/flash_device.h"
#include "util/random.h"

namespace gecko {
namespace {

Geometry ChanneledGeometry(uint32_t channels) {
  Geometry g;
  g.num_blocks = 32;
  g.pages_per_block = 4;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  g.num_channels = channels;
  return g;
}

SpareArea UserSpare(Lpn lpn) {
  SpareArea s;
  s.type = PageType::kUser;
  s.key = lpn;
  return s;
}

TEST(ChannelQueueTest, OpsOnOneChannelSerialize) {
  LatencyModel lat;
  IoStats stats(lat, 2);
  ChannelArray channels(2, lat, &stats);
  EXPECT_DOUBLE_EQ(channels.Submit(0, FlashOpKind::kPageWrite),
                   lat.page_write_us);
  // Same channel: the read queues behind the write.
  EXPECT_DOUBLE_EQ(channels.Submit(0, FlashOpKind::kPageRead),
                   lat.page_write_us + lat.page_read_us);
  channels.Drain();
  // Busy time is service time only, not the read's queueing delay.
  EXPECT_DOUBLE_EQ(stats.ChannelBusyUs(0),
                   lat.page_write_us + lat.page_read_us);
}

TEST(ChannelQueueTest, OpsOnDistinctChannelsOverlap) {
  LatencyModel lat;
  IoStats stats(lat, 4);
  ChannelArray channels(4, lat, &stats);
  for (ChannelId c = 0; c < 4; ++c) {
    // No queueing: private channel.
    EXPECT_DOUBLE_EQ(channels.Submit(c, FlashOpKind::kPageWrite),
                     lat.page_write_us);
  }
  ChannelArray::DrainResult r = channels.Drain();
  EXPECT_EQ(r.ops, 4u);
  // Makespan is one write, not four.
  EXPECT_DOUBLE_EQ(r.elapsed_us, lat.page_write_us);
  EXPECT_DOUBLE_EQ(channels.now_us(), lat.page_write_us);
  EXPECT_DOUBLE_EQ(stats.elapsed_us(), lat.page_write_us);
}

TEST(ChannelQueueTest, DrainIsIdempotentOnEmptyPipeline) {
  IoStats stats(LatencyModel(), 2);
  ChannelArray channels(2, LatencyModel(), &stats);
  ChannelArray::DrainResult r = channels.Drain();
  EXPECT_EQ(r.ops, 0u);
  EXPECT_DOUBLE_EQ(r.elapsed_us, 0.0);
  EXPECT_DOUBLE_EQ(channels.now_us(), 0.0);
}

TEST(ChannelQueueTest, IdleChannelDoesNotStretchMakespan) {
  LatencyModel lat;
  IoStats stats(lat, 2);
  ChannelArray channels(2, lat, &stats);
  channels.Submit(0, FlashOpKind::kPageWrite);
  channels.Drain();  // now = 1000, channel 1 idle (busy_until 0)
  // The op starts at the current clock, not at the channel's stale
  // busy-until.
  EXPECT_DOUBLE_EQ(channels.Submit(1, FlashOpKind::kPageRead),
                   lat.page_write_us + lat.page_read_us);
  ChannelArray::DrainResult r = channels.Drain();
  EXPECT_DOUBLE_EQ(r.elapsed_us, lat.page_read_us);
}

TEST(ChannelQueueTest, QueueDepthWatermark) {
  IoStats stats(LatencyModel(), 2);
  ChannelArray channels(2, LatencyModel(), &stats);
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(1, FlashOpKind::kPageRead);
  EXPECT_EQ(channels.depth(0), 3u);
  EXPECT_EQ(channels.depth(1), 1u);
  channels.Drain();
  EXPECT_EQ(channels.depth(0), 0u);
  EXPECT_EQ(stats.max_queue_depth(), 3u);  // lifetime watermark survives
}

// --- FlashDevice integration -------------------------------------------

TEST(DeviceBatchTest, SerialOpsMatchTheLatencySum) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  // No batch window: each op drains immediately — the classic serial
  // model, even on a multi-channel device.
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  EXPECT_DOUBLE_EQ(dev.stats().elapsed_us(), 2 * lat.page_write_us);
}

TEST(DeviceBatchTest, StripedBatchCompletesInMaxPerChannelTime) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  double before = dev.stats().elapsed_us();
  dev.BeginBatch();
  for (BlockId b = 0; b < 4; ++b) {
    // Blocks 0..3 live on channels 0..3.
    dev.WritePage({b, 0}, UserSpare(b), 0, IoPurpose::kUserWrite);
  }
  FlashDevice::BatchResult r = dev.EndBatch();
  EXPECT_EQ(r.ops, 4u);
  EXPECT_DOUBLE_EQ(r.elapsed_us, lat.page_write_us);
  EXPECT_DOUBLE_EQ(dev.stats().elapsed_us() - before, lat.page_write_us);
}

TEST(DeviceBatchTest, SameChannelBatchStillSerializes) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  // Blocks 0 and 4 both live on channel 0.
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({4, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  FlashDevice::BatchResult r = dev.EndBatch();
  EXPECT_DOUBLE_EQ(r.elapsed_us, 2 * lat.page_write_us);
}

TEST(DeviceBatchTest, NestedWindowsDrainOnceAtOutermostEnd) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.BeginBatch();  // e.g. GC forced inside a request
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  FlashDevice::BatchResult inner = dev.EndBatch();
  EXPECT_EQ(inner.ops, 0u);  // inner close does not drain
  EXPECT_TRUE(dev.in_batch());
  FlashDevice::BatchResult outer = dev.EndBatch();
  EXPECT_EQ(outer.ops, 2u);
  EXPECT_DOUBLE_EQ(outer.elapsed_us, lat.page_write_us);
  EXPECT_FALSE(dev.in_batch());
}

TEST(DeviceBatchTest, OpScopeCarriesTheQueueingTimeline) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(2));
  dev.BeginBatch();
  dev.BeginOpScope();
  dev.WritePage({0, 0}, UserSpare(1), 7, IoPurpose::kUserWrite);
  FlashDevice::OpScope write = dev.EndOpScope();
  dev.BeginOpScope();
  dev.ReadPage({0, 0}, IoPurpose::kUserRead);
  FlashDevice::OpScope read = dev.EndOpScope();
  EXPECT_DOUBLE_EQ(write.last_complete_us, lat.page_write_us);
  // The read queued behind the write on channel 0: it starts at the
  // write's completion and then takes one read's service time.
  EXPECT_DOUBLE_EQ(read.last_complete_us,
                   write.last_complete_us + lat.page_read_us);
  EXPECT_DOUBLE_EQ(dev.now_us(), 0.0);  // nothing completes before the drain
  dev.EndBatch();
  EXPECT_DOUBLE_EQ(dev.now_us(), read.last_complete_us);
}

TEST(DeviceBatchTest, PerChannelStatsAndUtilization) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(2));
  dev.BeginBatch();
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  dev.EndBatch();
  const IoStats& stats = dev.stats();
  ASSERT_EQ(stats.num_channels(), 2u);
  EXPECT_EQ(stats.ChannelOps(0), 1u);
  EXPECT_EQ(stats.ChannelOps(1), 1u);
  EXPECT_DOUBLE_EQ(stats.ChannelBusyUs(0), lat.page_write_us);
  // Both channels were busy the whole (overlapped) time.
  EXPECT_DOUBLE_EQ(stats.ChannelUtilization(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.ChannelUtilization(1), 1.0);
  EXPECT_EQ(stats.max_queue_depth(), 1u);
  EXPECT_EQ(stats.total_submissions(), 2u);
}

TEST(ChannelQueueTest, AdvanceToRetiresOnlyTheDuePrefix) {
  LatencyModel lat;
  IoStats stats(lat, 2);
  ChannelArray channels(2, lat, &stats);
  // ch0: write (done 1000) then read (done 1100). ch1: read (done 100).
  channels.Submit(0, FlashOpKind::kPageWrite);
  channels.Submit(0, FlashOpKind::kPageRead);
  channels.Submit(1, FlashOpKind::kPageRead);

  ChannelArray::DrainResult r = channels.AdvanceTo(500);
  EXPECT_EQ(r.ops, 1u);  // only the ch1 read is due
  EXPECT_EQ(channels.depth(1), 0u);
  EXPECT_EQ(stats.ChannelOps(1), 1u);
  EXPECT_DOUBLE_EQ(channels.now_us(), 500.0);  // clock to until, not beyond
  EXPECT_DOUBLE_EQ(r.elapsed_us, 500.0);
  EXPECT_EQ(channels.depth(0), 2u);

  r = channels.AdvanceTo(1000);
  EXPECT_EQ(r.ops, 1u);  // the write is due, the trailing read is not
  EXPECT_DOUBLE_EQ(channels.now_us(), 1000.0);
  EXPECT_EQ(channels.depth(0), 1u);

  r = channels.Drain();
  EXPECT_EQ(r.ops, 1u);
  EXPECT_DOUBLE_EQ(channels.now_us(), 1000.0 + lat.page_read_us);
}

TEST(ChannelQueueTest, AdvanceToPastEverythingMovesClockToUntil) {
  IoStats stats(LatencyModel(), 2);
  ChannelArray channels(2, LatencyModel(), &stats);
  channels.Submit(0, FlashOpKind::kPageRead);
  ChannelArray::DrainResult r = channels.AdvanceTo(5000);
  EXPECT_EQ(r.ops, 1u);
  // An idle-time tick: the clock follows the caller's timeline.
  EXPECT_DOUBLE_EQ(channels.now_us(), 5000.0);
  r = channels.AdvanceTo(100);  // never backwards
  EXPECT_EQ(r.ops, 0u);
  EXPECT_DOUBLE_EQ(channels.now_us(), 5000.0);
}

TEST(DeviceBatchTest, AdvanceToTicksInsideAnOpenWindow) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);  // done 1000
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);  // done 1000

  FlashDevice::BatchResult r = dev.AdvanceTo(500);
  EXPECT_EQ(r.ops, 0u);  // nothing due yet
  EXPECT_DOUBLE_EQ(r.elapsed_us, 500.0);
  EXPECT_TRUE(dev.in_batch());  // the window stays open across ticks

  r = dev.AdvanceTo(1500);
  EXPECT_EQ(r.ops, 2u);
  EXPECT_DOUBLE_EQ(dev.now_us(), 1500.0);

  FlashDevice::BatchResult end = dev.EndBatch();
  EXPECT_EQ(end.ops, 0u);  // everything already retired by the ticks
  EXPECT_FALSE(dev.in_batch());
  EXPECT_DOUBLE_EQ(dev.stats().elapsed_us(), 1500.0);
}

TEST(DeviceBatchTest, OpScopesAttributeOpsToRequests) {
  LatencyModel lat;
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();

  // Request A: two writes on distinct channels, both complete at 1000.
  dev.BeginOpScope();
  dev.WritePage({0, 0}, UserSpare(1), 0, IoPurpose::kUserWrite);
  dev.WritePage({1, 0}, UserSpare(2), 0, IoPurpose::kUserWrite);
  FlashDevice::OpScope a = dev.EndOpScope();
  EXPECT_EQ(a.ops, 2u);
  EXPECT_DOUBLE_EQ(a.last_complete_us, lat.page_write_us);

  // Request B: one write queued behind A's on channel 0 — its completion
  // reflects the queueing delay even though the window never closed.
  dev.BeginOpScope();
  dev.WritePage({0, 1}, UserSpare(3), 0, IoPurpose::kUserWrite);
  FlashDevice::OpScope b = dev.EndOpScope();
  EXPECT_EQ(b.ops, 1u);
  EXPECT_DOUBLE_EQ(b.last_complete_us, 2 * lat.page_write_us);

  // A zero-op scope (fully cache-hit request) reports no completion.
  dev.BeginOpScope();
  FlashDevice::OpScope c = dev.EndOpScope();
  EXPECT_EQ(c.ops, 0u);
  EXPECT_DOUBLE_EQ(c.last_complete_us, 0.0);

  dev.EndBatch();
}

TEST(DeviceBatchTest, DataEffectsAreVisibleInsideTheWindow) {
  FlashDevice dev(ChanneledGeometry(4));
  dev.BeginBatch();
  dev.WritePage({2, 0}, UserSpare(9), 0xFEED, IoPurpose::kUserWrite);
  // Functional state commits at submission: a read inside the same window
  // sees the data even though neither op has "completed" yet.
  PageReadResult r = dev.ReadPage({2, 0}, IoPurpose::kUserRead);
  EXPECT_TRUE(r.written);
  EXPECT_EQ(r.payload, 0xFEEDu);
  dev.EndBatch();
}

// --- Differential check against the sort-and-drain pipeline -------------
//
// SortDrainChannels is the channel pipeline the per-channel FIFOs
// replaced, kept verbatim minus its completion callbacks and idle
// accounting: parked submission records, a merge of every channel into one
// vector, a global sort by (completion time, id) on every drain, and a
// separate serial fast lane. SortDrainDevice feeds it into IoStats exactly
// as FlashDevice used to. The FIFO model must match it bit for bit.

struct Submission {
  uint64_t id = 0;
  ChannelId channel = 0;
  double start_us = 0;
  double complete_us = 0;
  double ServiceUs() const { return complete_us - start_us; }
};

class SortDrainChannels {
 public:
  SortDrainChannels(uint32_t num_channels, LatencyModel latency)
      : latency_(latency), pending_(num_channels), busy_until_(num_channels) {}

  double now_us() const { return now_us_; }
  size_t depth(ChannelId c) const { return pending_[c].size(); }

  Submission Stamp(ChannelId c, FlashOpKind kind) {
    Submission sub;
    sub.id = next_id_++;
    sub.channel = c;
    sub.start_us = std::max(now_us_, busy_until_[c]);
    sub.complete_us = sub.start_us + LatencyFor(kind);
    busy_until_[c] = sub.complete_us;
    return sub;
  }

  Submission Submit(ChannelId c, FlashOpKind kind) {
    pending_[c].push_back(Stamp(c, kind));
    return pending_[c].back();
  }

  Submission SubmitImmediate(ChannelId c, FlashOpKind kind) {
    Submission sub = Stamp(c, kind);
    now_us_ = std::max(now_us_, sub.complete_us);
    return sub;
  }

  double Drain(std::vector<Submission>* completed) {
    std::vector<Submission> all;
    for (std::deque<Submission>& q : pending_) {
      all.insert(all.end(), q.begin(), q.end());
      q.clear();
    }
    if (all.empty()) return 0;
    SortByCompletion(&all);
    double finish = now_us_;
    for (const Submission& s : all) {
      finish = std::max(finish, s.complete_us);
      completed->push_back(s);
    }
    double elapsed = finish - now_us_;
    now_us_ = finish;
    return elapsed;
  }

  double DrainUntil(double until_us, std::vector<Submission>* completed) {
    std::vector<Submission> due;
    for (std::deque<Submission>& q : pending_) {
      while (!q.empty() && q.front().complete_us <= until_us) {
        due.push_back(q.front());
        q.pop_front();
      }
    }
    SortByCompletion(&due);
    completed->insert(completed->end(), due.begin(), due.end());
    double finish = std::max(now_us_, until_us);
    double elapsed = finish - now_us_;
    now_us_ = finish;
    return elapsed;
  }

 private:
  static void SortByCompletion(std::vector<Submission>* subs) {
    std::sort(subs->begin(), subs->end(),
              [](const Submission& a, const Submission& b) {
                if (a.complete_us != b.complete_us) {
                  return a.complete_us < b.complete_us;
                }
                return a.id < b.id;
              });
  }

  double LatencyFor(FlashOpKind kind) const {
    switch (kind) {
      case FlashOpKind::kPageWrite: return latency_.page_write_us;
      case FlashOpKind::kPageRead: return latency_.page_read_us;
      case FlashOpKind::kSpareRead: return latency_.spare_read_us;
      case FlashOpKind::kErase: return latency_.erase_us;
    }
    return 0;
  }

  LatencyModel latency_;
  std::vector<std::deque<Submission>> pending_;
  std::vector<double> busy_until_;
  double now_us_ = 0;
  uint64_t next_id_ = 1;
};

class SortDrainDevice {
 public:
  SortDrainDevice(uint32_t num_channels, LatencyModel latency)
      : stats(latency, num_channels), channels(num_channels, latency) {}

  double Submit(ChannelId c, FlashOpKind kind, bool in_batch) {
    stats.OnChannelSubmit(c);
    if (!in_batch) {
      double before = channels.now_us();
      Submission sub = channels.SubmitImmediate(c, kind);
      stats.OnChannelComplete(c, sub.ServiceUs());
      stats.AdvanceElapsed(channels.now_us() - before);
      return sub.complete_us;
    }
    return channels.Submit(c, kind).complete_us;
  }

  void Drain() {
    std::vector<Submission> completed;
    double elapsed = channels.Drain(&completed);
    Retire(completed, elapsed);
  }

  void AdvanceTo(double until_us) {
    std::vector<Submission> completed;
    double elapsed = channels.DrainUntil(until_us, &completed);
    Retire(completed, elapsed);
  }

  IoStats stats;
  SortDrainChannels channels;

 private:
  void Retire(const std::vector<Submission>& completed, double elapsed_us) {
    for (const Submission& sub : completed) {
      stats.OnChannelComplete(sub.channel, sub.ServiceUs());
    }
    stats.AdvanceElapsed(elapsed_us);
  }
};

// The FIFO side, driven the way FlashDevice::SubmitOp/EndBatch drive it.
struct FifoDevice {
  FifoDevice(uint32_t num_channels, LatencyModel latency)
      : stats(latency, num_channels), channels(num_channels, latency, &stats) {}

  double Submit(ChannelId c, FlashOpKind kind, bool in_batch) {
    double complete_us = channels.Submit(c, kind);
    if (!in_batch) channels.Drain();
    return complete_us;
  }

  IoStats stats;
  ChannelArray channels;
};

void ExpectSameState(const SortDrainDevice& oracle, const FifoDevice& fifo,
                     uint32_t num_channels) {
  EXPECT_EQ(fifo.channels.now_us(), oracle.channels.now_us());
  EXPECT_EQ(fifo.stats.elapsed_us(), oracle.stats.elapsed_us());
  EXPECT_EQ(fifo.stats.max_queue_depth(), oracle.stats.max_queue_depth());
  for (ChannelId c = 0; c < num_channels; ++c) {
    EXPECT_EQ(fifo.stats.ChannelBusyUs(c), oracle.stats.ChannelBusyUs(c));
    EXPECT_EQ(fifo.stats.ChannelOps(c), oracle.stats.ChannelOps(c));
    EXPECT_EQ(fifo.channels.depth(c), oracle.channels.depth(c));
  }
}

// Random submits, clock ticks, drains and nested windows; every step's
// outcome must be bit-identical to the oracle's. Latencies are not
// integers, so any change in the order or form of the floating-point
// accumulation shows up as an inequality.
void RunDifferential(uint32_t num_channels, uint64_t seed) {
  LatencyModel lat;
  lat.page_read_us = 97.3;
  lat.page_write_us = 1013.7;
  lat.spare_read_us = 3.1;
  lat.erase_us = 1999.9;
  SortDrainDevice oracle(num_channels, lat);
  FifoDevice fifo(num_channels, lat);
  Rng rng(seed);
  uint32_t batch_depth = 0;
  double scope_oracle = 0;
  double scope_fifo = 0;
  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE(testing::Message() << "channels " << num_channels << " seed "
                                    << seed << " step " << step);
    uint64_t action = rng.Uniform(100);
    if (action < 60) {
      auto c = static_cast<ChannelId>(rng.Uniform(num_channels));
      auto kind = static_cast<FlashOpKind>(rng.Uniform(4));
      double a = oracle.Submit(c, kind, batch_depth > 0);
      double b = fifo.Submit(c, kind, batch_depth > 0);
      EXPECT_EQ(b, a);
      scope_oracle = std::max(scope_oracle, a);
      scope_fifo = std::max(scope_fifo, b);
    } else if (action < 75) {
      // A reactor tick anywhere from the past to beyond every queued op.
      double until = oracle.channels.now_us() - 500.0 +
                     rng.UniformDouble() * 4000.0;
      oracle.AdvanceTo(until);
      fifo.channels.AdvanceTo(until);
    } else if (action < 80) {
      oracle.Drain();
      fifo.channels.Drain();
    } else if (action < 90 && batch_depth < 3) {
      ++batch_depth;
    } else if (batch_depth > 0) {
      // Closing the outermost window drains; inner closes do not.
      if (--batch_depth == 0) {
        oracle.Drain();
        fifo.channels.Drain();
      }
    } else {
      // An op scope ends: the request's completion time.
      EXPECT_EQ(scope_fifo, scope_oracle);
      scope_oracle = scope_fifo = 0;
    }
    ExpectSameState(oracle, fifo, num_channels);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(ChannelQueueTest, FifoRetirementMatchesSortAndDrainOracle) {
  for (uint32_t channels : {1u, 2u, 8u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      RunDifferential(channels, seed);
    }
  }
}

}  // namespace
}  // namespace gecko
