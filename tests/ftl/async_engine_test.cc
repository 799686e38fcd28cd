// Differential test of the async engine's dependency tracker. A fake host
// hands the engine random RAW/WAW/shared-read keys and flush-style
// barriers (an exclusive kGlobal key) and records the order in which the
// engine executes requests. A brute-force model — every parked request
// re-tested against every earlier in-flight claim, in admission order,
// after every completion — predicts each dispatch; the engine's targeted
// wake-ups must match it exactly, including across an AbortAll.

#include "ftl/async_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"

namespace gecko {
namespace {

/// The pre-wake-up lock table: on every release, rescan all parked
/// requests in admission order and dispatch each grantable one.
class RescanModel {
 public:
  /// Admits request `tag` (tags rise with admission order); true if it
  /// dispatches at once.
  bool Admit(uint64_t tag, std::vector<DepKey> keys) {
    Req& r = inflight_[tag];
    r.keys = std::move(keys);
    r.dispatched = Grantable(tag);
    return r.dispatched;
  }

  /// Completes `tag` and returns the requests the rescan dispatches.
  std::vector<uint64_t> Complete(uint64_t tag) {
    EXPECT_TRUE(inflight_.at(tag).dispatched) << "completed while parked";
    inflight_.erase(tag);
    std::vector<uint64_t> woken;
    for (auto& [t, r] : inflight_) {
      if (!r.dispatched && Grantable(t)) {
        r.dispatched = true;
        woken.push_back(t);
      }
    }
    return woken;
  }

  void Clear() { inflight_.clear(); }
  size_t parked() const {
    size_t n = 0;
    for (const auto& [t, r] : inflight_) n += r.dispatched ? 0 : 1;
    return n;
  }

 private:
  struct Req {
    std::vector<DepKey> keys;
    bool dispatched = false;
  };

  bool Grantable(uint64_t tag) const {
    const Req& r = inflight_.at(tag);
    for (const auto& [t, earlier] : inflight_) {
      if (t >= tag) break;
      for (const DepKey& a : r.keys) {
        for (const DepKey& b : earlier.keys) {
          if (a.space == b.space && a.id == b.id &&
              (a.exclusive || b.exclusive)) {
            return false;
          }
        }
      }
    }
    return true;
  }

  std::map<uint64_t, Req> inflight_;
};

/// Executes each request as 0-3 page reads on random blocks (so requests
/// finish at different device times on a 4-channel device) and records
/// the execution order. A request's tag rides in its first payload.
class RecordingHost : public AsyncHost {
 public:
  RecordingHost(FlashDevice* device, uint64_t seed)
      : device_(device), rng_(seed) {}

  void ExecuteRequest(IoRequest& request, IoResult* result,
                      MissSink*) override {
    executed.push_back(request.extents[0].payload);
    result->status = Status::Ok();
    const uint64_t reads = rng_.Uniform(4);
    const Geometry& g = device_->geometry();
    for (uint64_t i = 0; i < reads; ++i) {
      device_->ReadPage(
          PhysicalAddress{static_cast<BlockId>(rng_.Uniform(g.num_blocks)),
                          0},
          IoPurpose::kUserRead);
    }
  }
  void IssueMappingFetch(uint64_t) override { ADD_FAILURE(); }
  void ResolveParkedExtent(IoRequest&, IoResult*, size_t) override {
    ADD_FAILURE();
  }
  void NoteCoalescedMiss() override { ADD_FAILURE(); }
  std::vector<DepKey> DependencyKeys(const IoRequest& request) override {
    return keys_of.at(request.extents[0].payload);
  }

  std::map<uint64_t, std::vector<DepKey>> keys_of;
  std::vector<uint64_t> executed;  // since the last check

 private:
  FlashDevice* device_;
  Rng rng_;
};

std::vector<DepKey> RandomKeys(Rng* rng) {
  std::vector<DepKey> keys;
  if (rng->Bernoulli(0.05)) {  // flush barrier
    keys.push_back(DepKey::Global(/*exclusive=*/true));
    return keys;
  }
  keys.push_back(DepKey::Global(/*exclusive=*/false));
  const bool write = rng->Bernoulli(0.4);
  const uint64_t lpns = 1 + rng->Uniform(3);
  for (uint64_t i = 0; i < lpns; ++i) {
    const uint64_t lpn = rng->Uniform(8);
    bool dup = false;
    for (const DepKey& k : keys) {
      dup = dup || (k.space == DepKey::Space::kLpn && k.id == lpn);
    }
    if (!dup) keys.push_back(DepKey::Lpn(lpn, write));
  }
  if (rng->Bernoulli(0.2)) {
    keys.push_back(DepKey::TPage(rng->Uniform(2), rng->Bernoulli(0.5)));
  }
  return keys;
}

TEST(AsyncEngineDependencyTest, WakeUpsMatchAdmissionOrderRescan) {
  const uint64_t seed = FuzzSeed(15);
  GECKO_TRACE_FUZZ_SEED(seed);
  for (uint32_t queue_depth : {2u, 4u, 16u}) {
    SCOPED_TRACE(::testing::Message() << "queue depth " << queue_depth);
    FlashDevice device(FtlTestGeometry(/*num_channels=*/4));
    RecordingHost host(&device, seed + 1);
    AsyncEngine engine(&host, &device, queue_depth);
    RescanModel model;
    Rng rng(seed + queue_depth);

    uint64_t next_tag = 1;
    uint64_t completed = 0, aborted = 0, woken_total = 0;
    bool aborting = false;
    auto on_complete = [&](uint64_t tag) {
      return [&, tag](const IoResult& result, const AsyncCompletion&) {
        if (aborting) {
          EXPECT_EQ(result.status.code(), StatusCode::kAborted);
          ++aborted;
          return;
        }
        ASSERT_TRUE(result.status.ok());
        // The engine dispatches the requests this release unblocked
        // before it fires the callback.
        const std::vector<uint64_t> woken = model.Complete(tag);
        EXPECT_EQ(host.executed, woken) << "after completing " << tag;
        woken_total += woken.size();
        host.executed.clear();
        ++completed;
      };
    };

    const int kSteps = 4000;
    bool power_failed = false;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      // Power fails once, midway, with several requests in flight.
      if (!power_failed && step >= kSteps / 2 && engine.in_flight() > 1) {
        power_failed = true;
        aborting = true;
        engine.AbortAll();
        aborting = false;
        model.Clear();
        EXPECT_TRUE(engine.idle());
        continue;
      }
      const uint64_t action = rng.Uniform(10);
      if (action < 6 && engine.in_flight() < queue_depth) {
        const uint64_t tag = next_tag++;
        host.keys_of[tag] = RandomKeys(&rng);
        IoRequest request = IoRequest::Read({0});
        request.extents[0].payload = tag;
        ASSERT_TRUE(engine.Submit(std::move(request), on_complete(tag)).ok());
        const bool now = model.Admit(tag, host.keys_of[tag]);
        EXPECT_EQ(host.executed,
                  now ? std::vector<uint64_t>{tag} : std::vector<uint64_t>{})
            << "admitting " << tag;
        host.executed.clear();
      } else if (action < 9) {
        // Let device time pass, up to the next engine event at most.
        const double until = std::min(
            device.now_us() + static_cast<double>(rng.Uniform(400)),
            engine.NextCompletionUs());
        if (until > device.now_us()) device.AdvanceTo(until);
        engine.Poll();
      } else {
        engine.DrainAll();
        EXPECT_EQ(model.parked(), 0u);
      }
      ASSERT_TRUE(host.executed.empty()) << "dispatch outside a release";
    }
    engine.DrainAll();
    EXPECT_TRUE(engine.idle());
    EXPECT_EQ(completed + aborted, next_tag - 1);
    EXPECT_GT(aborted, 0u);
    // The sequence must actually exercise parking and wake-ups.
    EXPECT_GT(engine.stats().parked, 50u);
    EXPECT_GT(woken_total, 50u);
  }
}

}  // namespace
}  // namespace gecko
