// Channel-parallel timing model for the flash device.
//
// Real very-large devices get their bandwidth from many independent
// channels, not from faster cells (LFTL's parallel request queues; FMMU's
// map-management pipeline). This module models that: every channel owns a
// busy-until clock and a FIFO of in-flight ops; operations submitted to
// distinct channels overlap in simulated time, while operations on one
// channel serialize in submission order.
//
// The model is *timing only*, layered over a functionally synchronous
// simulator: data effects (page programming, erases) are committed by
// FlashDevice at submission, in program order, so FTL logic never observes
// reordering; what the channels decide is when each op *completes* on the
// simulated clock. A batch of submissions therefore finishes in
// max-per-channel time instead of sum-of-ops time, which is exactly the
// speedup a channel-striped allocation policy buys.
//
// Lifecycle of one operation:
//   1. Submit(): the op is stamped (start = max(device clock, channel
//      busy-until), complete = start + service latency), queued on its
//      channel's FIFO, and its completion time returned to the caller.
//   2. AdvanceTo()/Drain(): each channel pops its due prefix straight into
//      IoStats (depth, busy time, op count) and the device clock moves.
//      A channel's completion times are nondecreasing in FIFO order, so
//      the due ops are always a prefix; no cross-channel ordering is
//      needed because every retirement effect is per channel.

#ifndef GECKOFTL_FLASH_CHANNEL_QUEUE_H_
#define GECKOFTL_FLASH_CHANNEL_QUEUE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "flash/geometry.h"  // ChannelId
#include "flash/io_stats.h"
#include "flash/latency.h"

namespace gecko {

/// The four physical operations a channel services.
enum class FlashOpKind : uint8_t {
  kPageWrite = 0,
  kPageRead,
  kSpareRead,
  kErase,
};

/// All channels of one device plus the device-wide simulated clock.
class ChannelArray {
 public:
  /// `stats` receives every submission, retirement and clock advance; it
  /// must outlive the array.
  ChannelArray(uint32_t num_channels, LatencyModel latency, IoStats* stats);

  /// Device-wide simulated clock; advances only at Drain()/AdvanceTo().
  double now_us() const { return now_us_; }

  /// Stamps one op on channel `c` at the current clock, queues it, and
  /// returns its completion time.
  double Submit(ChannelId c, FlashOpKind kind);

  /// Ops queued on channel `c` and not yet retired.
  size_t depth(ChannelId c) const { return channels_[c].inflight.size(); }

  /// Simulated time at which channel `c` finishes its last accepted op.
  /// Between drains every channel's busy-until is at or below now_us();
  /// ordering across channels still identifies the longest-idle one —
  /// victim selection breaks score ties toward it (gc_victim_policy.h).
  double busy_until_us(ChannelId c) const {
    return channels_[c].busy_until_us;
  }

  struct DrainResult {
    double elapsed_us = 0;  // clock advance
    uint64_t ops = 0;       // ops retired
  };

  /// Retires every queued op and advances the clock to max(now, last
  /// completion). Draining an empty array is a no-op.
  DrainResult Drain();

  /// Retires only the ops that complete at or before `until_us` and
  /// advances the clock to max(now, until_us) — never backwards, and not
  /// past `until_us` even if later ops are still queued.
  DrainResult AdvanceTo(double until_us);

 private:
  struct InFlight {
    double complete_us;
    double service_us;
  };
  struct Channel {
    double busy_until_us = 0;
    std::deque<InFlight> inflight;  // FIFO; complete_us nondecreasing
  };

  double LatencyFor(FlashOpKind kind) const;

  LatencyModel latency_;
  IoStats* stats_;
  std::vector<Channel> channels_;
  double now_us_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_FLASH_CHANNEL_QUEUE_H_
