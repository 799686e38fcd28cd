#include "flash/channel_queue.h"

#include <algorithm>

#include "util/check.h"

namespace gecko {

ChannelArray::ChannelArray(uint32_t num_channels, LatencyModel latency,
                           IoStats* stats)
    : latency_(latency), stats_(stats), channels_(num_channels) {
  GECKO_CHECK_GE(num_channels, 1u);
}

double ChannelArray::LatencyFor(FlashOpKind kind) const {
  switch (kind) {
    case FlashOpKind::kPageWrite: return latency_.page_write_us;
    case FlashOpKind::kPageRead: return latency_.page_read_us;
    case FlashOpKind::kSpareRead: return latency_.spare_read_us;
    case FlashOpKind::kErase: return latency_.erase_us;
  }
  return 0;
}

double ChannelArray::Submit(ChannelId c, FlashOpKind kind) {
  GECKO_CHECK_LT(c, channels_.size());
  Channel& ch = channels_[c];
  double start_us = std::max(now_us_, ch.busy_until_us);
  ch.busy_until_us = start_us + LatencyFor(kind);
  // Service time is kept as complete - start (not the raw latency) so
  // channel busy time sums exactly the stamped timeline.
  ch.inflight.push_back({ch.busy_until_us, ch.busy_until_us - start_us});
  stats_->OnChannelSubmit(c);
  return ch.busy_until_us;
}

ChannelArray::DrainResult ChannelArray::Drain() {
  // Each FIFO's back is its channel's last completion.
  double finish = now_us_;
  for (const Channel& ch : channels_) {
    if (!ch.inflight.empty()) {
      finish = std::max(finish, ch.inflight.back().complete_us);
    }
  }
  return AdvanceTo(finish);
}

ChannelArray::DrainResult ChannelArray::AdvanceTo(double until_us) {
  DrainResult result;
  for (ChannelId c = 0; c < channels_.size(); ++c) {
    std::deque<InFlight>& fifo = channels_[c].inflight;
    for (; !fifo.empty() && fifo.front().complete_us <= until_us;
         fifo.pop_front()) {
      stats_->OnChannelComplete(c, fifo.front().service_us);
      ++result.ops;
    }
  }
  double finish = std::max(now_us_, until_us);
  result.elapsed_us = finish - now_us_;
  stats_->AdvanceElapsed(result.elapsed_us);
  now_us_ = finish;
  return result;
}

}  // namespace gecko
