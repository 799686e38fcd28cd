// Correctness oracle: a shadow of every logical page's expected content.
//
// Values are payload tokens; 0 stands for "no data" (never written or
// trimmed), which must read back as NotFound. The async engine and the
// shard front end both execute same-LPN requests in submission order, so
// a read must return the value of the last write or trim submitted before
// it: the oracle resolves that value at submission and the completion is
// checked against it.
//
// Power failure: every acknowledged write must survive recovery. A write
// or trim still in flight at the crash (completed with kAborted) is
// indeterminate, so after recovery a page may hold its last acknowledged
// value or the value of any write or trim aborted since, never a third.
// After the read-back, whatever survived becomes the new ground truth.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ftl/io_request.h"
#include "util/status.h"

namespace perfbench {

class Oracle {
 public:
  explicit Oracle(uint64_t num_lpns)
      : expect_(num_lpns, 0), acked_(num_lpns, 0), acked_seq_(num_lpns, 0),
        unsure_(num_lpns, 0) {}

  uint64_t num_lpns() const { return expect_.size(); }

  /// Records a submitted request and, for a read, fills `expected` with
  /// the value each extent must return.
  void OnSubmit(const gecko::IoRequest& request,
                std::vector<uint64_t>* expected) {
    using gecko::IoOp;
    if (request.op == IoOp::kRead) {
      expected->clear();
      for (const gecko::IoExtent& e : request.extents) {
        expected->push_back(expect_[e.lpn]);
      }
      return;
    }
    for (const gecko::IoExtent& e : request.extents) {
      expect_[e.lpn] = request.op == IoOp::kWrite ? e.payload : 0;
    }
  }

  /// Checks one completed (not aborted) request; `seq` is its submission
  /// sequence number. Returns the number of extents that failed honestly
  /// (kIoError, kOutOfSpace); wrong data is recorded in wrong().
  uint64_t OnComplete(uint64_t seq, const gecko::IoRequest& request,
                      const std::vector<uint64_t>& expected,
                      const gecko::IoResult& result) {
    using gecko::IoOp;
    using gecko::StatusCode;
    uint64_t failed = 0;
    for (size_t i = 0; i < request.extents.size(); ++i) {
      const gecko::IoExtent& e = request.extents[i];
      const gecko::Status& st =
          i < result.extent_status.size() ? result.extent_status[i]
                                          : result.status;
      if (IsHonestFailure(st.code())) {
        ++failed;
        // The page may keep its old value or take the new one: stop
        // checking its content until the next read-back resolves it.
        if (request.op != IoOp::kRead) unsure_[e.lpn] = 1;
        continue;
      }
      if (request.op == IoOp::kRead) {
        if (unsure_[e.lpn]) continue;
        const uint64_t want = expected[i];
        const uint64_t got = i < result.payloads.size() ? result.payloads[i] : 0;
        const bool ok = want == 0 ? st.code() == StatusCode::kNotFound
                                  : st.ok() && got == want;
        if (!ok) Wrong(e.lpn, want, st.ok() ? got : 0, st);
        continue;
      }
      if (!st.ok()) {
        Wrong(e.lpn, 0, 0, st);
        continue;
      }
      if (seq >= acked_seq_[e.lpn]) {
        acked_seq_[e.lpn] = seq;
        acked_[e.lpn] = request.op == IoOp::kWrite ? e.payload : 0;
      }
    }
    return failed;
  }

  /// A write or trim aborted by a power failure: its values become
  /// possible post-recovery outcomes of its pages.
  void OnAbort(const gecko::IoRequest& request) {
    if (request.op == gecko::IoOp::kRead) return;
    for (const gecko::IoExtent& e : request.extents) {
      in_doubt_[e.lpn].push_back(request.op == gecko::IoOp::kWrite ? e.payload
                                                                   : 0);
    }
  }

  /// Checks one page read back after recovery (status + payload) and makes
  /// what survived the new ground truth. `seq` is the current request
  /// sequence number. Returns true when the read failed honestly.
  bool CheckRecovered(gecko::Lpn lpn, const gecko::Status& st, uint64_t got,
                      uint64_t seq) {
    if (IsHonestFailure(st.code())) return true;
    const uint64_t value = st.ok() ? got : 0;
    const bool readable = st.ok() || st.code() == gecko::StatusCode::kNotFound;
    bool allowed = readable && (unsure_[lpn] || value == acked_[lpn]);
    if (readable && !allowed) {
      auto it = in_doubt_.find(lpn);
      allowed = it != in_doubt_.end() &&
                std::find(it->second.begin(), it->second.end(), value) !=
                    it->second.end();
    }
    if (!allowed) Wrong(lpn, acked_[lpn], value, st);
    expect_[lpn] = acked_[lpn] = value;
    acked_seq_[lpn] = seq;
    unsure_[lpn] = 0;
    return false;
  }

  /// Ends a read-back: every page has been resolved.
  void ClearDoubt() { in_doubt_.clear(); }

  /// Test hook: flips the shadow entry of the first page at or after
  /// `lpn` that no aborted write touched, so a correct FTL looks wrong
  /// at the next read-back.
  void Corrupt(gecko::Lpn lpn) {
    while (in_doubt_.count(lpn) != 0) lpn = (lpn + 1) % expect_.size();
    expect_[lpn] ^= 0x5a5a5a5aull;
    acked_[lpn] ^= 0x5a5a5a5aull;
  }

  uint64_t wrong() const { return wrong_; }

  /// Heap bytes of the per-page shadow (the benchmark's memory share).
  size_t Bytes() const {
    return (expect_.capacity() + acked_.capacity() + acked_seq_.capacity()) *
               sizeof(uint64_t) +
           unsure_.capacity();
  }
  const std::string& first_error() const { return first_error_; }

 private:
  static bool IsHonestFailure(gecko::StatusCode code) {
    return code == gecko::StatusCode::kIoError ||
           code == gecko::StatusCode::kOutOfSpace;
  }

  void Wrong(gecko::Lpn lpn, uint64_t want, uint64_t got,
             const gecko::Status& st) {
    if (wrong_++ == 0) {
      first_error_ = "lpn " + std::to_string(lpn) + ": expected " +
                     std::to_string(want) + ", read " + std::to_string(got) +
                     " (" + st.ToString() + ")";
    }
  }

  std::vector<uint64_t> expect_;     // latest submitted value
  std::vector<uint64_t> acked_;      // latest acknowledged value
  std::vector<uint64_t> acked_seq_;  // submission seq of that value
  std::vector<uint8_t> unsure_;      // an honest write failure hit the page
  std::unordered_map<gecko::Lpn, std::vector<uint64_t>> in_doubt_;
  uint64_t wrong_ = 0;
  std::string first_error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
