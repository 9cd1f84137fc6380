// Client-side retry layer for ShardedService -- typed-error-aware
// retries with deterministic backoff inside the caller's deadline
// budget.
//
// Only SAFELY retryable typed errors are retried, judged by the code and
// Status::detail() -- never by the message text:
//   - kResourceExhausted: the admission queue refused the request;
//     nothing was dispatched.
//   - kDeadlineExceeded with reason kNotDispatched: expired in the
//     admission queue, or before that shard's sub-batch was dispatched
//     (ExecuteApply checks the budget before each shard commit).
//   - kUnavailable: a fresh write fault, or quarantine/recovery (reason
//     kShardUnavailable, whose retry_after_ms floors the next backoff
//     delay).  Reason kShardPinned (manual reset required) is terminal.
// Queries are additionally idempotent by nature, so any
// kDeadlineExceeded query is also safe to retry with fresh budget.
//
// Idempotence contract for ApplyWithRetry (the interesting half): a
// retried batch must never double-apply.  The hazard is real -- a WAL
// commit can fail AFTER its record reached the log (failed fsync), the
// supervisor then recovers the shard by replaying the WAL, and the
// "failed" batch is suddenly applied.  The guard is the existing
// per-shard sequence numbers: every RETRY attempt carries a per-shard
// sequence fence (RequestOptions::sequence_fences) -- the shard's
// last_sequence() captured just before the attempt that failed -- and
// MetricDB::Apply commits only if the fence still matches.  The first
// attempt runs unfenced (nothing can have orphaned yet), so concurrent
// clients sharing a shard do not fail each other's clean commits; a
// fence armed by a failure CAN still go stale under such foreign
// writers, which costs a bounded re-arm round, not an attempt.  If
// recovery replayed the orphaned record the fence mismatches, and the
// retry layer probes the ops' liveness: all already in post-op state
// means the batch landed (counted as an idempotent skip, reported OK);
// all in pre-op state means a foreign writer moved the shard, so the
// fence is re-armed and the sub-batch retried.
//
// A MIXED probe is possible too: MetricDB logs one WAL record per op,
// so a torn/short write can leave a durable PREFIX of the sub-batch's
// records, and recovery then replays only part of it.  When every id
// appears once in the sub-batch, liveness identifies exactly which ops
// landed, and -- because the contract already forbids concurrent
// writers on the same ids -- the mixed state can only be our own
// partial orphan.  The retry layer then COMPLETES the batch: it
// re-sends just the not-yet-applied ops under a fresh fence (counted in
// RetryStats::partial_completions).  If an id repeats in the sub-batch
// liveness cannot attribute ops, and the mixed state is surfaced as a
// typed kFailedPrecondition instead.  The exactly-once guarantee
// therefore requires that no concurrent writer touches the same ids --
// the same disjoint-stripe ownership every driver and test here uses.

#ifndef PMI_SERVICE_RETRY_H_
#define PMI_SERVICE_RETRY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/service/backoff.h"
#include "src/service/sharded_service.h"

namespace pmi {

/// Client retry knobs.
struct RetryPolicy {
  /// Total tries including the first (>= 1).
  uint32_t max_attempts = 6;
  BackoffPolicy backoff;
  /// Jitter seed (deterministic schedules, like the supervisor's).
  uint64_t seed = 0x5eed;
  /// Overall wall-clock budget across attempts AND backoff sleeps.
  /// Unset: RequestOptions::deadline_ms (when set) is the budget;
  /// otherwise attempts are bounded only by max_attempts.
  std::optional<double> budget_ms;
};

/// Observability for a retried call.
struct RetryStats {
  uint32_t attempts = 0;         ///< service calls actually issued
  uint64_t retried_shards = 0;   ///< per-shard sub-batches re-sent
  uint64_t idempotent_skips = 0; ///< fence caught an already-applied batch
  /// Fence caught a partially replayed orphan; the remainder was
  /// re-sent (file comment).
  uint64_t partial_completions = 0;
  double slept_ms = 0;           ///< total backoff sleep
};

/// True for errors the retry layer may safely re-issue (see file
/// comment).  `query` relaxes the kDeadlineExceeded pre-dispatch
/// restriction, since reads are idempotent.
bool IsRetryableError(const Status& s, bool query);

/// Query with retries.  Each attempt runs under the REMAINING budget
/// (the per-attempt deadline shrinks as budget is spent), so the call
/// as a whole never overruns the caller's deadline.
StatusOr<QueryResult> QueryWithRetry(const ShardedService& svc,
                                     const QueryRequest& request,
                                     const RetryPolicy& policy = {},
                                     const RequestOptions& opts = {},
                                     RetryStats* stats = nullptr);

/// Apply with per-shard retries under the sequence-fence idempotence
/// contract (file comment).  Returns the cumulative ApplyResult: a
/// shard's entry is OK once its sub-batch committed (possibly on a
/// retry, possibly as an idempotent skip), or the last typed error when
/// the budget/attempts ran out first.  The outer StatusOr is non-OK
/// only for non-retryable whole-request rejections (e.g.
/// kInvalidArgument, kFailedPrecondition service-closed).
StatusOr<ApplyResult> ApplyWithRetry(ShardedService& svc,
                                     const std::vector<UpdateOp>& ops,
                                     const RetryPolicy& policy = {},
                                     const RequestOptions& opts = {},
                                     RetryStats* stats = nullptr);

}  // namespace pmi

#endif  // PMI_SERVICE_RETRY_H_
