#include "src/service/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

namespace pmi {
namespace {

using Clock = std::chrono::steady_clock;

double RemainingMs(const std::optional<Clock::time_point>& end) {
  if (!end.has_value()) return -1;  // unbounded
  return std::chrono::duration<double, std::milli>(*end - Clock::now())
      .count();
}

std::optional<Clock::time_point> ResolveBudget(const RetryPolicy& policy,
                                               const RequestOptions& opts) {
  double budget_ms = -1;
  if (policy.budget_ms.has_value()) {
    budget_ms = *policy.budget_ms;
  } else if (opts.deadline_ms.has_value() && *opts.deadline_ms >= 0) {
    budget_ms = *opts.deadline_ms;
  }
  if (budget_ms < 0) return std::nullopt;
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                budget_ms));
}

void SleepMs(double ms) {
  if (ms <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Net liveness a sub-batch leaves behind (last op per id wins) -- the
/// post-state probe for fence mismatches.
bool AllInPostState(const ShardedService& svc,
                    const std::vector<UpdateOp>& ops) {
  std::unordered_map<ObjectId, bool> last;
  for (const UpdateOp& op : ops) last[op.id] = op.op == WalOp::kInsert;
  for (const auto& [id, live] : last) {
    if (svc.alive(id) != live) return false;
  }
  return true;
}

/// Net liveness a sub-batch requires beforehand (first op per id:
/// Insert needs dead, Remove needs live) -- the pre-state probe.
bool AllInPreState(const ShardedService& svc,
                   const std::vector<UpdateOp>& ops) {
  std::unordered_map<ObjectId, bool> first;
  for (const UpdateOp& op : ops) {
    first.emplace(op.id, op.op == WalOp::kRemove);
  }
  for (const auto& [id, live] : first) {
    if (svc.alive(id) != live) return false;
  }
  return true;
}

/// Liveness attributes ops to the partial orphan only when no id
/// repeats within the sub-batch.
bool IdsUnique(const std::vector<UpdateOp>& ops) {
  std::unordered_map<ObjectId, int> seen;
  for (const UpdateOp& op : ops) {
    if (++seen[op.id] > 1) return false;
  }
  return true;
}

}  // namespace

bool IsRetryableError(const Status& s, bool query) {
  switch (s.code()) {
    case StatusCode::kResourceExhausted:
      // Admission refusal: nothing was dispatched.
      return true;
    case StatusCode::kUnavailable:
      // Quarantine/recovery, or the fault that triggers it; NOT the
      // pinned-read-only terminal state.
      return s.detail().reason != ErrorReason::kShardPinned;
    case StatusCode::kDeadlineExceeded:
      // Reads are idempotent; an Apply only when nothing was dispatched.
      return query || s.detail().reason == ErrorReason::kNotDispatched;
    default:
      return false;
  }
}

StatusOr<QueryResult> QueryWithRetry(const ShardedService& svc,
                                     const QueryRequest& request,
                                     const RetryPolicy& policy,
                                     const RequestOptions& opts,
                                     RetryStats* stats) {
  RetryStats local;
  RetryStats* st = stats != nullptr ? stats : &local;
  *st = RetryStats{};
  const uint32_t max_attempts = std::max(policy.max_attempts, 1u);
  const std::optional<Clock::time_point> budget = ResolveBudget(policy, opts);
  Backoff backoff(policy.backoff, policy.seed);

  Status last = NotDispatchedError("retry budget exhausted before dispatch");
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    RequestOptions aopts = opts;
    if (budget.has_value()) {
      const double rem = RemainingMs(budget);
      if (rem <= 0) break;
      aopts.deadline_ms = rem;  // each attempt runs on what's left
    }
    StatusOr<QueryResult> r = svc.Query(request, aopts);
    ++st->attempts;
    if (r.ok()) return r;
    if (!IsRetryableError(r.status(), /*query=*/true)) return r.status();
    last = r.status();
    if (attempt + 1 == max_attempts) break;
    // A quarantined shard's retry-after hint floors the delay.
    double delay =
        std::max(backoff.NextDelayMs(), last.detail().retry_after_ms);
    if (budget.has_value()) delay = std::min(delay, RemainingMs(budget));
    SleepMs(delay);
    if (delay > 0) st->slept_ms += delay;
  }
  return last;
}

StatusOr<ApplyResult> ApplyWithRetry(ShardedService& svc,
                                     const std::vector<UpdateOp>& ops,
                                     const RetryPolicy& policy,
                                     const RequestOptions& opts,
                                     RetryStats* stats) {
  RetryStats local;
  RetryStats* st = stats != nullptr ? stats : &local;
  *st = RetryStats{};
  const uint32_t max_attempts = std::max(policy.max_attempts, 1u);
  const std::optional<Clock::time_point> budget = ResolveBudget(policy, opts);
  Backoff backoff(policy.backoff, policy.seed);
  const ShardRouter& router = svc.router();
  const uint32_t num_shards = svc.num_shards();

  // Validate ids up front so routing below is safe.
  PMI_RETURN_IF_ERROR(CheckUpdateIds(router, ops));

  // Sub-batches keyed by owning shard, in GLOBAL ids (resent through
  // the service, which re-routes).
  std::vector<std::vector<UpdateOp>> by_shard(num_shards);
  for (const UpdateOp& op : ops) {
    by_shard[router.shard_of(op.id)].push_back(op);
  }
  std::vector<bool> pending(num_shards, false);
  size_t pending_count = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (!by_shard[s].empty()) {
      pending[s] = true;
      ++pending_count;
    }
  }

  // Sequence fences are armed LAZILY, per shard, at that shard's first
  // failed sub-commit: the fence is the shard's last_sequence() captured
  // just before the attempt that might have orphaned a WAL record, so a
  // recovered "failed" commit mismatches instead of double-applying
  // (see file comment in retry.h).  The first attempt runs unfenced --
  // nothing can have orphaned yet, and an up-front fence would turn
  // every concurrent foreign commit on the shard into a spurious CAS
  // failure.  Caller-provided fences win and apply from the start.
  std::vector<std::optional<uint64_t>> fences(num_shards);
  for (uint32_t s = 0; s < num_shards && s < opts.sequence_fences.size();
       ++s) {
    if (pending[s]) fences[s] = opts.sequence_fences[s];
  }

  ApplyResult result;
  result.shard_status.resize(num_shards);
  Status last_outer;
  // Rounds that only lost a fence CAS to a foreign writer are bounded
  // separately from failed attempts: they are contention on a healthy
  // shard, not service pressure, and must not eat the caller's attempt
  // budget (or trigger its backoff).
  constexpr uint32_t kMaxFenceRounds = 64;
  uint32_t attempt = 0;
  uint32_t fence_rounds = 0;
  while (pending_count > 0 && attempt < max_attempts &&
         fence_rounds < kMaxFenceRounds) {
    if (budget.has_value() && RemainingMs(budget) <= 0) break;
    std::vector<UpdateOp> batch;
    RequestOptions aopts = opts;
    aopts.sequence_fences.assign(num_shards, std::nullopt);
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (!pending[s]) continue;
      batch.insert(batch.end(), by_shard[s].begin(), by_shard[s].end());
      aopts.sequence_fences[s] = fences[s];
    }
    if (budget.has_value()) aopts.deadline_ms = RemainingMs(budget);
    if (attempt + fence_rounds > 0) st->retried_shards += pending_count;

    const std::vector<uint64_t> pre_seqs = svc.sequences();
    StatusOr<ApplyResult> r = svc.Apply(batch, aopts);
    ++st->attempts;
    bool fence_only = true;
    if (!r.ok()) {
      if (!IsRetryableError(r.status(), /*query=*/false)) return r.status();
      last_outer = r.status();  // whole batch refused, nothing applied
      fence_only = false;
    } else {
      for (uint32_t s = 0; s < num_shards; ++s) {
        if (!pending[s]) continue;
        const Status& shard_st = r->shard_status[s];
        if (shard_st.ok()) {
          result.shard_status[s] = OkStatus();
          pending[s] = false;
          --pending_count;
        } else if (IsSequenceFenceMismatch(shard_st)) {
          // Either our earlier "failed" commit was recovered from the
          // WAL (batch is already in), or a foreign writer moved the
          // shard.  The ops' net liveness decides.
          if (AllInPostState(svc, by_shard[s])) {
            result.shard_status[s] = OkStatus();
            pending[s] = false;
            --pending_count;
            ++st->idempotent_skips;
          } else if (AllInPreState(svc, by_shard[s])) {
            fences[s] = svc.sequences()[s];  // re-arm and retry
            result.shard_status[s] = shard_st;
          } else if (IdsUnique(by_shard[s])) {
            // Partially replayed orphan (one WAL record per op; a torn
            // tail can commit a prefix of the sub-batch).  Disjoint
            // ownership means the ops already in post state are OURS:
            // complete the batch by re-sending just the remainder.
            std::vector<UpdateOp> rest;
            for (const UpdateOp& op : by_shard[s]) {
              if (svc.alive(op.id) != (op.op == WalOp::kInsert)) {
                rest.push_back(op);
              }
            }
            by_shard[s] = std::move(rest);
            fences[s] = svc.sequences()[s];
            ++st->partial_completions;
            result.shard_status[s] = shard_st;
          } else {
            result.shard_status[s] = FailedPreconditionError(
                "retry state ambiguous for shard " + std::to_string(s) +
                " (concurrent writer on the same ids?): " +
                shard_st.message());
            pending[s] = false;
            --pending_count;
          }
        } else if (IsRetryableError(shard_st, /*query=*/false)) {
          result.shard_status[s] = shard_st;  // retry next round
          // This attempt may have left an orphaned WAL record behind
          // the failure; fence the retry with the pre-attempt sequence.
          // Only the FIRST failure arms it -- an existing fence already
          // covers an older (still unresolved) attempt.
          if (!fences[s].has_value()) fences[s] = pre_seqs[s];
          fence_only = false;
        } else {
          result.shard_status[s] = shard_st;  // terminal for this shard
          pending[s] = false;
          --pending_count;
        }
      }
    }
    if (pending_count == 0) break;
    if (fence_only) {
      // Lost the fence CAS to foreign commits; the fences were re-armed
      // above, the shard itself is healthy -- go again immediately.
      ++fence_rounds;
      continue;
    }
    ++attempt;
    if (attempt == max_attempts) break;
    double delay = backoff.NextDelayMs();
    // A quarantined shard's retry-after hint floors the delay.
    for (uint32_t s = 0; s < num_shards; ++s) {
      if (!pending[s]) continue;
      delay = std::max(delay, result.shard_status[s].detail().retry_after_ms);
    }
    if (budget.has_value()) delay = std::min(delay, RemainingMs(budget));
    SleepMs(delay);
    if (delay > 0) st->slept_ms += delay;
  }

  // Budget/attempts exhausted with shards still pending: make sure each
  // carries a non-OK typed status (an outer refusal never wrote one).
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (pending[s] && result.shard_status[s].ok()) {
      result.shard_status[s] =
          !last_outer.ok()
              ? last_outer
              : DeadlineExceededError("retry budget exhausted for shard " +
                                      std::to_string(s));
    }
  }
  return result;
}

}  // namespace pmi
