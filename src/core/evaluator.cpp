#include "core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gridsched {
namespace {

/// Branchless lower bound over a sorted (etc, job) list: same result as
/// std::lower_bound, but the halving step compiles to a conditional move
/// instead of a data-dependent branch. Previews sit on this search four
/// times per call, and the lists are short (tens of entries) — exactly the
/// regime where branch mispredicts dominate a classic binary search.
inline std::size_t sorted_pos(const std::vector<std::pair<double, JobId>>& v,
                              const std::pair<double, JobId>& key) noexcept {
  const std::pair<double, JobId>* base = v.data();
  std::size_t n = v.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (base[half - 1] < key) ? half : 0;
    n -= half;
  }
  return static_cast<std::size_t>(base - v.data()) +
         ((n == 1 && *base < key) ? 1 : 0);
}

}  // namespace

ScheduleEvaluator::ScheduleEvaluator(const EtcMatrix& etc) : etc_(&etc) {
  machines_.resize(static_cast<std::size_t>(etc.num_machines()));
  dirty_flag_.assign(static_cast<std::size_t>(etc.num_machines()), 0);
  dirty_list_.reserve(8);
  job_pos_.assign(static_cast<std::size_t>(etc.num_jobs()), 0);
  rebuild_caches();
}

void ScheduleEvaluator::reset(const Schedule& schedule) {
  if (schedule.num_jobs() != etc_->num_jobs()) {
    throw std::invalid_argument("ScheduleEvaluator: schedule size mismatch");
  }
  if (!schedule.complete(etc_->num_machines())) {
    throw std::invalid_argument("ScheduleEvaluator: incomplete schedule");
  }
  schedule_ = schedule;
  for (auto& m : machines_) m.jobs.clear();
  for (JobId j = 0; j < etc_->num_jobs(); ++j) {
    const MachineId m = schedule_[j];
    machines_[static_cast<std::size_t>(m)].jobs.emplace_back((*etc_)(j, m), j);
  }
  for (MachineId m = 0; m < num_machines(); ++m) {
    auto& state = machines_[static_cast<std::size_t>(m)];
    std::sort(state.jobs.begin(), state.jobs.end());
    recompute_machine(m);
  }
  rebuild_caches();
}

void ScheduleEvaluator::reset_to(const Schedule& target) {
  const int n = etc_->num_jobs();
  if (schedule_.num_jobs() != n || target.num_jobs() != n) {
    reset(target);
    return;
  }
  const auto cur = schedule_.genes();
  const auto tgt = target.genes();
  int diff = 0;
  for (int j = 0; j < n; ++j) diff += cur[j] != tgt[j] ? 1 : 0;
  // Past ~n/4 changed genes the per-gene list surgery (O(k) each) loses to
  // one O(n log n) rebuild. The threshold cannot affect results: both
  // paths end in the same canonical state.
  if (4 * diff >= n) {
    reset(target);
    return;
  }
  for (int j = 0; j < n; ++j) {
    const MachineId g_old = cur[j];
    const MachineId g_new = tgt[j];
    if (g_old == g_new) continue;
    if (g_new < 0 || g_new >= num_machines()) {
      throw std::invalid_argument("ScheduleEvaluator: reset_to gene out of range");
    }
    list_erase(machines_[static_cast<std::size_t>(g_old)], (*etc_)(j, g_old),
               j);
    list_insert(machines_[static_cast<std::size_t>(g_new)], (*etc_)(j, g_new),
                j);
    mark_dirty(g_old);
    mark_dirty(g_new);
    schedule_[j] = g_new;
  }
  canonicalize();
}

double ScheduleEvaluator::makespan() const {
  if (machines_.empty()) {
    throw std::logic_error("ScheduleEvaluator::makespan: no machines");
  }
  return std::max(0.0, topk_[0].completion);
}

MachineId ScheduleEvaluator::makespan_machine() const {
  if (machines_.empty()) {
    throw std::logic_error("ScheduleEvaluator::makespan_machine: no machines");
  }
  return topk_[0].machine;
}

double ScheduleEvaluator::rest_completion(MachineId x,
                                          MachineId y) const noexcept {
  // Invariant: entries are sorted best-first and dominate every non-cached
  // machine, so the first entry not owned by x or y is the exact maximum
  // over all other machines. With fewer than 3 machines there may be no
  // such entry; 0.0 matches the empty-fold convention of the objectives.
  for (int i = 0; i < topk_size_; ++i) {
    if (topk_[i].machine != x && topk_[i].machine != y) {
      return topk_[i].completion;
    }
  }
  return 0.0;
}

void ScheduleEvaluator::topk_offer(double completion, MachineId m) {
  const int cap = top_capacity();
  int pos = topk_size_;
  while (pos > 0 && top_better(completion, m, topk_[static_cast<std::size_t>(
                                                  pos - 1)].completion,
                               topk_[static_cast<std::size_t>(pos - 1)]
                                   .machine)) {
    --pos;
  }
  if (pos >= cap) return;
  const int last = topk_size_ < cap - 1 ? topk_size_ : cap - 1;
  for (int i = last; i > pos; --i) {
    topk_[static_cast<std::size_t>(i)] = topk_[static_cast<std::size_t>(i - 1)];
  }
  topk_[static_cast<std::size_t>(pos)] = {completion, m};
  if (topk_size_ < cap) ++topk_size_;
}

void ScheduleEvaluator::topk_update(MachineId m, double completion) {
  int idx = -1;
  for (int i = 0; i < topk_size_; ++i) {
    if (topk_[static_cast<std::size_t>(i)].machine == m) {
      idx = i;
      break;
    }
  }
  if (idx >= 0) {
    const TopEntry worst = topk_[static_cast<std::size_t>(topk_size_ - 1)];
    for (int i = idx; i < topk_size_ - 1; ++i) {
      topk_[static_cast<std::size_t>(i)] =
          topk_[static_cast<std::size_t>(i + 1)];
    }
    --topk_size_;
    if (topk_size_ + 1 == num_machines() ||
        !top_better(worst.completion, worst.machine, completion, m)) {
      // Either every machine is cached (no unknowns to fall behind) or the
      // new value still dominates the old cut line: re-insert in place.
      topk_offer(completion, m);
    } else {
      // The machine dropped below the old worst entry; an uncached machine
      // may now outrank it, so rebuild the cache from scratch. O(m), but
      // only on applies (previews never take this path).
      topk_rebuild();
    }
    return;
  }
  if (topk_size_ < top_capacity() ||
      top_better(completion, m,
                 topk_[static_cast<std::size_t>(topk_size_ - 1)].completion,
                 topk_[static_cast<std::size_t>(topk_size_ - 1)].machine)) {
    topk_offer(completion, m);
  }
  // else: still dominated by the cached worst — the invariant holds as-is.
}

void ScheduleEvaluator::topk_rebuild() {
  topk_size_ = 0;
  for (MachineId m = 0; m < num_machines(); ++m) {
    topk_offer(machines_[static_cast<std::size_t>(m)].completion, m);
  }
}

void ScheduleEvaluator::recompute_machine(MachineId m) {
  auto& state = machines_[static_cast<std::size_t>(m)];
  const double ready = etc_->ready_time(m);
  const std::size_t k = state.jobs.size();
  double sum = 0.0;
  double flow = 0.0;
  // Ascending ETC = SPT execution order: the i-th job (0-based) finishes at
  // ready + prefix_sum(i); summing those gives
  //   flow = k*ready + sum_i (k - i) * etc_i.
  state.prefix.resize(k + 1);
  state.prefix[0] = 0.0;
  state.keys.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    sum += state.jobs[i].first;
    state.prefix[i + 1] = sum;
    flow += static_cast<double>(k - i) * state.jobs[i].first;
    state.keys[i] = state.jobs[i].first;
    job_pos_[static_cast<std::size_t>(state.jobs[i].second)] =
        static_cast<int>(i);
  }
  state.completion = ready + sum;
  state.flow = flow + static_cast<double>(k) * ready;
}

void ScheduleEvaluator::rebuild_prefix(MachineState& state) {
  const std::size_t k = state.jobs.size();
  state.prefix.resize(k + 1);
  state.prefix[0] = 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    sum += state.jobs[i].first;
    state.prefix[i + 1] = sum;
  }
}

void ScheduleEvaluator::list_insert(MachineState& state, double etc,
                                    JobId job) {
  const std::pair<double, JobId> entry{etc, job};
  const std::size_t q = sorted_pos(state.jobs, entry);
  state.jobs.insert(state.jobs.begin() + static_cast<std::ptrdiff_t>(q),
                    entry);
  state.keys.insert(state.keys.begin() + static_cast<std::ptrdiff_t>(q), etc);
  // The insert shifted every later job one slot right; refresh their ranks.
  for (std::size_t i = q; i < state.jobs.size(); ++i) {
    job_pos_[static_cast<std::size_t>(state.jobs[i].second)] =
        static_cast<int>(i);
  }
}

void ScheduleEvaluator::list_erase(MachineState& state, double etc,
                                   JobId job) {
  const std::pair<double, JobId> entry{etc, job};
  const std::size_t p = sorted_pos(state.jobs, entry);
  if (p >= state.jobs.size() || state.jobs[p].second != job) {
    throw std::logic_error("ScheduleEvaluator: job not on expected machine");
  }
  state.jobs.erase(state.jobs.begin() + static_cast<std::ptrdiff_t>(p));
  state.keys.erase(state.keys.begin() + static_cast<std::ptrdiff_t>(p));
  for (std::size_t i = p; i < state.jobs.size(); ++i) {
    job_pos_[static_cast<std::size_t>(state.jobs[i].second)] =
        static_cast<int>(i);
  }
}

void ScheduleEvaluator::commit_machine(MachineId m, double flow,
                                       double completion) {
  auto& state = machines_[static_cast<std::size_t>(m)];
  total_flow_ += flow - state.flow;
  state.flow = flow;
  state.completion = completion;
  topk_update(m, completion);
  mark_dirty(m);
}

void ScheduleEvaluator::mark_dirty(MachineId m) {
  auto& flag = dirty_flag_[static_cast<std::size_t>(m)];
  if (!flag) {
    flag = 1;
    dirty_list_.push_back(m);
  }
}

void ScheduleEvaluator::rebuild_caches() {
  total_flow_ = 0.0;
  for (const auto& state : machines_) total_flow_ += state.flow;
  topk_rebuild();
  for (const MachineId m : dirty_list_) {
    dirty_flag_[static_cast<std::size_t>(m)] = 0;
  }
  dirty_list_.clear();
}

void ScheduleEvaluator::canonicalize() {
  if (dirty_list_.empty()) return;
  for (const MachineId m : dirty_list_) recompute_machine(m);
  rebuild_caches();
}

ScheduleEvaluator::Removal ScheduleEvaluator::removal(
    const MachineState& state, double ready, std::size_t p) noexcept {
  // The cached key is the same double the ETC matrix holds.
  const std::size_t k = state.jobs.size();
  const double e = state.jobs[p].first;
  return {state.flow -
              (ready + state.prefix[p] + static_cast<double>(k - p) * e),
          (state.completion - ready) - e, k - 1, p, e};
}

std::size_t ScheduleEvaluator::insertion_rank(const MachineState& state,
                                              double etc, JobId job) noexcept {
  // A branchless strictly-less count over the contiguous key array, four
  // independent accumulator chains so the compare/set latency overlaps
  // (no serial binary-search dependency), then an id-ordered walk across
  // the — almost always empty — tie range.
  const double* keys = state.keys.data();
  const std::size_t kk = state.keys.size();
  std::size_t q0 = 0, q1 = 0, q2 = 0, q3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= kk; i += 4) {
    q0 += keys[i] < etc ? 1u : 0u;
    q1 += keys[i + 1] < etc ? 1u : 0u;
    q2 += keys[i + 2] < etc ? 1u : 0u;
    q3 += keys[i + 3] < etc ? 1u : 0u;
  }
  for (; i < kk; ++i) q0 += keys[i] < etc ? 1u : 0u;
  std::size_t q = q0 + q1 + q2 + q3;
  while (q < kk && keys[q] == etc && state.jobs[q].second < job) ++q;
  return q;
}

std::pair<double, double> ScheduleEvaluator::insertion(
    const MachineState& state, double ready, const Removal& base,
    std::size_t q, double etc) noexcept {
  double prefix_q = state.prefix[q];
  if (q > base.at) {
    // The removed job sat before the insertion point: one rank lower, and
    // its ETC leaves the prefix.
    --q;
    prefix_q -= base.etc;
  }
  const double flow = base.flow + (ready + prefix_q +
                                   static_cast<double>(base.k + 1 - q) * etc);
  return {flow, ready + (base.sum + etc)};
}

std::pair<double, double> ScheduleEvaluator::flow_completion_with(
    MachineId m, JobId skip, JobId add_job, double add_etc) const {
  // Closed-form flow deltas over the cached prefix sums; rank lookups are
  // O(1) (position index) for the removal and a vectorized count for the
  // insertion.
  const auto& state = machines_[static_cast<std::size_t>(m)];
  const double ready = etc_->ready_time(m);
  const std::size_t k = state.jobs.size();
  // An emptied machine contributes exactly {0, ready}; snapping here keeps
  // the closed form residue-free so apply can adopt the values verbatim.
  if (k - (skip >= 0 ? 1u : 0u) + (add_job >= 0 ? 1u : 0u) == 0) {
    return {0.0, ready};
  }
  const Removal base =
      skip >= 0 ? removal(state, ready,
                          static_cast<std::size_t>(
                              job_pos_[static_cast<std::size_t>(skip)]))
                : Removal{state.flow, state.completion - ready, k, k, 0.0};
  if (add_job < 0) return {base.flow, ready + base.sum};
  return insertion(state, ready, base, insertion_rank(state, add_etc, add_job),
                   add_etc);
}

PreviewResult ScheduleEvaluator::preview_move(JobId job, MachineId to) const {
  const MachineId from = schedule_[job];
  if (from == to) return {objectives()};

  const auto [flow_from, completion_from] =
      flow_completion_with(from, job, -1, 0.0);
  const auto [flow_to, completion_to] =
      flow_completion_with(to, -1, job, (*etc_)(job, to));

  // O(1): the rest of the fleet is summarized by the running flow total and
  // the top-3 cache. The arithmetic mirrors apply_move's commit sequence
  // (from first, then to) so the preview is bitwise reproducible.
  double new_flowtime =
      total_flow_ +
      (flow_from - machines_[static_cast<std::size_t>(from)].flow);
  new_flowtime += flow_to - machines_[static_cast<std::size_t>(to)].flow;
  const double new_makespan =
      std::max(rest_completion(from, to),
               std::max(completion_from, completion_to));
  return {Objectives{std::max(0.0, new_makespan), new_flowtime}};
}

PreviewResult ScheduleEvaluator::preview_swap(JobId a, JobId b) const {
  const MachineId ma = schedule_[a];
  const MachineId mb = schedule_[b];
  if (ma == mb) {
    throw std::invalid_argument("preview_swap: jobs share a machine");
  }
  const auto [flow_a, completion_a] =
      flow_completion_with(ma, a, b, (*etc_)(b, ma));
  const auto [flow_b, completion_b] =
      flow_completion_with(mb, b, a, (*etc_)(a, mb));

  double new_flowtime =
      total_flow_ + (flow_a - machines_[static_cast<std::size_t>(ma)].flow);
  new_flowtime += flow_b - machines_[static_cast<std::size_t>(mb)].flow;
  const double new_makespan =
      std::max(rest_completion(ma, mb), std::max(completion_a, completion_b));
  return {Objectives{std::max(0.0, new_makespan), new_flowtime}};
}

ScheduleEvaluator::SwapPick ScheduleEvaluator::best_swap(
    JobId a, JobId first_partner, double bound, LsObjective objective,
    const FitnessWeights& weights) const {
  const MachineId ma = schedule_[a];
  const MachineState& state_a = machines_[static_cast<std::size_t>(ma)];
  const double ready_a = etc_->ready_time(ma);
  // Once per focus job: a leaves its machine.
  const Removal without_a = removal(
      state_a, ready_a,
      static_cast<std::size_t>(job_pos_[static_cast<std::size_t>(a)]));
  const auto etc_on_a = etc_->machine_row(ma);
  const int m = num_machines();

  SwapPick pick{-1, bound, 0};
  for (MachineId mb = 0; mb < m; ++mb) {
    const MachineState& state_b = machines_[static_cast<std::size_t>(mb)];
    if (mb == ma || state_b.jobs.empty()) continue;
    // Once per destination machine: where a lands, and the fleet beyond
    // the two machines.
    const double ready_b = etc_->ready_time(mb);
    const double a_on_b = (*etc_)(a, mb);
    const std::size_t a_rank = insertion_rank(state_b, a_on_b, a);
    const double rest = rest_completion(ma, mb);
    for (std::size_t p = 0; p < state_b.jobs.size(); ++p) {
      const JobId b = state_b.jobs[p].second;
      if (b < first_partner) continue;
      ++pick.previews;
      // Same arithmetic, in the same order, as preview_swap(a, b).
      const double b_on_a = etc_on_a[static_cast<std::size_t>(b)];
      const auto [flow_a, completion_a] =
          insertion(state_a, ready_a, without_a,
                    insertion_rank(state_a, b_on_a, b), b_on_a);
      const auto [flow_b, completion_b] =
          insertion(state_b, ready_b, removal(state_b, ready_b, p), a_rank,
                    a_on_b);
      double flowtime = total_flow_ + (flow_a - state_a.flow);
      flowtime += flow_b - state_b.flow;
      const double makespan =
          std::max(rest, std::max(completion_a, completion_b));
      const double score = Objectives{std::max(0.0, makespan), flowtime}.score(
          objective, weights, m);
      // Machine-order walk, job-id-order answer: ties go to the lower id.
      if (score < pick.score ||
          (score == pick.score && pick.partner >= 0 && b < pick.partner)) {
        pick.partner = b;
        pick.score = score;
      }
    }
  }
  return pick;
}

void ScheduleEvaluator::apply_move(JobId job, MachineId to) {
  const MachineId from = schedule_[job];
  if (from == to) return;
  if (to < 0 || to >= num_machines()) {
    throw std::invalid_argument("apply_move: machine out of range");
  }
  // Closed-form scalars from the PRE-edit state: identical expressions to
  // preview_move, so the preview's objectives are adopted bitwise.
  const auto [flow_from, completion_from] =
      flow_completion_with(from, job, -1, 0.0);
  const double etc_to = (*etc_)(job, to);
  const auto [flow_to, completion_to] =
      flow_completion_with(to, -1, job, etc_to);

  auto& state_from = machines_[static_cast<std::size_t>(from)];
  list_erase(state_from, (*etc_)(job, from), job);
  rebuild_prefix(state_from);
  auto& state_to = machines_[static_cast<std::size_t>(to)];
  list_insert(state_to, etc_to, job);
  rebuild_prefix(state_to);

  commit_machine(from, flow_from, completion_from);
  commit_machine(to, flow_to, completion_to);
  schedule_[job] = to;
}

void ScheduleEvaluator::apply_swap(JobId a, JobId b) {
  const MachineId ma = schedule_[a];
  const MachineId mb = schedule_[b];
  if (ma == mb) {
    throw std::invalid_argument("apply_swap: jobs share a machine");
  }
  const double etc_b_on_ma = (*etc_)(b, ma);
  const double etc_a_on_mb = (*etc_)(a, mb);
  const auto [flow_a, completion_a] =
      flow_completion_with(ma, a, b, etc_b_on_ma);
  const auto [flow_b, completion_b] =
      flow_completion_with(mb, b, a, etc_a_on_mb);

  auto& state_a = machines_[static_cast<std::size_t>(ma)];
  auto& state_b = machines_[static_cast<std::size_t>(mb)];
  list_erase(state_a, (*etc_)(a, ma), a);
  list_erase(state_b, (*etc_)(b, mb), b);
  list_insert(state_a, etc_b_on_ma, b);
  list_insert(state_b, etc_a_on_mb, a);
  rebuild_prefix(state_a);
  rebuild_prefix(state_b);

  commit_machine(ma, flow_a, completion_a);
  commit_machine(mb, flow_b, completion_b);
  schedule_[a] = mb;
  schedule_[b] = ma;
}

void ScheduleEvaluator::check_consistency() const {
  ScheduleEvaluator fresh(*etc_);
  fresh.reset(schedule_);
  for (MachineId m = 0; m < num_machines(); ++m) {
    const auto& a = machines_[static_cast<std::size_t>(m)];
    const auto& b = fresh.machines_[static_cast<std::size_t>(m)];
    if (a.jobs != b.jobs) {
      throw std::logic_error("evaluator drift: job lists differ");
    }
    if (a.prefix != b.prefix) {
      throw std::logic_error("evaluator drift: prefix sums differ");
    }
    if (a.keys.size() != a.jobs.size()) {
      throw std::logic_error("evaluator drift: key mirror size");
    }
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      if (a.keys[i] != a.jobs[i].first) {
        throw std::logic_error("evaluator drift: key mirror out of sync");
      }
      if (job_pos_[static_cast<std::size_t>(a.jobs[i].second)] !=
          static_cast<int>(i)) {
        throw std::logic_error("evaluator drift: job position index");
      }
    }
    const double tol = 1e-6 * std::max(1.0, std::abs(b.completion));
    if (std::abs(a.completion - b.completion) > tol ||
        std::abs(a.flow - b.flow) > 1e-6 * std::max(1.0, std::abs(b.flow))) {
      throw std::logic_error("evaluator drift: cached sums differ");
    }
  }
  // Aggregate caches: the running flow total tracks the per-machine sum,
  // and makespan() agrees with a full scan (both within closed-form
  // tolerance of the canonical rebuild).
  if (std::abs(total_flow_ - fresh.flowtime()) >
      1e-6 * std::max(1.0, std::abs(fresh.flowtime()))) {
    throw std::logic_error("evaluator drift: total flowtime cache differs");
  }
  if (num_machines() > 0 &&
      std::abs(makespan() - fresh.makespan()) >
          1e-6 * std::max(1.0, fresh.makespan())) {
    throw std::logic_error("evaluator drift: makespan cache differs");
  }
  // Top-3 cache structural invariants are exact over the CURRENT cached
  // completions (not the canonical rebuild): entries mirror their
  // machines, are sorted best-first, and dominate every uncached machine.
  if (topk_size_ != top_capacity()) {
    throw std::logic_error("evaluator drift: top-k cache size");
  }
  for (int i = 0; i < topk_size_; ++i) {
    const auto& entry = topk_[static_cast<std::size_t>(i)];
    if (entry.machine < 0 || entry.machine >= num_machines() ||
        entry.completion !=
            machines_[static_cast<std::size_t>(entry.machine)].completion) {
      throw std::logic_error("evaluator drift: top-k entry mismatch");
    }
    if (i > 0) {
      const auto& prev = topk_[static_cast<std::size_t>(i - 1)];
      if (top_better(entry.completion, entry.machine, prev.completion,
                     prev.machine)) {
        throw std::logic_error("evaluator drift: top-k cache unsorted");
      }
    }
  }
  if (topk_size_ > 0) {
    const auto& worst = topk_[static_cast<std::size_t>(topk_size_ - 1)];
    for (MachineId m = 0; m < num_machines(); ++m) {
      bool cached = false;
      for (int i = 0; i < topk_size_; ++i) {
        cached = cached || topk_[static_cast<std::size_t>(i)].machine == m;
      }
      if (cached) continue;
      const double c = machines_[static_cast<std::size_t>(m)].completion;
      if (top_better(c, m, worst.completion, worst.machine)) {
        throw std::logic_error("evaluator drift: top-k invariant violated");
      }
    }
  }
}

}  // namespace gridsched
