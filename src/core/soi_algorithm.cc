#include "core/soi_algorithm.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/mutex.h"
#include "common/span.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/interest.h"
#include "core/soi_baseline.h"
#include "grid/live_poi_view.h"
#include "obs/obs.h"

namespace soi {

// ---------------------------------------------------------------------
// Reusable per-query scratch arenas.
//
// Every TryTopK call needs dense per-segment / per-street arrays, the three
// source-list buffers, and the refinement candidate heap. Allocating them
// per query dominated the allocator traffic of the serving hot path, so
// they live here instead: a query leases one QueryScratch from the pool,
// resets it with assign()/clear() (which preserve heap capacity), and
// returns it when done. Steady-state serving therefore allocates nothing.
struct SoiScratchPool {
  // Dense per-segment state of one run (validity gated by `seen`).
  struct SegmentState {
    double mass = 0;
    // Number of cells of C_eps(l) not yet visited for this segment.
    int64_t remaining = 0;
    // Bitmap over the positions of C_eps(l).
    std::vector<uint64_t> visited_bits;

    bool IsVisited(size_t pos) const {
      return (visited_bits[pos >> 6] >> (pos & 63)) & 1;
    }
    void MarkVisited(size_t pos) {
      visited_bits[pos >> 6] |= 1ull << (pos & 63);
    }
  };

  struct TrackerEntry {
    double value;
    StreetId street;
  };

  struct QueryScratch {
    // Filtering phase.
    std::vector<char> seen;
    std::vector<SegmentState> states;
    std::vector<double> street_best;
    std::vector<GlobalInvertedIndex::Entry> sl1;
    std::vector<double> cell_relevant_bound;
    std::vector<double> lbk;
    GlobalInvertedIndex::QueryCellScratch cell_list;
    // FinalizeSegment parallel path.
    std::vector<size_t> unvisited;
    std::vector<double> finalize_mass;
    std::vector<int64_t> finalize_checks;
    // Refinement phase.
    std::vector<SegmentId> pending;
    std::vector<double> street_exact;
    std::vector<SegmentId> street_exact_segment;
    std::vector<double> optimistic;
    // KthBestTracker storage.
    std::vector<double> tracker_value;
    std::vector<char> tracker_live;
    std::vector<TrackerEntry> tracker_heap;
  };

  std::unique_ptr<QueryScratch> Acquire() SOI_EXCLUDES(mutex_) {
    std::unique_ptr<QueryScratch> scratch;
    [[maybe_unused]] size_t free_count = 0;
    {
      MutexLock lock(mutex_);
      if (!free_.empty()) {
        scratch = std::move(free_.back());
        free_.pop_back();
      }
      free_count = free_.size();
    }
    SOI_OBS_GAUGE_SET("soi.scratch.free", static_cast<int64_t>(free_count));
    if (scratch != nullptr) {
      SOI_OBS_COUNTER_ADD("soi.scratch.reused", 1);
      return scratch;
    }
    SOI_OBS_COUNTER_ADD("soi.scratch.created", 1);
    return std::make_unique<QueryScratch>();
  }

  void Release(std::unique_ptr<QueryScratch> scratch) SOI_EXCLUDES(mutex_) {
    [[maybe_unused]] size_t free_count = 0;
    {
      MutexLock lock(mutex_);
      free_.push_back(std::move(scratch));
      free_count = free_.size();
    }
    SOI_OBS_GAUGE_SET("soi.scratch.free", static_cast<int64_t>(free_count));
  }

 private:
  Mutex mutex_{"core.SoiScratchPool.pool", lock_graph::kRankLeaf};
  std::vector<std::unique_ptr<QueryScratch>> free_ SOI_GUARDED_BY(mutex_);
};

namespace {

// RAII lease so the scratch returns to the pool on every exit path
// (including the exceptions fault injection and parallel chunks may
// rethrow through Execute).
class ScratchLease {
 public:
  explicit ScratchLease(SoiScratchPool* pool)
      : pool_(pool), scratch_(pool->Acquire()) {}
  ~ScratchLease() { pool_->Release(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  SoiScratchPool::QueryScratch& operator*() { return *scratch_; }

 private:
  SoiScratchPool* pool_;
  std::unique_ptr<SoiScratchPool::QueryScratch> scratch_;
};

// Which source list an iteration consumes.
enum class Source { kSl1, kSl2, kSl3, kNone };

// Threshold tracker for the refinement phase: the k-th largest per-street
// exact interest under value-increasing updates. A bounded lazy-deletion
// min-heap holds the current top-k street values (entries superseded by a
// larger value for the same street, or displaced out of the top-k, go
// stale and are purged when they surface at the top). Amortized O(log k)
// per update, O(1) per threshold read — replacing the O(k) rbegin/advance
// walk of a full std::multiset. Heap and dense arrays live in the leased
// scratch, so constructing a tracker allocates nothing steady-state.
//
// Correctness rests on monotonicity: street values only grow and the heap
// minimum over live entries never decreases, so a value evicted as the
// minimum of k+1 live entries can never re-enter the top-k.
class KthBestTracker {
 public:
  KthBestTracker(int32_t k, int64_t num_streets,
                 SoiScratchPool::QueryScratch* scratch)
      : k_(k),
        value_(scratch->tracker_value),
        live_flag_(scratch->tracker_live),
        heap_(scratch->tracker_heap) {
    value_.assign(static_cast<size_t>(num_streets), -1.0);
    live_flag_.assign(static_cast<size_t>(num_streets), 0);
    heap_.clear();
  }

  // Raises `street`'s value to `value`; no-op unless it strictly grows
  // (first values are >= 0, so the initial -1 sentinel always grows).
  void Update(StreetId street, double value) {
    double& current = value_[static_cast<size_t>(street)];
    if (current < 0.0) {
      ++num_streets_;
    } else if (value <= current) {
      return;
    }
    if (live_flag_[static_cast<size_t>(street)]) {
      live_flag_[static_cast<size_t>(street)] = 0;  // entry goes stale
      --num_live_;
    }
    current = value;
    heap_.push_back(SoiScratchPool::TrackerEntry{value, street});
    std::push_heap(heap_.begin(), heap_.end(), MinOnTop());
    live_flag_[static_cast<size_t>(street)] = 1;
    ++num_live_;
    while (num_live_ > k_) EvictMinLive();
  }

  // The k-th largest street value, or 0 while fewer than k streets have
  // one (matching the refinement's "no threshold yet" semantics).
  double Kth() {
    if (num_streets_ < k_) return 0.0;
    while (!IsLive(heap_.front())) PopTop();
    return heap_.front().value;
  }

 private:
  // Min-heap: the smallest tracked value surfaces at front().
  struct MinOnTop {
    bool operator()(const SoiScratchPool::TrackerEntry& a,
                    const SoiScratchPool::TrackerEntry& b) const {
      return a.value > b.value;
    }
  };

  bool IsLive(const SoiScratchPool::TrackerEntry& e) const {
    return live_flag_[static_cast<size_t>(e.street)] &&
           value_[static_cast<size_t>(e.street)] == e.value;
  }

  void PopTop() {
    std::pop_heap(heap_.begin(), heap_.end(), MinOnTop());
    heap_.pop_back();
  }

  void EvictMinLive() {
    for (;;) {
      SoiScratchPool::TrackerEntry top = heap_.front();
      PopTop();
      if (IsLive(top)) {
        live_flag_[static_cast<size_t>(top.street)] = 0;
        --num_live_;
        return;
      }
    }
  }

  int32_t k_;
  std::vector<double>& value_;
  std::vector<char>& live_flag_;
  std::vector<SoiScratchPool::TrackerEntry>& heap_;
  int64_t num_streets_ = 0;
  int64_t num_live_ = 0;
};

// Mutable per-run state of Algorithm 1. Scoped to one TryTopK call so the
// SoiAlgorithm instance stays immutable; the backing storage comes from
// the leased QueryScratch and is reset here, never reallocated.
class Run {
 public:
  using SegmentState = SoiScratchPool::SegmentState;

  Run(const RoadNetwork& network, const PoiGridIndex& grid,
      const GlobalInvertedIndex& global_index,
      const std::vector<SegmentId>& segments_by_length,
      const SoiQuery& query, const EpsAugmentedMaps& maps,
      const SoiAlgorithmOptions& options,
      SoiScratchPool::QueryScratch* scratch)
      : network_(network),
        grid_(grid),
        view_(options.live_view != nullptr
                  ? *options.live_view
                  : LivePoiView(grid, global_index)),
        sl3_(segments_by_length),
        query_(query),
        maps_(maps),
        options_(options),
        s_(*scratch),
        seen_(s_.seen),
        states_(s_.states),
        street_best_(s_.street_best),
        sl1_(s_.sl1),
        cell_relevant_bound_(s_.cell_relevant_bound),
        sl2_(maps.SegmentsByCellCount()) {
    const size_t num_segments =
        static_cast<size_t>(network.num_segments());
    seen_.assign(num_segments, 0);
    // Element contents are stale from the previous lease; validity is
    // gated by seen_ and GetOrCreateState re-initializes on first touch.
    if (states_.size() < num_segments) states_.resize(num_segments);
    street_best_.assign(static_cast<size_t>(network.num_streets()), -1.0);
  }

  Result<SoiResult> Execute();

 private:
  SegmentState& GetOrCreateState(SegmentId id);
  // Relevant mass of `cell` for the query w.r.t. `geometry` (the body of
  // procedure UpdateInterest), accumulated locally so sequential and
  // parallel callers add per-cell sums to the segment mass in the same
  // order — the determinism contract's bit-identity hinges on this.
  double CellMass(const Segment& geometry, CellId cell,
                  int64_t* distance_checks) const;
  // Procedure UpdateInterest of Algorithm 1.
  void UpdateInterest(SegmentId id, CellId cell);
  void FinalizeSegment(SegmentId id);
  void UpdateStreetBest(StreetId street, double lower_bound);

  // --- source lists ------------------------------------------------------
  void BuildSourceLists();
  // Advances the cursors past already-seen segments; must be called before
  // reading the tops or popping.
  void SkipSeenSegments();
  bool Sl1Exhausted() const { return sl1_pos_ >= sl1_.size(); }
  bool Sl2Exhausted() const { return sl2_pos_ >= sl2_.size(); }
  bool Sl3Exhausted() const { return sl3_pos_ >= sl3_.size(); }

  double ComputeUpperBound();
  // Recomputes LB_k (the k-th largest per-street best lower bound) when
  // due. LB_k only grows, so a stale (smaller) cached value is a valid —
  // merely conservative — lower bound; recomputing every iteration would
  // dominate the filtering cost.
  void MaybeRefreshLowerBoundK();
  Source ChooseSource();
  void PopCell();
  void PopSegment(Source source);

  // --- phases ------------------------------------------------------------
  // Both phases check options_.cancel cooperatively and return its
  // kCancelled / kDeadlineExceeded status when it fires; partial state
  // is discarded by the caller.
  Status FilteringPhase();
  Status RefinementPhase();

  const RoadNetwork& network_;
  const PoiGridIndex& grid_;
  // Every POI-side read of the run goes through this view: the static
  // path wraps grid_/global_index_ with no overlay, the ingest path is
  // options.live_view's pinned epoch. Geometry stays grid_'s — it is
  // invariant across epochs (ingest rejects out-of-bounds inserts).
  const LivePoiView view_;
  const std::vector<SegmentId>& sl3_;
  const SoiQuery& query_;
  const EpsAugmentedMaps& maps_;
  const SoiAlgorithmOptions& options_;

  SoiScratchPool::QueryScratch& s_;
  std::vector<char>& seen_;
  // Dense per-segment state, lazily initialized on first touch (seen_
  // flags gate validity). A vector beats a hash map here: GetOrCreateState
  // runs once per (segment, cell) pair.
  std::vector<SegmentState>& states_;
  // street_best_[s] = best int^-(l) over seen segments of s; -1 if unseen.
  std::vector<double>& street_best_;
  // SL1: cells with relevant POIs, by decreasing |P_Psi(c)|.
  std::vector<GlobalInvertedIndex::Entry>& sl1_;
  // Relevant-weight upper bound per cell (0 for cells off SL1), for the
  // pruned refinement. Dense: indexed by CellId.
  std::vector<double>& cell_relevant_bound_;
  // SL2: segments by decreasing |C_eps(l)|, stored with the maps.
  const Span<SegmentId> sl2_;

  size_t sl1_pos_ = 0;
  size_t sl2_pos_ = 0;
  size_t sl3_pos_ = 0;

  int64_t num_seen_streets_ = 0;
  int64_t next_lbk_refresh_ = 0;

  double upper_bound_ = 0.0;
  double lower_bound_k_ = 0.0;
  Source last_source_ = Source::kNone;

  SoiResult result_;
};

Run::SegmentState& Run::GetOrCreateState(SegmentId id) {
  SegmentState& state = states_[static_cast<size_t>(id)];
  if (seen_[static_cast<size_t>(id)]) return state;
  int64_t num_cells = maps_.NumSegmentCells(id);
  state.mass = 0.0;
  state.remaining = num_cells;
  state.visited_bits.assign(static_cast<size_t>((num_cells + 63) / 64), 0);
  seen_[static_cast<size_t>(id)] = 1;
  ++result_.stats.segments_seen;
  // A freshly seen segment contributes a zero lower bound to its street.
  UpdateStreetBest(network_.segment(id).street, 0.0);
  return state;
}

void Run::UpdateStreetBest(StreetId street, double lower_bound) {
  double& best = street_best_[static_cast<size_t>(street)];
  if (best < 0.0) {
    best = lower_bound;
    ++num_seen_streets_;
    return;
  }
  if (lower_bound > best) best = lower_bound;
}

double Run::CellMass(const Segment& geometry, CellId cell,
                     int64_t* distance_checks) const {
  double mass = 0.0;
  view_.ForEachRelevantInCell(cell, query_.keywords, [&](PoiId poi) {
    ++*distance_checks;
    const Poi& p = view_.PoiById(poi);
    if (geometry.DistanceTo(p.position) <= query_.eps) {
      mass += p.weight;
    }
  });
  return mass;
}

void Run::UpdateInterest(SegmentId id, CellId cell) {
  SegmentState& state = GetOrCreateState(id);
  Span<CellId> cells = maps_.SegmentCells(id);
  auto it = std::lower_bound(cells.begin(), cells.end(), cell);
  SOI_DCHECK(it != cells.end() && *it == cell)
      << "cell " << cell << " not in C_eps of segment " << id;
  size_t pos = static_cast<size_t>(it - cells.begin());
  if (state.IsVisited(pos)) return;
  state.MarkVisited(pos);
  --state.remaining;

  const NetworkSegment& segment = network_.segment(id);
  state.mass +=
      CellMass(segment.geometry, cell, &result_.stats.poi_distance_checks);
  UpdateStreetBest(segment.street,
                   SegmentInterest(state.mass, segment.length, query_.eps));
}

void Run::FinalizeSegment(SegmentId id) {
  SegmentState& state = GetOrCreateState(id);
  if (state.remaining == 0) return;
  Span<CellId> cells = maps_.SegmentCells(id);

  // Parallel path: the per-cell masses are pure reads, so compute them
  // concurrently and fold them into the segment state sequentially, in
  // cell order — the same order (and the same per-cell local sums) as the
  // sequential path, keeping the mass bit-identical. Only worthwhile for
  // segments with many unvisited cells.
  constexpr int64_t kMinParallelCells = 32;
  if (options_.pool != nullptr && state.remaining >= kMinParallelCells &&
      !ThreadPool::InParallelRegion()) {
    std::vector<size_t>& unvisited = s_.unvisited;
    unvisited.clear();
    for (size_t pos = 0; pos < cells.size(); ++pos) {
      if (!state.IsVisited(pos)) unvisited.push_back(pos);
    }
    const NetworkSegment& segment = network_.segment(id);
    std::vector<double>& cell_mass = s_.finalize_mass;
    cell_mass.assign(unvisited.size(), 0.0);
    std::vector<int64_t>& checks = s_.finalize_checks;
    checks.assign(unvisited.size(), 0);
    ParallelFor(options_.pool, 0, static_cast<int64_t>(unvisited.size()),
                [&](int64_t j) {
                  cell_mass[static_cast<size_t>(j)] = CellMass(
                      segment.geometry, cells[unvisited[static_cast<size_t>(j)]],
                      &checks[static_cast<size_t>(j)]);
                });
    for (size_t j = 0; j < unvisited.size(); ++j) {
      state.MarkVisited(unvisited[j]);
      --state.remaining;
      state.mass += cell_mass[j];
      result_.stats.poi_distance_checks += checks[j];
    }
    // The sequential path updates the street bound after every cell, but
    // the mass only grows, so the final update subsumes the rest.
    UpdateStreetBest(
        segment.street,
        SegmentInterest(state.mass, segment.length, query_.eps));
    return;
  }

  for (size_t pos = 0; pos < cells.size() && state.remaining > 0; ++pos) {
    if (!state.IsVisited(pos)) UpdateInterest(id, cells[pos]);
  }
}

void Run::BuildSourceLists() {
  view_.BuildQueryCellList(query_.keywords, &s_.cell_list, &sl1_);
  cell_relevant_bound_.assign(
      static_cast<size_t>(grid_.geometry().num_cells()), 0.0);
  for (const GlobalInvertedIndex::Entry& entry : sl1_) {
    cell_relevant_bound_[static_cast<size_t>(entry.cell)] = entry.weight;
  }
  // SL2 is the maps' stored order (it depends only on eps), and SL3
  // (sl3_) the offline by-length list, shared across queries.
}

void Run::SkipSeenSegments() {
  while (sl2_pos_ < sl2_.size() && seen_[static_cast<size_t>(sl2_[sl2_pos_])]) {
    ++sl2_pos_;
  }
  while (sl3_pos_ < sl3_.size() && seen_[static_cast<size_t>(sl3_[sl3_pos_])]) {
    ++sl3_pos_;
  }
}

double Run::ComputeUpperBound() {
  SkipSeenSegments();
  // Any unseen segment only neighbors unpopped cells (a popped cell marks
  // every segment within eps as seen), so:
  //   mass(l) <= top(SL1) * top(SL2)   and   len(l) >= top(SL3),
  // giving UB = top(SL1) * top(SL2) / (2 eps top(SL3) + pi eps^2).
  if (Sl1Exhausted() || Sl2Exhausted() || Sl3Exhausted()) return 0.0;
  double top1 = sl1_[sl1_pos_].weight;
  int64_t top2 = maps_.NumSegmentCells(sl2_[sl2_pos_]);
  double top3 = network_.segment(sl3_[sl3_pos_]).length;
  return SegmentInterest(top1 * static_cast<double>(top2), top3,
                         query_.eps);
}

void Run::MaybeRefreshLowerBoundK() {
  if (num_seen_streets_ < query_.k) return;
  if (result_.stats.iterations < next_lbk_refresh_) return;
  constexpr int64_t kRefreshInterval = 16;
  next_lbk_refresh_ = result_.stats.iterations + kRefreshInterval;
  std::vector<double>& lbk_scratch = s_.lbk;
  lbk_scratch.clear();
  for (double best : street_best_) {
    if (best >= 0.0) lbk_scratch.push_back(best);
  }
  size_t kth = static_cast<size_t>(query_.k - 1);
  std::nth_element(lbk_scratch.begin(), lbk_scratch.begin() + kth,
                   lbk_scratch.end(), std::greater<double>());
  // LB_k is monotone over the run; keep the larger of old and new.
  lower_bound_k_ = std::max(lower_bound_k_, lbk_scratch[kth]);
}

Source Run::ChooseSource() {
  SkipSeenSegments();
  bool have1 = !Sl1Exhausted();
  bool have2 = !Sl2Exhausted();
  bool have3 = !Sl3Exhausted();
  if (!have1 && !have2 && !have3) return Source::kNone;

  auto fallback = [&]() {
    if (have1) return Source::kSl1;
    if (have3) return Source::kSl3;
    return Source::kSl2;
  };

  switch (options_.strategy) {
    case SourceListStrategy::kCellsFirst:
      return fallback();
    case SourceListStrategy::kRoundRobin: {
      // SL1 -> SL2 -> SL3 -> SL1 ... skipping exhausted lists.
      Source order[3] = {Source::kSl1, Source::kSl2, Source::kSl3};
      int start = 0;
      if (last_source_ == Source::kSl1) start = 1;
      if (last_source_ == Source::kSl2) start = 2;
      for (int i = 0; i < 3; ++i) {
        Source s = order[(start + i) % 3];
        if (s == Source::kSl1 && have1) return s;
        if (s == Source::kSl2 && have2) return s;
        if (s == Source::kSl3 && have3) return s;
      }
      return Source::kNone;
    }
    case SourceListStrategy::kAlternateCellsSegments: {
      // Alternate SL1 / SL3, balancing the number of *segments considered*
      // from each source (Section 3.2.2): one cell access brings several
      // segments into view, so segment accesses are interleaved at a 1:4
      // ratio. SL2 takes over the segment access when its top segment
      // neighbors an outsized number of cells (at least 4x the median —
      // the "few segments with a large number of neighboring cells"
      // case).
      bool segment_turn =
          have1 && (result_.stats.iterations % 5 == 4);
      if (!segment_turn && have1) return Source::kSl1;
      if (have2 && have3) {
        int64_t top2 = maps_.NumSegmentCells(sl2_[sl2_pos_]);
        SegmentId median_seg = sl2_[(sl2_pos_ + sl2_.size()) / 2];
        int64_t median = maps_.NumSegmentCells(median_seg);
        if (top2 >= 4 * std::max<int64_t>(median, 1)) return Source::kSl2;
      }
      if (have3) return Source::kSl3;
      return fallback();
    }
  }
  return fallback();
}

void Run::PopCell() {
  const GlobalInvertedIndex::Entry& entry = sl1_[sl1_pos_++];
  ++result_.stats.cells_popped;
  for (SegmentId id : maps_.CellSegments(entry.cell)) {
    UpdateInterest(id, entry.cell);
  }
}

void Run::PopSegment(Source source) {
  SegmentId id =
      source == Source::kSl2 ? sl2_[sl2_pos_++] : sl3_[sl3_pos_++];
  SOI_DCHECK(!seen_[static_cast<size_t>(id)]);
  ++result_.stats.segments_popped;
  FinalizeSegment(id);
}

Status Run::FilteringPhase() {
  for (;;) {
    // One check per iteration = per popped cell or finalized segment,
    // the cell-granularity promptness the serving path promises.
    SOI_RETURN_NOT_OK(options_.cancel.Check());
    upper_bound_ = ComputeUpperBound();
    MaybeRefreshLowerBoundK();
    if (options_.observer) {
      SoiAlgorithmOptions::FilterSnapshot snapshot;
      snapshot.upper_bound = upper_bound_;
      snapshot.lower_bound = lower_bound_k_;
      snapshot.segment_seen = &seen_;
      options_.observer(snapshot);
    }
    if (upper_bound_ <= lower_bound_k_) break;
    Source source = ChooseSource();
    if (source == Source::kNone) break;
    ++result_.stats.iterations;
    if (source == Source::kSl1) {
      PopCell();
    } else {
      PopSegment(source);
    }
    last_source_ = source;
  }
  result_.stats.final_upper_bound = upper_bound_;
  result_.stats.final_lower_bound = lower_bound_k_;
  return Status::OK();
}

Status Run::RefinementPhase() {
  // Collect the seen segments; under pruning, process them by decreasing
  // interest lower bound so the exact-score threshold rises quickly.
  std::vector<SegmentId>& pending = s_.pending;
  pending.clear();
  pending.reserve(static_cast<size_t>(result_.stats.segments_seen));
  for (SegmentId id = 0; id < network_.num_segments(); ++id) {
    if (seen_[static_cast<size_t>(id)]) pending.push_back(id);
  }

  std::vector<double>& street_exact = s_.street_exact;
  street_exact.assign(static_cast<size_t>(network_.num_streets()), -1.0);
  // The segment attaining street_exact, tracked while updating instead of
  // recovered afterwards by re-deriving the score and matching on exact
  // floating-point equality (fragile). With the pending order below, ties
  // resolve to the lowest segment id in both refinement modes.
  std::vector<SegmentId>& street_exact_segment = s_.street_exact_segment;
  street_exact_segment.assign(static_cast<size_t>(network_.num_streets()),
                              -1);
  KthBestTracker tracker(query_.k, network_.num_streets(), &s_);
  auto update_exact = [&](StreetId street, double interest, SegmentId seg) {
    double& best = street_exact[static_cast<size_t>(street)];
    if (best < 0.0 || interest > best) {
      best = interest;
      street_exact_segment[static_cast<size_t>(street)] = seg;
      tracker.Update(street, interest);
    }
  };

  if (options_.pruned_refinement) {
    ParallelSort(options_.pool, pending.begin(), pending.end(),
                 [this](SegmentId a, SegmentId b) {
                   const SegmentState& sa = states_[static_cast<size_t>(a)];
                   const SegmentState& sb = states_[static_cast<size_t>(b)];
                   double ia = SegmentInterest(sa.mass,
                                               network_.segment(a).length,
                                               query_.eps);
                   double ib = SegmentInterest(sb.mass,
                                               network_.segment(b).length,
                                               query_.eps);
                   if (ia != ib) return ia > ib;
                   return a < b;
                 });
  }

  // Optimistic interest bounds (every unvisited cell contributes its full
  // relevant-POI bound): pure reads of the post-filtering state, so they
  // are computed for all pending segments in parallel up front. Each
  // bound accumulates in the same cell order as the former inline loop.
  std::vector<double>& optimistic = s_.optimistic;
  if (options_.pruned_refinement) {
    optimistic.resize(pending.size());
    ParallelFor(
        options_.pool, 0, static_cast<int64_t>(pending.size()),
        [&](int64_t i) {
          SegmentId id = pending[static_cast<size_t>(i)];
          const SegmentState& state = states_[static_cast<size_t>(id)];
          double optimistic_mass = state.mass;
          if (state.remaining > 0) {
            Span<CellId> cells = maps_.SegmentCells(id);
            for (size_t pos = 0; pos < cells.size(); ++pos) {
              if (state.IsVisited(pos)) continue;
              optimistic_mass +=
                  cell_relevant_bound_[static_cast<size_t>(cells[pos])];
            }
          }
          optimistic[static_cast<size_t>(i)] = SegmentInterest(
              optimistic_mass, network_.segment(id).length, query_.eps);
        });
  }

  for (size_t i = 0; i < pending.size(); ++i) {
    SOI_RETURN_NOT_OK(options_.cancel.Check());
    SegmentId id = pending[i];
    const SegmentState& state = states_[static_cast<size_t>(id)];
    const NetworkSegment& segment = network_.segment(id);
    if (options_.pruned_refinement && state.remaining > 0 &&
        optimistic[i] < tracker.Kth()) {
      continue;  // Cannot reach the top-k.
    }
    if (state.remaining > 0) {
      SOI_FAULT_POINT("soi.refine.finalize");
      ++result_.stats.segments_finalized_in_refinement;
      FinalizeSegment(id);
    }
    update_exact(segment.street,
                 SegmentInterest(states_[static_cast<size_t>(id)].mass,
                                 segment.length, query_.eps),
                 id);
  }

  // Extract the top-k streets: seen streets by exact interest, padded (for
  // degenerate queries that saw fewer than k streets) with unseen streets
  // at interest 0 in ascending id order — matching RankStreets' ordering.
  std::vector<RankedStreet> ranked;
  ranked.reserve(static_cast<size_t>(network_.num_streets()));
  for (StreetId street = 0; street < network_.num_streets(); ++street) {
    double exact = street_exact[static_cast<size_t>(street)];
    RankedStreet entry;
    entry.street = street;
    entry.interest = std::max(exact, 0.0);
    entry.best_segment =
        exact > 0.0 ? street_exact_segment[static_cast<size_t>(street)]
                    : network_.street(street).segments[0];
    ranked.push_back(entry);
  }
  auto by_interest = [](const RankedStreet& a, const RankedStreet& b) {
    if (a.interest != b.interest) return a.interest > b.interest;
    return a.street < b.street;
  };
  size_t keep =
      std::min<size_t>(static_cast<size_t>(query_.k), ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    by_interest);
  ranked.resize(keep);
  result_.streets = std::move(ranked);
  return Status::OK();
}

Result<SoiResult> Run::Execute() {
  // Phase timings flow to two places: the per-run SoiQueryStats fields
  // (the public per-query view, kept for Figure 4 and the tests) and the
  // cumulative registry histograms/spans (the fleet-wide view).
  SOI_TRACE_SPAN("soi.query");
  Stopwatch timer;
  {
    SOI_TRACE_SPAN("soi.lists");
    BuildSourceLists();
  }
  result_.stats.list_construction_seconds = timer.ElapsedSeconds();
  SOI_OBS_HISTOGRAM_OBSERVE_EXEMPLAR("soi.query.lists_seconds",
                                     result_.stats.list_construction_seconds,
                                     options_.query_id);

  timer.Reset();
  {
    SOI_TRACE_SPAN("soi.filter");
    SOI_RETURN_NOT_OK(FilteringPhase());
  }
  result_.stats.filtering_seconds = timer.ElapsedSeconds();
  SOI_OBS_HISTOGRAM_OBSERVE_EXEMPLAR("soi.query.filter_seconds",
                                     result_.stats.filtering_seconds,
                                     options_.query_id);

  timer.Reset();
  {
    SOI_TRACE_SPAN("soi.refine");
    SOI_RETURN_NOT_OK(RefinementPhase());
  }
  result_.stats.refinement_seconds = timer.ElapsedSeconds();
  SOI_OBS_HISTOGRAM_OBSERVE_EXEMPLAR("soi.query.refine_seconds",
                                     result_.stats.refinement_seconds,
                                     options_.query_id);

  // Work counters, folded into the registry once per query (never on the
  // per-(segment, cell) hot path).
  SOI_OBS_COUNTER_ADD("soi.query.count", 1);
  SOI_OBS_COUNTER_ADD("soi.query.iterations", result_.stats.iterations);
  SOI_OBS_COUNTER_ADD("soi.query.cells_popped",
                      result_.stats.cells_popped);
  SOI_OBS_COUNTER_ADD("soi.query.segments_popped",
                      result_.stats.segments_popped);
  SOI_OBS_COUNTER_ADD("soi.query.segments_seen",
                      result_.stats.segments_seen);
  SOI_OBS_COUNTER_ADD("soi.query.segments_finalized_in_refinement",
                      result_.stats.segments_finalized_in_refinement);
  SOI_OBS_COUNTER_ADD("soi.query.poi_distance_checks",
                      result_.stats.poi_distance_checks);
  return std::move(result_);
}

}  // namespace

SoiAlgorithm::SoiAlgorithm(const RoadNetwork& network,
                           const PoiGridIndex& grid,
                           const GlobalInvertedIndex& global_index,
                           ThreadPool* pool)
    : network_(&network),
      grid_(&grid),
      global_index_(&global_index),
      scratch_pool_(std::make_unique<SoiScratchPool>()) {
  segments_by_length_.resize(static_cast<size_t>(network.num_segments()));
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    segments_by_length_[static_cast<size_t>(id)] = id;
  }
  ParallelSort(pool, segments_by_length_.begin(), segments_by_length_.end(),
               [&network](SegmentId a, SegmentId b) {
                 double la = network.segment(a).length;
                 double lb = network.segment(b).length;
                 if (la != lb) return la < lb;
                 return a < b;
               });
}

SoiAlgorithm::~SoiAlgorithm() = default;

Result<SoiResult> SoiAlgorithm::TryTopK(
    const SoiQuery& query, const EpsAugmentedMaps& maps,
    const SoiAlgorithmOptions& options) const {
  SOI_RETURN_NOT_OK(query.Validate());
  if (maps.eps() != query.eps) {
    return Status::InvalidArgument(
        "EpsAugmentedMaps built for eps=" + FormatDouble(maps.eps()) +
        " but query has eps=" + FormatDouble(query.eps));
  }
  if (!(grid_->geometry().bounds() == maps.geometry().bounds()) ||
      grid_->geometry().cell_size() != maps.geometry().cell_size()) {
    return Status::InvalidArgument(
        "POI grid and segment maps use different grid geometries");
  }
  SOI_RETURN_NOT_OK(options.cancel.Check());
  ScratchLease lease(scratch_pool_.get());
  Run run(*network_, *grid_, *global_index_, segments_by_length_, query,
          maps, options, &*lease);
  return run.Execute();
}

}  // namespace soi
