#include "routing/distance_oracle.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace mtshare {
namespace {

OracleBackend ResolveBackend(const RoadNetwork& network,
                             const OracleOptions& options) {
  if (options.backend != OracleBackend::kAuto) return options.backend;
  return network.num_vertices() <= options.max_exact_vertices
             ? OracleBackend::kExact
             : OracleBackend::kCh;
}

}  // namespace

const char* OracleBackendName(OracleBackend backend) {
  switch (backend) {
    case OracleBackend::kAuto:
      return "auto";
    case OracleBackend::kExact:
      return "exact";
    case OracleBackend::kLru:
      return "lru";
    case OracleBackend::kCh:
      return "ch";
  }
  return "unknown";
}

bool ParseOracleBackend(std::string_view name, OracleBackend* out) {
  if (name == "auto") {
    *out = OracleBackend::kAuto;
  } else if (name == "exact") {
    *out = OracleBackend::kExact;
  } else if (name == "lru") {
    *out = OracleBackend::kLru;
  } else if (name == "ch") {
    *out = OracleBackend::kCh;
  } else {
    return false;
  }
  return true;
}

DistanceOracle::DistanceOracle(const RoadNetwork& network,
                               const OracleOptions& options)
    : DistanceOracle(network, options,
                     ContractionHierarchy::Build(network, options.ch)) {}

DistanceOracle::DistanceOracle(const RoadNetwork& network,
                               const OracleOptions& options,
                               ContractionHierarchy ch)
    : network_(network),
      options_(options),
      backend_(ResolveBackend(network, options)),
      ch_(std::make_unique<const ContractionHierarchy>(std::move(ch))) {
  MTSHARE_CHECK(ch_->num_vertices() == network.num_vertices());
  switch (backend_) {
    case OracleBackend::kExact:
      exact_rows_.resize(network.num_vertices());
      exact_filled_ =
          std::make_unique<std::atomic<uint8_t>[]>(network.num_vertices());
      for (VertexId v = 0; v < network.num_vertices(); ++v) {
        exact_filled_[v].store(0, std::memory_order_relaxed);
      }
      fill_mutex_ = std::make_unique<std::mutex[]>(kFillStripes);
      break;
    case OracleBackend::kLru: {
      const int32_t shards = std::max<int32_t>(1, options.lru_shards);
      int64_t rows = options.lru_rows;
      if (options.lru_max_bytes > 0) {
        const int64_t row_bytes =
            static_cast<int64_t>(network.num_vertices()) * sizeof(Seconds);
        rows = std::min<int64_t>(
            rows, std::max<int64_t>(shards,
                                    options.lru_max_bytes /
                                        std::max<int64_t>(1, row_bytes)));
      }
      cache_ =
          std::make_unique<ShardedLruCache<VertexId, std::vector<Seconds>>>(
              static_cast<int32_t>(rows), shards);
      break;
    }
    case OracleBackend::kCh:
      break;
    case OracleBackend::kAuto:
      MTSHARE_CHECK(false);  // ResolveBackend never returns kAuto
  }
}

std::unique_ptr<ChQuery> DistanceOracle::BorrowChEngine() {
  {
    std::lock_guard<std::mutex> lock(ch_pool_mutex_);
    if (!ch_pool_.empty()) {
      std::unique_ptr<ChQuery> engine = std::move(ch_pool_.back());
      ch_pool_.pop_back();
      return engine;
    }
    ++ch_engines_created_;
  }
  return std::make_unique<ChQuery>(*ch_);
}

void DistanceOracle::ReturnChEngine(std::unique_ptr<ChQuery> engine) {
  const ChQueryStats& s = engine->stats();
  std::lock_guard<std::mutex> lock(ch_pool_mutex_);
  ch_stats_total_.point_queries += s.point_queries;
  ch_stats_total_.bucket_queries += s.bucket_queries;
  ch_stats_total_.upward_settled += s.upward_settled;
  ch_stats_total_.bucket_entries += s.bucket_entries;
  engine->ResetStats();
  ch_pool_.push_back(std::move(engine));
}

ChQueryStats DistanceOracle::ch_query_stats() const {
  std::lock_guard<std::mutex> lock(ch_pool_mutex_);
  return ch_stats_total_;
}

std::vector<Seconds> DistanceOracle::ComputeRow(VertexId source) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<Seconds> row = ch_->RowFrom(source);
  row_fill_ns_.fetch_add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count(),
      std::memory_order_relaxed);
  return row;
}

const std::vector<Seconds>& DistanceOracle::ExactRow(VertexId source) {
  if (exact_filled_[source].load(std::memory_order_acquire)) {
    exact_hits_.fetch_add(1, std::memory_order_relaxed);
    return exact_rows_[source];
  }
  std::lock_guard<std::mutex> lock(fill_mutex_[source % kFillStripes]);
  if (!exact_filled_[source].load(std::memory_order_relaxed)) {
    exact_misses_.fetch_add(1, std::memory_order_relaxed);
    exact_rows_[source] = ComputeRow(source);
    exact_filled_[source].store(1, std::memory_order_release);
  } else {
    exact_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return exact_rows_[source];
}

Seconds DistanceOracle::Cost(VertexId source, VertexId target) {
  MTSHARE_CHECK(source >= 0 && source < network_.num_vertices());
  MTSHARE_CHECK(target >= 0 && target < network_.num_vertices());
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (source == target) return 0.0;
  switch (backend_) {
    case OracleBackend::kExact:
      return ExactRow(source)[target];
    case OracleBackend::kCh: {
      std::unique_ptr<ChQuery> engine = BorrowChEngine();
      Seconds cost = engine->Cost(source, target);
      ReturnChEngine(std::move(engine));
      return cost;
    }
    default: {
      auto row = cache_->GetOrCompute(
          source, [this](VertexId v) { return ComputeRow(v); });
      return (*row)[target];
    }
  }
}

void DistanceOracle::CostMany(VertexId source,
                              std::span<const VertexId> targets,
                              std::vector<Seconds>* out) {
  MTSHARE_CHECK(source >= 0 && source < network_.num_vertices());
  for (VertexId t : targets) {
    MTSHARE_CHECK(t >= 0 && t < network_.num_vertices());
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  batch_queries_.fetch_add(1, std::memory_order_relaxed);
  // One backend pass (and one hit/miss tick) regardless of target count;
  // a row's own source entry is 0.0 and a CH bucket sweep meets a
  // same-vertex target at distance 0, so no special case is needed to
  // stay bit-identical to Cost().
  switch (backend_) {
    case OracleBackend::kExact: {
      const std::vector<Seconds>& row = ExactRow(source);
      out->clear();
      out->reserve(targets.size());
      for (VertexId t : targets) out->push_back(row[t]);
      return;
    }
    case OracleBackend::kCh: {
      std::unique_ptr<ChQuery> engine = BorrowChEngine();
      engine->CostMany(source, targets, out);
      ReturnChEngine(std::move(engine));
      return;
    }
    default: {
      auto row = cache_->GetOrCompute(
          source, [this](VertexId v) { return ComputeRow(v); });
      out->clear();
      out->reserve(targets.size());
      for (VertexId t : targets) out->push_back((*row)[t]);
      return;
    }
  }
}

void DistanceOracle::CostManyToMany(std::span<const VertexId> sources,
                                    std::span<const VertexId> targets,
                                    std::vector<Seconds>* out) {
  for (VertexId s : sources) {
    MTSHARE_CHECK(s >= 0 && s < network_.num_vertices());
  }
  for (VertexId t : targets) {
    MTSHARE_CHECK(t >= 0 && t < network_.num_vertices());
  }
  queries_.fetch_add(static_cast<int64_t>(sources.size()),
                     std::memory_order_relaxed);
  batch_queries_.fetch_add(1, std::memory_order_relaxed);
  if (backend_ == OracleBackend::kCh) {
    std::unique_ptr<ChQuery> engine = BorrowChEngine();
    engine->CostManyToMany(sources, targets, out);
    ReturnChEngine(std::move(engine));
    return;
  }
  // Table / LRU: one row pass per source.
  out->clear();
  out->reserve(sources.size() * targets.size());
  for (VertexId s : sources) {
    if (backend_ == OracleBackend::kExact) {
      const std::vector<Seconds>& row = ExactRow(s);
      for (VertexId t : targets) out->push_back(row[t]);
    } else {
      auto row = cache_->GetOrCompute(
          s, [this](VertexId v) { return ComputeRow(v); });
      for (VertexId t : targets) out->push_back((*row)[t]);
    }
  }
}

const std::vector<Seconds>& DistanceOracle::Row(VertexId source) {
  MTSHARE_CHECK(exact_mode());  // LRU rows can be evicted
  queries_.fetch_add(1, std::memory_order_relaxed);
  return ExactRow(source);
}

int64_t DistanceOracle::row_hits() const {
  switch (backend_) {
    case OracleBackend::kExact:
      return exact_hits_.load(std::memory_order_relaxed);
    case OracleBackend::kLru:
      return cache_->hits();
    default:
      return 0;
  }
}

int64_t DistanceOracle::row_misses() const {
  switch (backend_) {
    case OracleBackend::kExact:
      return exact_misses_.load(std::memory_order_relaxed);
    case OracleBackend::kLru:
      return cache_->misses();
    default:
      return 0;
  }
}

size_t DistanceOracle::MemoryBytes() const {
  const size_t ch_bytes = ch_->MemoryBytes();
  switch (backend_) {
    case OracleBackend::kExact: {
      size_t bytes = ch_bytes;
      for (VertexId v = 0; v < network_.num_vertices(); ++v) {
        if (exact_filled_[v].load(std::memory_order_acquire)) {
          bytes += exact_rows_[v].size() * sizeof(Seconds);
        }
      }
      return bytes;
    }
    case OracleBackend::kCh: {
      std::lock_guard<std::mutex> lock(ch_pool_mutex_);
      size_t engine_bytes = 0;
      for (const std::unique_ptr<ChQuery>& engine : ch_pool_) {
        engine_bytes = std::max(engine_bytes, engine->MemoryBytes());
      }
      // Every pooled engine is buffer-wise the same size; count the largest
      // footprint once per engine ever created. Engine buffers never shrink,
      // so the pool's maximum is the largest footprint reached; engines
      // checked out mid-call are missed (read from quiescent moments).
      return ch_bytes + ch_engines_created_ * engine_bytes;
    }
    default:
      return ch_bytes +
             cache_->MemoryBytes([](const std::vector<Seconds>& row) {
               return row.size() * sizeof(Seconds);
             });
  }
}

}  // namespace mtshare
