// WebTabService unit tests over borrowed in-memory views: queue and
// deadline semantics, overload rejection, result-cache behavior, and
// equality with direct single-threaded engine/annotator calls.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/deadline.h"
#include "index/lemma_index.h"
#include "obs/metrics.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "serve/result_cache.h"
#include "serve/service.h"
#include "test_world.h"

namespace webtab {
namespace serve {
namespace {

using testing_util::Figure1World;
using testing_util::MakeFigure1Table;
using testing_util::MakeFigure1World;

// --- BoundedQueue ---------------------------------------------------------

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> queue(3);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_FALSE(queue.TryPush(4));  // Full: fast rejection.
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  EXPECT_TRUE(queue.TryPush(4));
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
  EXPECT_EQ(queue.Pop(), std::optional<int>(3));
  EXPECT_EQ(queue.Pop(), std::optional<int>(4));
}

TEST(BoundedQueueTest, TryPushDoesNotConsumeOnFailure) {
  BoundedQueue<std::unique_ptr<int>> queue(1);
  EXPECT_TRUE(queue.TryPush(std::make_unique<int>(1)));
  auto second = std::make_unique<int>(2);
  EXPECT_FALSE(queue.TryPush(std::move(second)));
  ASSERT_NE(second, nullptr);  // Rejection left ownership with caller.
  EXPECT_EQ(*second, 2);
}

TEST(BoundedQueueTest, CloseDrainsAcceptedItems) {
  BoundedQueue<int> queue(4);
  queue.TryPush(1);
  queue.TryPush(2);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(3));  // Closed.
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  EXPECT_EQ(queue.Pop(), std::optional<int>(2));
  EXPECT_EQ(queue.Pop(), std::nullopt);  // Drained + closed.
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> queue(1);
  std::optional<int> got;
  std::thread consumer([&] { got = queue.Pop(); });
  queue.TryPush(42);
  consumer.join();
  EXPECT_EQ(got, std::optional<int>(42));
}

// --- Deadline -------------------------------------------------------------

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 1e12);
}

TEST(DeadlineTest, ZeroMillisExpiresImmediately) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.expired());
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  Deadline d = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_millis(), 0.0);
  EXPECT_LE(d.remaining_millis(), 60'000.0);
}

// --- ResultCache ----------------------------------------------------------

ResultCache::Value MakeValue(double score) {
  auto v = std::make_shared<std::vector<SearchResult>>();
  v->push_back(SearchResult{kNa, "r", score});
  return v;
}

TEST(ResultCacheTest, HitMissAndSharedValue) {
  ResultCache cache(/*num_shards=*/2, /*capacity=*/8);
  EXPECT_EQ(cache.Get("a"), nullptr);
  ResultCache::Value value = MakeValue(1.0);
  cache.Put("a", value);
  ResultCache::Value hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), value.get());  // Same vector, not a copy.
  ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  // One shard so recency order is deterministic.
  ResultCache cache(/*num_shards=*/1, /*capacity=*/2);
  cache.Put("a", MakeValue(1));
  cache.Put("b", MakeValue(2));
  ASSERT_NE(cache.Get("a"), nullptr);  // Refreshes "a"; "b" is now LRU.
  cache.Put("c", MakeValue(3));        // Evicts "b".
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.GetStats().evictions, 1u);
}

TEST(ResultCacheTest, ClearEmptiesAllShards) {
  ResultCache cache(4, 16);
  for (int i = 0; i < 10; ++i) {
    cache.Put("key" + std::to_string(i), MakeValue(i));
  }
  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.Get("key3"), nullptr);
}

// --- WebTabService over borrowed in-memory views --------------------------

class ServeServiceTest : public ::testing::Test {
 protected:
  ServeServiceTest()
      : w_(MakeFigure1World()),
        index_(&w_.catalog),
        closure_(&w_.catalog),
        corpus_(MakeCorpus(), &closure_) {
    manager_.Install(ServingSnapshot::Borrow(&w_.catalog, &index_,
                                             &corpus_));
  }

  std::vector<AnnotatedTable> MakeCorpus() {
    AnnotatedTable at;
    at.table = MakeFigure1Table();
    at.annotation = TableAnnotation::Empty(2, 2);
    at.annotation.column_types[0] = w_.book;
    at.annotation.column_types[1] = w_.person;
    at.annotation.cell_entities[0][0] = w_.b95;
    at.annotation.cell_entities[1][0] = w_.b41;
    at.annotation.cell_entities[0][1] = w_.stannard;
    at.annotation.cell_entities[1][1] = w_.einstein;
    at.annotation.relations[{0, 1}] = RelationCandidate{w_.author, false};
    return {at};
  }

  SelectQuery EinsteinQuery() {
    SelectQuery q;
    q.relation = w_.author;
    q.type1 = w_.book;
    q.type2 = w_.person;
    q.e2 = w_.einstein;
    q.e2_text = "A. Einstein";
    q.relation_text = "author";
    q.type1_text = "title";
    q.type2_text = "written by";
    return q;
  }

  Figure1World w_;
  LemmaIndex index_;
  ClosureCache closure_;
  CorpusIndex corpus_;
  SnapshotManager manager_;
};

void ExpectSameResults(const std::vector<SearchResult>& got,
                       const std::vector<SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entity, want[i].entity);
    EXPECT_EQ(got[i].text, want[i].text);
    EXPECT_EQ(got[i].score, want[i].score);  // Bit-identical doubles.
  }
}

TEST_F(ServeServiceTest, SearchMatchesDirectEngineCalls) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  SelectQuery q = EinsteinQuery();

  SearchResponse tr = service.Search(EngineKind::kTypeRelation, q);
  ASSERT_TRUE(tr.status.ok()) << tr.status.ToString();
  EXPECT_EQ(tr.meta.snapshot_version, 1u);
  ExpectSameResults(tr.results, TypeRelationSearch(corpus_, q));

  SearchResponse type = service.Search(EngineKind::kType, q);
  ASSERT_TRUE(type.status.ok());
  ExpectSameResults(type.results, TypeSearch(corpus_, q));

  SearchResponse base = service.Search(EngineKind::kBaseline, q);
  ASSERT_TRUE(base.status.ok());
  ExpectSameResults(base.results, BaselineSearch(corpus_, q));
}

TEST_F(ServeServiceTest, RepeatedQueryHitsCacheWithIdenticalResults) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  SelectQuery q = EinsteinQuery();
  SearchResponse first = service.Search(EngineKind::kTypeRelation, q);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.meta.cache_hit);

  // A differently-spelled but identically-normalized query also hits:
  // the cache key uses the shared normalization.
  SelectQuery respelled = q;
  respelled.e2_text = "  A.  EINSTEIN ";
  SearchResponse second =
      service.Search(EngineKind::kTypeRelation, respelled);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.meta.cache_hit);
  ExpectSameResults(second.results, first.results);
  EXPECT_GE(service.stats().cache.hits, 1u);

  // Different engine, same query: distinct cache slot.
  SearchResponse other = service.Search(EngineKind::kType, q);
  EXPECT_FALSE(other.meta.cache_hit);
}

TEST_F(ServeServiceTest, AnnotateMatchesDirectAnnotator) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  Table table = MakeFigure1Table();
  AnnotateResponse response = service.Annotate(table);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  TableAnnotator direct(&w_.catalog, &index_);
  TableAnnotation want = direct.Annotate(table);
  EXPECT_EQ(response.annotation.column_types, want.column_types);
  EXPECT_EQ(response.annotation.cell_entities, want.cell_entities);
  EXPECT_EQ(response.annotation.relations, want.relations);
}

TEST_F(ServeServiceTest, ExpiredDeadlineIsShedWithoutRunning) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  SearchResponse response =
      service.Search(EngineKind::kTypeRelation, EinsteinQuery(),
                     TopKOptions(), Deadline::AfterMillis(0));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().expired, 1u);
}

TEST_F(ServeServiceTest, OverloadRejectsFastAndDrainsOnStart) {
  ServiceOptions options;
  options.queue_capacity = 2;
  options.num_workers = 1;
  WebTabService service(&manager_, options);
  // Not started: accepted requests sit in the queue, so admission
  // control is deterministic.
  auto f1 = service.SubmitSearch(EngineKind::kTypeRelation,
                                 EinsteinQuery());
  auto f2 = service.SubmitSearch(EngineKind::kType, EinsteinQuery());
  auto f3 = service.SubmitSearch(EngineKind::kBaseline, EinsteinQuery());
  // Third rejected immediately, without a worker.
  SearchResponse rejected = f3.get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().rejected_overload, 1u);

  service.Start();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  EXPECT_EQ(service.stats().accepted, 2u);
}

TEST_F(ServeServiceTest, StopDrainsAcceptedWorkAndRejectsAfter) {
  WebTabService service(&manager_, ServiceOptions());
  auto f1 = service.SubmitAnnotate(MakeFigure1Table());
  service.Start();
  service.Stop();
  EXPECT_TRUE(f1.get().status.ok());  // Accepted before stop: completed.
  SearchResponse late =
      service.Search(EngineKind::kTypeRelation, EinsteinQuery());
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
}

TEST(ServeServiceNoSnapshotTest, FailsPreconditionWithoutSnapshot) {
  SnapshotManager manager;
  WebTabService service(&manager, ServiceOptions());
  service.Start();
  SearchResponse response =
      service.Search(EngineKind::kTypeRelation, SelectQuery());
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeServiceTest, FailedSwapKeepsServing) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  Status swap = service.SwapSnapshot("/nonexistent/path.snap");
  EXPECT_FALSE(swap.ok());
  EXPECT_EQ(service.stats().swaps, 0u);
  SearchResponse response =
      service.Search(EngineKind::kTypeRelation, EinsteinQuery());
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.meta.snapshot_version, 1u);  // Old generation.
}

TEST_F(ServeServiceTest, GarbageIdsRejectedAsInvalidArgument) {
  // Out-of-range catalog ids surface as kInvalidArgument through the
  // response instead of tripping per-accessor CHECKs (ROADMAP item).
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  SelectQuery bad = EinsteinQuery();
  bad.type2 = 424242;
  SearchResponse response = service.Search(EngineKind::kType, bad);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);

  JoinQuery bad_join;
  bad_join.r1 = w_.author;
  bad_join.r2 = -12;
  SearchResponse join_response = service.SearchJoin(bad_join);
  EXPECT_EQ(join_response.status.code(), StatusCode::kInvalidArgument);

  // kNa stays legal: the engines' documented text-fallback path.
  SelectQuery ungrounded = EinsteinQuery();
  ungrounded.e2 = kNa;
  EXPECT_TRUE(service.Search(EngineKind::kType, ungrounded).status.ok());
}

TEST_F(ServeServiceTest, TopKFlowsIntoEnginesAndCacheKeys) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  // E2 grounded as Einstein (row 1, score 1.0) with a text form that
  // also matches Stannard's row (0.6): two ranked answers.
  SelectQuery q = EinsteinQuery();
  q.e2_text = "Stannard";

  SearchResponse full = service.Search(EngineKind::kType, q);
  ASSERT_TRUE(full.status.ok());
  ASSERT_GE(full.results.size(), 2u);

  // k truncates engine-side; the cache key carries k, so the top-1
  // entry must not alias the full ranking (and vice versa).
  SearchResponse top1 = service.Search(EngineKind::kType, q,
                                       TopKOptions{1, true});
  ASSERT_TRUE(top1.status.ok());
  EXPECT_FALSE(top1.meta.cache_hit);
  ASSERT_EQ(top1.results.size(), 1u);
  EXPECT_EQ(top1.results[0].entity, full.results[0].entity);
  EXPECT_EQ(top1.results[0].text, full.results[0].text);

  SearchResponse full_again = service.Search(EngineKind::kType, q);
  ASSERT_TRUE(full_again.status.ok());
  EXPECT_TRUE(full_again.meta.cache_hit);
  ExpectSameResults(full_again.results, full.results);

  SearchResponse top1_again = service.Search(EngineKind::kType, q,
                                             TopKOptions{1, true});
  EXPECT_TRUE(top1_again.meta.cache_hit);
  ASSERT_EQ(top1_again.results.size(), 1u);
}

TEST_F(ServeServiceTest, TraceOptInOnSearchAndHonestCacheHits) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  SelectQuery q = EinsteinQuery();

  // Untraced requests carry no trace, even though the worker recorded
  // one for the slow-request log.
  SearchResponse plain = service.Search(EngineKind::kTypeRelation, q);
  ASSERT_TRUE(plain.status.ok());
  EXPECT_FALSE(plain.has_trace);
  EXPECT_GT(plain.meta.request_id, 0u);

  // Same query, traced, different engine (fresh cache slot): the
  // engine ran, so the trace carries balanced root-level stages whose
  // sum stays within the measured work time.
  SearchResponse traced =
      service.Search(EngineKind::kType, q, TopKOptions(), Deadline(),
                     /*want_trace=*/true);
  ASSERT_TRUE(traced.status.ok());
  EXPECT_FALSE(traced.meta.cache_hit);
  ASSERT_TRUE(traced.has_trace);
  EXPECT_TRUE(traced.trace.balanced);
  EXPECT_FALSE(traced.trace.overflowed);
  EXPECT_EQ(traced.trace.total_ms, traced.meta.work_millis);
  ASSERT_FALSE(traced.trace.stages.empty());
  bool saw_plan = false;
  double root_ms = 0.0;
  for (const auto& stage : traced.trace.stages) {
    EXPECT_EQ(std::string(stage.name).rfind("search.", 0), 0u)
        << stage.name;
    if (std::string(stage.name) == "search.plan") saw_plan = true;
    if (stage.depth == 0) root_ms += stage.ms;
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_LE(root_ms, traced.trace.total_ms * 1.10 + 0.01);
  EXPECT_GT(traced.meta.request_id, plain.meta.request_id);

  // The traced cache hit answers with an empty stage list: the engine
  // never ran, and the trace must not pretend otherwise.
  SearchResponse hit =
      service.Search(EngineKind::kType, q, TopKOptions(), Deadline(),
                     /*want_trace=*/true);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.meta.cache_hit);
  ASSERT_TRUE(hit.has_trace);
  EXPECT_TRUE(hit.trace.stages.empty());
  EXPECT_EQ(hit.trace.total_ms, 0.0);
}

TEST_F(ServeServiceTest, AnnotateTraceStagesCoverRequestTime) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  // Enough rows that annotation takes long enough for stage wall times
  // to dominate the (tiny) untraced bookkeeping between stages.
  Table source = MakeFigure1Table();
  Table table(16, 2);
  for (int r = 0; r < table.rows(); ++r) {
    for (int c = 0; c < table.cols(); ++c) {
      table.set_cell(r, c, source.cell(r % source.rows(), c));
    }
  }
  table.set_header(0, source.header(0));
  table.set_header(1, source.header(1));
  table.set_context(source.context());

  obs::Histogram* queue_wait =
      obs::MetricsRegistry::Get().GetHistogram("serve.queue_wait_ms");
  obs::Histogram* annotate_ms =
      obs::MetricsRegistry::Get().GetHistogram("serve.annotate_ms");
  const uint64_t queue_before = queue_wait->Count();
  const uint64_t annotate_before = annotate_ms->Count();

  AnnotateResponse response =
      service.Annotate(table, Deadline(), /*want_trace=*/true);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_TRUE(response.has_trace);
  EXPECT_TRUE(response.trace.balanced);

  // All four pipeline stages, all root-level.
  const char* kStages[] = {"annotate.candidates", "annotate.graph_build",
                           "annotate.bp", "annotate.decode"};
  double root_ms = 0.0;
  for (const auto& stage : response.trace.stages) {
    if (stage.depth == 0) root_ms += stage.ms;
  }
  for (const char* want : kStages) {
    bool found = false;
    for (const auto& stage : response.trace.stages) {
      if (std::string(stage.name) == want) {
        EXPECT_EQ(stage.depth, 0) << want;
        found = true;
      }
    }
    EXPECT_TRUE(found) << want;
  }
  // Candidates break down by stage, and graph build by feature family,
  // one level down; the sub-stages nest inside their parent, so
  // together they take no longer.
  auto expect_children = [&](const char* parent,
                             std::vector<const char*> children) {
    double parent_ms = -1.0;
    for (const auto& stage : response.trace.stages) {
      if (std::string(stage.name) == parent) parent_ms = stage.ms;
    }
    double sub_ms = 0.0;
    for (const char* want : children) {
      bool found = false;
      for (const auto& stage : response.trace.stages) {
        if (std::string(stage.name) == want) {
          EXPECT_EQ(stage.depth, 1) << want;
          EXPECT_EQ(stage.count, 1) << want;
          sub_ms += stage.ms;
          found = true;
        }
      }
      EXPECT_TRUE(found) << want;
    }
    EXPECT_LE(sub_ms, parent_ms) << parent;
  };
  expect_children("annotate.candidates",
                  {"annotate.probe", "annotate.type_support",
                   "annotate.relation_votes"});
  expect_children("annotate.graph_build",
                  {"annotate.label_space", "annotate.phi2", "annotate.phi1",
                   "annotate.phi3", "annotate.relations"});
  int64_t phi3_pairs = 0;
  for (const auto& counter : response.trace.counters) {
    if (std::string(counter.name) == "phi3_pairs") phi3_pairs = counter.value;
  }
  EXPECT_GT(phi3_pairs, 0);
  // The acceptance bar: the traced stages account for the request's
  // work time to within 10%.
  EXPECT_GT(response.trace.total_ms, 0.0);
  EXPECT_GE(root_ms, response.trace.total_ms * 0.9);
  EXPECT_LE(root_ms, response.trace.total_ms * 1.10 + 0.01);

  // Every executed request feeds the serving histograms (the
  // queue-wait satellite: Request::queued now lands somewhere).
  EXPECT_GE(queue_wait->Count(), queue_before + 1);
  EXPECT_EQ(annotate_ms->Count(), annotate_before + 1);
  EXPECT_GE(response.meta.queue_millis, 0.0);
}

TEST_F(ServeServiceTest, JoinQueriesServed) {
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  // Books by the author of B95 (joins through the author variable).
  JoinQuery jq;
  jq.r1 = w_.author;
  jq.e1_is_subject = true;   // R1(book, person): books of e2.
  jq.r2 = w_.author;
  jq.e2_is_subject = false;  // R2(E3=b95, e2): ground e2 as b95's author.
  jq.e3 = w_.b95;
  SearchResponse response = service.SearchJoin(jq);
  ASSERT_TRUE(response.status.ok());
  ExpectSameResults(response.results, JoinSearch(corpus_, jq));
  ASSERT_FALSE(response.results.empty());
}

TEST_F(ServeServiceTest, ExplainOptInBypassesCacheAndAgreesWithCounters) {
  using Verdict = SearchWorkspace::TableDecision::Verdict;
  WebTabService service(&manager_, ServiceOptions());
  service.Start();
  SelectQuery q = EinsteinQuery();

  // Warm the cache with a plain request, then ask for EXPLAIN: the
  // engine must really run again (the log describes *this* execution),
  // so the response is not a cache hit.
  SearchResponse plain = service.Search(EngineKind::kType, q);
  ASSERT_TRUE(plain.status.ok());
  SearchResponse explained =
      service.Search(EngineKind::kType, q, TopKOptions(), Deadline(),
                     /*want_trace=*/false, /*want_explain=*/true);
  ASSERT_TRUE(explained.status.ok());
  EXPECT_FALSE(explained.meta.cache_hit);
  ASSERT_TRUE(explained.has_explain);
  ASSERT_TRUE(explained.has_stats);
  ASSERT_EQ(explained.explain_log.size(),
            static_cast<size_t>(explained.stats.tables_planned));
  int scored = 0;
  for (const SearchWorkspace::TableDecision& d : explained.explain_log) {
    if (d.verdict == Verdict::kScored) ++scored;
  }
  EXPECT_EQ(scored, explained.stats.tables_scored);
  // Identical ranking either way — EXPLAIN observes, never perturbs.
  ExpectSameResults(explained.results, plain.results);

  // The plain path stays explain-free.
  EXPECT_FALSE(plain.has_explain);
  EXPECT_TRUE(plain.explain_log.empty());

  // Annotate EXPLAIN: one entry per column, BP convergence captured.
  Table table = MakeFigure1Table();
  AnnotateResponse annotated =
      service.Annotate(table, Deadline(), /*want_trace=*/false,
                       /*want_explain=*/true);
  ASSERT_TRUE(annotated.status.ok());
  ASSERT_TRUE(annotated.has_explain);
  EXPECT_EQ(annotated.explain.columns.size(),
            static_cast<size_t>(table.cols()));
  EXPECT_GE(annotated.explain.bp_iterations, 1);
  EXPECT_FALSE(annotated.explain.bp_residual_trail.empty());
  AnnotateResponse plain_annotate = service.Annotate(table);
  ASSERT_TRUE(plain_annotate.status.ok());
  EXPECT_FALSE(plain_annotate.has_explain);
  // EXPLAIN capture leaves the annotation itself untouched.
  EXPECT_EQ(annotated.annotation.column_types,
            plain_annotate.annotation.column_types);
  EXPECT_EQ(annotated.annotation.cell_entities,
            plain_annotate.annotation.cell_entities);
}

TEST_F(ServeServiceTest, TelemetrySamplesFeedTheTimeSeriesStore) {
  ServiceOptions options;
  options.timeseries_tick_ms = 0;  // No collector; tests drive ticks.
  WebTabService service(&manager_, options);
  service.Start();
  EXPECT_EQ(service.timeseries().ticks(), 0);

  SearchResponse response =
      service.Search(EngineKind::kType, EinsteinQuery());
  ASSERT_TRUE(response.status.ok());
  service.CollectTelemetrySample();
  service.CollectTelemetrySample();
  EXPECT_EQ(service.timeseries().ticks(), 2);

  // The sample published the serving generation and process gauges.
  obs::SeriesRollup rollup;
  ASSERT_TRUE(service.timeseries().QueryOne("serve.snapshot_generation",
                                            600.0, &rollup));
  EXPECT_EQ(rollup.kind, obs::MetricDump::Kind::kGauge);
  EXPECT_EQ(rollup.last, 1);  // Borrowed snapshot is generation 1.
  ASSERT_TRUE(
      service.timeseries().QueryOne("process.rss_bytes", 600.0, &rollup));
#ifdef __linux__
  EXPECT_GT(rollup.last, 0);
#endif
}

TEST_F(ServeServiceTest, SlowRequestExemplarsRetained) {
  ServiceOptions options;
  options.slow_request_ms = 0.0001;  // Everything counts as slow.
  options.timeseries_tick_ms = 0;
  options.slow_exemplar_capacity = 4;
  WebTabService service(&manager_, options);
  service.Start();

  SearchResponse search =
      service.Search(EngineKind::kType, EinsteinQuery());
  ASSERT_TRUE(search.status.ok());
  AnnotateResponse annotate = service.Annotate(MakeFigure1Table());
  ASSERT_TRUE(annotate.status.ok());

  std::vector<obs::RequestExemplar> exemplars =
      service.exemplars().Snapshot();
  ASSERT_EQ(exemplars.size(), 2u);
  // Newest first: the annotate, then the search.
  EXPECT_EQ(exemplars[0].kind, "annotate");
  EXPECT_EQ(exemplars[0].request_id, annotate.meta.request_id);
  EXPECT_EQ(exemplars[1].kind, "search:type");
  EXPECT_EQ(exemplars[1].request_id, search.meta.request_id);
  EXPECT_GE(exemplars[1].work_ms, 0.0);
  EXPECT_EQ(exemplars[1].snapshot_version, 1u);
  // The retained trace is the full per-stage breakdown, not a stub.
  EXPECT_FALSE(exemplars[1].trace.stages.empty());
}

}  // namespace
}  // namespace serve
}  // namespace webtab
