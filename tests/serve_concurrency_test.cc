// Concurrency + hot-swap correctness: many client threads issue mixed
// search/annotate traffic while the serving snapshot is swapped under
// them. Every response must be byte-identical to a single-threaded run
// of the same engine against the generation that answered it, no request
// may be lost, and no response may observe a torn snapshot (a version
// other than the two published generations).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "index/lemma_index.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "serve/service.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "test_world.h"

namespace webtab {
namespace serve {
namespace {

using testing_util::SharedWorld;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Builds a full (catalog + lemma index + corpus) snapshot file over the
/// shared test world with `num_tables` annotated tables.
std::string BuildSnapshotFile(const std::string& name, int num_tables,
                              uint64_t corpus_seed) {
  const World& world = SharedWorld();
  LemmaIndex index(&world.catalog);
  CorpusSpec spec;
  spec.seed = corpus_seed;
  spec.num_tables = num_tables;
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(lt.table);
  }
  std::vector<AnnotatedTable> annotated = AnnotateCorpusParallel(
      &world.catalog, &index, CorpusAnnotatorOptions(), tables);
  ClosureCache closure(&world.catalog);
  CorpusIndex corpus(std::move(annotated), &closure);
  storage::SnapshotBuilder builder;
  builder.SetCatalog(&world.catalog).SetLemmaIndex(&index).SetCorpus(
      &corpus);
  std::string path = TempPath(name);
  WEBTAB_CHECK_OK(builder.WriteToFile(path));
  return path;
}

bool SameResults(const std::vector<SearchResult>& a,
                 const std::vector<SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].entity != b[i].entity || a[i].text != b[i].text ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

bool SameAnnotation(const TableAnnotation& a, const TableAnnotation& b) {
  return a.column_types == b.column_types &&
         a.cell_entities == b.cell_entities && a.relations == b.relations;
}

class ServeConcurrencyTest : public ::testing::Test {
 protected:
  static constexpr int kClients = 4;
  static constexpr int kRequestsPerClient = 24;

  static void SetUpTestSuite() {
    path_a_ = new std::string(
        BuildSnapshotFile("serve_conc_a.snap", 32, /*corpus_seed=*/7001));
    path_b_ = new std::string(
        BuildSnapshotFile("serve_conc_b.snap", 48, /*corpus_seed=*/7002));
  }

  static void TearDownTestSuite() {
    std::remove(path_a_->c_str());
    std::remove(path_b_->c_str());
    delete path_a_;
    delete path_b_;
    path_a_ = path_b_ = nullptr;
  }

  /// A deterministic pool of select queries over the world's relations.
  static std::vector<SelectQuery> QueryPool() {
    const World& world = SharedWorld();
    std::vector<SelectQuery> pool;
    for (RelationId rel : {world.directed, world.acted_in, world.wrote}) {
      const auto& tuples = world.true_relations[rel].tuples;
      for (size_t i = 0; i < tuples.size() && pool.size() < 12; i += 17) {
        SelectQuery q;
        q.relation = rel;
        q.type1 = world.catalog.relation(rel).subject_type;
        q.type2 = world.catalog.relation(rel).object_type;
        q.e2 = tuples[i].second;
        q.e2_text = world.catalog.entity(q.e2).lemmas[0];
        q.relation_text = std::string(world.catalog.RelationName(rel));
        q.type1_text = std::string(
            world.catalog.TypeName(q.type1));
        q.type2_text = std::string(world.catalog.TypeName(q.type2));
        pool.push_back(q);
      }
    }
    WEBTAB_CHECK(!pool.empty());
    return pool;
  }

  /// Tables the clients ask the service to annotate.
  static std::vector<Table> TablePool() {
    CorpusSpec spec;
    spec.seed = 9009;
    spec.num_tables = 6;
    std::vector<Table> tables;
    for (const LabeledTable& lt : GenerateCorpus(SharedWorld(), spec)) {
      tables.push_back(lt.table);
    }
    return tables;
  }

  static std::string* path_a_;
  static std::string* path_b_;
};

std::string* ServeConcurrencyTest::path_a_ = nullptr;
std::string* ServeConcurrencyTest::path_b_ = nullptr;

TEST_F(ServeConcurrencyTest, MixedTrafficDuringHotSwapIsByteIdentical) {
  // Single-threaded ground truth per generation, computed over freshly
  // opened views of the same files the service maps.
  Result<storage::Snapshot> snap_a = storage::Snapshot::Open(*path_a_);
  Result<storage::Snapshot> snap_b = storage::Snapshot::Open(*path_b_);
  ASSERT_TRUE(snap_a.ok() && snap_b.ok());
  const CorpusView* corpus_by_version[3] = {nullptr, snap_a->corpus(),
                                            snap_b->corpus()};
  std::vector<SelectQuery> queries = QueryPool();
  std::vector<Table> tables = TablePool();

  // Expected annotations are version-independent here (both generations
  // share the catalog + lemma index), so one single-threaded annotator
  // provides ground truth.
  std::vector<TableAnnotation> expected_annotations;
  {
    Vocabulary vocab = snap_a->lemma_index()->CopyVocabulary();
    TableAnnotator annotator(snap_a->catalog(), snap_a->lemma_index(),
                             AnnotatorOptions(), &vocab);
    for (const Table& table : tables) {
      expected_annotations.push_back(annotator.Annotate(table));
    }
  }

  SnapshotManager manager;
  Result<uint64_t> loaded = manager.Load(*path_a_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ServiceOptions options;
  options.num_workers = kClients;
  options.queue_capacity = 256;  // Roomy: this test measures identity,
                                 // not shedding.
  WebTabService service(&manager, options);
  service.Start();

  std::atomic<int> failures{0};
  std::atomic<int> submitted{0};
  std::atomic<int> responses{0};
  std::atomic<bool> saw_v1{false}, saw_v2{false};
  std::atomic<bool> swap_done{false};
  // The swap starts once the first responses are back and the clients
  // keep sending until it has returned, so it lands during traffic by
  // construction, however fast the requests are served.
  constexpr int kSwapAfterResponses = 2 * kClients;
  std::latch traffic_flowing(kSwapAfterResponses);
  auto record_response = [&](uint64_t version) {
    if (version == 1) saw_v1 = true;
    if (version == 2) saw_v2 = true;
    if (responses.fetch_add(1) < kSwapAfterResponses) {
      traffic_flowing.count_down();
    }
  };

  auto client = [&](int client_id) {
    EngineKind engines[3] = {EngineKind::kBaseline, EngineKind::kType,
                             EngineKind::kTypeRelation};
    // At least kRequestsPerClient requests, the last of them sent after
    // SwapSnapshot returned (so generation 2 answers it).
    bool sent_after_swap = false;
    for (int i = 0; i < kRequestsPerClient || !sent_after_swap; ++i) {
      sent_after_swap = swap_done.load();
      ++submitted;
      const int pick = client_id * 31 + i * 7;
      if (i % 6 == 5) {
        const Table& table = tables[pick % tables.size()];
        AnnotateResponse response = service.Annotate(table);
        record_response(response.meta.snapshot_version);
        if (!response.status.ok() ||
            (response.meta.snapshot_version != 1 &&
             response.meta.snapshot_version != 2) ||
            !SameAnnotation(
                response.annotation,
                expected_annotations[pick % tables.size()])) {
          ++failures;
        }
        continue;
      }
      const SelectQuery& query = queries[pick % queries.size()];
      EngineKind engine = engines[pick % 3];
      SearchResponse response = service.Search(engine, query);
      uint64_t v = response.meta.snapshot_version;
      record_response(v);
      if (!response.status.ok() || (v != 1 && v != 2)) {
        ++failures;
        continue;
      }
      // Recompute single-threaded against the generation that answered.
      const CorpusView& corpus = *corpus_by_version[v];
      std::vector<SearchResult> want;
      switch (engine) {
        case EngineKind::kBaseline:
          want = BaselineSearch(corpus, query);
          break;
        case EngineKind::kType:
          want = TypeSearch(corpus, query);
          break;
        default:
          want = TypeRelationSearch(corpus, query);
          break;
      }
      if (!SameResults(response.results, want)) ++failures;
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);

  // Hot-swap to generation B while the clients are mid-flight.
  traffic_flowing.wait();
  Status swapped = service.SwapSnapshot(*path_b_);
  swap_done = true;
  EXPECT_TRUE(swapped.ok()) << swapped.ToString();

  for (std::thread& t : clients) t.join();
  service.Stop();

  EXPECT_EQ(failures.load(), 0);
  // Zero lost requests: every submission produced a response.
  EXPECT_GE(submitted.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(responses.load(), submitted.load());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(submitted.load()));
  EXPECT_TRUE(saw_v1.load());  // Served before the swap...
  EXPECT_TRUE(saw_v2.load());  // ...and after it.
}

TEST_F(ServeConcurrencyTest, ParallelIdenticalQueriesShareCache) {
  SnapshotManager manager;
  ASSERT_TRUE(manager.Load(*path_a_).ok());
  ServiceOptions options;
  options.num_workers = kClients;
  WebTabService service(&manager, options);
  service.Start();

  SelectQuery query = QueryPool().front();
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::vector<SearchResult> want;
  {
    Result<storage::Snapshot> snap = storage::Snapshot::Open(*path_a_);
    ASSERT_TRUE(snap.ok());
    want = TypeRelationSearch(*snap->corpus(), query);
  }
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        SearchResponse response =
            service.Search(EngineKind::kTypeRelation, query);
        if (!response.status.ok() ||
            !SameResults(response.results, want)) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  ServiceStats stats = service.stats();
  // First execution misses; the rest of the 4*20 requests hit.
  EXPECT_GE(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 80u);
}

}  // namespace
}  // namespace serve
}  // namespace webtab
