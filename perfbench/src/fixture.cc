#include "fixture.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "serve/json.h"
#include "synth/corpus_generator.h"
#include "synth/datasets.h"

namespace perfbench {

using webtab::EntityId;
using webtab::kNa;
using webtab::LabeledTable;
using webtab::RelationId;
using webtab::Rng;
using webtab::serve::EngineKind;
using webtab::serve::Json;

namespace {

// Fixture seeds. The world is the paper-reproduction default (every
// figure bench uses 42); the corpus is Figure 9's (seed + 9).
constexpr uint64_t kWorldSeed = 42;
constexpr uint64_t kCorpusSeed = 51;
constexpr uint64_t kDatasetSeed = 1234;

// Wiki Link tables appended to the three manual Figure 5 sets: about
// three times what a 20 s phase sends today, so that a faster annotator
// still meets fresh tables. A stream that runs out ends the phase.
constexpr int kWikiLinkSlice = 5000;
constexpr int kWarmupTableCount = 12;
constexpr int kWarmupQueryCount = 600;
// One key in this many is sent without "k" (the wire default: the
// engines compute the exact full ranking); the rest ask for a pruned
// top-10.
constexpr int kFullRankEvery = 5;

constexpr EngineKind kSelectEngines[] = {
    EngineKind::kBaseline, EngineKind::kType, EngineKind::kTypeRelation};

/// Distinct objects of `rel`'s true tuples whose catalog name resolves
/// back to them, so the wire string grounds to the same entity.
std::vector<EntityId> GroundedObjects(const webtab::World& world,
                                      RelationId rel) {
  std::vector<EntityId> objects;
  for (const auto& [subject, object] : world.true_relations[rel].tuples) {
    objects.push_back(object);
  }
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  std::vector<EntityId> grounded;
  for (EntityId e : objects) {
    if (world.catalog.FindEntityByName(world.catalog.EntityName(e)) == e) {
      grounded.push_back(e);
    }
  }
  return grounded;
}

std::string SelectLine(const webtab::World& world, EngineKind engine,
                       RelationId rel, EntityId e2, int k) {
  const webtab::RelationRecord& record = world.catalog.relation(rel);
  Json line = Json::Object();
  line.Set("op", Json::String("search"));
  line.Set("engine", Json::String(webtab::serve::EngineKindName(engine)));
  line.Set("relation", Json::String(world.catalog.RelationName(rel)));
  line.Set("type1",
           Json::String(world.catalog.TypeName(record.subject_type)));
  line.Set("type2", Json::String(world.catalog.TypeName(record.object_type)));
  line.Set("e2", Json::String(world.catalog.EntityName(e2)));
  if (k > 0) line.Set("k", Json::Number(k));
  return line.Dump();
}

/// "Who acted in movies directed by / produced by E3": acted_in(movie,
/// actor) joined through the movie with r2(movie, E3).
std::string JoinLine(const webtab::World& world, RelationId r2, EntityId e3,
                     int k) {
  Json line = Json::Object();
  line.Set("op", Json::String("join"));
  line.Set("r1", Json::String(world.catalog.RelationName(world.acted_in)));
  line.Set("e1_is_subject", Json::Bool(false));
  line.Set("r2", Json::String(world.catalog.RelationName(r2)));
  line.Set("e2_is_subject", Json::Bool(true));
  line.Set("e3", Json::String(world.catalog.EntityName(e3)));
  if (k > 0) line.Set("k", Json::Number(k));
  return line.Dump();
}

/// Select keys over every grounded object of `relations` on the three
/// select engines, then join keys over every grounded object of
/// `join_r2`, with the full-rank share assigned by position.
std::vector<SearchKey> MakeKeys(const webtab::World& world,
                                const std::vector<RelationId>& relations,
                                RelationId join_r2) {
  std::vector<SearchKey> keys;
  auto add = [&](SearchKey key) {
    key.k = keys.size() % kFullRankEvery == 0 ? 0 : 10;
    key.line = key.engine == EngineKind::kJoin
                   ? JoinLine(world, key.relation, key.entity, key.k)
                   : SelectLine(world, key.engine, key.relation, key.entity,
                                key.k);
    keys.push_back(std::move(key));
  };
  for (RelationId rel : relations) {
    if (rel == kNa) continue;
    for (EntityId e2 : GroundedObjects(world, rel)) {
      for (EngineKind engine : kSelectEngines) {
        add(SearchKey{engine, rel, e2, 0, ""});
      }
    }
  }
  for (EntityId e3 : GroundedObjects(world, join_r2)) {
    add(SearchKey{EngineKind::kJoin, join_r2, e3, 0, ""});
  }
  return keys;
}

}  // namespace

std::string AnnotateLine(const webtab::Table& table) {
  Json wire = Json::Object();
  if (table.has_headers()) {
    Json headers = Json::Array();
    for (int c = 0; c < table.cols(); ++c) {
      headers.Append(Json::String(table.header(c)));
    }
    wire.Set("headers", std::move(headers));
  }
  Json rows = Json::Array();
  for (int r = 0; r < table.rows(); ++r) {
    Json row = Json::Array();
    for (int c = 0; c < table.cols(); ++c) {
      row.Append(Json::String(table.cell(r, c)));
    }
    rows.Append(std::move(row));
  }
  wire.Set("rows", std::move(rows));
  if (!table.context().empty()) {
    wire.Set("context", Json::String(table.context()));
  }
  Json line = Json::Object();
  line.Set("op", Json::String("annotate"));
  line.Set("table", std::move(wire));
  return line.Dump();
}

Fixture BuildFixture() {
  Fixture fx;
  webtab::WorldSpec world_spec;
  world_spec.seed = kWorldSeed;
  fx.world = webtab::GenerateWorld(world_spec);
  const webtab::World& world = fx.world;

  webtab::CorpusSpec corpus_spec;
  corpus_spec.seed = kCorpusSeed;
  corpus_spec.num_tables = kCorpusTables;
  fx.corpus = webtab::GenerateCorpus(world, corpus_spec);

  webtab::Datasets sets = webtab::MakeDatasets(world, 1.0, kDatasetSeed);
  WEBTAB_CHECK(static_cast<int>(sets.wiki_link.size()) >=
               kWikiLinkSlice + kWarmupTableCount);
  for (auto* set : {&sets.wiki_manual, &sets.web_manual,
                    &sets.web_relations}) {
    for (LabeledTable& lt : *set) fx.pool.push_back(std::move(lt));
  }
  for (int i = 0; i < kWikiLinkSlice; ++i) {
    fx.pool.push_back(std::move(sets.wiki_link[i]));
  }
  WEBTAB_CHECK(static_cast<int>(fx.pool.size()) >= kQualityTables);
  for (const LabeledTable& lt : fx.pool) {
    fx.pool_lines.push_back(AnnotateLine(lt.table));
  }
  for (int i = 0; i < kWarmupTableCount; ++i) {
    fx.warmup_tables.push_back(
        AnnotateLine(sets.wiki_link[kWikiLinkSlice + i].table));
  }

  fx.keys = MakeKeys(world,
                     {world.acted_in, world.directed, world.produced,
                      world.wrote, world.official_language},
                     world.directed);
  fx.warmup_queries = MakeKeys(
      world,
      {world.plays_for, world.born_in, world.located_in, world.died_in,
       world.cameo_in, world.second_unit_directed, world.executive_produced,
       world.spoken_language, world.translated},
      world.produced);
  return fx;
}

RequestStream::RequestStream(const Fixture& fixture, bool search,
                             uint64_t seed)
    : search_(search),
      num_keys_(static_cast<int>(fixture.keys.size())),
      rng_(Rng(seed).Fork(search ? 2 : 1)) {
  if (!search_) {
    order_.resize(fixture.pool.size());
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<int>(i);
    }
    rng_.Shuffle(&order_);
  }
}

int RequestStream::Next() {
  if (search_) return static_cast<int>(rng_.Uniform(num_keys_));
  return next_ < order_.size() ? order_[next_++] : -1;
}

std::vector<std::string> WarmupLines(const Fixture& fixture, uint64_t seed) {
  Rng rng = Rng(seed).Fork(3);
  std::vector<std::string> lines;
  for (const std::string& table : fixture.warmup_tables) {
    lines.push_back(table);
  }
  for (int i = 0; i < kWarmupQueryCount; ++i) {
    lines.push_back(rng.Choice(fixture.warmup_queries).line);
  }
  return lines;
}

}  // namespace perfbench
