// JSON value + wire protocol tests: parse/dump round trips, hostile
// input rejection, request parsing, name resolution against a catalog,
// and response rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/closure.h"
#include "obs/exemplar.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/join_search.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "test_world.h"

namespace webtab {
namespace serve {
namespace {

using testing_util::Figure1World;
using testing_util::MakeFigure1Table;
using testing_util::MakeFigure1World;

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_TRUE(Json::Parse("true")->bool_value());
  EXPECT_FALSE(Json::Parse("false")->bool_value());
  EXPECT_DOUBLE_EQ(Json::Parse("3.5")->number_value(), 3.5);
  EXPECT_DOUBLE_EQ(Json::Parse("-17")->number_value(), -17.0);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->number_value(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->string_value(), "hi");
}

TEST(JsonTest, ParsesNested) {
  Result<Json> parsed =
      Json::Parse(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}, "f": true})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& json = *parsed;
  ASSERT_TRUE(json.is_object());
  const Json* a = json.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[2].GetString("b"), "c");
  EXPECT_TRUE(json.Find("d")->Find("e")->is_null());
  EXPECT_TRUE(json.GetBool("f"));
}

TEST(JsonTest, StringEscapes) {
  Result<Json> parsed = Json::Parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), "a\"b\\c\nd\teA");
  // Dump re-escapes; parsing the dump round-trips.
  std::string dumped = parsed->Dump();
  EXPECT_EQ(Json::Parse(dumped)->string_value(), parsed->string_value());
}

TEST(JsonTest, DumpRoundTrips) {
  Json obj = Json::Object();
  obj.Set("name", Json::String("crème brûlée"));
  obj.Set("count", Json::Number(42));
  obj.Set("score", Json::Number(0.125));
  obj.Set("flags", Json::Array().Append(Json::Bool(true)).Append(
                       Json::Null()));
  std::string dumped = obj.Dump();
  EXPECT_EQ(dumped,
            "{\"name\":\"crème brûlée\",\"count\":42,\"score\":0.125,"
            "\"flags\":[true,null]}");
  Result<Json> reparsed = Json::Parse(dumped);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->GetNumber("count"), 42.0);
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("truthy").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  // Hostile nesting cannot overflow the stack.
  std::string deep(10000, '[');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(WireRequestTest, ParsesSearch) {
  Result<WireRequest> parsed = ParseWireRequest(
      R"({"op":"search","engine":"type","relation":"author",)"
      R"("type1":"book","type2":"person","e2":"A. Einstein","k":5})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->op, WireRequest::Op::kSearch);
  EXPECT_EQ(parsed->engine, EngineKind::kType);
  EXPECT_EQ(parsed->select.relation, "author");
  EXPECT_EQ(parsed->select.e2, "A. Einstein");
  EXPECT_EQ(parsed->top_k, 5);
}

TEST(WireRequestTest, ParsesJoinAndAnnotate) {
  Result<WireRequest> join = ParseWireRequest(
      R"({"op":"join","r1":"acted_in","r2":"directed","e3":"X",)"
      R"("e1_is_subject":false,"max_join_entities":7})");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->op, WireRequest::Op::kJoin);
  EXPECT_FALSE(join->join.e1_is_subject);
  EXPECT_EQ(join->join.max_join_entities, 7);

  Result<WireRequest> annotate = ParseWireRequest(
      R"({"op":"annotate","table":{"headers":["a","b"],)"
      R"("rows":[["1","2"],["3","4"]],"context":"ctx"}})");
  ASSERT_TRUE(annotate.ok());
  EXPECT_EQ(annotate->table.headers.size(), 2u);
  EXPECT_EQ(annotate->table.rows.size(), 2u);
  EXPECT_EQ(annotate->table.context, "ctx");
}

TEST(WireRequestTest, RejectsBadRequests) {
  EXPECT_FALSE(ParseWireRequest("not json").ok());
  EXPECT_FALSE(ParseWireRequest("{}").ok());                    // no op
  EXPECT_FALSE(ParseWireRequest(R"({"op":"dance"})").ok());     // bad op
  EXPECT_FALSE(ParseWireRequest(R"({"op":"annotate"})").ok());  // no table
  EXPECT_FALSE(ParseWireRequest(R"({"op":"swap"})").ok());      // no path
  EXPECT_FALSE(
      ParseWireRequest(R"({"op":"search","engine":"warp"})").ok());
}

TEST(WireRequestTest, RejectsOutOfRangeIntegers) {
  // JSON numbers are doubles, and each of these overflows the integer
  // field it lands in. Casting anyway is undefined behaviour; on x86
  // "k":1e30 becomes a negative k, which silently asks for a full
  // ranking.
  const struct {
    const char* line;
    const char* field;
  } cases[] = {
      {R"({"op":"search","engine":"type","e2":"x","k":1e30})", "\"k\""},
      {R"({"op":"search","engine":"type","e2":"x","k":-1e30})", "\"k\""},
      {R"({"op":"search","engine":"type","e2":"x","k":1e400})", "\"k\""},
      {R"({"op":"search","engine":"type","e2":"x","k":2147483648})",
       "\"k\""},
      {R"({"op":"search","engine":"type","e2":"x","deadline_ms":1e300})",
       "\"deadline_ms\""},
      {R"({"op":"search","engine":"type","e2":"x","deadline_ms":-1e400})",
       "\"deadline_ms\""},
      {R"({"op":"join","r1":"a","r2":"b","e3":"X","max_join_entities":-1e300})",
       "\"max_join_entities\""},
      {R"({"op":"annotate","table":{"rows":[["a"]],"id":1e300}})", "\"id\""},
  };
  for (const auto& c : cases) {
    Result<WireRequest> parsed = ParseWireRequest(c.line);
    ASSERT_FALSE(parsed.ok()) << c.line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << c.line;
    EXPECT_NE(parsed.status().message().find(c.field), std::string::npos)
        << c.line << " -> " << parsed.status().ToString();
  }

  // The extremes that do fit still parse; fractions truncate.
  Result<WireRequest> edge = ParseWireRequest(
      R"({"op":"search","engine":"type","e2":"x","k":2147483647,)"
      R"("deadline_ms":-9.2e18})");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->top_k, 2147483647);
  EXPECT_EQ(edge->deadline_ms, int64_t{-9200000000000000000});
  Result<WireRequest> low = ParseWireRequest(
      R"({"op":"join","r1":"a","r2":"b","e3":"X","k":-2147483648,)"
      R"("max_join_entities":7.9})");
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  EXPECT_EQ(low->top_k, -2147483648);
  EXPECT_EQ(low->join.max_join_entities, 7);
}

/// Answers one search/join line the way serve_tool does (parse,
/// resolve, run the engine, render with stats) over the Figure 1
/// corpus. Rendered meta stays zeroed, so equal answers are equal bytes.
std::string AnswerWireLine(const std::string& line, const Figure1World& w,
                           const CorpusView& corpus) {
  Result<WireRequest> wire = ParseWireRequest(line);
  if (!wire.ok()) return RenderErrorResponse(wire.status());
  const TopKOptions topk{std::max(0, wire->top_k), /*prune=*/true};
  SearchWorkspace ws;
  SearchResponse response;
  if (wire->op == WireRequest::Op::kJoin) {
    JoinSearch(corpus, ResolveJoinQuery(wire->join, w.catalog), topk, &ws,
               &response.results);
  } else {
    const SelectQuery query = ResolveSelectQuery(wire->select, w.catalog);
    const NormalizedSelectQuery normalized = NormalizeSelectQuery(query);
    switch (wire->engine) {
      case EngineKind::kBaseline:
        BaselineSearch(corpus, query, normalized, topk, &ws,
                       &response.results);
        break;
      case EngineKind::kType:
        TypeSearch(corpus, query, normalized, topk, &ws, &response.results);
        break;
      default:
        TypeRelationSearch(corpus, query, normalized, topk, &ws,
                           &response.results);
        break;
    }
  }
  response.stats = ws.stats();
  response.has_stats = true;
  return RenderSearchResponse(response, &w.catalog,
                              wire->top_k > 0 ? wire->top_k : 10,
                              wire->want_stats);
}

TEST(WireRequestTest, ParallelismFieldIsIgnored) {
  // Older clients send "parallelism" on search and join requests. The
  // parser does not read it, so any value, even one no integer holds,
  // leaves the answer byte-identical to the request without it.
  Figure1World w = MakeFigure1World();
  ClosureCache closure(&w.catalog);
  AnnotatedTable at;
  at.table = MakeFigure1Table();
  at.annotation = TableAnnotation::Empty(2, 2);
  at.annotation.column_types[0] = w.book;
  at.annotation.column_types[1] = w.person;
  at.annotation.cell_entities[0][0] = w.b95;
  at.annotation.cell_entities[1][0] = w.b41;
  at.annotation.cell_entities[0][1] = w.stannard;
  at.annotation.cell_entities[1][1] = w.einstein;
  at.annotation.relations[{0, 1}] = RelationCandidate{w.author, false};
  std::vector<AnnotatedTable> tables;
  tables.push_back(std::move(at));
  CorpusIndex corpus(std::move(tables), &closure);

  // Each base line ends in "}" so a field can be spliced in before it.
  const std::string bases[] = {
      R"({"op":"search","engine":"type_relation","relation":"author",)"
      R"("type1":"book","type2":"person","e2":"A. Einstein","stats":true})",
      R"({"op":"search","engine":"type","type1":"book","type2":"person",)"
      R"("e2":"Russell Stannard","k":1,"stats":true})",
      R"({"op":"search","engine":"baseline","relation":"written by",)"
      R"("type1":"title","type2":"written by","e2":"A. Einstein"})",
      R"({"op":"join","r1":"author","r2":"author","e3":"Albert Einstein",)"
      R"("e1_is_subject":false,"stats":true})",
  };
  for (const std::string& base : bases) {
    const std::string want = AnswerWireLine(base, w, corpus);
    ASSERT_NE(want.find("\"ok\":true"), std::string::npos) << want;
    for (const char* field : {R"(,"parallelism":4)",
                              R"(,"parallelism":1e30)"}) {
      const std::string line =
          base.substr(0, base.size() - 1) + field + "}";
      EXPECT_EQ(AnswerWireLine(line, w, corpus), want) << line;
    }
  }
}

TEST(WireToTableTest, BuildsAndValidates) {
  WireTable wire;
  wire.headers = {"h1", "h2"};
  wire.rows = {{"a", "b"}, {"c", "d"}};
  wire.context = "ctx";
  Result<Table> table = WireToTable(wire);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows(), 2);
  EXPECT_EQ(table->cols(), 2);
  EXPECT_EQ(table->cell(1, 0), "c");
  EXPECT_EQ(table->header(1), "h2");
  EXPECT_EQ(table->context(), "ctx");

  wire.rows.push_back({"only one"});
  EXPECT_FALSE(WireToTable(wire).ok());  // Ragged.
  WireTable empty;
  EXPECT_FALSE(WireToTable(empty).ok());
}

TEST(ResolveTest, ResolvesNamesAgainstCatalog) {
  Figure1World w = MakeFigure1World();
  WireSelect wire;
  wire.relation = "author";
  wire.type1 = "book";
  wire.type2 = "person";
  wire.e2 = "Albert Einstein";
  SelectQuery q = ResolveSelectQuery(wire, w.catalog);
  EXPECT_EQ(q.relation, w.author);
  EXPECT_EQ(q.type1, w.book);
  EXPECT_EQ(q.type2, w.person);
  EXPECT_EQ(q.e2, w.einstein);
  EXPECT_EQ(q.e2_text, "Albert Einstein");

  // Unknown names stay text-only (baseline fallback path).
  wire.e2 = "Nobody Special";
  wire.type1 = "starship";
  SelectQuery fallback = ResolveSelectQuery(wire, w.catalog);
  EXPECT_EQ(fallback.e2, kNa);
  EXPECT_EQ(fallback.type1, kNa);
  EXPECT_EQ(fallback.type1_text, "starship");
}

TEST(ResolveTest, StrictValidationPerEngine) {
  Figure1World w = MakeFigure1World();
  WireSelect wire;
  wire.relation = "author";
  wire.type1 = "starship";  // Not in the catalog.
  wire.type2 = "person";
  wire.e2 = "Nobody Special";
  SelectQuery q = ResolveSelectQuery(wire, w.catalog);

  // The baseline treats all inputs as strings: nothing to validate.
  EXPECT_TRUE(
      ValidateResolvedSelect(EngineKind::kBaseline, wire, q).ok());
  // Annotation-aware engines need the type to have resolved: the typo
  // surfaces as kInvalidArgument naming the field, not as an empty
  // ranking.
  Status type_status = ValidateResolvedSelect(EngineKind::kType, wire, q);
  EXPECT_EQ(type_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(type_status.message().find("type1"), std::string::npos);
  // type_relation never reads the type ids, so the typo'd type name
  // must not block a query it can answer (its relation resolved).
  EXPECT_TRUE(
      ValidateResolvedSelect(EngineKind::kTypeRelation, wire, q).ok());

  // Unknown E2 is never an error (the paper's not-in-catalog case).
  wire.type1 = "book";
  q = ResolveSelectQuery(wire, w.catalog);
  EXPECT_TRUE(ValidateResolvedSelect(EngineKind::kType, wire, q).ok());
  EXPECT_TRUE(
      ValidateResolvedSelect(EngineKind::kTypeRelation, wire, q).ok());

  // type_relation additionally needs the relation.
  wire.relation = "frenemy of";
  q = ResolveSelectQuery(wire, w.catalog);
  EXPECT_TRUE(ValidateResolvedSelect(EngineKind::kType, wire, q).ok());
  EXPECT_EQ(
      ValidateResolvedSelect(EngineKind::kTypeRelation, wire, q).code(),
      StatusCode::kInvalidArgument);

  WireJoin join_wire;
  join_wire.r1 = "author";
  join_wire.r2 = "frenemy of";
  JoinQuery jq = ResolveJoinQuery(join_wire, w.catalog);
  Status join_status = ValidateResolvedJoin(join_wire, jq);
  EXPECT_EQ(join_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(join_status.message().find("r2"), std::string::npos);
  join_wire.r2 = "author";
  jq = ResolveJoinQuery(join_wire, w.catalog);
  EXPECT_TRUE(ValidateResolvedJoin(join_wire, jq).ok());
}

TEST(RenderTest, SearchAndErrorShapes) {
  Figure1World w = MakeFigure1World();
  SearchResponse response;
  response.results.push_back(SearchResult{w.einstein, "A. Einstein", 1.5});
  response.results.push_back(SearchResult{kNa, "raw text", 0.5});
  response.meta.snapshot_version = 3;
  std::string line = RenderSearchResponse(response, &w.catalog, 10);
  Result<Json> json = Json::Parse(line);
  ASSERT_TRUE(json.ok()) << line;
  EXPECT_TRUE(json->GetBool("ok"));
  ASSERT_EQ(json->Find("results")->items().size(), 2u);
  EXPECT_EQ(json->Find("results")->items()[0].GetString("entity"),
            "Albert Einstein");
  EXPECT_TRUE(json->Find("results")->items()[1].Find("entity")->is_null());
  EXPECT_EQ(json->Find("meta")->GetNumber("version"), 3.0);

  // top_k truncation reports the full total.
  std::string truncated = RenderSearchResponse(response, &w.catalog, 1);
  Result<Json> tjson = Json::Parse(truncated);
  ASSERT_TRUE(tjson.ok());
  EXPECT_EQ(tjson->Find("results")->items().size(), 1u);
  EXPECT_EQ(tjson->GetNumber("total_results"), 2.0);

  response.status = Status::DeadlineExceeded("too slow");
  std::string error = RenderSearchResponse(response, &w.catalog, 10);
  Result<Json> ejson = Json::Parse(error);
  ASSERT_TRUE(ejson.ok());
  EXPECT_FALSE(ejson->GetBool("ok", true));
  EXPECT_EQ(ejson->GetString("code"), "DeadlineExceeded");
}

TEST(RenderTest, OptionalStatsObject) {
  Figure1World w = MakeFigure1World();
  SearchResponse response;
  response.results.push_back(SearchResult{w.einstein, "A. Einstein", 1.5});
  response.stats.tables_planned = 40;
  response.stats.tables_scored = 7;
  response.stats.stopped_early = true;
  response.has_stats = true;

  // Not requested: no stats key, even though the engine recorded them.
  std::string silent = RenderSearchResponse(response, &w.catalog, 10);
  Result<Json> sjson = Json::Parse(silent);
  ASSERT_TRUE(sjson.ok());
  EXPECT_EQ(sjson->Find("stats"), nullptr);

  // Requested and present.
  std::string line =
      RenderSearchResponse(response, &w.catalog, 10, /*want_stats=*/true);
  Result<Json> json = Json::Parse(line);
  ASSERT_TRUE(json.ok()) << line;
  const Json* stats = json->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->GetNumber("tables_planned"), 40.0);
  EXPECT_EQ(stats->GetNumber("tables_scored"), 7.0);
  EXPECT_TRUE(stats->GetBool("stopped_early"));

  // Requested but the response carries none (cache hit): omitted.
  response.has_stats = false;
  std::string cached =
      RenderSearchResponse(response, &w.catalog, 10, /*want_stats=*/true);
  Result<Json> cjson = Json::Parse(cached);
  ASSERT_TRUE(cjson.ok());
  EXPECT_EQ(cjson->Find("stats"), nullptr);

  // The wire flag parses off search requests.
  Result<WireRequest> parsed = ParseWireRequest(
      R"({"op":"search","engine":"baseline","e2":"x","stats":true})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->want_stats);
  Result<WireRequest> off = ParseWireRequest(
      R"({"op":"search","engine":"baseline","e2":"x"})");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->want_stats);
}

TEST(WireRequestTest, ParsesMetricsOpAndTraceFlag) {
  Result<WireRequest> metrics = ParseWireRequest(R"({"op":"metrics"})");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->op, WireRequest::Op::kMetrics);

  Result<WireRequest> traced = ParseWireRequest(
      R"({"op":"search","engine":"baseline","e2":"x","trace":true})");
  ASSERT_TRUE(traced.ok());
  EXPECT_TRUE(traced->want_trace);
  Result<WireRequest> untraced = ParseWireRequest(
      R"({"op":"search","engine":"baseline","e2":"x"})");
  ASSERT_TRUE(untraced.ok());
  EXPECT_FALSE(untraced->want_trace);

  Result<WireRequest> annotate = ParseWireRequest(
      R"({"op":"annotate","trace":true,"table":{"rows":[["a"]]}})");
  ASSERT_TRUE(annotate.ok());
  EXPECT_TRUE(annotate->want_trace);
}

TEST(RenderTest, TraceObjectShape) {
  Figure1World w = MakeFigure1World();
  SearchResponse response;
  response.results.push_back(SearchResult{w.einstein, "A. Einstein", 1.5});

  // No trace carried: no trace key.
  Result<Json> silent =
      Json::Parse(RenderSearchResponse(response, &w.catalog, 10));
  ASSERT_TRUE(silent.ok());
  EXPECT_EQ(silent->Find("trace"), nullptr);

  response.trace.stages.push_back(
      obs::RequestTrace::Stage{"search.plan", 0, 0.25, 1});
  response.trace.stages.push_back(
      obs::RequestTrace::Stage{"search.score", 0, 1.75, 3});
  response.trace.counters.push_back(
      obs::RequestTrace::CounterEntry{"search.tables_scored", 7});
  response.trace.total_ms = 2.25;
  response.has_trace = true;
  Result<Json> json =
      Json::Parse(RenderSearchResponse(response, &w.catalog, 10));
  ASSERT_TRUE(json.ok());
  const Json* trace = json->Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->GetNumber("total_ms"), 2.25);
  EXPECT_TRUE(trace->GetBool("balanced"));
  EXPECT_EQ(trace->Find("overflowed"), nullptr);  // Elided when false.
  ASSERT_EQ(trace->Find("stages")->items().size(), 2u);
  const Json& stage = trace->Find("stages")->items()[1];
  EXPECT_EQ(stage.GetString("name"), "search.score");
  EXPECT_EQ(stage.GetNumber("depth"), 0.0);
  EXPECT_EQ(stage.GetNumber("ms"), 1.75);
  EXPECT_EQ(stage.GetNumber("count"), 3.0);
  EXPECT_EQ(trace->Find("counters")->GetNumber("search.tables_scored"),
            7.0);

  // A cache hit's trace is present but empty — the honest "the engine
  // never ran" shape.
  response.trace = obs::TraceSummary{};
  response.has_trace = true;
  Result<Json> cached =
      Json::Parse(RenderSearchResponse(response, &w.catalog, 10));
  ASSERT_TRUE(cached.ok());
  const Json* empty = cached->Find("trace");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->Find("stages")->items().size(), 0u);
  EXPECT_EQ(empty->GetNumber("total_ms"), 0.0);
}

TEST(RenderTest, MetricsOpRendersPrometheusText) {
  obs::MetricsRegistry::Get().GetCounter("test.proto.metrics_op")->Add(5);
  Result<Json> json = Json::Parse(RenderMetricsResponse());
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(json->GetBool("ok"));
  EXPECT_EQ(json->GetString("content_type"), "text/plain; version=0.0.4");
  const std::string text = json->GetString("metrics");
  EXPECT_NE(text.find("# TYPE webtab_test_proto_metrics_op counter\n"
                      "webtab_test_proto_metrics_op 5\n"),
            std::string::npos);
}

TEST(RenderTest, StatsResponseCarriesRegistryHistograms) {
  obs::MetricsRegistry::Get().GetCounter("test.proto.stats_counter")->Add(
      2);
  obs::Histogram* h =
      obs::MetricsRegistry::Get().GetHistogram("test.proto.stats_ms");
  h->Record(1.0);
  h->Record(4.0);

  ServiceStats stats;
  stats.accepted = 3;
  Result<Json> json =
      Json::Parse(RenderStatsResponse(stats, 9, "/tmp/x.snap"));
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(json->GetBool("ok"));
  EXPECT_EQ(json->GetNumber("accepted"), 3.0);
  const Json* metrics = json->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->GetNumber("test.proto.stats_counter"), 2.0);
  const Json* hist = metrics->Find("test.proto.stats_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->GetNumber("count"), 2.0);
  EXPECT_NEAR(hist->GetNumber("sum"), 5.0, 1e-6);
  EXPECT_NEAR(hist->GetNumber("mean"), 2.5, 1e-6);
  // Percentile fields answer from bucket upper bounds: p50 covers the
  // 1.0 sample, p99 the 4.0 sample, within one growth factor above.
  EXPECT_GE(hist->GetNumber("p50"), 1.0);
  EXPECT_LE(hist->GetNumber("p50"), 1.0 * 1.4143);
  EXPECT_GE(hist->GetNumber("p99"), 4.0);
  EXPECT_LE(hist->GetNumber("p99"), 4.0 * 1.4143);
  // Only buckets with mass are emitted: two samples, two buckets.
  const Json* buckets = hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items().size(), 2u);
  for (const Json& bucket : buckets->items()) {
    EXPECT_EQ(bucket.GetNumber("n"), 1.0);
    EXPECT_GT(bucket.GetNumber("le"), 0.0);
  }
}

TEST(RenderTest, AnnotateShape) {
  Figure1World w = MakeFigure1World();
  AnnotateResponse response;
  response.annotation = TableAnnotation::Empty(1, 2);
  response.annotation.column_types[0] = w.book;
  response.annotation.cell_entities[0][1] = w.einstein;
  response.annotation.relations[{0, 1}] =
      RelationCandidate{w.author, false};
  std::string line = RenderAnnotateResponse(response, &w.catalog);
  Result<Json> json = Json::Parse(line);
  ASSERT_TRUE(json.ok()) << line;
  EXPECT_EQ(json->Find("column_types")->items()[0].string_value(), "book");
  EXPECT_TRUE(json->Find("column_types")->items()[1].is_null());
  EXPECT_EQ(
      json->Find("cell_entities")->items()[0].items()[1].string_value(),
      "Albert Einstein");
  EXPECT_EQ(json->Find("relations")->items()[0].GetString("relation"),
            "author");
}

TEST(WireRequestTest, ParsesTimeseriesAndDebugOps) {
  Result<WireRequest> ts = ParseWireRequest(R"({"op":"timeseries"})");
  ASSERT_TRUE(ts.ok()) << ts.status().ToString();
  EXPECT_EQ(ts->op, WireRequest::Op::kTimeseries);
  EXPECT_DOUBLE_EQ(ts->window_s, 60.0);  // The documented default.

  Result<WireRequest> windowed =
      ParseWireRequest(R"({"op":"timeseries","window_s":12.5})");
  ASSERT_TRUE(windowed.ok());
  EXPECT_DOUBLE_EQ(windowed->window_s, 12.5);

  // A non-positive window can never cover a tick, and 1e999 parses as
  // +inf, which the response could not echo as JSON: rejected up front.
  for (const char* line : {R"({"op":"timeseries","window_s":0})",
                           R"({"op":"timeseries","window_s":-5})",
                           R"({"op":"timeseries","window_s":1e999})"}) {
    Result<WireRequest> rejected = ParseWireRequest(line);
    ASSERT_FALSE(rejected.ok()) << line;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << line;
  }

  Result<WireRequest> debug = ParseWireRequest(R"({"op":"debug"})");
  ASSERT_TRUE(debug.ok());
  EXPECT_EQ(debug->op, WireRequest::Op::kDebug);
}

TEST(WireRequestTest, ParsesExplainFlag) {
  Result<WireRequest> search = ParseWireRequest(
      R"({"op":"search","engine":"baseline","e2":"x","explain":true})");
  ASSERT_TRUE(search.ok());
  EXPECT_TRUE(search->want_explain);
  Result<WireRequest> off = ParseWireRequest(
      R"({"op":"search","engine":"baseline","e2":"x"})");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->want_explain);

  Result<WireRequest> join = ParseWireRequest(
      R"({"op":"join","r1":"a","r2":"b","e3":"X","explain":true})");
  ASSERT_TRUE(join.ok());
  EXPECT_TRUE(join->want_explain);

  Result<WireRequest> annotate = ParseWireRequest(
      R"({"op":"annotate","explain":true,"table":{"rows":[["a"]]}})");
  ASSERT_TRUE(annotate.ok());
  EXPECT_TRUE(annotate->want_explain);
}

TEST(RenderTest, SearchExplainObjectShape) {
  using Verdict = SearchWorkspace::TableDecision::Verdict;
  Figure1World w = MakeFigure1World();
  SearchResponse response;
  response.results.push_back(SearchResult{w.einstein, "A. Einstein", 2.0});
  response.explain_log = {
      {7, Verdict::kScored, 3.5, 2.0},
      {9, Verdict::kPrunedZeroBound, 0.0, 2.0},
      {11, Verdict::kPrunedSuffix, 1.0, 0.5},
  };
  response.explain_bounds_valid = true;
  response.has_explain = true;
  response.stats.tables_planned = 3;
  response.stats.tables_scored = 1;
  response.stats.stopped_early = true;
  response.has_stats = true;

  Result<Json> json =
      Json::Parse(RenderSearchResponse(response, &w.catalog, 10));
  ASSERT_TRUE(json.ok());
  const Json* explain = json->Find("explain");
  ASSERT_NE(explain, nullptr);
  const Json* tables = explain->Find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->items().size(), 3u);
  EXPECT_EQ(tables->items()[0].GetString("verdict"), "scored");
  EXPECT_EQ(tables->items()[0].GetNumber("table"), 7.0);
  EXPECT_EQ(tables->items()[0].GetNumber("bound"), 3.5);
  EXPECT_EQ(tables->items()[1].GetString("verdict"), "pruned_zero_bound");
  EXPECT_EQ(tables->items()[2].GetString("verdict"), "pruned_suffix");
  EXPECT_EQ(tables->items()[2].GetNumber("suffix_after"), 0.5);
  EXPECT_TRUE(explain->GetBool("bounds_valid"));
  EXPECT_EQ(explain->GetNumber("tables_planned"), 3.0);
  EXPECT_EQ(explain->GetNumber("tables_scored"), 1.0);
  EXPECT_TRUE(explain->GetBool("stopped_early"));
  // The log agrees with the engine's counters.
  EXPECT_TRUE(explain->GetBool("consistent"));

  // A mismatched counter flips the cross-check, loudly.
  response.stats.tables_scored = 2;
  Result<Json> bad =
      Json::Parse(RenderSearchResponse(response, &w.catalog, 10));
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->Find("explain")->GetBool("consistent", true));

  // Unpruned run: bounds are meaningless and therefore absent.
  response.stats.tables_scored = 1;
  response.explain_bounds_valid = false;
  Result<Json> unbounded =
      Json::Parse(RenderSearchResponse(response, &w.catalog, 10));
  ASSERT_TRUE(unbounded.ok());
  const Json& entry = unbounded->Find("explain")->Find("tables")->items()[0];
  EXPECT_EQ(entry.Find("bound"), nullptr);
  EXPECT_EQ(entry.Find("suffix_after"), nullptr);

  // Not requested: no explain key at all.
  response.has_explain = false;
  Result<Json> silent =
      Json::Parse(RenderSearchResponse(response, &w.catalog, 10));
  ASSERT_TRUE(silent.ok());
  EXPECT_EQ(silent->Find("explain"), nullptr);
}

TEST(RenderTest, AnnotateExplainObjectShape) {
  Figure1World w = MakeFigure1World();
  AnnotateResponse response;
  response.annotation = TableAnnotation::Empty(1, 2);
  AnnotateExplain::ColumnExplain col0;
  col0.column = 0;
  col0.entity_candidates = 12;
  col0.type_candidates = 4;
  col0.decoded_type = w.book;
  col0.decode_margin = 0.75;
  AnnotateExplain::ColumnExplain col1;
  col1.column = 1;
  col1.entity_candidates = 0;
  col1.type_candidates = 0;
  col1.decoded_type = kNa;
  col1.decode_margin = 0.0;
  response.explain.columns = {col0, col1};
  response.explain.relation_pairs = 1;
  response.explain.bp_iterations = 5;
  response.explain.bp_converged = true;
  response.explain.bp_max_residual = 1e-4;
  response.explain.bp_residual_trail = {0.5, 0.1, 1e-4};
  response.explain.bp_factor_updates = 20;
  response.explain.bp_factor_skips = 3;
  response.has_explain = true;

  Result<Json> json =
      Json::Parse(RenderAnnotateResponse(response, &w.catalog));
  ASSERT_TRUE(json.ok());
  const Json* explain = json->Find("explain");
  ASSERT_NE(explain, nullptr);
  const Json* columns = explain->Find("columns");
  ASSERT_NE(columns, nullptr);
  ASSERT_EQ(columns->items().size(), 2u);
  EXPECT_EQ(columns->items()[0].GetNumber("entity_candidates"), 12.0);
  EXPECT_EQ(columns->items()[0].GetString("decoded_type"), "book");
  EXPECT_EQ(columns->items()[0].GetNumber("decode_margin"), 0.75);
  EXPECT_TRUE(columns->items()[1].Find("decoded_type")->is_null());
  EXPECT_EQ(explain->GetNumber("relation_pairs"), 1.0);
  const Json* bp = explain->Find("bp");
  ASSERT_NE(bp, nullptr);
  EXPECT_EQ(bp->GetNumber("iterations"), 5.0);
  EXPECT_TRUE(bp->GetBool("converged"));
  ASSERT_EQ(bp->Find("residual_trail")->items().size(), 3u);
  EXPECT_EQ(bp->Find("residual_trail")->items()[0].number_value(), 0.5);
  EXPECT_EQ(bp->GetNumber("factor_updates"), 20.0);

  response.has_explain = false;
  Result<Json> silent =
      Json::Parse(RenderAnnotateResponse(response, &w.catalog));
  ASSERT_TRUE(silent.ok());
  EXPECT_EQ(silent->Find("explain"), nullptr);
}

TEST(RenderTest, TimeseriesResponseShape) {
  obs::TimeSeriesOptions options;
  options.tick_seconds = 1.0;
  options.capacity = 60;
  obs::TimeSeriesStore store(options);
  // The histogram dump is cumulative across ticks, like a registry
  // snapshot: t new samples land in tick t (1+2+3+4 = 10 total).
  obs::MetricDump hist;
  hist.name = "ts.latency_ms";
  hist.kind = obs::MetricDump::Kind::kHistogram;
  hist.histogram.buckets.assign(obs::Histogram::kBuckets, 0);
  for (int t = 1; t <= 4; ++t) {
    obs::MetricDump counter;
    counter.name = "ts.requests";
    counter.kind = obs::MetricDump::Kind::kCounter;
    counter.value = 10 * t;
    obs::MetricDump gauge;
    gauge.name = "ts.depth";
    gauge.kind = obs::MetricDump::Kind::kGauge;
    gauge.value = t;
    for (int s = 0; s < t; ++s) {
      hist.histogram.buckets[obs::Histogram::BucketIndex(2.0)] += 1;
      hist.histogram.count += 1;
      hist.histogram.sum += 2.0;
    }
    store.Tick({counter, gauge, hist});
  }

  Result<Json> json = Json::Parse(RenderTimeseriesResponse(store, 30.0));
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(json->GetBool("ok"));
  EXPECT_EQ(json->GetNumber("tick_s"), 1.0);
  EXPECT_EQ(json->GetNumber("retention_s"), 60.0);
  EXPECT_EQ(json->GetNumber("ticks"), 4.0);
  EXPECT_EQ(json->GetNumber("series_count"), 3.0);
  EXPECT_EQ(json->GetNumber("window_s"), 30.0);
  EXPECT_GT(json->GetNumber("memory_bytes"), 0.0);
  const Json* series = json->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items().size(), 3u);
  // Name-sorted: depth (gauge), latency (histogram), requests (counter).
  const Json& gauge = series->items()[0];
  EXPECT_EQ(gauge.GetString("name"), "ts.depth");
  EXPECT_EQ(gauge.GetString("kind"), "gauge");
  EXPECT_EQ(gauge.GetNumber("last"), 4.0);
  EXPECT_EQ(gauge.GetNumber("min"), 1.0);
  EXPECT_EQ(gauge.GetNumber("max"), 4.0);
  const Json& hist_series = series->items()[1];
  EXPECT_EQ(hist_series.GetString("kind"), "histogram");
  EXPECT_EQ(hist_series.GetNumber("count"), 10.0);  // 1+2+3+4 samples
  EXPECT_NEAR(hist_series.GetNumber("sum"), 20.0, 1e-6);
  EXPECT_GE(hist_series.GetNumber("p50"), 2.0);
  EXPECT_LE(hist_series.GetNumber("p99"), 2.0 * 1.4143);
  const Json& counter = series->items()[2];
  EXPECT_EQ(counter.GetString("kind"), "counter");
  EXPECT_EQ(counter.GetNumber("delta"), 40.0);
  EXPECT_EQ(counter.GetNumber("last"), 40.0);
  EXPECT_EQ(counter.GetNumber("rate_per_s"), 10.0);
}

TEST(RenderTest, DebugResponseShape) {
  obs::ExemplarBuffer buffer(4);
  obs::RequestExemplar ex;
  ex.request_id = 42;
  ex.kind = "search:type";
  ex.detail = "e2=einstein k=5";
  ex.snapshot_version = 3;
  ex.queue_ms = 0.5;
  ex.work_ms = 120.0;
  ex.trace.total_ms = 120.5;
  ex.trace.stages.push_back(
      obs::RequestTrace::Stage{"search.score", 0, 119.0, 1});
  buffer.Record(ex);

  Result<Json> json =
      Json::Parse(RenderDebugResponse(buffer, 100.0));
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(json->GetBool("ok"));
  EXPECT_EQ(json->GetNumber("slow_request_threshold_ms"), 100.0);
  EXPECT_EQ(json->GetNumber("capacity"), 4.0);
  EXPECT_EQ(json->GetNumber("total_recorded"), 1.0);
  const Json* items = json->Find("exemplars");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->items().size(), 1u);
  const Json& item = items->items()[0];
  EXPECT_EQ(item.GetNumber("request_id"), 42.0);
  EXPECT_EQ(item.GetString("kind"), "search:type");
  EXPECT_EQ(item.GetString("detail"), "e2=einstein k=5");
  EXPECT_EQ(item.GetNumber("version"), 3.0);
  EXPECT_EQ(item.GetNumber("work_ms"), 120.0);
  EXPECT_GE(item.GetNumber("age_s"), 0.0);
  const Json* trace = item.Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->GetNumber("total_ms"), 120.5);
  ASSERT_EQ(trace->Find("stages")->items().size(), 1u);
}

TEST(RenderTest, StatsResponseCarriesProcessGauges) {
  ServiceStats stats;
  Result<Json> json =
      Json::Parse(RenderStatsResponse(stats, 9, "/tmp/x.snap"));
  ASSERT_TRUE(json.ok());
  const Json* process = json->Find("process");
  ASSERT_NE(process, nullptr);
  // Read from /proc on Linux; elsewhere the fields degrade to zero but
  // stay present and non-negative.
  EXPECT_GE(process->GetNumber("rss_bytes"), 0.0);
  EXPECT_GE(process->GetNumber("uptime_s"), 0.0);
  EXPECT_GE(process->GetNumber("open_fds"), 0.0);
  EXPECT_EQ(process->GetNumber("generation"), 9.0);
#ifdef __linux__
  EXPECT_GT(process->GetNumber("rss_bytes"), 0.0);
#endif
}

}  // namespace
}  // namespace serve
}  // namespace webtab
