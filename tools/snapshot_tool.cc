// snapshot_tool: build / inspect / verify webtab snapshot files.
//
//   snapshot_tool build --catalog world.txt --out world.snap [--no-index]
//       Serializes a text catalog (catalog_io format) plus its lemma
//       index into a snapshot.
//
//   snapshot_tool build --synth-tables 50 --out world.snap [--seed 42]
//       Generates the synthetic world, annotates a corpus of N tables,
//       and writes all three sections (catalog, lemma index, corpus).
//
//   snapshot_tool inspect world.snap
//       Prints the header, section table, and per-payload counts.
//
//   snapshot_tool verify world.snap
//       Full open: magic/version/size checks, payload checksum, and
//       structural validation of every section.
#include <cstdio>
#include <string>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "catalog/catalog_io.h"
#include "common/flags.h"
#include "common/logging.h"
#include "index/lemma_index.h"
#include "search/corpus_index.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"

namespace webtab {
namespace {

using storage::Snapshot;
using storage::SnapshotBuilder;

const char* SectionKindName(uint32_t kind) {
  switch (kind) {
    case storage::kCatalogSection:
      return "catalog";
    case storage::kLemmaIndexSection:
      return "lemma-index";
    case storage::kCorpusSection:
      return "corpus";
    case storage::kMatchSupportSection:
      return "match-support";
    default:
      return "unknown";
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int BuildFromCatalogFile(const std::string& catalog_path,
                         const std::string& out, bool with_index) {
  Result<Catalog> catalog = LoadCatalogFromFile(catalog_path);
  if (!catalog.ok()) return Fail(catalog.status());
  SnapshotBuilder builder;
  builder.SetCatalog(&catalog.value());
  LemmaIndex index(&catalog.value());
  if (with_index) builder.SetLemmaIndex(&index);
  Status status = builder.WriteToFile(out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s (catalog%s) from %s\n", out.c_str(),
              with_index ? " + lemma index" : "", catalog_path.c_str());
  return 0;
}

int BuildSynthetic(int num_tables, uint64_t seed, const std::string& out,
                   int num_threads) {
  World world = GenerateWorld(WorldSpec{.seed = seed});
  LemmaIndex index(&world.catalog);

  CorpusSpec spec;
  spec.seed = seed + 1;
  spec.num_tables = num_tables;
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(lt.table);
  }
  CorpusAnnotatorOptions options;
  options.num_threads = num_threads;
  std::vector<AnnotatedTable> annotated = AnnotateCorpusParallel(
      &world.catalog, &index, options, tables);
  ClosureCache closure(&world.catalog);
  CorpusIndex corpus(std::move(annotated), &closure);

  SnapshotBuilder builder;
  builder.SetCatalog(&world.catalog).SetLemmaIndex(&index).SetCorpus(
      &corpus);
  Status status = builder.WriteToFile(out);
  if (!status.ok()) return Fail(status);
  std::printf(
      "wrote %s: synthetic world (%d types, %d entities, %d relations) "
      "+ %lld annotated tables\n",
      out.c_str(), world.catalog.num_types(), world.catalog.num_entities(),
      world.catalog.num_relations(),
      static_cast<long long>(corpus.num_tables()));
  return 0;
}

int Inspect(const std::string& path) {
  Result<Snapshot> snap = Snapshot::Open(path);
  if (!snap.ok()) return Fail(snap.status());
  std::printf("%s: snapshot v%u, %llu bytes, checksum %016llx\n",
              path.c_str(), snap->version(),
              static_cast<unsigned long long>(snap->file_size()),
              static_cast<unsigned long long>(snap->checksum()));
  for (const Snapshot::SectionInfo& info : snap->sections()) {
    std::printf("  section %-13s offset %-10llu size %llu\n",
                SectionKindName(info.kind),
                static_cast<unsigned long long>(info.offset),
                static_cast<unsigned long long>(info.size));
  }
  if (snap->catalog() != nullptr) {
    const CatalogView& c = *snap->catalog();
    std::printf(
        "  catalog: %d types, %d entities, %d relations, %lld tuples\n",
        c.num_types(), c.num_entities(), c.num_relations(),
        static_cast<long long>(c.num_tuples()));
  }
  if (snap->lemma_index() != nullptr) {
    std::printf("  lemma index: %lld postings\n",
                static_cast<long long>(snap->lemma_index()->num_postings()));
  }
  if (snap->corpus() != nullptr) {
    const CorpusView& v = *snap->corpus();
    int64_t cells = 0;
    for (int t = 0; t < v.num_tables(); ++t) {
      cells += static_cast<int64_t>(v.rows(t)) * v.cols(t);
    }
    std::printf("  corpus: %lld tables, %lld cells\n",
                static_cast<long long>(v.num_tables()),
                static_cast<long long>(cells));
    const storage::SnapshotCorpusView& sv = *snap->corpus();
    if (sv.HasMatchSupport()) {
      std::printf("  match support: %lld cell tokens\n",
                  static_cast<long long>(sv.num_cell_tokens()));
    }
  }
  return 0;
}

int Verify(const std::string& path) {
  // The same validated open serve_tool uses: checksum plus every
  // content invariant the engines rely on.
  Result<Snapshot> snap = Snapshot::OpenValidated(path);
  if (!snap.ok()) {
    std::printf("%s: FAILED\n", path.c_str());
    return Fail(snap.status());
  }
  std::printf("%s: OK (%u sections, checksum verified, deep-validated)\n",
              path.c_str(), static_cast<unsigned>(snap->sections().size()));
  return 0;
}

int Run(int argc, char** argv) {
  InitLogLevelFromEnv();
  std::string catalog_path, out = "world.snap";
  bool no_index = false;
  int64_t synth_tables = 0, seed = 42, threads = 1;
  FlagSet flags;
  flags.AddString("catalog", &catalog_path, "text catalog to serialize");
  flags.AddString("out", &out, "output snapshot path");
  flags.AddBool("no-index", &no_index, "skip the lemma index section");
  flags.AddInt("synth-tables", &synth_tables,
               "generate a synthetic world + N annotated tables");
  flags.AddInt("seed", &seed, "synthetic world seed");
  flags.AddInt("threads", &threads, "annotation worker threads");
  Status status = flags.Parse(argc, argv);
  if (!status.ok()) return Fail(status);

  const auto& args = flags.positional();
  std::string command = args.empty() ? "" : args[0];
  if (command == "build") {
    if (synth_tables > 0) {
      return BuildSynthetic(static_cast<int>(synth_tables),
                            static_cast<uint64_t>(seed), out,
                            static_cast<int>(threads));
    }
    if (!catalog_path.empty()) {
      return BuildFromCatalogFile(catalog_path, out, !no_index);
    }
    std::fprintf(stderr,
                 "build requires --catalog <file> or --synth-tables <n>\n");
    return 2;
  }
  if (command == "inspect" && args.size() > 1) return Inspect(args[1]);
  if (command == "verify" && args.size() > 1) return Verify(args[1]);

  std::fprintf(stderr,
               "usage:\n"
               "  snapshot_tool build --catalog world.txt --out world.snap"
               " [--no-index]\n"
               "  snapshot_tool build --synth-tables N --out world.snap"
               " [--seed S] [--threads T]\n"
               "  snapshot_tool inspect world.snap\n"
               "  snapshot_tool verify world.snap\n%s",
               flags.Usage().c_str());
  return 2;
}

}  // namespace
}  // namespace webtab

int main(int argc, char** argv) { return webtab::Run(argc, argv); }
