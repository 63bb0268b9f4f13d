#ifndef MDM_CORPUS_LOADER_H_
#define MDM_CORPUS_LOADER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "corpus/generator.h"
#include "er/database.h"

namespace mdm::corpus {

/// The cheap in-memory model of one loaded score that the workload
/// driver's oracle checks query answers against. Everything here is
/// derived from the generated items at load time and updated by the
/// driver as its editors mutate the tenant — deliberately *independent*
/// of the er/quel code paths it validates.
///
/// Entity ids are intentionally absent: under a multi-threaded driver
/// id assignment is interleaving-dependent, so models (and the oracle
/// hash over them) only hold interleaving-stable facts.
struct TenantModel {
  int tenant = 0;
  std::string title;           // "score-<tenant>" — SCORE.title
  std::string catalog_number;  // "<tenant>" — CATALOG_ENTRY.number
  std::vector<int> incipit;    // first MIDI keys, as indexed in biblio
  std::string incipit_text;    // the space-joined form CATALOG_ENTRY stores

  std::vector<int> keys;        // every note's midi_key, temporal order
  std::map<int, int> key_count; // midi_key -> occurrences
  std::map<int, int> degree_hist;  // NOTE.degree -> occurrences
  int notes = 0;
  int measures = 0;  // imported measures (driver tracks appends itself)
  int min_key = 0;
  int max_key = 0;
};

/// A loaded corpus: per-tenant models plus whole-library facts.
struct Corpus {
  std::vector<TenantModel> tenants;
  int64_t total_notes = 0;
  int64_t total_rests = 0;
  int64_t total_measures = 0;
  /// incipit_text -> number of catalog entries sharing it (thematic
  /// search ground truth; collisions are possible and meaningful).
  std::map<std::string, int> incipit_count;
};

struct LoadOptions {
  CorpusSpec spec;
  /// When true (default), defines the secondary attribute indexes the
  /// workload's planner-sensitive queries rely on (score title, staff
  /// number, catalog number/incipit, annotation xpos) before the load
  /// begins.
  bool define_indexes = true;
  /// Invoked after each score is loaded; for bench progress lines.
  std::function<void(int scores_done, int64_t notes_done)> progress;
};

/// Generates and loads the whole corpus into `db` through the DARMS
/// importer: CMN + biblio schemas, one score/staff/voice universe per
/// tenant (STAFF.number and VOICE.number are set to the tenant id so
/// QUEL can address a tenant without knowing entity ids), one
/// CATALOG_ENTRY per score carrying its incipit. Progress and totals
/// are also published on the obs registry (mdm_corpus_*).
///
/// Single-threaded, caller holds no latch (the db is private until
/// loading finishes).
Result<Corpus> LoadCorpus(er::Database* db, const LoadOptions& options);

}  // namespace mdm::corpus

#endif  // MDM_CORPUS_LOADER_H_
