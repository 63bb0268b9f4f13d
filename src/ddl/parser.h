#ifndef MDM_DDL_PARSER_H_
#define MDM_DDL_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "er/database.h"
#include "er/schema.h"

namespace mdm::ddl {

/// Result of executing a DDL script: what was defined (or destroyed).
struct DdlResult {
  std::vector<std::string> entity_types;
  std::vector<std::string> relationships;
  std::vector<std::string> orderings;  // final (possibly generated) names
  std::vector<std::string> indexes;
  std::vector<std::string> destroyed_indexes;
};

/// Parses and executes a DDL script against `db`.
///
/// Grammar (§5.4, [Rub87] BNF):
///   script     := { statement }
///   statement  := define_entity | define_rel | define_ordering
///                   | define_index | destroy_index
///   define_entity   := "define" "entity" name "(" [attr {"," attr}] ")"
///   attr            := name "=" type_name
///   define_rel      := "define" "relationship" name
///                          "(" role {"," role} ")"
///   role            := name "=" entity_type_name
///   define_ordering := "define" "ordering" [name]
///                          "(" child {"," child} ")" "under" parent
///   define_index    := "define" "index" name "on" entity_type_name
///                          "(" attr_name ")"
///   destroy_index   := "destroy" "index" name
///
/// `type_name` is one of the scalar domains (integer, float, string,
/// bool, rational) or a previously defined entity type (making the
/// attribute an entity-valued reference, §5.1). Indexes are the §5.2
/// physical design: secondary posting lists over one attribute of one
/// entity type, maintained on every create/update/delete and journaled
/// like any other schema change (see docs/INDEXES.md).
Result<DdlResult> ExecuteDdl(const std::string& script, er::Database* db);

/// Parses a DDL script without executing it (syntax check only).
Status CheckDdlSyntax(const std::string& script);

/// Deparses a schema back to canonical DDL text (used to regenerate the
/// paper's schema listings).
std::string SchemaToDdl(const er::ErSchema& schema);

}  // namespace mdm::ddl

#endif  // MDM_DDL_PARSER_H_
