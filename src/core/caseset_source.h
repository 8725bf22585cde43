// Turning a DMX caseset source (SHAPE / SELECT / OPENROWSET) into a row
// stream. INSERT INTO and PREDICTION JOIN both consume the streaming form,
// so services really see one case at a time.

#ifndef DMX_CORE_CASESET_SOURCE_H_
#define DMX_CORE_CASESET_SOURCE_H_

#include <memory>
#include <optional>

#include "common/rowset.h"
#include "core/dmx_ast.h"
#include "relational/database.h"

namespace dmx {

/// Loads the file-backed payload of an OPENROWSET source; empty for SHAPE
/// and SELECT sources, which read catalog state instead of the filesystem.
/// This is the *only* entry point that touches a file: callers run it
/// before taking the catalog lock and hand the result to Open/Materialize,
/// so statement execution under the lock never blocks on I/O.
Result<std::optional<Rowset>> PreloadCasesetSource(const CasesetSource& source);

/// Opens the source as a pull-based reader. An OPENROWSET source consumes
/// `*preloaded` (from PreloadCasesetSource) and fails if it is absent.
Result<std::unique_ptr<RowsetReader>> OpenCasesetSource(
    const rel::Database& db, const CasesetSource& source,
    std::optional<Rowset>* preloaded = nullptr);

/// Materializes the source into a rowset. Same preload contract as
/// OpenCasesetSource.
Result<Rowset> MaterializeCasesetSource(
    const rel::Database& db, const CasesetSource& source,
    std::optional<Rowset>* preloaded = nullptr);

}  // namespace dmx

#endif  // DMX_CORE_CASESET_SOURCE_H_
