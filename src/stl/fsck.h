/**
 * @file
 * Fsck-style translation-layer invariant verifier.
 *
 * After a mount (or at the end of a paranoid run) the in-memory
 * translation state and the on-media journal must tell the same
 * story. Fsck::check replays the journal's consistent prefix into
 * reference structures and compares them against the live layer:
 * extent-map ↔ on-log agreement, write-pointer alignment with the
 * last recorded epoch, finite-log forward/reverse bijection,
 * liveness accounting and incremental free/open counters,
 * media-cache pointer arithmetic. Violations
 * are collected, never thrown — the caller decides whether a dirty
 * report is fatal.
 */

#ifndef LOGSEEK_STL_FSCK_H
#define LOGSEEK_STL_FSCK_H

#include <cstdint>
#include <string>
#include <vector>

#include "stl/segment_journal.h"
#include "stl/translation_layer.h"

namespace logseek::stl
{

/** One failed invariant. */
struct FsckViolation
{
    /** Short invariant name, e.g. "frontier-alignment". */
    std::string check;

    /** Human-readable specifics. */
    std::string detail;
};

/** Outcome of one verification pass. */
struct FsckReport
{
    std::vector<FsckViolation> violations;

    /** Map entries compared across all structures. */
    std::uint64_t checkedEntries = 0;

    bool ok() const { return violations.empty(); }

    /** All violations joined into one diagnostic string. */
    std::string toString() const;
};

/**
 * The verifier. Stateless; dispatches on the concrete layer type
 * and runs every invariant that applies. A layer kind without
 * durable state (the conventional baseline) is checked for an
 * empty journal. Bumps fsck_violations_total per violation.
 */
class Fsck
{
  public:
    static FsckReport check(const TranslationLayer &layer,
                            const SegmentJournal &journal);
};

} // namespace logseek::stl

#endif // LOGSEEK_STL_FSCK_H
