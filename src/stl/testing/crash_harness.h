/**
 * @file
 * Differential crash-recovery harness shared by the CrashRecovery
 * test suite and the crash_recovery_bench smoke binary.
 *
 * One CrashCase describes a cell of the crash matrix: a translation
 * layer (optionally zoned), optionally mounted on a
 * ZonedDevice. runCrashMatrix replays a deterministic trace with a
 * SegmentJournal attached, then crashes it at every Nth operation
 * (device power loss when the ZonedDevice leg is on, a journal
 * torn-tail otherwise), remounts a fresh layer from the surviving
 * journal image and verifies, for every crash point:
 *
 *  - the crashed run's journal image is a byte-prefix of the
 *    uncrashed reference run's image (accounting for the surviving
 *    prefix is byte-identical);
 *  - the torn image scans to a record prefix of the reference scan
 *    (recovery is a prefix-consistent subset, never invented
 *    state);
 *  - the remounted layer passes Fsck against the torn journal;
 *  - the remounted translation of the whole logical space equals
 *    an independent oracle (ReferenceExtentMap) replay of the same
 *    record prefix.
 *
 * Everything is seeded: equal seeds produce equal torn images,
 * digests and mount stats across --jobs and checkpoint/resume.
 */

#ifndef LOGSEEK_STL_TESTING_CRASH_HARNESS_H
#define LOGSEEK_STL_TESTING_CRASH_HARNESS_H

#include <cstdint>
#include <string>

#include "stl/simulator.h"
#include "trace/trace.h"

namespace logseek::stl::testing
{

/** One cell of the crash-recovery matrix. */
struct CrashCase
{
    TranslationKind kind = TranslationKind::LogStructured;

    /** Guarded zone structure on the log frontier (LS only). */
    bool zones = false;

    /** Mount the replay on a ZonedDevice and crash it with a
     *  CrashSchedule instead of tearing the journal offline. */
    bool zonedDevice = false;

    /** Crash stride: a crash is injected at every multiple of this
     *  (trace ops offline, media write ops on the device leg). */
    std::uint64_t crashEvery = 7;

    /** Seed of the torn-tail draws (mixed with the crash point). */
    std::uint64_t seed = 0xc4a5471ULL;

    /** Cleaning policy of the finite-log cell. */
    gc::CleaningPolicyKind policy = gc::CleaningPolicyKind::Greedy;

    /** Placement streams of the finite-log cell. */
    std::uint32_t streams = 1;

    /** Human-readable cell label, e.g. "FiniteLS+cb+s2+dev/7". */
    std::string label() const;
};

/** Aggregate outcome of one matrix cell (all its crash points). */
struct CrashMatrixResult
{
    /** Crash points injected and recovered. */
    std::uint64_t crashesRun = 0;

    /** Torn tails the recovery scans discriminated. */
    std::uint64_t tornTails = 0;

    /** Frames dropped for a bad CRC or length (0 under this
     *  harness: power loss tears, it does not corrupt). */
    std::uint64_t damagedFrames = 0;

    /** Intact frames discarded beyond the last consistent epoch. */
    std::uint64_t truncatedEpochs = 0;

    /** Epochs replayed across all mounts. */
    std::uint64_t epochsApplied = 0;

    /** SegmentReset records (finite-log reclaims) in the recovered
     *  journals, summed across all crash points. */
    std::uint64_t reclaims = 0;

    /** Map entries the Fsck passes compared. */
    std::uint64_t entriesChecked = 0;

    /** FNV-1a digest over every torn journal image and mount
     *  tally, in crash-point order. Equal seeds must produce equal
     *  digests — the determinism probe the tests compare across
     *  repeat runs. */
    std::uint64_t stateDigest = 0;

    /** First verification failure; empty when every crash point
     *  recovered consistently. */
    std::string failure;

    bool ok() const { return failure.empty(); }
};

/**
 * Deterministic mixed read/write trace for the crash matrix. The
 * first record touches the top of the address space, so every
 * prefix of the trace has the same addressSpaceEnd() — crashed
 * prefix replays construct byte-identical layer geometry.
 */
trace::Trace crashTrace(std::size_t ops, std::uint64_t seed,
                        Lba address_space);

/**
 * The SimConfig a CrashCase replays under (journal not yet
 * attached). Geometry constants are sized small so zone crossings
 * fire within a few hundred ops, and finite-log cleaning within
 * several hundred (the CrashRecovery matrix replays 960).
 */
SimConfig crashCaseConfig(const CrashCase &c);

/** Run every crash point of one cell; see the file comment. */
CrashMatrixResult runCrashMatrix(const CrashCase &c,
                                 const trace::Trace &trace);

} // namespace logseek::stl::testing

#endif // LOGSEEK_STL_TESTING_CRASH_HARNESS_H
