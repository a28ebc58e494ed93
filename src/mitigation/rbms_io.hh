/**
 * @file
 * RBMS profile serialization.
 *
 * AIM's machine profile is measured offline (the paper observes the
 * bias is stable across calibration cycles, so profiling is an
 * occasional cost, not a per-job one). These helpers persist a
 * profile as a small line-oriented text format so a characterization
 * run and the production runs can be different processes:
 *
 *   rbms exhaustive <bits>
 *   <2^bits strength values, one per line>
 *
 *   rbms windowed <bits> <window-count>
 *   window <offset> <table-size>
 *   <table-size strength values, one per line>
 *   ...
 */

#ifndef QEM_MITIGATION_RBMS_IO_HH
#define QEM_MITIGATION_RBMS_IO_HH

#include <memory>
#include <string>

#include "mitigation/rbms.hh"

namespace qem
{

/** Serialize either RBMS representation. */
std::string serializeRbms(const RbmsEstimate& rbms);

/**
 * Parse a profile produced by serializeRbms. Throws
 * std::invalid_argument with a diagnostic on malformed input: a
 * table size that is not a power of two up to 2^24, a truncated or
 * negative strength, a table with no positive strength, or
 * anything but whitespace after the last table.
 */
std::shared_ptr<const RbmsEstimate> parseRbms(
    const std::string& text);

} // namespace qem

#endif // QEM_MITIGATION_RBMS_IO_HH
