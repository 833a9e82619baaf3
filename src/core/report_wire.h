// Wire codec for a finished campaign's report.
//
// A fleet worker runs one shard of the campaign in its own process and
// hands the coordinator everything the merged workdir is written from:
// its CampaignReport (findings, crashes and the full provenance records),
// its per-syscall profile and per-operator efficacy rows, and its retained
// time-series samples. The coordinator folds the reports with
// merge_reports (core/sharded.h), exactly as a sharded run folds its
// shards', so no artifact is ever re-parsed from a file.
//
// The encoding uses the corpus-exchange codec's primitives
// (feedback/wire.h; the report lives in core, above that layer, so its
// codec lives here): little-endian, length-delimited, doubles as their
// IEEE-754 bits, so a report survives the trip bit-exact and re-encodes to
// the same bytes. Decoding never trusts the peer: every read is
// bounds-checked, a list length beyond the bytes left is rejected before
// any element is built, programs must parse, and bool and enum bytes must
// be in range; any failure, trailing bytes included, yields nullopt.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.h"
#include "feedback/mutation_efficacy.h"
#include "feedback/syscall_profile.h"
#include "telemetry/timeseries.h"

namespace torpedo::core {

// A fleet worker's kDone frame body.
struct DoneBody {
  CampaignReport report;
  std::vector<feedback::SyscallProfile::Row> syscalls;
  std::vector<feedback::MutationEfficacy::Row> ops;
  std::vector<telemetry::RoundSample> timeseries;
};

std::string encode_done(const DoneBody& body);
std::optional<DoneBody> decode_done(std::string_view payload);

}  // namespace torpedo::core
