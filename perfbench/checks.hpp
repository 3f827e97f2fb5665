// Output checks of the benchmark, kept apart from the workloads so the
// self-test can feed each one a deliberately wrong answer.
//
// Reference answers are computed here by brute force over a world's
// corpus: every transceiver is visited, its hazard class is looked up
// with WhpModel::class_at, its provider with the registry, and its
// distance with geo::haversine_m. Nothing goes through the spatial
// index, the shards, the planner or the cache that serve the answers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "serve/types.hpp"

namespace fa::perfbench {

// Reference answers for `requests` against `world`, as if served at
// `epoch`. One pass over the corpus answers every spatial request.
std::vector<serve::Response> brute_force(const core::World& world,
                                         std::span<const serve::Request> requests,
                                         serve::Epoch epoch);

// Per-class transceiver tally (WhpModel::class_at over every position).
std::vector<std::uint64_t> class_tally(const core::World& world);

// Each check returns an empty string when the answer is right, and a
// description of the first difference otherwise.

// Two count vectors, element by element.
std::string diff_counts(const std::vector<std::uint64_t>& expected,
                        const std::vector<std::uint64_t>& got);

// Two responses of any shape, field by field (top-K rows in order).
std::string diff_response(const serve::Response& expected,
                          const serve::Response& got);

// Every response carries `epoch`.
std::string diff_epoch(const serve::Response& got, serve::Epoch epoch);

// A reader's epochs, in the order it saw them, never decrease.
std::string diff_monotone(const std::vector<serve::Epoch>& epochs);

// Two encoded worlds are byte-identical.
std::string diff_bytes(const std::string& expected, const std::string& got);

serve::Epoch epoch_of(const serve::Response& r);
// The same response with its epoch cleared, to compare the answers of
// two servers whose epoch numbering differs.
serve::Response without_epoch(serve::Response r);

}  // namespace fa::perfbench
