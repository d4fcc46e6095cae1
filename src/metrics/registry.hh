/**
 * @file
 * Conversion of the simulator's statistics structs into the common
 * StatSet registry under stable dotted names.
 *
 * Naming scheme (see DESIGN.md §11):
 *   gpu.cycles, gpu.ipc, gpu.instructions, ...      headline metrics
 *   gpu.issued.{int,fp,sfu,ldst}                    per-class issues
 *   gpu.pg.{int0,int1,fp0,fp1,sfu}.<counter>        per-cluster gating
 *   gpu.pg.{int,fp}.<counter|busyFraction|...>      per-type rollups
 *   gpu.sched.*, gpu.mem.*, gpu.adaptive.{int,fp}.* subsystems
 *   gpu.energy.{int,fp,sfu,ldst}.<ledger>           energy ledgers
 *   sm<N>.cycles                                    per-SM runtimes
 *   config.*                                        numeric run config
 *
 * The per-struct names come from each stats struct's field list
 * (Field::stat in common/fields.hh); the derived metrics are written
 * out in toStatSet.
 *
 * Names never contain '_' so the Prometheus exposition's '.' -> '_'
 * mapping stays bijective. Everything is enumerable, mergeable
 * (StatSet::merge / mergePrefixed) and exportable without bespoke
 * plumbing per figure.
 */

#pragma once

#include <string>

#include "common/stats.hh"
#include "pg/domain.hh"
#include "power/energymodel.hh"
#include "sim/result.hh"
#include "sim/smstats.hh"

namespace wg::metrics {

/**
 * Full registry of one simulation result: the aggregate SmStats under
 * `gpu.` (with gpu.cycles corrected to the wall-clock runtime and
 * gpu.totalSmCycles holding the per-SM sum), per-type rollups, derived
 * figure metrics, energy ledgers, per-SM runtimes, and the numeric
 * configuration under `config.`.
 */
StatSet toStatSet(const SimResult& result);

} // namespace wg::metrics

