//! Per-layer counters, read through the layers' public stats getters
//! after each simulation and summed over a workload's simulations.

use std::rc::Rc;

use copier_core::Copier;
use copier_mem::PhysMem;
use copier_sim::{Core, Nanos, Sim};

use crate::metrics::{ratio, Metrics};

/// Virtual-time counters of every layer (deterministic for a seed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    // copier-sim
    pub virtual_end_ns: u64,
    pub tasks_spawned: u64,
    // copier-mem
    pub frames_allocated: u64,
    pub pressure_events: u64,
    // copier-hw
    pub cpu_bytes: u64,
    pub dma_bytes: u64,
    pub dma_descriptors: u64,
    pub dma_wait_ns: u64,
    pub atc_hits: u64,
    pub atc_misses: u64,
    // copier-core: service rounds
    pub rounds_active: u64,
    pub rounds_idle: u64,
    pub busy_ns: u64,
    pub core_ns: u64,
    pub activations: u64,
    pub assign_rebuilds: u64,
    pub hazard_scans: u64,
    pub index_hits: u64,
    pub index_entries_peak: u64,
    // copier-core: admission
    pub admission_rejected: u64,
    pub shed_bytes: u64,
    pub degraded_sync_copies: u64,
    // copier-core: absorb / sync
    pub absorbed_bytes: u64,
    pub submitted_bytes: u64,
    pub promotions: u64,
    pub syncs: u64,
    // copier-core: journal
    pub journal_records: u64,
    pub journal_bytes: u64,
    pub journal_flushes: u64,
    pub journal_compactions: u64,
    // copier-client
    pub client_rejects: u64,
    pub sync_fallbacks: u64,
    // copier-apps
    pub served: u64,
    pub get_p99_ns: u64,
    pub set_p99_ns: u64,
    // sample count behind op_p50_us / op_p99_us
    pub op_samples: u64,
}

impl Layers {
    /// Adds one finished simulation: its service, the service's cores,
    /// its memory pool, and the bytes its clients asked to copy.
    pub fn add_sim(
        &mut self,
        sim: &Sim,
        svc: &Copier,
        svc_cores: &[Rc<Core>],
        pm: &PhysMem,
        end: Nanos,
        submitted_bytes: u64,
    ) {
        let s = svc.stats();
        let obs = svc.control_obs();
        let atc = svc.atcache().stats();
        self.virtual_end_ns += end.as_nanos();
        self.tasks_spawned += sim.spawned_tasks() as u64;
        self.frames_allocated += pm.allocated() as u64;
        self.pressure_events += s.pressure_events;
        self.cpu_bytes += s.dispatch.cpu_bytes as u64;
        self.dma_bytes += s.dispatch.dma_bytes as u64;
        self.dma_descriptors += s.dispatch.dma_descriptors as u64;
        self.dma_wait_ns += s.dispatch.dma_wait.as_nanos();
        self.atc_hits += atc.hits;
        self.atc_misses += atc.misses;
        self.rounds_active += s.rounds_active;
        self.rounds_idle += s.idle_polls + s.rounds_settled;
        self.busy_ns += svc_cores
            .iter()
            .map(|c| c.busy_time().as_nanos())
            .sum::<u64>();
        self.core_ns += svc_cores.len() as u64 * end.as_nanos();
        self.activations += obs.activations;
        self.assign_rebuilds += obs.assign_rebuilds;
        self.hazard_scans += s.hazard_scans;
        self.index_hits += s.index_hits;
        self.index_entries_peak = self.index_entries_peak.max(s.index_entries_peak);
        self.admission_rejected += s.admission_rejected;
        self.shed_bytes += s.shed_bytes;
        self.degraded_sync_copies += s.degraded_sync_copies;
        self.absorbed_bytes += s.bytes_absorbed;
        self.submitted_bytes += submitted_bytes;
        self.promotions += s.promotions;
        self.syncs += s.syncs;
        if let Some(j) = svc.journal_stats() {
            self.journal_records += j.records;
            self.journal_bytes += j.bytes;
            self.journal_flushes += j.flushes;
            self.journal_compactions += j.compactions;
        }
    }

    /// Regime guard shared by every workload: a run that touched memory
    /// pressure or fell back to the degraded synchronous path measured
    /// the wrong thing, however plausible its latencies look.
    pub fn regime_errors(&self, errors: &mut Vec<String>) {
        if self.pressure_events > 0 {
            errors.push(format!(
                "regime: {} memory-pressure events",
                self.pressure_events
            ));
        }
        if self.degraded_sync_copies > 0 {
            errors.push(format!(
                "regime: {} copies ran on the degraded sync path",
                self.degraded_sync_copies
            ));
        }
    }

    /// Every per-layer counter metric, by name and unit.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let f = |v: u64| v as f64;
        m.set("sim.virtual_end_us", f(self.virtual_end_ns) / 1e3, "us");
        m.set("sim.tasks_spawned", f(self.tasks_spawned), "count");
        m.set("mem.frames_allocated", f(self.frames_allocated), "count");
        m.set("mem.pressure_events", f(self.pressure_events), "count");
        m.set("hw.cpu_bytes", f(self.cpu_bytes), "B");
        m.set("hw.dma_bytes", f(self.dma_bytes), "B");
        m.set(
            "hw.dma_share",
            ratio(f(self.dma_bytes), f(self.dma_bytes + self.cpu_bytes)),
            "frac",
        );
        m.set("hw.dma_descriptors", f(self.dma_descriptors), "count");
        m.set("hw.dma_wait_us", f(self.dma_wait_ns) / 1e3, "us");
        m.set(
            "hw.atc_hit_ratio",
            ratio(f(self.atc_hits), f(self.atc_hits + self.atc_misses)),
            "frac",
        );
        m.set("hw.atc_hits", f(self.atc_hits), "count");
        m.set("hw.atc_misses", f(self.atc_misses), "count");
        m.set("core.rounds_active", f(self.rounds_active), "count");
        m.set("core.rounds_idle", f(self.rounds_idle), "count");
        m.set(
            "core.active_round_ratio",
            ratio(
                f(self.rounds_active),
                f(self.rounds_active + self.rounds_idle),
            ),
            "frac",
        );
        m.set(
            "core.busy_frac",
            ratio(f(self.busy_ns), f(self.core_ns)),
            "frac",
        );
        m.set("core.activations", f(self.activations), "count");
        m.set("core.assign_rebuilds", f(self.assign_rebuilds), "count");
        m.set("core.hazard_scans", f(self.hazard_scans), "count");
        m.set(
            "core.index_hits_per_scan",
            ratio(f(self.index_hits), f(self.hazard_scans)),
            "count",
        );
        m.set(
            "core.index_entries_peak",
            f(self.index_entries_peak),
            "count",
        );
        m.set(
            "core.admission_rejected",
            f(self.admission_rejected),
            "count",
        );
        m.set("core.shed_bytes", f(self.shed_bytes), "B");
        m.set(
            "core.absorb_ratio",
            ratio(f(self.absorbed_bytes), f(self.submitted_bytes)),
            "frac",
        );
        m.set("core.promotions", f(self.promotions), "count");
        m.set("core.syncs", f(self.syncs), "count");
        m.set("journal.records", f(self.journal_records), "count");
        m.set("journal.bytes", f(self.journal_bytes), "B");
        m.set("journal.flushes", f(self.journal_flushes), "count");
        m.set("journal.compactions", f(self.journal_compactions), "count");
        m.set(
            "journal.compactions_per_flush",
            ratio(f(self.journal_compactions), f(self.journal_flushes)),
            "frac",
        );
        m.set("client.rejects", f(self.client_rejects), "count");
        m.set("client.sync_fallbacks", f(self.sync_fallbacks), "count");
        m.set("apps.get_p99_us", f(self.get_p99_ns) / 1e3, "us");
        m.set("apps.set_p99_us", f(self.set_p99_ns) / 1e3, "us");
        m.set("apps.served", f(self.served), "count");
        m.set("op_samples", f(self.op_samples), "count");
        m
    }
}
