//! Service configuration.

use std::rc::Rc;

use copier_hw::VerifyPolicy;
use copier_sim::{FaultPlan, Nanos, Tracer};

use crate::descriptor::DEFAULT_SEGMENT;
use crate::sched::DEFAULT_COPY_SLICE;

/// How the Copier threads poll client queues (§4.5.1). Either mode runs
/// at any shard count: idleness is agreed at the round barrier, so the
/// threads spin down and park together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollMode {
    /// NAPI-like adaptive polling: spin for a budget of idle
    /// generations, then park until awakened or the timeout elapses.
    Napi {
        /// Consecutive idle sweeps before parking.
        spin_rounds: u32,
        /// Maximum park duration before a defensive re-poll.
        park_timeout: Nanos,
    },
    /// Scenario-driven (the smartphone mode, §5.3): threads run only while
    /// a target scenario is active and sleep otherwise; inside a scenario
    /// they park after a few idle generations until awakened.
    ScenarioDriven,
}

/// Per-client quotas and global watermarks for admission control.
///
/// Submissions past quota are rejected with [`crate::CopyFault::Overloaded`]
/// instead of silently queued; the matching client-side mechanism is the
/// credit pool carried on the completion path (`copier-client`).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Per-client in-flight descriptor quota — also the size of the
    /// client's submission-credit pool.
    pub max_client_tasks: u64,
    /// Per-client in-flight byte quota.
    pub max_client_bytes: u64,
    /// Per-client pinned-frame quota: past it, the client's tasks are
    /// deferred (not shed) until completions release pins.
    pub max_client_pinned: u64,
    /// Global windowed-byte high watermark: above it the service sheds
    /// submissions priority-aware (the least-served client is exempt).
    pub global_high_bytes: u64,
    /// Global low watermark: shedding stops once the window drains to it.
    pub global_low_bytes: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_client_tasks: 1024,
            max_client_bytes: 64 * 1024 * 1024,
            max_client_pinned: 16 * 1024,
            global_high_bytes: 256 * 1024 * 1024,
            global_low_bytes: 192 * 1024 * 1024,
        }
    }
}

/// Tunables of a [`crate::service::Copier`] instance.
#[derive(Debug, Clone)]
pub struct CopierConfig {
    /// Slots per CSH ring.
    pub queue_cap: usize,
    /// Default segment granularity for descriptors.
    pub segment: usize,
    /// How long lazy/deferred obligations may linger before execution.
    pub lazy_period: Nanos,
    /// Enable copy absorption (§4.4).
    pub absorption: bool,
    /// Attach the DMA engine (§4.3).
    pub use_dma: bool,
    /// Independent DMA channels (quarantine granularity; ≥ 1).
    pub dma_channels: usize,
    /// Deterministic fault-injection oracle consulted by the DMA engine
    /// (per descriptor) and the ATCache path (per hit). `None` disables
    /// injection entirely.
    pub fault_plan: Option<Rc<FaultPlan>>,
    /// ATCache entries (0 disables the cache).
    pub atcache_capacity: usize,
    /// Polling behavior (see [`PollMode`]).
    pub polling: PollMode,
    /// Maximum bytes served per scheduling decision.
    pub copy_slice: usize,
    /// Enable thread auto-scaling (§4.5.1): the last arriver at each
    /// round barrier sets the number of active service threads k in
    /// `1..=shards` from the summed pending-byte load, and thread t
    /// serves the shards `{h : h mod k = t}`. Off, k = `shards`. With
    /// one shard there is nothing to scale.
    pub auto_scale: bool,
    /// Pending-byte load below which a thread is put to sleep.
    pub low_load: usize,
    /// Pending-byte load above which another thread is woken.
    pub high_load: usize,
    /// Copier-core time charged per drained queue entry.
    pub drain_cost: Nanos,
    /// Scheduler latency to wake a parked Copier thread (kthread wakeup).
    pub wake_latency: Nanos,
    /// Settle window after draining new tasks before scheduling: lets a
    /// burst of submissions land in the same window, enabling e-piggyback
    /// fusing and copy absorption across adjacent tasks (§4.3, §4.4).
    pub aggregation_delay: Nanos,
    /// Admission-control quotas and watermarks.
    pub admission: AdmissionConfig,
    /// Record/replay hook (DESIGN.md §14): the service emits its round
    /// structure, drain/admission/scheduling decisions, and state hashes
    /// into this tracer, and in replay mode is checked against it in
    /// lockstep. Recording is host-side only — virtual-time behaviour is
    /// identical with or without it. `None` disables tracing.
    pub tracer: Option<Rc<Tracer>>,
    /// Control-plane journal store (DESIGN.md §15). When set, the service
    /// journals admissions/completions/taints into it and, on
    /// construction, replays whatever a previous incarnation left there —
    /// the crash-recovery path. Journaling is host-side only: no virtual
    /// time is charged and no PRNG draw is consumed, so a crash-free
    /// journaled run is byte-identical to an unjournaled one. `None`
    /// disables journaling (and recovery).
    pub journal: Option<Rc<crate::journal::JournalStore>>,
    /// End-to-end verification policy (§integrity). `Off` charges nothing
    /// and detects nothing; `Sampled` digests head+tail of each dispatched
    /// extent; `Full` digests every byte. Detection fires bounded repair,
    /// then [`crate::CopyFault::Corrupted`]. Host-side only: no virtual
    /// time is charged, so an uncorrupted run's virtual timeline is
    /// byte-identical across policies.
    pub verify: VerifyPolicy,
    /// Maximum automatic re-copy attempts after a verification mismatch
    /// before the task is poisoned `Corrupted`.
    pub repair_limit: u32,
    /// Verification failures attributed to a DMA channel before it is
    /// quarantined like a hard death (0 disables corruption quarantine).
    pub corrupt_quarantine_threshold: u32,
    /// Page-sampling stride for journal admission digests
    /// (`extent_digest_stride`): 0 keeps the legacy head+tail digest
    /// (cheapest, blind to mid-extent damage), 1 folds every page (full
    /// coverage, O(len)), k ≥ 2 folds head, tail, and every k-th page
    /// (O(len/k), catches damage runs ≥ k pages). Torn-write detection at
    /// recovery inherits this coverage/cost trade-off.
    pub admit_digest_stride: usize,
    /// Scrubber cadence: one registered chunk is re-digested every this
    /// many scheduling rounds (0 disables the scrubber walk).
    pub scrub_period: u64,
    /// Number of control-plane shards (DESIGN.md §17). Clients are
    /// partitioned across the shards by a deterministic hash of their
    /// address-space id, and one service thread runs per shard on its
    /// own core (`cores.len() >= shards`; spare cores stay free). Every
    /// shard count runs the same round loop: shards coordinate
    /// admission, fairness and auto-scaling through a deterministic
    /// round barrier, so runs stay bit-reproducible from a seed at any
    /// shard count. The default, 1, is a barrier of one.
    pub shards: usize,
}

impl Default for CopierConfig {
    fn default() -> Self {
        CopierConfig {
            queue_cap: 1024,
            segment: DEFAULT_SEGMENT,
            lazy_period: Nanos::from_micros(50),
            absorption: true,
            use_dma: true,
            dma_channels: 1,
            fault_plan: None,
            atcache_capacity: 256,
            polling: PollMode::Napi {
                // SQPOLL-style idle budget (~160 µs of spinning) before
                // parking; keeps the service hot across request gaps.
                spin_rounds: 2048,
                park_timeout: Nanos::from_micros(100),
            },
            copy_slice: DEFAULT_COPY_SLICE,
            auto_scale: false,
            low_load: 16 * 1024,
            high_load: 1024 * 1024,
            drain_cost: Nanos(25),
            wake_latency: Nanos(700),
            aggregation_delay: Nanos(150),
            admission: AdmissionConfig::default(),
            tracer: None,
            journal: None,
            verify: VerifyPolicy::Off,
            repair_limit: 2,
            corrupt_quarantine_threshold: 2,
            admit_digest_stride: 0,
            scrub_period: 64,
            shards: 1,
        }
    }
}
