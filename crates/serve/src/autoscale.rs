//! Attestation-aware reactive autoscaling with graceful degradation.
//!
//! The paper prices confidential inference at steady state; this module
//! answers the transient question its cost story raises: **what does a
//! TEE scale-up actually cost when a flash crowd hits?** Every node an
//! autoscaler rents must pay the attested handshake plus the
//! weight-unseal copy through the platform's protected path *before it
//! serves a single token* — on SGX that is an EPC-paged walk over the
//! whole weight footprint. A pre-attested warm pool skips the toll at a
//! steady carrying cost; the break-even between the two is the headline
//! of the `flash_crowd` experiment.
//!
//! The driver is the fleet loop ([`crate::fleet`]) that also runs the
//! fixed cluster, plus a controller hook at each arrival. It adds:
//!
//! * **a dynamic fleet** — nodes progress through
//!   `ColdStart → Attesting → Unsealing → Serving → Draining → Retired`;
//!   a cold-started node joins routing only at its ready time, a
//!   draining node takes no new work and retires when idle, and both the
//!   cold-start downtime and the drain deadline are clamped to the
//!   horizon, like every outage;
//! * **tiered overload protection** — per-tier queue caps and staleness
//!   deadlines ([`TieredAdmission`]):
//!   free is shed first, premium last;
//! * **retry budgets with a storm circuit** —
//!   [`RetryStormGuard`](crate::router::RetryStormGuard) bounds both the
//!   per-request attempts and the fleet-wide retry rate, converting
//!   metastable retry storms into bounded aborts;
//! * **brownout** — [`Brownout`] degrades
//!   output-length caps before any request is shed;
//! * **billing** — rented lifetimes, warm-pool carrying cost and the
//!   base fleet are priced through [`cllm_cost::RentalBill`], yielding
//!   effective $/Mtok on *delivered* goodput.
//!
//! [`simulate_autoscale_traced`] records the same span and event
//! taxonomy as a traced cluster run, plus scale-up and drain events.
//! Everything is deterministic in the config's seeds: two runs are
//! byte-identical on any `CLLM_RUNNER_THREADS`.

use crate::cluster::NodeSpec;
use crate::faults::{FaultEvent, FaultPlan, FaultRates};
use crate::fleet::{least_loaded, node_scope, place, run_fleet, NodeState, Run};
use crate::kernel::KernelStats;
use crate::router::{
    AdmissionPolicy, BreakerConfig, Brownout, BrownoutConfig, RetryBudget, TieredAdmission,
};
use crate::sim::{RequestRecord, ServingConfig, ServingNode};
use crate::slo::{goodput_tps, percentile_or_zero, sorted};
use crate::workload::Request;
use cllm_cost::{RentalBill, SpillPenalty};
use cllm_obs::{SpanKind, Trace, TraceSink};
use cllm_tee::attestation::Measurement;
use cllm_tee::sealed::SealedBlob;
use cllm_tee::session::{enclave_respond, Verifier};
use cllm_workload::trace::{Tier, TraceRequest, TrafficModel};
use serde::{Deserialize, Serialize};

/// Template for the nodes the autoscaler rents on scale-up: identical
/// hardware, spot-class fault environment, and an hourly price.
#[derive(Debug, Clone)]
pub struct RentalSpec {
    /// The hardware + TEE each rented node serves on.
    pub node: ServingNode,
    /// Mean per-kind fault rates for each rented node's seeded stream.
    pub rates: FaultRates,
    /// Instance price, dollars/hour — accrues from rent to retirement,
    /// cold start included.
    pub price_per_hr: f64,
    /// Attested cold-start handshake time, seconds (nonce + DH + quote +
    /// HKDF against the verifier), paid before the weight unseal.
    pub attest_s: f64,
    /// Base seed; each rented node derives its fault schedule from it.
    pub seed: u64,
}

/// Reactive controller tuning. The controller runs at deterministic
/// sim-time ticks (driven by arrival dispatch, never wall clock) and
/// scales on aggregate queue backlog per serving node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Seconds between controller evaluations.
    pub control_interval_s: f64,
    /// Queued requests per serving node above which the controller rents.
    pub up_depth_per_node: f64,
    /// Queued requests per serving node below which a tick counts toward
    /// scale-down.
    pub down_depth_per_node: f64,
    /// Nodes rented per over-threshold tick.
    pub scale_up_step: usize,
    /// Maximum rented nodes alive at once (warm promotions included).
    pub max_rented: usize,
    /// Consecutive under-threshold ticks before one node is drained.
    pub scale_down_ticks: u32,
    /// Grace period a draining node gets to finish its running batch
    /// before the remainder is force-drained to the retry path, seconds.
    /// The deadline is clamped to the horizon.
    pub drain_window_s: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            control_interval_s: 5.0,
            up_depth_per_node: 8.0,
            down_depth_per_node: 1.0,
            scale_up_step: 1,
            max_rented: 8,
            scale_down_ticks: 3,
            drain_window_s: 20.0,
        }
    }
}

/// A complete autoscaling simulation configuration.
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Model, dtype, target, scheduler limits, KV policy and horizon.
    /// The embedded [`ServingConfig::arrivals`] process is **ignored** —
    /// arrivals come from [`AutoscaleConfig::traffic`].
    pub serving: ServingConfig,
    /// The generative tiered traffic the fleet faces.
    pub traffic: TrafficModel,
    /// Always-on reserved nodes (never drained, never billed as rental).
    /// Must be non-empty — the fleet needs somewhere to land retries.
    pub base_fleet: Vec<NodeSpec>,
    /// Hourly price of each base-fleet node (billed over the makespan).
    pub base_price_per_hr: f64,
    /// Template for scale-up rentals.
    pub rental: RentalSpec,
    /// Pre-attested standby nodes: promotion is instant (no handshake,
    /// no unseal), carried at [`RentalSpec::price_per_hr`] for the whole
    /// horizon whether or not they are ever promoted.
    pub warm_pool: usize,
    /// Controller tuning.
    pub controller: ControllerConfig,
    /// Per-tier queue caps, staleness deadlines and SLOs.
    pub tiers: TieredAdmission,
    /// Per-request retry budget and the global storm circuit.
    pub retry: RetryBudget,
    /// Optional brownout: degrade output length before shedding.
    pub brownout: Option<BrownoutConfig>,
    /// Circuit-breaker tuning (one breaker per node, rented included).
    pub breaker: BreakerConfig,
    /// Cost of failing a request over across platform classes.
    pub spill: SpillPenalty,
}

/// Per-tier slice of an [`AutoscaleReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TierReport {
    /// Requests of this tier that arrived.
    pub arrivals: usize,
    /// Requests of this tier that completed.
    pub completed: usize,
    /// Requests of this tier shed (front door, tier cap, or deadline).
    pub shed: usize,
    /// Requests of this tier aborted (retry budget or storm circuit).
    pub aborted: usize,
    /// Completions that met this tier's SLO.
    pub slo_met: usize,
}

impl TierReport {
    /// Degraded SLO attainment: completions meeting the tier's SLO over
    /// *arrivals*, so sheds and aborts count as misses. `1.0` when the
    /// tier saw no traffic.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        if self.arrivals == 0 {
            return 1.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.slo_met as f64 / self.arrivals as f64
        }
    }
}

/// The outcome of one autoscaling simulation. Conservation holds by
/// construction: `completed + aborted + shed == arrivals`. The default
/// is the report of a run with no traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AutoscaleReport {
    /// Requests the traffic model generated.
    pub arrivals: usize,
    /// Requests that completed on some node.
    pub completed: usize,
    /// Requests aborted by the retry budget or the storm circuit.
    pub aborted: usize,
    /// Requests shed: no eligible node, tier queue cap, or staleness
    /// deadline.
    pub shed: usize,
    /// Re-queue events across the fleet.
    pub retries: u64,
    /// Retries refused by the global storm circuit (each became an
    /// abort).
    pub storm_drops: u64,
    /// Failovers that crossed platform classes and paid the spill
    /// penalty.
    pub spills: u64,
    /// Scale-up decisions executed (cold starts + warm promotions).
    pub scale_ups: u64,
    /// Scale-ups served instantly from the warm pool.
    pub warm_promotions: u64,
    /// Scale-ups that paid the full attested handshake + weight unseal.
    pub cold_starts: u64,
    /// Scale-down drains initiated.
    pub scale_downs: u64,
    /// Total cold-start time paid (attest + unseal), horizon-clamped,
    /// seconds.
    pub cold_start_s: f64,
    /// Total weight-unseal time inside `cold_start_s`, seconds.
    pub unseal_s: f64,
    /// Brownout activations (0 when brownout is disabled).
    pub brownout_activations: u64,
    /// Output tokens trimmed by brownout caps.
    pub tokens_trimmed: u64,
    /// Wall time to drain the trace, seconds (max over node clocks).
    pub makespan_s: f64,
    /// Delivered tokens per second over the makespan.
    pub goodput_tps: f64,
    /// Tokens actually generated by completed requests.
    pub delivered_tokens: u64,
    /// Median time to first token, seconds (from original arrival).
    pub ttft_p50_s: f64,
    /// 99th-percentile time to first token, seconds.
    pub ttft_p99_s: f64,
    /// 99th-percentile TTFT over requests that *arrived inside a burst
    /// window* — the flash-crowd tail the autoscaler exists to protect.
    /// `0.0` when no completion arrived during a burst.
    pub ttft_p99_burst_s: f64,
    /// Per-tier outcomes, indexed free/standard/premium.
    pub tiers: [TierReport; 3],
    /// Rental bill over every rented node's clamped lifetime, dollars.
    pub rental_cost_usd: f64,
    /// Carrying cost of never-promoted warm standbys, dollars.
    pub warm_pool_cost_usd: f64,
    /// Base-fleet bill over the makespan, dollars.
    pub base_cost_usd: f64,
    /// `rental + warm pool + base`, dollars.
    pub total_cost_usd: f64,
    /// Effective dollars per million *delivered* tokens, attestation and
    /// carrying cost included. `0.0` when nothing was delivered.
    pub usd_per_mtok: f64,
    /// Per-request records (sorted by id).
    pub records: Vec<RequestRecord>,
}

/// Drive one *successful* cold-start secure boot through the real
/// attestation and sealing layers: a golden-measurement handshake must
/// verify, and a sealed weight-shard stand-in must round-trip under the
/// attested identity. The simulated *time* cost is
/// [`RentalSpec::attest_s`] plus
/// [`ServingNode::weight_unseal_time_s`]; this function is the fidelity
/// check that the boot the clock charges for actually works.
///
/// # Panics
///
/// Panics if the handshake or the unseal fails — a bug in the session
/// or sealing layer, not an injected fault.
pub fn cold_start_secure_boot(seed: u64) {
    let golden = Measurement([0x5E; 32]);
    let vseed = seed.to_be_bytes();
    let eseed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes();
    let (verifier, challenge) = Verifier::start(golden, b"hw-root", &vseed);
    let (response, _enclave_chan) = enclave_respond(b"hw-root", golden, 7, &challenge, &eseed)
        .expect("cold-start respond must succeed");
    verifier
        .finish(&response)
        .expect("cold-start handshake must verify");
    let shard = seed.to_le_bytes();
    let blob = SealedBlob::seal(b"hw-root", &golden, "weights-shard", &shard, &vseed);
    let out = blob
        .unseal(b"hw-root", &golden)
        .expect("weight shard must unseal under the attested identity");
    assert_eq!(out, shard, "unsealed weights must match what was sealed");
}

/// Run the deterministic autoscaling simulation.
///
/// # Panics
///
/// Panics if the base fleet is empty.
#[must_use]
pub fn simulate_autoscale(cfg: &AutoscaleConfig) -> AutoscaleReport {
    simulate_autoscale_stats(cfg).0
}

/// [`simulate_autoscale`] plus the kernel's event counters, for
/// throughput benchmarking (`serve_bench` divides
/// [`KernelStats::events`] by wall time).
///
/// # Panics
///
/// Panics if the base fleet is empty.
#[must_use]
pub fn simulate_autoscale_stats(cfg: &AutoscaleConfig) -> (AutoscaleReport, KernelStats) {
    run_autoscale(cfg, &mut TraceSink::disabled())
}

/// Traced twin of [`simulate_autoscale`]: byte-identical report (span
/// emission only reads node clocks), plus the recorded single-lane
/// [`Trace`]. Every node's timeline is tiled from t=0 out to the
/// makespan: a rental is idle (`unrented`) until it is rented, then out
/// (`cold-start`, or `warm-standby` for a promoted standby) until it is
/// ready, and a retired node idles out the rest. Scale-ups and drains
/// are events on the node they touch.
///
/// # Panics
///
/// Panics if the base fleet is empty.
#[must_use]
pub fn simulate_autoscale_traced(cfg: &AutoscaleConfig) -> (AutoscaleReport, Trace) {
    let mut sink = TraceSink::new();
    let (report, _) = run_autoscale(cfg, &mut sink);
    (report, sink.finish())
}

/// Per-request tiers and the per-tier outcome tally: which tier each
/// dense request id belongs to, its staleness deadline, and where each
/// request of the tier ended up.
pub(crate) struct TierBook {
    tier_of: Vec<Tier>,
    policy: TieredAdmission,
    out: [TierReport; 3],
}

impl TierBook {
    fn new(tier_of: Vec<Tier>, policy: TieredAdmission) -> Self {
        let mut out = [TierReport::default(); 3];
        for t in &tier_of {
            out[t.index()].arrivals += 1;
        }
        TierBook {
            tier_of,
            policy,
            out,
        }
    }

    fn tier(&self, id: u64) -> Tier {
        // infallible: request ids are dense trace indices (0..len)
        self.tier_of[usize::try_from(id).expect("dense id")]
    }

    /// How long request `id` may wait in a queue before it is shed.
    pub(crate) fn deadline_s(&self, id: u64) -> f64 {
        self.policy.policy(self.tier(id)).deadline_s
    }

    /// The outcome tally of request `id`'s tier.
    pub(crate) fn tally(&mut self, id: u64) -> &mut TierReport {
        &mut self.out[self.tier(id).index()]
    }

    pub(crate) fn complete(&mut self, id: u64, ttft_s: f64, tpot_s: f64) {
        let slo = self.policy.policy(self.tier(id)).slo;
        let out = self.tally(id);
        out.completed += 1;
        if ttft_s <= slo.ttft_s && tpot_s <= slo.tpot_s {
            out.slo_met += 1;
        }
    }
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn run_autoscale(cfg: &AutoscaleConfig, sink: &mut TraceSink) -> (AutoscaleReport, KernelStats) {
    assert!(!cfg.base_fleet.is_empty(), "autoscale needs a base fleet");
    let horizon_s = cfg.serving.duration_s;
    let trace: Vec<TraceRequest> = if horizon_s > 0.0 {
        cfg.traffic.generate(horizon_s)
    } else {
        Vec::new()
    };
    if trace.is_empty() {
        return (AutoscaleReport::default(), KernelStats::default());
    }
    let onsets = cfg.traffic.bursts.onsets(horizon_s);
    let pending = trace
        .iter()
        .map(|r| Request {
            id: r.id,
            arrival_s: r.arrival_s,
            prompt_tokens: r.prompt_tokens,
            output_tokens: r.output_tokens,
        })
        .collect();
    // The fleet: base nodes first (always ready), rentals appended live.
    let mut nodes: Vec<NodeState> = cfg
        .base_fleet
        .iter()
        .map(|spec| {
            NodeState::new(
                spec.node.clone(),
                &cfg.serving,
                cfg.breaker,
                spec.plan(horizon_s),
            )
        })
        .collect();
    let mut run = Run::new(&cfg.serving, cfg.spill, cfg.retry, trace.len(), sink);
    run.tiers = Some(TierBook::new(
        trace.iter().map(|r| r.tier).collect(),
        cfg.tiers,
    ));
    let mut scaler = Scaler::new(cfg);
    run_fleet(
        &mut run,
        &mut nodes,
        pending,
        AdmissionPolicy::unbounded(),
        true,
        Some(&mut scaler),
    );
    // Retire every node still draining (idle by construction once the
    // loop exits) and clamp never-ready rentals to the horizon. A gray
    // StuckDrain window wedges the drain: the node bills until the
    // window clears or its force-retire deadline, whichever is first.
    for n in nodes.iter_mut().filter(|n| !n.retired()) {
        if let Some(deadline_s) = n.drain_deadline_s {
            n.retired_at_s = Some(drain_retire_time(n.now, n.stuck_until_s, deadline_s));
        } else if let Some(at) = n.rented_at_s.filter(|_| n.ready_at_s >= horizon_s) {
            // Rented against a burst so late it never became ready: the
            // contract ends at the horizon, not at the phantom ready
            // time.
            n.retired_at_s = Some(horizon_s.max(at));
        }
    }

    let makespan_s = nodes.iter().map(|n| n.now).fold(0.0f64, f64::max);

    // Billing.
    let bill = RentalBill {
        price_per_hr: cfg.rental.price_per_hr,
    };
    let rental_cost_usd: f64 = nodes
        .iter()
        .filter_map(|n| {
            let end = n.retired_at_s.unwrap_or(makespan_s);
            Some(bill.node_cost_usd(end - n.rented_at_s?))
        })
        .sum();
    let warm_pool_cost_usd = bill.warm_pool_cost_usd(scaler.warm_available, horizon_s.max(0.0));
    let base_cost_usd = RentalBill {
        price_per_hr: cfg.base_price_per_hr,
    }
    .warm_pool_cost_usd(cfg.base_fleet.len(), makespan_s);
    let total_cost_usd = rental_cost_usd + warm_pool_cost_usd + base_cost_usd;

    let mut records = std::mem::take(&mut run.records);
    records.sort_by_key(|r| r.id);
    let delivered_tokens: u64 = nodes.iter().map(|n| n.useful_tokens).sum();
    let completed = records.len();
    let ttft = sorted(records.iter().map(|r| r.ttft_s).collect());
    // The burst tail is judged by *arrival* time; RequestRecord doesn't
    // carry it, so recover it from the trace by id.
    let in_burst = |t: f64| {
        onsets
            .iter()
            .any(|&o| t >= o && t < o + cfg.traffic.bursts.window_s)
    };
    let burst_ttft = sorted(
        records
            .iter()
            // infallible: request ids are dense trace indices (0..len)
            .filter(|r| in_burst(trace[usize::try_from(r.id).expect("dense id")].arrival_s))
            .map(|r| r.ttft_s)
            .collect(),
    );

    let usd_per_mtok = if delivered_tokens == 0 {
        0.0
    } else {
        total_cost_usd / (delivered_tokens as f64 / 1.0e6)
    };
    let report = AutoscaleReport {
        arrivals: trace.len(),
        completed,
        aborted: run.aborted,
        shed: run.rejected,
        retries: run.retries,
        storm_drops: run.guard.storm_drops,
        spills: run.spills,
        brownout_activations: scaler.brownout.as_ref().map_or(0, |b| b.activations),
        tokens_trimmed: scaler.brownout.as_ref().map_or(0, |b| b.tokens_trimmed),
        makespan_s,
        goodput_tps: goodput_tps(delivered_tokens, completed, makespan_s),
        delivered_tokens,
        ttft_p50_s: percentile_or_zero(&ttft, 0.50),
        ttft_p99_s: percentile_or_zero(&ttft, 0.99),
        ttft_p99_burst_s: percentile_or_zero(&burst_ttft, 0.99),
        // infallible: set above, before the loop
        tiers: run.tiers.as_ref().expect("autoscale runs keep tiers").out,
        rental_cost_usd,
        warm_pool_cost_usd,
        base_cost_usd,
        total_cost_usd,
        usd_per_mtok,
        records,
        ..scaler.ledger
    };
    #[cfg(debug_assertions)]
    crate::invariants::debug_assert_clean(
        "autoscale",
        &crate::invariants::check_autoscale(&report),
    );
    (report, run.stats)
}

/// What autoscaling adds to the fleet loop at each arrival — the
/// controller tick, brownout, and the tier queue cap — plus the ledger
/// of scale decisions it leaves behind.
pub(crate) struct Scaler<'c> {
    cfg: &'c AutoscaleConfig,
    brownout: Option<Brownout>,
    next_control_s: f64,
    low_ticks: u32,
    warm_available: usize,
    /// The report's scale-up, scale-down and cold-start fields, written
    /// as the decisions happen; every other field stays at its default.
    ledger: AutoscaleReport,
}

impl<'c> Scaler<'c> {
    fn new(cfg: &'c AutoscaleConfig) -> Self {
        Scaler {
            cfg,
            brownout: cfg.brownout.map(Brownout::new),
            next_control_s: 0.0,
            low_ticks: 0,
            warm_available: cfg.warm_pool,
            ledger: AutoscaleReport::default(),
        }
    }

    /// Arrival hook: run the controller when a tick is due
    /// (deterministic, sim-time driven), degrade the request's output
    /// length under brownout, then admit it only if its tier's
    /// fleet-wide queue is under the cap. `false` means shed it.
    pub(crate) fn admit(
        &mut self,
        r: &mut Request,
        nodes: &mut Vec<NodeState>,
        run: &mut Run<'_>,
    ) -> bool {
        let t = r.arrival_s;
        if t >= self.next_control_s {
            self.next_control_s = t + self.cfg.controller.control_interval_s;
            self.tick(nodes, t, run.sink);
        }
        if let Some(b) = self.brownout.as_mut() {
            if b.observe_depth(queued(nodes)) {
                r.output_tokens = b.cap_output(r.output_tokens);
            }
        }
        // infallible: autoscale runs always carry a tier book
        let tiers = run.tiers.as_ref().expect("autoscale runs keep tiers");
        let tier = tiers.tier(r.id);
        let tier_queued = nodes
            .iter()
            .filter(|n| !n.retired())
            .flat_map(|n| n.scheduler.queued_requests())
            .filter(|q| tiers.tier(q.id) == tier)
            .count();
        tier_queued < self.cfg.tiers.policy(tier).queue_cap
    }

    /// One controller evaluation at time `t`: scale up against backlog
    /// (warm promotion first, then cold rentals paying the real attested
    /// boot), scale down after sustained calm by draining the newest
    /// rental.
    #[allow(clippy::cast_precision_loss)]
    fn tick(&mut self, nodes: &mut Vec<NodeState>, t: f64, sink: &mut TraceSink) {
        let cfg = self.cfg;
        let horizon_s = cfg.serving.duration_s;
        let serving = nodes.iter().filter(|n| n.eligible(t)).count().max(1);
        let backlog_per_node = queued(nodes) as f64 / serving as f64;
        let rented_active = nodes
            .iter()
            .filter(|n| n.rented_at_s.is_some() && !n.retired() && n.drain_deadline_s.is_none())
            .count();

        if backlog_per_node > cfg.controller.up_depth_per_node {
            self.low_ticks = 0;
            for step in 0..cfg.controller.scale_up_step {
                if rented_active + step >= cfg.controller.max_rented {
                    break;
                }
                nodes.push(self.rent(nodes.len(), t, sink));
                self.ledger.scale_ups += 1;
            }
            return;
        }

        if backlog_per_node <= cfg.controller.down_depth_per_node && rented_active > 0 {
            self.low_ticks += 1;
            if self.low_ticks >= cfg.controller.scale_down_ticks {
                self.low_ticks = 0;
                self.ledger.scale_downs += 1;
                // Drain the newest active rental: stop routing to it, move
                // its queued work to the survivors, give the running batch a
                // horizon-clamped grace window.
                let victim = nodes
                    .iter()
                    .rposition(|n| n.rented_at_s.is_some() && n.eligible(t));
                if let Some(v) = victim {
                    sink.event(node_scope(v), "drain", t, String::new());
                    let deadline_s = (t + cfg.controller.drain_window_s).min(horizon_s);
                    nodes[v].drain_deadline_s = Some(deadline_s);
                    let moved = nodes[v].scheduler.shed(|_| true);
                    for r in moved {
                        // infallible: the base fleet never drains, so an eligible node always exists
                        let target = least_loaded(nodes, t).expect("base fleet is always eligible");
                        place(&mut nodes[target], target, r, t, sink);
                    }
                    let n = &mut nodes[v];
                    if n.scheduler.idle() {
                        // An idle victim retires on the spot — unless a
                        // gray StuckDrain window is wedging it, in which
                        // case it bills until the window clears or the
                        // force-retire deadline, whichever comes first.
                        n.retired_at_s =
                            Some(drain_retire_time(t.max(n.now), n.stuck_until_s, deadline_s));
                    }
                }
            }
        } else {
            self.low_ticks = 0;
        }
    }

    /// Rent fleet node `idx` at `t`: promote a warm standby if one is
    /// left, else cold-start one through the real attested boot. Its
    /// clock starts at the (horizon-clamped) ready time, and its trace
    /// timeline is tiled from 0: idle until rented, out until ready.
    fn rent(&mut self, idx: usize, t: f64, sink: &mut TraceSink) -> NodeState {
        let cfg = self.cfg;
        let horizon_s = cfg.serving.duration_s;
        let mut plan = FaultPlan::seeded(
            &cfg.rental.rates,
            horizon_s,
            cfg.rental.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let warm = self.warm_available > 0;
        let (ready_at_s, rented_at_s) = if warm {
            self.warm_available -= 1;
            self.ledger.warm_promotions += 1;
            // A promoted standby was attested and unsealed before the
            // horizon started; its carrying cost since t=0 is what
            // bought the instant readiness.
            (t, 0.0)
        } else {
            self.ledger.cold_starts += 1;
            cold_start_secure_boot(crate::fleet::hs_seed(idx, 0) ^ cfg.rental.seed);
            let unseal_s = cfg.rental.node.weight_unseal_time_s(&cfg.serving);
            let ready = t + cfg.rental.attest_s + unseal_s;
            // Horizon clamp: a scale-up in the last seconds cannot
            // charge cold-start time past the end of the run.
            let charged = (ready - t).min((horizon_s - t).max(0.0));
            self.ledger.cold_start_s += charged;
            self.ledger.unseal_s += unseal_s.min(charged);
            (ready, t)
        };
        plan.events.retain(|e: &FaultEvent| e.at_s >= ready_at_s);
        let mut n = NodeState::new(cfg.rental.node.clone(), &cfg.serving, cfg.breaker, plan);
        n.now = ready_at_s.min(horizon_s.max(0.0));
        n.downtime_s = (ready_at_s - rented_at_s).min((horizon_s - rented_at_s).max(0.0));
        n.ready_at_s = ready_at_s;
        n.rented_at_s = Some(rented_at_s);
        let scope = node_scope(idx);
        let boot = if warm { "warm-standby" } else { "cold-start" };
        sink.span_labeled(scope, SpanKind::Idle, 0.0, rented_at_s, Some("unrented"));
        sink.span_labeled(scope, SpanKind::Outage, rented_at_s, n.now, Some(boot));
        sink.event_fmt(scope, "scale-up", t, || boot.to_string());
        n
    }
}

/// Requests queued across the live fleet.
fn queued(nodes: &[NodeState]) -> usize {
    nodes
        .iter()
        .filter(|n| !n.retired())
        .map(|n| n.scheduler.queued())
        .sum()
}

/// When a draining node goes idle at `now`, the time at which it can
/// actually retire: immediately when no stuck-drain window is active,
/// at the window's end if the window clears before the drain deadline,
/// or force-retired at the deadline when the drain stays wedged past
/// it. Never earlier than `now`, so clocks only move forward.
pub(crate) fn drain_retire_time(now: f64, stuck_until_s: f64, deadline_s: f64) -> f64 {
    if now >= stuck_until_s {
        now
    } else {
        stuck_until_s.min(deadline_s).max(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cllm_tee::platform::CpuTeeConfig;
    use cllm_workload::trace::LognormalLen;

    fn tdx_serving_node() -> ServingNode {
        ServingNode::Cpu {
            tee: CpuTeeConfig::tdx(),
        }
    }

    /// Flash-crowd traffic with test-sized lengths so runs stay fast.
    /// Production burst cadence is ~30/hr; a 30 s test window needs a
    /// far denser schedule to see any burst at all.
    fn small_traffic(rate: f64, multiplier: f64, seed: u64) -> TrafficModel {
        let mut t = TrafficModel::flash_crowd(rate, multiplier, seed);
        t.bursts.bursts_per_hr = 360.0;
        t.bursts.window_s = 10.0;
        t.prompt = LognormalLen {
            mu_ln: 3.5,
            sigma_ln: 0.5,
            min_tokens: 16,
            max_tokens: 128,
        };
        t.output = LognormalLen {
            mu_ln: 2.5,
            sigma_ln: 0.4,
            min_tokens: 4,
            max_tokens: 32,
        };
        t
    }

    fn quiet_base(seed: u64) -> NodeSpec {
        NodeSpec::new(tdx_serving_node(), false, FaultRates::none(), seed)
    }

    fn base_cfg(traffic: TrafficModel) -> AutoscaleConfig {
        AutoscaleConfig {
            serving: ServingConfig::small_test(),
            traffic,
            base_fleet: vec![quiet_base(1)],
            base_price_per_hr: 3.0,
            rental: RentalSpec {
                node: tdx_serving_node(),
                rates: FaultRates::none(),
                price_per_hr: 4.0,
                attest_s: 0.5,
                seed: 77,
            },
            warm_pool: 0,
            controller: ControllerConfig {
                control_interval_s: 1.0,
                ..ControllerConfig::default()
            },
            tiers: TieredAdmission::default(),
            retry: RetryBudget::default(),
            brownout: None,
            breaker: BreakerConfig::default(),
            spill: SpillPenalty::cross_platform(),
        }
    }

    #[test]
    fn flash_crowd_scales_up_and_conserves() {
        let cfg = base_cfg(small_traffic(4.0, 10.0, 3));
        let r = simulate_autoscale(&cfg);
        assert!(r.arrivals > 0);
        assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
        assert!(r.scale_ups >= 1, "a 10x burst on one node must scale up");
        assert_eq!(r.cold_starts, r.scale_ups, "no warm pool: all cold");
        assert!(r.cold_start_s > 0.0 && r.unseal_s > 0.0);
        assert!(r.rental_cost_usd > 0.0);
        assert!((r.warm_pool_cost_usd - 0.0).abs() < 1e-12);
        assert!(r.total_cost_usd > r.base_cost_usd);
        let tier_arrivals: usize = r.tiers.iter().map(|t| t.arrivals).sum();
        assert_eq!(tier_arrivals, r.arrivals);
        assert!(r.usd_per_mtok > 0.0);
    }

    #[test]
    fn autoscale_runs_are_deterministic() {
        let cfg = base_cfg(small_traffic(4.0, 10.0, 9));
        let a = simulate_autoscale(&cfg);
        let b = simulate_autoscale(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn warm_pool_skips_the_cold_start_toll() {
        let cold = simulate_autoscale(&base_cfg(small_traffic(4.0, 10.0, 3)));
        let mut warm_cfg = base_cfg(small_traffic(4.0, 10.0, 3));
        warm_cfg.warm_pool = warm_cfg.controller.max_rented;
        let warm = simulate_autoscale(&warm_cfg);
        assert!(warm.warm_promotions >= 1, "the burst must promote standbys");
        assert_eq!(warm.cold_starts, 0, "pool covers max_rented: never cold");
        assert!((warm.cold_start_s - 0.0).abs() < 1e-12);
        assert!(warm.warm_pool_cost_usd > 0.0, "standbys carry a cost");
        assert!(cold.cold_starts >= 1 && cold.cold_start_s > 0.0);
    }

    #[test]
    fn calm_traffic_on_base_fleet_never_rents() {
        let mut t = small_traffic(0.4, 1.0, 5);
        t.bursts = cllm_workload::trace::BurstModel::none();
        let r = simulate_autoscale(&base_cfg(t));
        assert!(r.arrivals > 0);
        assert_eq!(r.completed, r.arrivals, "a calm trace completes fully");
        assert_eq!(r.scale_ups + r.cold_starts + r.scale_downs, 0);
        assert!((r.rental_cost_usd + r.warm_pool_cost_usd).abs() < 1e-12);
        assert!(r.base_cost_usd > 0.0);
    }

    #[test]
    fn premium_outlives_free_under_shedding() {
        // Heavy overload on a fixed fleet (no rentals): the tier table
        // must shed free traffic before premium.
        let mut cfg = base_cfg(small_traffic(12.0, 6.0, 7));
        cfg.controller.max_rented = 0;
        cfg.tiers.policy_mut(Tier::Free).queue_cap = 8;
        let r = simulate_autoscale(&cfg);
        assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
        assert!(r.shed > 0, "overload on one node must shed");
        let frac = |t: &TierReport| {
            if t.arrivals == 0 {
                1.0
            } else {
                t.completed as f64 / t.arrivals as f64
            }
        };
        let free = &r.tiers[Tier::Free.index()];
        let premium = &r.tiers[Tier::Premium.index()];
        assert!(free.shed > 0, "free is the first tier to shed");
        assert!(
            frac(premium) >= frac(free),
            "premium completion fraction ({}) must not fall below free ({})",
            frac(premium),
            frac(free)
        );
    }

    #[test]
    fn brownout_trims_output_before_shedding() {
        let mut cfg = base_cfg(small_traffic(10.0, 8.0, 11));
        cfg.controller.max_rented = 0;
        cfg.brownout = Some(BrownoutConfig {
            enter_depth: 8,
            exit_depth: 2,
            output_cap_tokens: 8,
        });
        let r = simulate_autoscale(&cfg);
        assert!(r.brownout_activations >= 1, "overload must trip brownout");
        assert!(r.tokens_trimmed > 0, "brownout must trim output budgets");
        assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
    }

    #[test]
    fn cold_start_charge_clamps_to_horizon() {
        // Direct controller regression: a scale-up in the run's final
        // second cannot charge the full attest+unseal time, and the
        // rented node's clock parks at the horizon, not at its phantom
        // ready time.
        let cfg = base_cfg(small_traffic(4.0, 10.0, 3));
        let horizon_s = cfg.serving.duration_s;
        let boot_s = cfg.rental.attest_s + cfg.rental.node.weight_unseal_time_s(&cfg.serving);
        assert!(boot_s > 0.3, "fixture needs a boot longer than the window");
        let mut nodes = vec![NodeState::new(
            tdx_serving_node(),
            &cfg.serving,
            cfg.breaker,
            FaultPlan::seeded(&FaultRates::none(), horizon_s, 1),
        )];
        let t = horizon_s - 0.5;
        for id in 0..32 {
            nodes[0].scheduler.enqueue_at(
                Request {
                    id,
                    arrival_s: t,
                    prompt_tokens: 32,
                    output_tokens: 8,
                },
                t,
            );
        }
        let mut scaler = Scaler::new(&cfg);
        scaler.tick(&mut nodes, t, &mut TraceSink::disabled());
        let (colds, cold_s) = (scaler.ledger.cold_starts, scaler.ledger.cold_start_s);
        assert_eq!(colds, 1);
        assert!(
            cold_s <= 0.5 + 1e-12,
            "cold-start charge {cold_s} must clamp to the {} s left",
            0.5
        );
        assert!(
            cold_s < boot_s,
            "regression: unclamped charge leaked through"
        );
        let rented = &nodes[1];
        assert!(
            rented.ready_at_s > horizon_s,
            "this boot cannot finish in time"
        );
        assert!(
            rented.now <= horizon_s + 1e-12,
            "a never-ready node's clock must park at the horizon"
        );
        assert!(rented.downtime_s <= 0.5 + 1e-12);
    }

    #[test]
    fn drain_deadline_clamps_to_horizon() {
        // Direct controller regression: an absurd drain window cannot
        // push the force-drain deadline past the end of the run.
        let mut cfg = base_cfg(small_traffic(4.0, 10.0, 3));
        cfg.controller.scale_down_ticks = 1;
        cfg.controller.drain_window_s = 1.0e9;
        let horizon_s = cfg.serving.duration_s;
        let mk = |rented: bool| {
            let mut n = NodeState::new(
                tdx_serving_node(),
                &cfg.serving,
                cfg.breaker,
                FaultPlan::seeded(&FaultRates::none(), horizon_s, 1),
            );
            n.rented_at_s = rented.then_some(0.0);
            n
        };
        let mut nodes = vec![mk(false), mk(true)];
        // Keep the rental busy so it drains instead of retiring on the
        // spot (the deadline only exists for in-flight work).
        nodes[1].scheduler.enqueue_at(
            Request {
                id: 0,
                arrival_s: 0.0,
                prompt_tokens: 32,
                output_tokens: 8,
            },
            0.0,
        );
        let _ = nodes[1]
            .scheduler
            .admit_any(&cfg.serving.model, cfg.serving.dtype, 0.0);
        let t = horizon_s - 2.0;
        let mut scaler = Scaler::new(&cfg);
        scaler.tick(&mut nodes, t, &mut TraceSink::disabled());
        assert_eq!(
            scaler.ledger.scale_downs, 1,
            "one calm tick at scale_down_ticks=1 must drain"
        );
        let deadline_s = nodes[1].drain_deadline_s.expect("the rental drains");
        assert!(
            deadline_s <= horizon_s + 1e-12,
            "regression: drain deadline {deadline_s} leaked past the horizon {horizon_s}"
        );
    }

    #[test]
    fn stuck_drain_defers_retirement_to_the_deadline() {
        // No active window: retire on the spot.
        assert!((drain_retire_time(10.0, 5.0, 20.0) - 10.0).abs() < 1e-12);
        // Window clears before the deadline: retire when it clears.
        assert!((drain_retire_time(10.0, 15.0, 20.0) - 15.0).abs() < 1e-12);
        // Window outlives the deadline: force-retire at the deadline.
        assert!((drain_retire_time(10.0, 1.0e9, 20.0) - 20.0).abs() < 1e-12);
        // Clocks never move backward, even past a stale deadline.
        assert!((drain_retire_time(25.0, 1.0e9, 20.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn degraded_base_fleet_slows_but_conserves() {
        let mk = |rates: FaultRates| {
            let mut t = small_traffic(0.6, 1.0, 5);
            t.bursts = cllm_workload::trace::BurstModel::none();
            let mut cfg = base_cfg(t);
            cfg.base_fleet = vec![NodeSpec::new(tdx_serving_node(), false, rates, 1)];
            cfg
        };
        let clean = simulate_autoscale(&mk(FaultRates::none()));
        let gray = simulate_autoscale(&mk(FaultRates {
            degraded_windows_per_hr: 1200.0,
            ..FaultRates::none()
        }));
        assert_eq!(gray.arrivals, clean.arrivals, "traffic is fault-blind");
        assert_eq!(gray.completed + gray.aborted + gray.shed, gray.arrivals);
        assert!(
            gray.makespan_s > clean.makespan_s,
            "dense derate windows must slow the fleet: {} vs {}",
            gray.makespan_s,
            clean.makespan_s
        );
    }

    #[test]
    fn stuck_drain_rentals_bill_through_the_wedged_drain() {
        let mk = |stuck_per_hr: f64| {
            let mut cfg = base_cfg(small_traffic(4.0, 10.0, 3));
            cfg.controller.scale_down_ticks = 1;
            cfg.rental.rates = FaultRates {
                stuck_drains_per_hr: stuck_per_hr,
                ..FaultRates::none()
            };
            cfg
        };
        let clean = simulate_autoscale(&mk(0.0));
        let stuck = simulate_autoscale(&mk(3600.0));
        assert!(
            clean.scale_downs >= 1,
            "this trace must scale down for the wedge to bite"
        );
        assert_eq!(stuck.arrivals, clean.arrivals);
        assert_eq!(stuck.completed + stuck.aborted + stuck.shed, stuck.arrivals);
        assert!(
            stuck.rental_cost_usd > clean.rental_cost_usd,
            "a wedged drain keeps renting until its deadline: {} vs {}",
            stuck.rental_cost_usd,
            clean.rental_cost_usd
        );
    }

    fn storm_cfg(retry: RetryBudget) -> AutoscaleConfig {
        let mut cfg = base_cfg(small_traffic(3.0, 1.0, 5));
        // Long decodes keep requests in flight across several crash
        // intervals, so attempts actually accumulate past the budget;
        // long prompts make every requeue pay a real prefill, which is
        // the capacity the storm burns.
        cfg.traffic.prompt = LognormalLen {
            mu_ln: 6.5,
            sigma_ln: 0.3,
            min_tokens: 512,
            max_tokens: 2048,
        };
        cfg.traffic.output = LognormalLen {
            mu_ln: 4.2,
            sigma_ln: 0.3,
            min_tokens: 48,
            max_tokens: 192,
        };
        // Patient tiers: without deadlines shedding stale victims, the
        // retry policy is the only thing standing between a crash-heavy
        // fleet and a metastable requeue storm.
        for tier in Tier::ALL {
            cfg.tiers.policy_mut(tier).deadline_s = 15.0;
            cfg.tiers.policy_mut(tier).queue_cap = usize::MAX;
        }
        // A crash-heavy fixed fleet: no rentals, so the retry policy is
        // the only lever under test.
        cfg.controller.max_rented = 0;
        // Pure state-destroying crashes: every fault drains the running
        // batch into the retry path, which is exactly the storm the
        // budget exists to bound.
        let rates = FaultRates {
            enclave_crashes_per_hr: 900.0,
            ..FaultRates::none()
        };
        cfg.base_fleet = vec![
            NodeSpec::new(tdx_serving_node(), true, rates, 21),
            NodeSpec::new(tdx_serving_node(), true, rates, 22),
        ];
        cfg.retry = retry;
        cfg
    }

    #[test]
    fn retry_budget_bounds_the_storm() {
        let budget = RetryBudget {
            per_request: 2,
            storm_window_s: 10.0,
            storm_max_retries: 16,
        };
        let budgeted = simulate_autoscale(&storm_cfg(budget));
        let unbudgeted = simulate_autoscale(&storm_cfg(RetryBudget::unbudgeted()));
        for r in [&budgeted, &unbudgeted] {
            assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
        }
        assert!(
            budgeted
                .records
                .iter()
                .all(|r| r.retries <= budget.per_request),
            "no completed request may exceed the per-request budget"
        );
        assert!(budgeted.aborted > 0, "the budget must bind in this storm");
        assert!(
            budgeted.storm_drops > 0,
            "the global circuit must trip in this storm"
        );
        assert!(
            budgeted.retries < unbudgeted.retries,
            "the budget must cut retry volume ({} vs {})",
            budgeted.retries,
            unbudgeted.retries
        );
        // Service availability: the fraction of arrivals the fleet
        // accepted and worked on (sheds are refusals). Unbounded retries
        // churn reattest + long prefills through the queues, starving
        // fresh arrivals into deadline sheds — the budget converts that
        // amplification into a few bounded aborts and keeps the front
        // door open.
        let availability = |r: &AutoscaleReport| 1.0 - r.shed as f64 / r.arrivals as f64;
        assert!(
            availability(&budgeted) > availability(&unbudgeted),
            "bounded retries must keep availability above the storm ({} vs {})",
            availability(&budgeted),
            availability(&unbudgeted)
        );
    }

    #[test]
    fn tier_caps_shed_at_the_front_door() {
        let mut cfg = base_cfg(small_traffic(12.0, 6.0, 13));
        cfg.controller.max_rented = 0;
        cfg.tiers.policy_mut(Tier::Free).queue_cap = 1;
        let r = simulate_autoscale(&cfg);
        assert!(r.tiers[Tier::Free.index()].shed > 0, "cap of 1 must shed");
        assert_eq!(r.completed + r.aborted + r.shed, r.arrivals);
    }
}
