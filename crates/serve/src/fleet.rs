//! The fleet loop, and the node step and fault path every driver shares.
//!
//! `run_fleet` drives a set of `NodeState`s with node-local clocks
//! behind a least-loaded router: it either dispatches the globally next
//! arrival or retry, or advances the runnable node with the smallest
//! clock (ties to the lower id) by one iteration, whichever is earlier.
//! A **fixed cluster** ([`crate::cluster`]) is the fleet whose nodes are
//! all ready at t=0 and never drain, with the [`RetryStormGuard`]'s
//! storm circuit off. **Autoscaling** ([`crate::autoscale`]) adds a
//! `Scaler` at each arrival and the full retry budget.
//!
//! The single-node loop ([`crate::sim`]) keeps its own outer loop but
//! shares `Run::step_node` (admit → re-attest, requant and prefill, or
//! swap-in → page-pressure prep → decode step → completions and breaker
//! close) and `Run::apply_due_faults`, whose crash victims go through
//! `Run::evict` — as do a drain's forced evictions.

use crate::autoscale::{drain_retire_time, Scaler, TierBook};
use crate::faults::{attested_rehandshake_phased, FaultKind, FaultPlan};
use crate::kernel::{EventQueue, KernelStats, RequestSlab};
use crate::router::{
    AdmissionPolicy, BreakerConfig, BreakerState, CircuitBreaker, RetryBudget, RetryStormGuard,
};
use crate::scheduler::{ActiveRequest, Admission, ContinuousBatcher};
use crate::sim::{RequestRecord, ServingConfig, ServingNode};
use crate::workload::Request;
use cllm_cost::SpillPenalty;
use cllm_obs::{Scope, SpanKind, TraceSink};
use cllm_workload::kv;
use std::collections::VecDeque;

/// Trace scope for the fleet's `i`-th node.
pub(crate) fn node_scope(i: usize) -> Scope {
    Scope::Node(u32::try_from(i).unwrap_or(u32::MAX))
}

/// Handshake seed unique per (node, sequence) so every re-attestation
/// drives a distinct, deterministic session transcript.
pub(crate) fn hs_seed(node_idx: usize, seq: u64) -> u64 {
    ((node_idx as u64) << 32) ^ seq
}

/// A crash victim waiting out its backoff before re-routing. Its
/// eligibility instant lives in the kernel event queue (the entry's
/// `time`), not in the payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Retry {
    pub(crate) request: Request,
    pub(crate) origin: usize,
}

/// Live state of one node: scheduler, breaker, fault schedule and clock,
/// its accounting, and where it stands in the autoscaler's lifecycle
/// (`ColdStart → Serving → Draining → Retired`). A node that is never
/// rented is ready at t=0 and never drains.
pub(crate) struct NodeState {
    pub(crate) node: ServingNode,
    pub(crate) scheduler: ContinuousBatcher,
    pub(crate) breaker: CircuitBreaker,
    /// The breaker position last written to the trace.
    breaker_seen: BreakerState,
    pub(crate) plan: FaultPlan,
    pub(crate) next_event: usize,
    pub(crate) now: f64,
    pub(crate) downtime_s: f64,
    pub(crate) handshake_seq: u64,
    pub(crate) useful_tokens: u64,
    pub(crate) completed: usize,
    /// This node's protected KV residency budget (weights already
    /// subtracted); resident pages past it price the per-step stall.
    pub(crate) kv_budget_bytes: f64,
    /// Sequences this node evicted on page-pool pressure.
    pub(crate) preemptions: u64,
    /// KV bytes this node paged out (swap policy).
    pub(crate) swap_out_bytes: f64,
    /// KV bytes this node paged back in on readmission.
    pub(crate) swap_in_bytes: f64,
    /// End of the latest gray [`FaultKind::DegradedThroughput`] window
    /// (horizon-clamped): decode steps starting before it are derated.
    pub(crate) derate_until_s: f64,
    /// End of the latest gray [`FaultKind::StuckDrain`] window
    /// (horizon-clamped). Only a draining node reads it.
    pub(crate) stuck_until_s: f64,
    /// When the node may first take work (cold start done).
    pub(crate) ready_at_s: f64,
    /// When rent started accruing; `None` unless the node is a rental.
    pub(crate) rented_at_s: Option<f64>,
    /// A draining node's force-drain deadline.
    pub(crate) drain_deadline_s: Option<f64>,
    /// When a retired node stopped billing.
    pub(crate) retired_at_s: Option<f64>,
}

impl NodeState {
    /// A node ready at t=0 that never drains, on `serving`'s scheduler
    /// limits and KV policy.
    pub(crate) fn new(
        node: ServingNode,
        serving: &ServingConfig,
        breaker: BreakerConfig,
        plan: FaultPlan,
    ) -> Self {
        NodeState {
            kv_budget_bytes: node.kv_residency_budget_bytes(serving),
            node,
            scheduler: ContinuousBatcher::configured(serving.limits, serving.kv),
            breaker: CircuitBreaker::new(breaker),
            breaker_seen: BreakerState::Closed,
            plan,
            next_event: 0,
            now: 0.0,
            downtime_s: 0.0,
            handshake_seq: 0,
            useful_tokens: 0,
            completed: 0,
            preemptions: 0,
            swap_out_bytes: 0.0,
            swap_in_bytes: 0.0,
            derate_until_s: 0.0,
            stuck_until_s: 0.0,
            ready_at_s: 0.0,
            rented_at_s: None,
            drain_deadline_s: None,
            retired_at_s: None,
        }
    }

    pub(crate) fn depth(&self) -> usize {
        self.scheduler.queued() + self.scheduler.running().len()
    }

    pub(crate) fn is_gpu(&self) -> bool {
        matches!(self.node, ServingNode::Gpu { .. })
    }

    pub(crate) fn retired(&self) -> bool {
        self.retired_at_s.is_some()
    }

    /// Whether the router may consider this node at time `t`.
    pub(crate) fn eligible(&self, t: f64) -> bool {
        !self.retired() && self.drain_deadline_s.is_none() && self.ready_at_s <= t
    }

    /// Emit a breaker-transition event iff the breaker moved since the
    /// last observation.
    fn note_breaker(&mut self, i: usize, sink: &mut TraceSink, t: f64) {
        let s = self.breaker.state();
        if self.breaker_seen != s {
            self.breaker_seen = s;
            let name = match s {
                BreakerState::Closed => "breaker-close",
                BreakerState::Open => "breaker-open",
                BreakerState::HalfOpen => "breaker-halfopen",
            };
            sink.event(node_scope(i), name, t, String::new());
        }
    }

    /// Hold the node down for `dur_s`: the clock and downtime advance
    /// together under one labeled outage span.
    fn outage(&mut self, i: usize, dur_s: f64, label: &'static str, sink: &mut TraceSink) {
        let t0 = self.now;
        self.now += dur_s;
        self.downtime_s += dur_s;
        sink.span_labeled(node_scope(i), SpanKind::Outage, t0, self.now, Some(label));
    }

    /// Re-attest through the real session layer — a fail-then-recover
    /// handshake — while the node is held down for `dur_s`.
    fn reattest(&mut self, i: usize, dur_s: f64, label: &'static str, sink: &mut TraceSink) {
        self.handshake_seq += 1;
        let t0 = self.now;
        attested_rehandshake_phased(hs_seed(i, self.handshake_seq), &mut |phase| {
            sink.event_fmt(node_scope(i), "handshake", t0, || phase.label().to_string());
        })
        // infallible: simulated attestation over an in-process channel cannot fail; crashes charge recovery time, not handshake errors
        .expect("re-handshake must recover the session");
        self.outage(i, dur_s, label, sink);
    }
}

/// Route one request onto a node, waking an idle node's clock forward to
/// the dispatch time (clocks never run backward).
pub(crate) fn place(n: &mut NodeState, idx: usize, request: Request, t: f64, sink: &mut TraceSink) {
    if n.scheduler.idle() && t > n.now {
        sink.span(node_scope(idx), SpanKind::Idle, n.now, t);
        n.now = t;
    }
    n.scheduler.enqueue_at(request, t);
}

/// Everything one run threads through the node step and the fault path:
/// the shared config, the per-request slab, the retry queue and guard,
/// the kernel counters, the outcome tallies and the trace sink.
pub(crate) struct Run<'a> {
    serving: &'a ServingConfig,
    spill: SpillPenalty,
    /// Bytes of KV per token and per page: the pressure pricing inputs,
    /// unread under the conservative policy.
    per_token_bytes: f64,
    block_bytes: f64,
    pub(crate) slab: RequestSlab,
    pub(crate) retry_queue: EventQueue<Retry>,
    pub(crate) guard: RetryStormGuard,
    pub(crate) stats: KernelStats,
    pub(crate) records: Vec<RequestRecord>,
    pub(crate) retries: u64,
    pub(crate) aborted: usize,
    /// Requests shed: at the front door or past a queue deadline.
    pub(crate) rejected: usize,
    pub(crate) spills: u64,
    /// Per-tier outcomes and deadlines (autoscale runs only).
    pub(crate) tiers: Option<TierBook>,
    pub(crate) sink: &'a mut TraceSink,
}

impl<'a> Run<'a> {
    /// A fresh run over `requests` dense request ids.
    pub(crate) fn new(
        serving: &'a ServingConfig,
        spill: SpillPenalty,
        retry: RetryBudget,
        requests: usize,
        sink: &'a mut TraceSink,
    ) -> Self {
        let per_token_bytes = kv::kv_bytes_per_sequence(&serving.model, 1, serving.dtype);
        #[allow(clippy::cast_precision_loss)]
        let block_bytes = per_token_bytes * serving.kv.block_tokens as f64;
        Run {
            serving,
            spill,
            per_token_bytes,
            block_bytes,
            slab: RequestSlab::new(requests),
            retry_queue: EventQueue::new(),
            guard: RetryStormGuard::new(retry),
            stats: KernelStats::default(),
            records: Vec::with_capacity(requests),
            retries: 0,
            aborted: 0,
            rejected: 0,
            spills: 0,
            tiers: None,
            sink,
        }
    }

    /// Close request `id`'s open span as `kind` at `t`; its chain goes
    /// on from `t`.
    pub(crate) fn chain(&mut self, id: u64, kind: SpanKind, t: f64) {
        if self.sink.is_enabled() {
            if let Some(c) = self.slab.cursor(id) {
                self.sink.span(Scope::Request(id), kind, c, t);
                self.slab.set_cursor(id, t);
            }
        }
    }

    /// Close request `id`'s open span as `kind` at `t`, ending its chain.
    fn end_chain(&mut self, id: u64, kind: SpanKind, t: f64) {
        if self.sink.is_enabled() {
            if let Some(c) = self.slab.take_cursor(id) {
                self.sink.span(Scope::Request(id), kind, c, t);
            }
        }
    }

    /// Node `i` spends `dur_s` of busy time on request `id`: one `kind`
    /// span on each timeline.
    fn work(&mut self, n: &mut NodeState, i: usize, id: u64, kind: SpanKind, dur_s: f64) {
        let t0 = n.now;
        n.now += dur_s;
        self.sink.span(node_scope(i), kind, t0, n.now);
        self.chain(id, kind, n.now);
    }

    /// Apply every fault on `n`'s schedule that has fired by its clock,
    /// oldest first. Every outage — stall, crash, or the
    /// attestation-failure re-handshake toll — is clamped at the horizon:
    /// the run stops charging unavailable time past the last instant the
    /// trace could demand service. Hard faults are error samples for the
    /// node's breaker; gray ones are invisible to it (that is what makes
    /// them gray).
    pub(crate) fn apply_due_faults(&mut self, n: &mut NodeState, i: usize) {
        let horizon_s = self.serving.duration_s;
        while let Some(&ev) = n.plan.events.get(n.next_event).filter(|e| e.at_s <= n.now) {
            n.next_event += 1;
            self.stats.faults_applied += 1;
            let clamp = |d: f64| d.min((horizon_s - ev.at_s).max(0.0));
            let label = ev.kind.label();
            if ev.kind.is_gray() {
                // No downtime, no state loss, no outage span: only the
                // matching horizon-clamped window on the node.
                let until = ev.at_s + clamp(ev.outage_s);
                match ev.kind {
                    FaultKind::DegradedThroughput => n.derate_until_s = n.derate_until_s.max(until),
                    FaultKind::StuckDrain => n.stuck_until_s = n.stuck_until_s.max(until),
                    _ => unreachable!("is_gray covers exactly the two gray kinds"),
                }
                self.sink
                    .event_fmt(node_scope(i), "gray", n.now, || label.to_string());
                continue;
            }
            n.breaker.record_error(n.now);
            n.note_breaker(i, self.sink, n.now);
            if ev.kind == FaultKind::AttestationFailure {
                // The quote was rejected: re-attest while unavailable.
                n.reattest(i, clamp(n.plan.policy.reattest_s), label, self.sink);
                continue;
            }
            let outage_s = clamp(ev.outage_s);
            if ev.kind.loses_state() {
                self.evict(n, i, ev.at_s + outage_s);
            }
            n.outage(i, outage_s, label, self.sink);
        }
    }

    /// Evict node `i`'s running batch. Each victim spends an attempt; the
    /// retry guard either re-queues it — eligible again after
    /// `eligible_from_s` plus exponential backoff — or aborts it.
    fn evict(&mut self, n: &mut NodeState, i: usize, eligible_from_s: f64) {
        for victim in n.scheduler.drain_running() {
            let id = victim.request.id;
            let a = self.slab.bump_attempts(id);
            if self.guard.admit_retry(n.now, a - 1) {
                self.retries += 1;
                self.chain(id, SpanKind::DecodeLost, n.now);
                self.sink
                    .event_fmt(Scope::Request(id), "requeue", n.now, || {
                        format!("attempt {a}")
                    });
                self.retry_queue.push_keyed(
                    eligible_from_s + n.plan.policy.backoff_s(a),
                    id,
                    Retry {
                        request: victim.request,
                        origin: i,
                    },
                );
            } else {
                self.aborted += 1;
                if let Some(tiers) = &mut self.tiers {
                    tiers.tally(id).aborted += 1;
                }
                self.end_chain(id, SpanKind::DecodeLost, n.now);
                self.sink
                    .event(Scope::Request(id), "abort", n.now, String::new());
            }
        }
    }

    /// Shed `id` at `t`: at the front door (`"reject"`) or out of a
    /// queue past its deadline (`"shed"`).
    pub(crate) fn reject(&mut self, id: u64, t: f64, why: &'static str) {
        self.rejected += 1;
        self.stats.rejections += 1;
        if let Some(tiers) = &mut self.tiers {
            tiers.tally(id).shed += 1;
        }
        self.sink.event(Scope::Request(id), why, t, String::new());
    }

    /// Shed requests queued on `n` past their deadline: their tier's
    /// staleness deadline when the run has tiers, else the fleet-wide
    /// `deadline_s` (nothing when it is infinite).
    fn shed_stale(&mut self, n: &mut NodeState, deadline_s: f64) {
        if self.tiers.is_none() && !deadline_s.is_finite() {
            return;
        }
        let now = n.now;
        let tiers = self.tiers.as_ref();
        let dropped = n
            .scheduler
            .shed(|r| now - r.arrival_s > tiers.map_or(deadline_s, |t| t.deadline_s(r.id)));
        for r in &dropped {
            self.end_chain(r.id, SpanKind::QueueWait, now);
            self.reject(r.id, now, "shed");
        }
    }

    /// One batching iteration on node `i`: admit (a retried victim
    /// re-attests first; a spilled one also pays re-quantisation and a
    /// slower prefill; a swapped-out sequence resumes after a swap-in
    /// stall instead of a prefill), make the step fit the page pool,
    /// take one decode step for the whole batch, then record completions
    /// — each one a breaker success, and the half-open probe's success
    /// pays the re-attestation that closes the breaker.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn step_node(&mut self, n: &mut NodeState, i: usize) {
        let cfg = self.serving;
        for adm in n.scheduler.admit_any(&cfg.model, cfg.dtype, n.now) {
            match adm {
                Admission::Fresh(r) => {
                    self.stats.admissions += 1;
                    self.chain(r.id, SpanKind::QueueWait, n.now);
                    if self.slab.attempts(r.id) > 0 {
                        self.work(n, i, r.id, SpanKind::Reattest, n.plan.policy.reattest_s);
                    }
                    let mut t_prefill = n.node.prefill_time_s(cfg, r.prompt_tokens);
                    if self.slab.take_spilled(r.id) {
                        self.work(n, i, r.id, SpanKind::Requant, self.spill.requant_s);
                        t_prefill *= self.spill.prefill_factor;
                    }
                    self.work(n, i, r.id, SpanKind::Prefill, t_prefill);
                    n.scheduler.start(r, n.now);
                }
                Admission::Resumed {
                    request,
                    swap_in_tokens,
                } => {
                    self.stats.swap_ins += 1;
                    #[allow(clippy::cast_precision_loss)]
                    let bytes = swap_in_tokens as f64 * self.per_token_bytes;
                    n.swap_in_bytes += bytes;
                    self.chain(request.id, SpanKind::Preempted, n.now);
                    let swap_s = n.node.kv_swap_time_s(bytes);
                    self.work(n, i, request.id, SpanKind::SwapIn, swap_s);
                }
            }
        }

        if n.scheduler.running().is_empty() {
            return;
        }

        // Make the coming step fit the page pool: evictions come off the
        // batch tail (recompute re-queues at the queue front; swap
        // victims page out through the node's priced path).
        let prep = n.scheduler.prepare_step(n.now);
        for victim in &prep.preempted_recompute {
            self.stats.preemptions += 1;
            n.preemptions += 1;
            self.chain(victim.id, SpanKind::DecodeLost, n.now);
        }
        for victim in &prep.preempted_swap {
            self.stats.preemptions += 1;
            self.stats.swap_outs += 1;
            n.preemptions += 1;
            #[allow(clippy::cast_precision_loss)]
            let bytes = victim.context() as f64 * self.per_token_bytes;
            n.swap_out_bytes += bytes;
            self.chain(victim.request.id, SpanKind::Decode, n.now);
            let swap_s = n.node.kv_swap_time_s(bytes);
            self.work(n, i, victim.request.id, SpanKind::SwapOut, swap_s);
        }

        // One decode iteration for the whole running batch at its mean
        // context length. Resident KV past the node's protected budget
        // pays the per-step paging/bounce stall; a step that begins
        // inside a gray DegradedThroughput window runs derated (the node
        // is up and routable, just slow).
        let running = n.scheduler.running();
        let batch = running.len() as u64;
        let context: u64 = running.iter().map(ActiveRequest::context).sum();
        #[allow(clippy::cast_precision_loss)]
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let mean_context = (context as f64 / batch as f64).round() as u64;
        let t0 = n.now;
        let mut t_step = n.node.decode_step_time_s(cfg, batch, mean_context);
        if prep.resident_pages > 0 {
            #[allow(clippy::cast_precision_loss)]
            let excess = prep.resident_pages as f64 * self.block_bytes - n.kv_budget_bytes;
            if excess > 0.0 {
                t_step += n.node.kv_pressure_stall_s(excess);
            }
        }
        if n.now < n.derate_until_s {
            t_step *= crate::faults::DEGRADED_THROUGHPUT_FACTOR;
        }
        n.now += t_step;
        self.stats.decode_steps += 1;
        self.sink.span(node_scope(i), SpanKind::Decode, t0, n.now);

        for fin in n.scheduler.step() {
            let id = fin.request.id;
            let ttft = fin.first_token_s - fin.request.arrival_s;
            let decode_span = n.now - fin.first_token_s;
            #[allow(clippy::cast_precision_loss)]
            let tpot = decode_span / (fin.request.output_tokens.saturating_sub(1).max(1)) as f64;
            n.useful_tokens += fin.request.output_tokens;
            n.completed += 1;
            self.stats.completions += 1;
            if let Some(tiers) = &mut self.tiers {
                tiers.complete(id, ttft, tpot);
            }
            self.end_chain(id, SpanKind::Decode, n.now);
            self.records.push(RequestRecord {
                id,
                ttft_s: ttft,
                tpot_s: tpot,
                e2e_s: n.now - fin.request.arrival_s,
                retries: self.slab.attempts(id),
            });
            if n.breaker.record_success() {
                n.reattest(i, n.plan.policy.reattest_s, "breaker-close", self.sink);
                n.note_breaker(i, self.sink, n.now);
            }
        }
    }
}

/// The least-loaded node taking new work at `t` — eligible, queue under
/// `queue_cap`, breaker letting traffic through (asking may move an
/// open breaker whose cooloff elapsed to half-open) — ties to the lower
/// id. Every breaker's position is traced.
fn route(nodes: &mut [NodeState], t: f64, queue_cap: usize, sink: &mut TraceSink) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, n) in nodes.iter_mut().enumerate() {
        if n.eligible(t) && n.scheduler.queued() < queue_cap && n.breaker.accepts(t) {
            best = Some(best.map_or((n.depth(), i), |b| b.min((n.depth(), i))));
        }
        n.note_breaker(i, sink, t);
    }
    best.map(|(_, i)| i)
}

/// The least-loaded node the router may consider at `t`, past breakers
/// and caps, ties to the lower id.
pub(crate) fn least_loaded(nodes: &[NodeState], t: f64) -> Option<usize> {
    nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.eligible(t))
        .min_by_key(|&(i, n)| (n.depth(), i))
        .map(|(i, _)| i)
}

/// Run the fleet loop until every arrival and retry has drained. Fresh
/// arrivals no node accepts (or the `scaler` refuses) are rejected;
/// queued requests past their deadline are shed. Retries are always
/// placeable: with `failover` they fall back to the least-loaded node
/// past breakers and caps, without it they return to their origin.
pub(crate) fn run_fleet(
    run: &mut Run<'_>,
    nodes: &mut Vec<NodeState>,
    mut pending: VecDeque<Request>,
    admission: AdmissionPolicy,
    failover: bool,
    mut scaler: Option<&mut Scaler<'_>>,
) {
    loop {
        // The globally next dispatchable item: arrivals win ties over
        // retries; retries order by (eligibility, id).
        let t_arrival = pending.front().map(|r| r.arrival_s);
        let next_retry = run.retry_queue.peek_time();
        let t_dispatch = match (t_arrival, next_retry) {
            (Some(a), Some(r)) => Some(a.min(r)),
            (a, r) => a.or(r),
        };

        // The runnable node with the smallest clock (id breaks ties).
        let runnable = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.retired() && !n.scheduler.idle())
            .min_by(|(i, a), (j, b)| {
                a.now
                    .partial_cmp(&b.now)
                    // infallible: sim clocks are sums of finite step times; the non-finite invariant would trip first
                    .expect("finite clocks")
                    .then(i.cmp(j))
            })
            .map(|(i, n)| (i, n.now));

        let do_dispatch = match (t_dispatch, runnable) {
            (None, None) => break,
            (Some(t), Some((_, node_now))) => t <= node_now,
            (t, _) => t.is_some(),
        };

        if do_dispatch {
            let arrival_first = match (t_arrival, next_retry) {
                (Some(a), Some(r)) => a <= r,
                (a, _) => a.is_some(),
            };
            if arrival_first {
                let mut r = pending.pop_front().expect("arrival checked");
                run.stats.arrivals += 1;
                let t = r.arrival_s;
                if let Some(s) = scaler.as_deref_mut() {
                    if !s.admit(&mut r, nodes, run) {
                        run.reject(r.id, t, "reject");
                        continue;
                    }
                }
                match route(nodes, t, admission.queue_cap, run.sink) {
                    Some(i) => {
                        if run.sink.is_enabled() {
                            run.slab.set_cursor(r.id, t);
                        }
                        run.sink
                            .event_fmt(node_scope(i), "route", t, || format!("req {}", r.id));
                        place(&mut nodes[i], i, r, t, run.sink);
                    }
                    None => run.reject(r.id, t, "reject"),
                }
            } else {
                let (t, e) = run.retry_queue.pop().expect("retry checked");
                run.stats.retries_delivered += 1;
                let target = if failover {
                    route(nodes, t, admission.queue_cap, run.sink)
                        .or_else(|| least_loaded(nodes, t))
                        // infallible: fixed nodes and the base fleet never drain, so an eligible node always exists
                        .expect("a never-draining node is eligible")
                } else {
                    e.origin
                };
                let id = e.request.id;
                let origin_gpu = nodes[e.origin].is_gpu();
                if nodes[target].is_gpu() != origin_gpu {
                    run.spills += 1;
                    run.slab.mark_spilled(id);
                    let dir = if origin_gpu { "cgpu->cpu" } else { "cpu->cgpu" };
                    run.sink
                        .event_fmt(node_scope(target), "spill", t, || format!("req {id} {dir}"));
                }
                run.chain(id, SpanKind::Backoff, t);
                run.sink.event_fmt(node_scope(target), "failover", t, || {
                    format!("req {id} from node {}", e.origin)
                });
                place(&mut nodes[target], target, e.request, t, run.sink);
            }
            continue;
        }

        // Advance the chosen node by one batching iteration.
        // infallible: the advance branch is only taken when `runnable` is Some
        let (i, _) = runnable.expect("advance branch requires a runnable node");
        let n = &mut nodes[i];
        run.apply_due_faults(n, i);
        if let Some(deadline_s) = n.drain_deadline_s {
            // Out of grace: force-drain the running batch to the retry
            // path (bounded by the guard like any crash victim).
            if n.now >= deadline_s && !n.scheduler.running().is_empty() {
                let now = n.now;
                run.evict(n, i, now);
            }
            if n.scheduler.idle() {
                // A gray StuckDrain window wedges the scale-down: the
                // node bills until the window clears or its
                // horizon-clamped deadline, whichever is first.
                n.retired_at_s = Some(drain_retire_time(n.now, n.stuck_until_s, deadline_s));
                continue;
            }
        }
        run.shed_stale(n, admission.deadline_s);
        run.step_node(n, i);
    }

    // Pad every node's timeline with trailing idle out to the fleet
    // makespan, so per-node accounting sums to the same makespan the
    // report publishes (a drained or retired node really is idle).
    if run.sink.is_enabled() {
        let makespan_s = nodes.iter().map(|n| n.now).fold(0.0f64, f64::max);
        for (i, n) in nodes.iter().enumerate() {
            run.sink
                .span(node_scope(i), SpanKind::Idle, n.now, makespan_s);
        }
    }
}
