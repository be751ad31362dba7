//! Discrete-event serving simulator for confidential LLM deployments.
//!
//! The paper reports *offline* throughput and latency; production
//! deployments care about *online*, user-perceived service levels under
//! load — the 200 ms/word reading-speed standard the paper cites is a
//! per-user bound — and about what a TEE pays beyond steady state:
//! attestation, weight unseal and recovery. This crate prices both with
//! a continuous-batching serving simulator in the style of
//! vLLM/DeepSpeed-Inference schedulers.
//!
//! # One node step, one fault path, one fleet loop
//!
//! * [`fleet`] — the per-node iteration every driver runs: admit →
//!   re-attest, requant and prefill, or swap-in → page-pressure prep →
//!   one decode step priced by the calibrated `cllm-perf` roofline (so
//!   every TEE mechanism — memory encryption, hugepage fallback, TD
//!   transitions, EPC paging — shapes the tail) → completions and
//!   breaker close. Beside it sit the one fault path (horizon-clamped
//!   outages; crash victims re-queue through one retry guard) and the
//!   one fleet loop that advances node-local clocks behind a
//!   least-loaded router.
//! * [`sim`] — a single node. It keeps its own outer loop, whose event
//!   order the goldens pin, around the shared node step and fault path.
//! * [`cluster`] — a fixed fleet: heterogeneous nodes, all ready at t=0,
//!   behind the failover router, surviving correlated preemption waves,
//!   with cross-platform spills priced via `cllm-cost`.
//! * [`autoscale`] — the same fleet loop plus a controller: flash-crowd
//!   traffic from `cllm_workload::trace`, scale-ups that pay the real
//!   attested handshake plus weight unseal before joining routing (or a
//!   pre-attested warm pool at carrying cost), graceful drains, tiered
//!   shedding, brownout, and a retry budget with a storm circuit.
//!
//! # Building blocks
//!
//! * [`kernel`] — the deterministic event queue, the per-request slab
//!   and the event counters behind the events/sec benchmarks.
//! * [`workload`] — seeded Poisson arrivals.
//! * [`scheduler`] — continuous batching under a batch cap and a KV
//!   budget, with conservative or paged KV ([`scheduler::KvPolicy`]).
//! * [`faults`] — seeded TEE-specific failures and recovery policy.
//! * [`router`] — admission bounds, circuit breakers whose close pays a
//!   real attested re-handshake, tiered admission, retry budgets and
//!   brownout.
//! * [`slo`] — TTFT/TPOT percentiles and SLO attainment.
//! * [`invariants`] — one registry of every correctness invariant,
//!   shared by debug asserts, property tests, the CLI and `cllm-chaos`.
//!
//! Every driver has a traced twin (`simulate_serving_traced`,
//! `simulate_cluster_traced`, `simulate_autoscale_traced`) that returns
//! the same report plus a [`cllm_obs::Trace`]: per-node spans tile the
//! makespan (`busy + idle + outage`) and per-request chains sum to each
//! end-to-end latency. Tracing only reads the simulated clock.
//!
//! # Example
//!
//! ```
//! use cllm_serve::sim::{simulate_serving, ServingConfig};
//! use cllm_tee::platform::CpuTeeConfig;
//!
//! let cfg = ServingConfig::small_test();
//! let report = simulate_serving(&cfg, &CpuTeeConfig::tdx());
//! assert!(report.completed > 0);
//! assert!(report.tpot_p50_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod cluster;
pub mod faults;
pub mod fleet;
pub mod invariants;
pub mod kernel;
#[doc(hidden)]
pub mod legacy;
pub mod router;
pub mod scheduler;
pub mod sim;
pub mod slo;
pub mod workload;
