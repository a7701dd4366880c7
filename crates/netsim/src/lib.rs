//! # routesync-netsim — a packet-level network simulator
//!
//! Section 2 of Floyd & Jacobson is measurement: synchronized IGRP updates
//! at NEARnet's core routers caused 90-second-periodic ping drops between
//! Berkeley and MIT (Figures 1-2), and synchronized RIP updates caused
//! 30-second-periodic audio outages on the MBone (Figure 3). Those
//! experiments ran on the 1992 Internet; this crate rebuilds the mechanism
//! so the figures can be regenerated on a laptop:
//!
//! * [`topology`] — nodes (hosts/routers), point-to-point links and
//!   broadcast LANs, with propagation delay, bandwidth, and finite
//!   drop-tail queues.
//! * [`dv`] — a real distance-vector routing protocol (periodic full-table
//!   updates, split horizon with poisoned reverse, triggered updates,
//!   route timeout and garbage collection, infinity metric) with presets
//!   for RIP (30 s), IGRP (90 s), DECnet DNA IV (120 s), and EGP (180 s).
//! * [`router`] — one router's control plane as a state machine with no
//!   I/O: the table, the jittered timer, the CPU busy period and the
//!   paper's timer-reset rule. [`NetSim`] drives it with desim events;
//!   `routesync-live` drives the same code over UDP.
//! * [`sim`] — the event-driven simulator, including the crucial **router
//!   CPU model**: processing a routing update costs
//!   `cost_per_route × routes` of control-CPU time, and in
//!   [`sim::ForwardingMode::BlockedDuringUpdates`] the router cannot
//!   forward data packets while that processing runs — the pre-fix cisco
//!   behaviour that turned synchronized updates into packet loss. The
//!   post-fix behaviour ([`sim::ForwardingMode::Concurrent`]) is one enum
//!   variant away, which is exactly the ablation the NEARnet operators
//!   performed in 1992.
//! * [`app`] — measurement applications: a `ping` sender (1.01-second
//!   intervals, like the paper's probes), a constant-bit-rate audio
//!   source/sink pair, and a Poisson background-traffic generator.
//! * [`faults`] — deterministic fault injection: a declarative
//!   [`FaultPlan`] of scheduled link/router outages, stochastic flapping
//!   (exponential MTBF/MTTR), per-link loss/reordering, and per-router
//!   CPU slowdowns, all driven by dedicated seeded RNG streams so
//!   `(seed, plan)` reproduces a run byte-for-byte.
//! * [`wire`] — the versioned, checksummed datagram codec that carries
//!   [`dv`] advertisements over real UDP sockets in `routesync-live`,
//!   rejecting truncated/corrupted/foreign frames loudly.
//! * [`scenario`] — canned topologies behind one typed builder:
//!   [`ScenarioSpec::nearnet`] for Figures 1-2,
//!   [`ScenarioSpec::mbone_audiocast`] for Figure 3,
//!   [`ScenarioSpec::lan`] (N routers on one segment) to validate the
//!   packet simulator against the abstract Periodic Messages model, and
//!   [`ScenarioSpec::hierarchical`] (backbone + totally-stubby edge
//!   areas) to push the Fig 15 N-transition to 100 000+ routers.
//! * [`area`] — the hierarchical area model behind that scaling:
//!   contiguous-id areas, aggregate routes, and originated defaults (see
//!   `docs/SCALING.md`).
//!
//! The protocol timers use the same [`routesync_rng::JitterPolicy`] /
//! [`routesync_rng::TimerResetPolicy`] knobs as the abstract model, so
//! every claim in the paper can be tested at both levels of abstraction.

//! ## Example
//!
//! ```
//! use routesync_desim::{Duration, SimTime};
//! use routesync_netsim::{DvConfig, NetSim, RouterConfig, Topology};
//!
//! // host — router — router — host, RIP running between the routers.
//! let mut t = Topology::new();
//! let a = t.add_host("a");
//! let b = t.add_host("b");
//! let r0 = t.add_router("r0");
//! let r1 = t.add_router("r1");
//! t.add_link(a, r0, Duration::from_millis(1), 10_000_000, 50);
//! t.add_link(r0, r1, Duration::from_millis(10), 1_544_000, 50);
//! t.add_link(r1, b, Duration::from_millis(1), 10_000_000, 50);
//!
//! let mut sim = NetSim::new(t, RouterConfig::new(DvConfig::rip()), 7);
//! sim.add_ping(a, b, Duration::from_secs_f64(1.01), 5, SimTime::from_secs(1));
//! sim.run_until(SimTime::from_secs(30));
//! assert_eq!(sim.ping_stats(a).lost(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod area;
pub mod dv;
pub mod faults;
pub mod packet;
pub mod router;
pub mod scenario;
pub mod sim;
pub mod topology;
pub mod wire;

pub use app::{CbrReceiverStats, PingStats};
pub use area::{AreaLayout, AreaMode, AGG_BASE, DEFAULT_DST};
pub use dv::{DvConfig, HelloConfig, RouteEntry, RoutingTable};
pub use faults::{
    CpuSlowdown, FaultAction, FaultKind, FaultPlan, FaultRecord, LinkFlapProfile, LinkImpairment,
    RouterFlapProfile, ScheduledFault,
};
pub use packet::{Packet, Payload, RoutingUpdate};
pub use router::{Control, Emission, Env, Interfaces, Io, Output, Router};
pub use scenario::{Scenario, ScenarioSpec};
pub use sim::{Counters, ForwardingMode, NetSim, RouterConfig, TimerStart};
pub use topology::{
    Backing, CsrStorage, DenseStorage, LinkId, LinkRef, NodeId, NodeKind, Topology, TopologyStorage,
};
pub use wire::{Advertisement, WireError, WIRE_VERSION};
