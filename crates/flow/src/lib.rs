//! # lhcds-flow
//!
//! Exact max-flow / min-cut substrate for the LhCDS verification
//! algorithms.
//!
//! The paper's Figure 6 flow network carries one *rational* capacity
//! class, the sink arcs `ρ·h` with `ρ = |Ψh(S)|/|S| − 1/|V|²`; every
//! clique-gadget and degree arc is an integer. Exactness of the whole
//! pipeline (Theorem 7) hinges on deciding these min-cuts without
//! rounding, so:
//!
//! * [`rational::Ratio`] is a tiny exact rational on `i128` used to carry
//!   densities and thresholds around the pipeline, and
//! * [`dinic::Dinic`] runs on `i128` capacities; callers scale every
//!   capacity by a multiple of the threshold's denominator so flows are
//!   integers and min-cuts are exact.
//!
//! Both the *minimal* and the *maximal* source-side min-cut are exposed:
//! `DeriveCompact` needs the largest subgraph attaining the optimum
//! (Theorem 5), which is the maximal source side of a minimum cut.
//!
//! Because the verification stack re-solves the *same* network at a
//! ladder of thresholds (only the ρ-dependent capacities change),
//! [`parametric::ParametricNetwork`] retains the built network across
//! solves: capacity increases warm-start from the previous residual
//! flow, and capacity *decreases* keep it too, cancelling only the
//! infeasible excess along the flow's own paths (`Dinic::retract_arc`)
//! — the Gallo–Grigoriadis–Tarjan never-reset discipline. On top of
//! that, [`ggt::GgtSolver`] recovers the entire principal partition
//! (the LhCDS dense-decomposition ladder) by divide-and-conquer on one
//! shared network, and [`ggt::FlowReuse`] names the two reuse tiers
//! (`scratch | ggt`) the verification stack exposes for A/B.
//! [`stats::flow_stats`] exposes the process-wide work counters
//! (networks/arcs built, flow invocations, warm/retract/cold solves,
//! GGT recursion telemetry) that pin the reuse contracts in tests and
//! benchmarks.
//!
//! In the workspace DAG this crate sits directly above `lhcds-graph`
//! (as `lhcds-clique`'s sibling) and below `lhcds-core`, which builds
//! its verification networks on it and re-exports [`Ratio`] so higher
//! layers never depend on this crate directly.
//!
//! # Example
//!
//! ```
//! use lhcds_flow::{Dinic, Ratio};
//!
//! // s=0 → {1, 2} → t=3, one unit through each middle vertex.
//! let mut d = Dinic::new(4);
//! d.add_edge(0, 1, 1);
//! d.add_edge(0, 2, 1);
//! d.add_edge(1, 3, 1);
//! d.add_edge(2, 3, 1);
//! assert_eq!(d.max_flow(0, 3), 2);
//!
//! // exact rational densities: no rounding anywhere in the pipeline
//! let rho = Ratio::new(13, 6);
//! assert!(rho > Ratio::new(2, 1));
//! assert_eq!((rho - Ratio::new(1, 6)).to_string(), "2");
//! ```

#![warn(missing_docs)]

pub mod dinic;
pub mod ggt;
pub mod parametric;
pub mod rational;
pub mod stats;

pub use dinic::Dinic;
pub use ggt::{FlowReuse, GgtSolver};
pub use parametric::{ParametricNetwork, SolveMode};
pub use rational::Ratio;
pub use stats::{flow_stats, max_flow_invocations, FlowStats};
