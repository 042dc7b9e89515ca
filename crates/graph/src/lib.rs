//! # lhcds-graph
//!
//! Compact undirected-graph substrate used by every other crate in the
//! `lhcds` workspace.
//!
//! The central type is [`CsrGraph`], an immutable compressed-sparse-row
//! adjacency structure with sorted neighbor lists (so adjacency tests are
//! `O(log deg)` and neighborhood intersections are linear merges). Graphs
//! are constructed through [`GraphBuilder`], which normalizes input
//! (drops self-loops, deduplicates parallel edges) so the rest of the
//! workspace can assume a simple graph — the setting of the LhCDS paper.
//!
//! Additional modules provide the graph-level machinery the IPPV pipeline
//! and the experiment harness need:
//!
//! * [`traversal`] — BFS, connected components, connectivity checks
//!   restricted to vertex subsets (LhCDSes must be connected).
//! * [`core_decomp`] — classic edge k-core decomposition and degeneracy
//!   orders (the backbone of kClist-style clique enumeration).
//! * [`properties`] — edge density, diameter, clustering coefficients
//!   (quality measures of §6.4/§6.5 of the paper).
//! * [`io`] — whitespace-separated edge-list reading/writing (SNAP
//!   format).
//! * [`stream`] — bulk construction from raw edge streams with
//!   arbitrary (non-contiguous, 64-bit) external ids remapped to
//!   compact ranks; the substrate of `lhcds-data`'s real-dataset
//!   ingest path.
//!
//! # Example
//!
//! ```
//! use lhcds_graph::{CsrGraph, GraphBuilder};
//!
//! // A triangle with a pendant vertex, built two ways.
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0).add_edge(2, 3);
//! let g = b.build();
//! assert_eq!(g, CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]));
//!
//! assert_eq!(g.n(), 4);
//! assert_eq!(g.m(), 4);
//! assert_eq!(g.neighbors(2), &[0, 1, 3]);
//! assert!(g.has_edge(0, 2) && !g.has_edge(0, 3));
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod core_decomp;
pub mod csr;
pub mod error;
pub mod io;
pub mod properties;
pub mod stream;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use stream::RemappedGraph;
pub use subgraph::InducedSubgraph;

/// Vertex identifier. `u32` keeps hot structures (clique stores, flow
/// arcs) small; graphs with more than 4 billion vertices are out of scope.
pub type VertexId = u32;
