#![warn(missing_docs)]

//! Workloads and experiments for the EFind reproduction (§5).
//!
//! One module per data set / application family from the paper's
//! evaluation, plus the hand-tuned H-zkNNJ comparator and the harness
//! that regenerates every figure:
//!
//! * [`log`] — the web-log top-k-URLs-per-region application with a
//!   remote geo-IP service (Fig. 11(a)).
//! * [`tpch`] — a self-contained TPC-H-shaped generator and the Q3/Q9
//!   index-nested-loop-join jobs, plus DUP10 variants
//!   (Fig. 11(b)–(e)).
//! * [`synthetic`] — the uniform-key join with a result-size sweep
//!   (Fig. 11(f)) and the lookup-latency microbenchmark (Fig. 12).
//! * [`osm`] — clustered 2-D points and the EFind kNN join (Fig. 13).
//! * [`zknnj`] — a from-scratch H-zkNNJ implementation (Zhang, Li,
//!   Jestes, EDBT 2012), the paper's hand-tuned baseline in Fig. 13.
//! * [`topics`] — the spatio-temporal tweet-topics pipeline of
//!   Example 2.1 with three operators (head, body, tail).
//! * [`multi`] — an ad-enrichment job whose single operator accesses
//!   three independent indices (§3.5's multi-index planning problem).
//! * [`text`] — document rarity scoring with an acronym dictionary and
//!   an inverted index (the text-analysis motivation of §1).
//! * [`scanjoin`] — the conventional scan-based reduce-side join, the
//!   comparator behind §1's "index joins win under high selectivity".
//! * [`harness`] — shared experiment plumbing: build a scenario, run the
//!   six standard configurations (Base/Cache/Repart/Idxloc/Optimized/
//!   Dynamic), report virtual seconds.

pub mod harness;
#[cfg(test)]
mod lending;
pub mod log;
pub mod multi;
pub mod osm;
pub mod scanjoin;
pub mod synthetic;
pub mod text;
pub mod topics;
pub mod tpch;
pub mod zknnj;
