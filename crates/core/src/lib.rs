//! # rdfmesh-core — distributed SPARQL query processing
//!
//! The paper's primary contribution: resolving SPARQL queries over the
//! hybrid P2P overlay. Implements the Fig. 3 workflow (parse → transform
//! → global optimization → sub-query shipping → local execution →
//! post-processing) with the full strategy space of Sect. IV:
//!
//! * primitive queries — basic fan-out, chained in-network merging, and
//!   frequency-ordered chains (Sect. IV-C);
//! * conjunctive patterns — frequency-driven join ordering and
//!   overlap-aware site selection (Sect. IV-D);
//! * optional patterns via move-small left outer joins (Sect. IV-E);
//! * union patterns evaluated in parallel with shared-node assembly
//!   (Sect. IV-F);
//! * filter patterns with source-side filter pushing (Sect. IV-G);
//! * move-small / query-site / third-site join site selection (Sect. II).

#![warn(missing_docs)]

pub mod admission;
pub mod config;
pub mod engine;
pub mod exec;
pub mod live;
pub mod live_backend;
pub mod live_wire;
pub mod node;
pub mod planner;
mod provider;
pub mod sim_backend;
pub mod stats;
pub mod system;

pub use admission::{Admission, AdmissionLoad, Permit};
pub use config::{
    DistChoice, DistStrategy, ExecConfig, JoinSiteStrategy, LiveConfig, PrimitiveStrategy,
};
pub use engine::{global_store, Engine, EngineError, Execution, FrequencyEstimator};
pub use exec::{ExecNode, ExecPlan, Mat, MeshBackend, OpKind, PrimitiveOp};
pub use rdfmesh_cache::{CacheConfig, CacheStats, QueryCache};
pub use rdfmesh_net::FaultPlan;
pub use live::{
    LiveAnswer, LiveMesh, LiveMsg, QueryId, RoundClient, RoundHandle, Transport, COORDINATOR,
};
pub use live_backend::{LiveBackend, LiveError, LiveExecution, SolutionRounds};
pub use node::MeshNode;
pub use planner::{compile, estimate_primitive, plan, CostEstimate, Plan, PlanObjective};
pub use sim_backend::SimBackend;
pub use stats::{LiveStats, LiveStatsSnapshot, QueryStats};
pub use system::{SharingSystem, SystemBuilder};
