//! The seven workloads: name, why it exists, and how to run it.

pub mod ooc;
pub mod paired;
pub mod script;
pub mod serve;
pub mod train;

use crate::harness::{Report, RunCfg};

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PK-FK, TR = 20, FR = 4: deep inside the factorized win region.
    PkfkHi,
    /// PK-FK, TR = 2, FR = 0.5: the paper's slow-down region.
    PkfkLo,
    /// Simulated-real sparse star schema (`Movies`).
    StarSparse,
    /// Two-table M:N join, uniqueness degree 0.1.
    MnJoin,
    /// One R-like script on a large and a tiny table.
    Script,
    /// A resident `ScoringService` under three closed-loop phases.
    Serve,
    /// A join output several times the resident chunk budget.
    Ooc,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 7] = [
        Workload::PkfkHi,
        Workload::PkfkLo,
        Workload::StarSparse,
        Workload::MnJoin,
        Workload::Script,
        Workload::Serve,
        Workload::Ooc,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PkfkHi => "pkfk_hi",
            Workload::PkfkLo => "pkfk_lo",
            Workload::StarSparse => "star_sparse",
            Workload::MnJoin => "mn_join",
            Workload::Script => "script",
            Workload::Serve => "serve",
            Workload::Ooc => "ooc",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PkfkHi => {
                "PK-FK at TR=20 FR=4, deep in the factorized win region: time is in rewrite rules, small per-part GEMMs and indicator gathers/scatters, so an F-route optimisation must show here"
            }
            Workload::PkfkLo => {
                "PK-FK at TR=2 FR=0.5, the paper's slow-down region: the right plan is to materialize, so planner verdicts and tall-skinny dense kernels show here and F-route work predicts no change"
            }
            Workload::StarSparse => {
                "simulated-real sparse star schema (Movies): the only training workload where the sparse kernels do most of the work and dense GEMM little"
            }
            Workload::MnJoin => {
                "M:N join at uniqueness degree 0.1: every part carries a non-identity indicator, so each rewrite takes the M:N form and a PK-FK-only fast path that costs M:N shows"
            }
            Workload::Script => {
                "script in, model out through parser, script planner, plan cache and kernels: a large table where kernels dominate and a tiny one where lang and fixed per-script cost dominate"
            }
            Workload::Serve => {
                "resident ScoringService, one closed-loop client: depth-256 point traffic (micro-batching), depth-1 round trips (the coalescing window) and 4096-row bulk requests (coalescing bypassed)"
            }
            Workload::Ooc => {
                "join output about 5x the resident chunk budget: the only workload with spill writes, mmap fault-in, prefetch and the chunked planner on the path"
            }
        }
    }

    /// Runs the workload in this process.
    pub fn run(self, cfg: &RunCfg) -> Report {
        match self {
            Workload::PkfkHi | Workload::PkfkLo | Workload::StarSparse | Workload::MnJoin => {
                train::run(self, cfg)
            }
            Workload::Script => script::run(cfg),
            Workload::Serve => serve::run(cfg),
            Workload::Ooc => ooc::run(cfg),
        }
    }
}
