//! The four workloads. Each runs in a process of its own (`run.sh` starts
//! one per workload), so peak RSS and allocator state are the workload's.

pub mod join;
pub mod serve;
pub mod stream;

use crate::harness::RunArgs;
use crate::metrics::Report;

/// Runs the workload called `name`, or `None` if there is no such one.
pub fn run(name: &str, args: &RunArgs) -> Option<Report> {
    // The shipped default; stated, so a changed default cannot silently
    // change what the end-to-end numbers include.
    tsj_obs::configure(&tsj_obs::ObsConfig::ON);
    match name {
        "join_flat" => Some(join::run(&join::FLAT, args)),
        "join_bigtree" => Some(join::run(&join::BIGTREE, args)),
        "serve_tcp" => Some(serve::run(args)),
        "stream_window" => Some(stream::run(args)),
        _ => None,
    }
}
