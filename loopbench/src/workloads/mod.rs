//! The six workloads. Names are fixed; later issues cite them.

pub mod bio;
pub mod bulk;
pub mod chain;
pub mod mesh;
pub mod star;

use crate::run::{Config, Recorder, Workload};

/// Build and warm the named workload (the time this takes is `setup_s`).
pub fn build(name: &str, cfg: &Config, rec: &mut Recorder) -> Box<dyn Workload> {
    match name {
        "steady-chain" => Box::new(chain::Chain::setup(
            cfg,
            rec,
            name,
            cfg.scaled(20_000, 200),
            false,
        )),
        "wire-chain" => Box::new(chain::Chain::setup(
            cfg,
            rec,
            name,
            cfg.scaled(2_000, 100),
            true,
        )),
        "bulk-durable" => Box::new(bulk::Bulk::setup(cfg, rec, name)),
        "bio-join" => Box::new(bio::Bio::setup(cfg, rec, name)),
        "conflict-star" => Box::new(star::Star::setup(cfg, rec, name)),
        "mesh-converge" => Box::new(mesh::Mesh::setup(cfg, rec, name)),
        other => unreachable!("`{other}` passed argument parsing"),
    }
}
